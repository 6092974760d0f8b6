"""Whole-token decode schedule (Fig. 2C's per-layer breakdown).

Builds the sequence of dense segments for one decoded token:

    embedding fetch
    for each layer:
        attention (via :mod:`repro.core.pipeline`, fused or coarse)
        MLP: gate proj -> up proj -> down proj, with SiLU + elementwise
             multiply hidden under the up/down streams (fused) or
             serialized (coarse)
    final RMSNorm
    LM head projection

and reports per-segment cycles so the cycle model can sum them.  RMSNorms
are charged through the pipeline reports (attention) and the MLP segment
(post-attention norm); their square-sum pass rides the DOT engine, so in
fused mode only the normalization pass can ever be exposed — and it hides
under the next projection's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..config import ModelConfig, QuantConfig
from ..errors import ScheduleError
from .mcu import Mcu
from .pipeline import AttentionPipeline, MiscPlacement, Stage
from .spu import SpuModel
from .vpu import VpuSpec


@dataclass(frozen=True)
class Segment:
    """One schedulable chunk of the token's work."""

    name: str
    cycles: float
    transfer_bytes: float
    exposed_misc_cycles: float = 0.0


@dataclass
class TokenSchedule:
    """All segments of one decoded token."""

    mode: str
    context: int
    segments: list[Segment] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(s.cycles for s in self.segments)

    @property
    def total_transfer_bytes(self) -> float:
        return sum(s.transfer_bytes for s in self.segments)

    @property
    def exposed_misc_cycles(self) -> float:
        return sum(s.exposed_misc_cycles for s in self.segments)

    def segment(self, name: str) -> Segment:
        for s in self.segments:
            if s.name == name:
                return s
        raise ScheduleError(f"no segment named {name!r}")


@dataclass
class BatchSchedule:
    """All segments of one *batched* decode step.

    Weight-streaming segments appear once (the stream is shared by every
    sequence in the batch); attention KV segments appear per member, each
    at that sequence's own context.  ``contexts[i]`` is the number of
    cached tokens of batch member ``i``.
    """

    mode: str
    contexts: tuple[int, ...]
    segments: list[Segment] = field(default_factory=list)

    @property
    def batch(self) -> int:
        return len(self.contexts)

    @property
    def total_cycles(self) -> float:
        return sum(s.cycles for s in self.segments)

    @property
    def total_transfer_bytes(self) -> float:
        return sum(s.transfer_bytes for s in self.segments)

    @property
    def exposed_misc_cycles(self) -> float:
        return sum(s.exposed_misc_cycles for s in self.segments)

    def segment(self, name: str) -> Segment:
        for s in self.segments:
            if s.name == name:
                return s
        raise ScheduleError(f"no segment named {name!r}")


class TokenScheduler:
    """Builds :class:`TokenSchedule` objects for decode steps.

    ``tp > 1`` schedules ONE shard of a tensor-parallel group
    (Megatron-style): Q/K/V, gate and up are column-parallel (heads and
    intermediate channels divided across shards), O and down are
    row-parallel (their input dimension divided), and the LM head is
    split over vocabulary rows.  Norm weights and the embedding row are
    replicated, so only ``1/tp`` of the streamed weights — but the full
    misc/norm work — lands on each shard.  Interconnect time for the
    partial-sum reductions is charged separately by
    :mod:`repro.cluster.interconnect`.
    """

    def __init__(self, model: ModelConfig, quant: QuantConfig,
                 mcu: Mcu | None = None, vpu: VpuSpec | None = None,
                 spu: SpuModel | None = None, tp: int = 1) -> None:
        if tp < 1:
            raise ScheduleError(f"tensor-parallel degree must be >= 1: {tp}")
        if tp > 1 and (model.num_heads % tp or model.kv_heads % tp
                       or model.hidden_size % tp
                       or model.intermediate_size % tp
                       or model.vocab_size % tp):
            raise ScheduleError(
                f"{model.name}: heads {model.num_heads}/{model.kv_heads}, "
                f"hidden {model.hidden_size}, intermediate "
                f"{model.intermediate_size} and vocab {model.vocab_size} "
                f"must all divide tp={tp}")
        self.model = model
        self.quant = quant
        self.tp = tp
        self.mcu = mcu if mcu is not None else Mcu()
        self.vpu = vpu if vpu is not None else VpuSpec()
        self.spu = spu if spu is not None else SpuModel()
        self.pipeline = AttentionPipeline(model, quant, self.mcu, self.vpu,
                                          self.spu, tp=tp)

    # -- helpers ---------------------------------------------------------------

    def _tiles(self, length: int) -> int:
        return -(-length // self.vpu.lanes)

    def _proj_segment(self, name: str, out_rows: int, in_cols: int,
                      hidden_misc: float = 0.0, mode: str = "fused",
                      batch: int = 1) -> Segment:
        """Weight-streamed projection: the stream is charged once, the
        per-token compute and hidden misc once per batch member."""
        n_bytes = out_rows * in_cols * self.quant.effective_weight_bits / 8
        transfer = self.mcu.stream_transfer(n_bytes).cycles
        compute = batch * out_rows * self._tiles(in_cols)
        dense = max(transfer, compute)
        misc = batch * hidden_misc
        if mode == "fused":
            exposed = max(0.0, misc - dense)
        else:
            exposed = misc
        return Segment(name, dense + exposed, n_bytes, exposed)

    def _stack_layers(self, layer0: list[Segment]) -> list[Segment]:
        """Every decoder layer has one shape, so layer 0's segments,
        priced once, are every layer's: one renamed copy per layer, in
        the per-layer segment order (``layer`` only feeds the name, so
        the schedule's float sums are unchanged)."""
        suffixes = [s.name.removeprefix("layer0.") for s in layer0]
        return [replace(s, name=f"layer{layer}.{suffix}")
                for layer in range(self.model.num_layers)
                for s, suffix in zip(layer0, suffixes)]

    # -- public API --------------------------------------------------------------

    def attention_segment(self, layer: int, context: int,
                          mode: str) -> Segment:
        report = self.pipeline.schedule(context, mode)
        m, q = self.model, self.quant
        weight_bytes = m.attention_params() * q.effective_weight_bits / 8 \
            / self.tp
        kv_read = (2 * context * m.kv_dim * q.kv_bits / 8
                   + 2 * context * m.kv_heads * q.kv_pack_bits / 8) / self.tp
        kv_write = (2 * m.kv_dim * q.kv_bits / 8
                    + 2 * m.kv_heads * q.kv_pack_bits / 8) / self.tp
        return Segment(f"layer{layer}.attn", report.total_cycles,
                       weight_bytes + kv_read + kv_write,
                       report.exposed_misc_cycles)

    def mlp_segments(self, layer: int, mode: str,
                     batch: int = 1) -> list[Segment]:
        m = self.model
        h, inter = m.hidden_size, m.intermediate_size // self.tp
        segs = []
        # Post-attention RMSNorm: square sum came from the DOT engine; the
        # normalize pass hides under the gate/up weight stream.
        norm = self.spu.rmsnorm_cycles(h, square_sum_free=True)
        if m.gated_mlp:
            segs.append(self._proj_segment(f"layer{layer}.mlp.gate", inter, h,
                                           hidden_misc=norm, mode=mode,
                                           batch=batch))
            silu = self.spu.silu_cycles(inter)
            segs.append(self._proj_segment(f"layer{layer}.mlp.up", inter, h,
                                           hidden_misc=silu, mode=mode,
                                           batch=batch))
        else:
            segs.append(self._proj_segment(f"layer{layer}.mlp.up", inter, h,
                                           hidden_misc=norm, mode=mode,
                                           batch=batch))
            silu = self.spu.silu_cycles(inter)
        down_misc = self.spu.residual_cycles(h)
        if not m.gated_mlp:
            down_misc += silu
        segs.append(self._proj_segment(f"layer{layer}.mlp.down", h, inter,
                                       hidden_misc=down_misc, mode=mode,
                                       batch=batch))
        return segs

    def batched_attention_segment(self, layer: int, contexts: Sequence[int],
                                  mode: str,
                                  fetched: Sequence[int] | None = None,
                                  ) -> Segment:
        """One layer's attention for a whole batch (Fig. 2 split, batched).

        The Q/K/V/O weight slices stream from DRAM once and serve every
        sequence (compute scales with the batch); the KV-history DOT
        stages are inherently per sequence, each at its own context, and
        so is the misc exposure.

        ``fetched[i]`` is the number of sequence *i*'s context tokens that
        must actually stream from DRAM this step.  Under a paged cache
        with shared prefixes, blocks resident for an earlier batch member
        are served from the on-chip staging buffer, so the sharing member
        fetches fewer tokens than it attends over (``fetched[i] <=
        contexts[i]``); the QK/AV compute still covers the full context.
        """
        m, q = self.model, self.quant
        batch = len(contexts)
        d = m.head_dim
        group = m.num_heads // m.kv_heads
        tiles_d = self._tiles(d)

        def weight_stage(out_rows: int, copies: int,
                         in_cols: int | None = None) -> float:
            if in_cols is None:
                in_cols = m.hidden_size
            n_bytes = out_rows * in_cols * q.effective_weight_bits / 8
            transfer = self.mcu.stream_transfer(n_bytes).cycles
            compute = batch * out_rows * self._tiles(in_cols)
            return copies * max(transfer, compute)

        cycles = 0.0
        if mode == "fused":
            # Head-wise slices: Q per local head, K/V per local KV head,
            # the (row-parallel) O slice once.
            cycles += weight_stage(d, m.num_heads // self.tp)
            cycles += 2 * weight_stage(d, m.kv_heads // self.tp)
            cycles += weight_stage(m.hidden_size, 1,
                                   in_cols=m.hidden_size // self.tp)
        else:
            # Coarse: whole-matrix projections (this shard's slices).
            cycles += weight_stage(m.hidden_size // self.tp, 1)
            cycles += 2 * weight_stage(m.kv_dim // self.tp, 1)
            cycles += weight_stage(m.hidden_size, 1,
                                   in_cols=m.hidden_size // self.tp)

        if fetched is None:
            fetched = contexts
        if len(fetched) != len(contexts):
            raise ScheduleError(
                f"fetched has {len(fetched)} entries for "
                f"{len(contexts)} contexts")
        weight_bytes = m.attention_params() * q.effective_weight_bits / 8 \
            / self.tp
        kv_bytes = 0.0
        exposed = 0.0
        for ctx, fetch in zip(contexts, fetched):
            if not 0 <= fetch <= ctx:
                raise ScheduleError(
                    f"fetched tokens {fetch} outside [0, {ctx}]")
            if fetch > 0:
                payload = fetch * d * q.kv_bits / 8
                packs = fetch * q.kv_pack_bits / 8
                kv_tx = self.mcu.stream_transfer(payload + packs).cycles \
                    / group
            else:
                kv_tx = 0.0
            # QK dot + weighted-V accumulation for every local head of
            # this sequence; heads of one GQA group share the history
            # stream and the compute always spans the full context.
            cycles += 2 * (m.num_heads // self.tp) \
                * max(kv_tx, (ctx + 1) * tiles_d)
            exposed += self.pipeline.schedule(ctx, mode).exposed_misc_cycles
            kv_bytes += (2 * fetch * m.kv_dim * q.kv_bits / 8
                         + 2 * fetch * m.kv_heads * q.kv_pack_bits / 8
                         + 2 * m.kv_dim * q.kv_bits / 8
                         + 2 * m.kv_heads * q.kv_pack_bits / 8) / self.tp
        return Segment(f"layer{layer}.attn", cycles + exposed,
                       weight_bytes + kv_bytes, exposed)

    def build(self, context: int, mode: str = "fused") -> TokenSchedule:
        """Schedule one decode step with ``context`` cached tokens."""
        if mode not in ("fused", "coarse"):
            raise ScheduleError(f"unknown mode {mode!r}")
        m, q = self.model, self.quant
        sched = TokenSchedule(mode=mode, context=context)

        # Embedding row fetch (one row, FP16) — a short burst.
        row_bytes = m.hidden_size * q.activation_bits / 8
        emb = self.mcu.stream_transfer(row_bytes)
        sched.segments.append(Segment("embedding", emb.cycles, row_bytes))

        sched.segments.extend(self._stack_layers(
            [self.attention_segment(0, context, mode),
             *self.mlp_segments(0, mode)]))

        # Final RMSNorm is serial before the LM head in both modes (the
        # logits projection cannot start without the normalized vector).
        final_norm = self.spu.rmsnorm_cycles(m.hidden_size,
                                             square_sum_free=True)
        sched.segments.append(Segment("final_norm", final_norm, 0.0,
                                      exposed_misc_cycles=final_norm))

        sched.segments.append(self._proj_segment(
            "lm_head", m.vocab_size // self.tp, m.hidden_size, mode=mode))
        return sched

    def build_batched(self, contexts: Sequence[int],
                      mode: str = "fused",
                      fetched: Sequence[int] | None = None) -> BatchSchedule:
        """Schedule one decode step for a batch of concurrent sequences.

        Each entry of ``contexts`` is one sequence's cached-token count.
        The quantized weight stream — the dominant cost of embedded decode
        — is charged once for the whole batch; per-sequence work (KV
        history, misc ops, embedding row, final norm) is charged per
        member.  ``build_batched([ctx])`` totals equal ``build(ctx)``.

        ``fetched`` (optional, defaults to ``contexts``) gives the KV
        tokens each member actually streams from DRAM — see
        :meth:`batched_attention_segment` for the paged/shared-prefix
        semantics.
        """
        if mode not in ("fused", "coarse"):
            raise ScheduleError(f"unknown mode {mode!r}")
        if not contexts:
            raise ScheduleError("batched schedule needs at least one context")
        if any(c < 0 for c in contexts):
            raise ScheduleError(f"negative context in batch: {list(contexts)}")
        m, q = self.model, self.quant
        batch = len(contexts)
        sched = BatchSchedule(mode=mode, contexts=tuple(contexts))

        # One embedding row fetch per sequence.
        row_bytes = m.hidden_size * q.activation_bits / 8
        emb = self.mcu.stream_transfer(row_bytes)
        sched.segments.append(Segment("embedding", batch * emb.cycles,
                                      batch * row_bytes))

        sched.segments.extend(self._stack_layers(
            [self.batched_attention_segment(0, contexts, mode, fetched),
             *self.mlp_segments(0, mode, batch=batch)]))

        # The final RMSNorm stays serial per sequence (each logits
        # projection input must be normalized before its head pass).
        final_norm = self.spu.rmsnorm_cycles(m.hidden_size,
                                             square_sum_free=True)
        sched.segments.append(Segment("final_norm", batch * final_norm, 0.0,
                                      exposed_misc_cycles=batch * final_norm))

        sched.segments.append(self._proj_segment(
            "lm_head", m.vocab_size // self.tp, m.hidden_size, mode=mode,
            batch=batch))
        return sched


def build_token_schedule(model: ModelConfig, quant: QuantConfig,
                         context: int, mode: str = "fused") -> TokenSchedule:
    """Convenience wrapper: schedule one decode step with default units."""
    return TokenScheduler(model, quant).build(context, mode)

"""The fused head-wise attention pipeline (paper Fig. 3 and Sec. V-A).

The attention layer is where all the miscellaneous operations live, so it
is where the paper's "hide everything inside the dense computation" claim
must be demonstrated.  This module builds the per-head stage schedule:

    Q proj -> K proj -> DOT(Q, K-cache) -> V proj -> scaled-DOT(probs, V)

with the misc operations placed in their hiding windows:

* RoPE(Q) on the fly while Q streams out of the DOT engine,
* RoPE(K) likewise during the K projection,
* KV8 quantization of K and V as they are generated,
* softmax between the QK DOT and the weighted-V accumulation (its window
  is the V projection, which streams a full weight slice and is therefore
  long), and
* the residual add + square-sum during the output projection.

Every stage's duration is the max of its weight/KV transfer time (from the
MCU model) and its VPU issue time.  A misc op whose latency exceeds its
window contributes *exposed* cycles — the quantity the paper drives to
zero.  The coarse-grained mode (DFX-style: whole-matrix projections before
multi-head attention, misc ops serialized between stages) is the baseline
the Fig. 3 benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ModelConfig, QuantConfig
from ..errors import ScheduleError
from .mcu import Mcu
from .spu import SpuModel
from .vpu import VpuSpec


@dataclass(frozen=True)
class Stage:
    """One dense-compute stage of the pipeline."""

    name: str
    start: float
    transfer_cycles: float
    compute_cycles: float

    @property
    def duration(self) -> float:
        return max(self.transfer_cycles, self.compute_cycles)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class MiscPlacement:
    """A miscellaneous op and the dense window meant to hide it."""

    name: str
    cycles: float
    window_start: float
    window_end: float

    @property
    def window(self) -> float:
        return self.window_end - self.window_start

    @property
    def hidden(self) -> bool:
        return self.cycles <= self.window

    @property
    def exposed_cycles(self) -> float:
        return max(0.0, self.cycles - self.window)


@dataclass
class AttentionLayerReport:
    """Schedule and cycle totals for one attention layer at one context."""

    mode: str
    context: int
    stages: list[Stage] = field(default_factory=list)
    misc: list[MiscPlacement] = field(default_factory=list)

    @property
    def dense_cycles(self) -> float:
        return sum(s.duration for s in self.stages)

    @property
    def exposed_misc_cycles(self) -> float:
        return sum(m.exposed_cycles for m in self.misc)

    @property
    def serialized_misc_cycles(self) -> float:
        """All misc latency, as paid when nothing is overlapped."""
        return sum(m.cycles for m in self.misc)

    @property
    def total_cycles(self) -> float:
        return self.dense_cycles + self.exposed_misc_cycles

    @property
    def transfer_cycles(self) -> float:
        return sum(s.transfer_cycles for s in self.stages)

    def all_hidden(self) -> bool:
        return all(m.hidden for m in self.misc)


class AttentionPipeline:
    """Builds fused (Fig. 3) and coarse attention-layer schedules.

    ``tp > 1`` schedules ONE shard of a tensor-parallel group: the shard
    owns ``num_heads / tp`` query heads and ``kv_heads / tp`` KV heads
    (Megatron-style column-parallel Q/K/V), and its output projection is
    the row-parallel slice ``(hidden, hidden / tp)``.  The residual add
    still spans the full hidden vector — partial sums are combined by
    the interconnect (charged by :mod:`repro.cluster.interconnect`, not
    here).
    """

    def __init__(self, model: ModelConfig, quant: QuantConfig,
                 mcu: Mcu | None = None, vpu: VpuSpec | None = None,
                 spu: SpuModel | None = None,
                 online_softmax: bool = False, tp: int = 1) -> None:
        if tp < 1:
            raise ScheduleError(f"tensor-parallel degree must be >= 1: {tp}")
        if model.num_heads % tp or model.kv_heads % tp \
                or model.hidden_size % tp:
            raise ScheduleError(
                f"{model.name}: heads {model.num_heads}/{model.kv_heads} "
                f"and hidden {model.hidden_size} must divide tp={tp}")
        self.model = model
        self.quant = quant
        self.tp = tp
        self.mcu = mcu if mcu is not None else Mcu()
        self.vpu = vpu if vpu is not None else VpuSpec()
        self.spu = spu if spu is not None else SpuModel()
        # The three-pass softmax hides comfortably behind MHA's per-head
        # V-projection slices.  GQA models have no V slice on most heads,
        # so their softmax needs the online (two-pass) variant to vanish.
        self.online_softmax = online_softmax

    def _softmax_cycles(self, length: int) -> int:
        if self.online_softmax:
            return self.spu.online_softmax_cycles(length)
        return self.spu.softmax_cycles(length)

    # -- shared helpers -------------------------------------------------------

    def _tiles(self, length: int) -> int:
        return -(-length // self.vpu.lanes)

    def _weight_transfer(self, out_rows: int, in_cols: int) -> float:
        """Transfer cycles for a weight slice in the interleaved stream."""
        n_bytes = out_rows * in_cols * self.quant.effective_weight_bits / 8
        return self.mcu.stream_transfer(n_bytes).cycles

    def _kv_transfer(self, context: int) -> float:
        """Transfer cycles for one head's K (or V) history + packs."""
        if context == 0:
            return 0.0
        d = self.model.head_dim
        payload = context * d * self.quant.kv_bits / 8
        packs = context * self.quant.kv_pack_bits / 8
        return self.mcu.stream_transfer(payload + packs).cycles

    # -- fused schedule (Fig. 3) ------------------------------------------------

    def _fused_timeline(self, context: int) -> tuple[list, list]:
        """The fused pipeline as plain tuples, in schedule order:
        ``stages`` of ``(name, start, transfer, compute)`` and ``misc``
        of ``(name, cycles, window_start, window_end)``.

        The one source of the Fig. 3 arithmetic: :meth:`fused_schedule`
        materializes its report from it, and :meth:`exposed_misc_cycles`
        sums it without building one.  Each stage ends at ``start +
        max(transfer, compute)``, the :class:`Stage` duration.
        """
        if context < 0:
            raise ScheduleError(f"negative context {context}")
        m = self.model
        d = m.head_dim
        group = m.num_heads // m.kv_heads
        # Heads of one GQA group share a K/V history; the history is read
        # once per group and buffered, so each head is charged its share.
        kv_tx = self._kv_transfer(context) / group if context else 0.0
        proj_tx = self._weight_transfer(d, m.hidden_size)
        proj_c = d * self._tiles(m.hidden_size)
        proj = max(proj_tx, proj_c)
        dot_c = (context + 1) * self._tiles(d)
        dot = max(kv_tx, dot_c)
        rope = self.spu.rope_cycles(d)
        quant = self.spu.quant_cycles(d)
        softmax = self._softmax_cycles(context + 1)
        depth = self.spu.params.softmax_depth
        stages: list[tuple] = []
        misc: list[tuple] = []

        t = 0.0
        for head in range(m.num_heads // self.tp):
            leads_kv_group = head % group == 0

            stages.append(("q_proj", t, proj_tx, proj_c))
            q_end = t = t + proj

            if leads_kv_group:
                k_start = t
                stages.append(("k_proj", k_start, proj_tx, proj_c))
                k_end = t = t + proj
                # RoPE(Q) hides under the K projection; RoPE(K) and the K
                # quantization stream alongside K's own generation.
                misc.append(("rope_q", rope, q_end, k_end))
                misc.append(("rope_k", rope, q_end, k_end))

            qk_start = t
            stages.append(("qk_dot", qk_start, kv_tx, dot_c))
            qk_end = t = t + dot
            if leads_kv_group:
                # Quantization pass 1 (min/max) streams with K's own
                # generation; only pass 2 trails into the QK window.
                misc.append(("quant_k", quant, k_start, qk_end))
            else:
                # GQA: this head reuses the group's K; RoPE(Q) hides
                # under the history DOT.
                misc.append(("rope_q", rope, qk_start, qk_end))

            if leads_kv_group:
                v_start = t
                stages.append(("v_proj", v_start, proj_tx, proj_c))
                t = t + proj
                misc.append(("quant_v", quant, v_start, t + context))

            stages.append(("av_dot", t, kv_tx, dot_c))
            t = t + dot
            # Softmax passes stream with the pipeline: scores arrive
            # serially during the QK DOT (max/normalizer passes) and the
            # AV accumulation consumes probabilities serially (divide
            # pass), so the hiding window spans QK start to AV end plus
            # the submodule's fill depth (which overlaps the AV drain).
            misc.append(("softmax", softmax, qk_start, t + depth))

        o_start = t
        o_tx = self._weight_transfer(m.hidden_size, m.hidden_size // self.tp)
        o_c = m.hidden_size * self._tiles(m.hidden_size // self.tp)
        stages.append(("o_proj", o_start, o_tx, o_c))
        # Residual add + square-sum for the next RMSNorm stream with the
        # O-projection outputs (Sec. V-A, last stage of Fig. 3).
        misc.append(("residual_sqsum", self.spu.residual_cycles(m.hidden_size),
                     o_start, o_start + max(o_tx, o_c)))
        return stages, misc

    def fused_schedule(self, context: int) -> AttentionLayerReport:
        """The paper's head-wise fused pipeline for one layer.

        ``context`` is the number of cached tokens (history length); the
        current token makes the attention span ``context + 1``.
        """
        stages, misc = self._fused_timeline(context)
        return AttentionLayerReport(
            mode="fused", context=context,
            stages=[Stage(*s) for s in stages],
            misc=[MiscPlacement(*p) for p in misc])

    def exposed_misc_cycles(self, context: int, mode: str = "fused",
                            ) -> float:
        """``schedule(context, mode).exposed_misc_cycles`` to the bit,
        without building the report: the fused timeline's placements
        summed in place (the same values, in the same order, through the
        same ``sum``)."""
        if mode == "fused":
            _, misc = self._fused_timeline(context)
            return sum(max(0.0, cycles - (end - start))
                       for _, cycles, start, end in misc)
        return self.schedule(context, mode).exposed_misc_cycles

    # -- coarse schedule (DFX-style baseline) -----------------------------------

    def coarse_schedule(self, context: int) -> AttentionLayerReport:
        """Whole-matrix projections, then attention; misc serialized.

        Misc ops get zero-width windows: every cycle is exposed, which is
        how a coarse pipeline actually behaves between its stages.
        """
        if context < 0:
            raise ScheduleError(f"negative context {context}")
        m, q = self.model, self.quant
        d = m.head_dim
        report = AttentionLayerReport(mode="coarse", context=context)

        def misc(name: str, cycles: float, at: float) -> None:
            report.misc.append(MiscPlacement(name, cycles, at, at))

        t = 0.0
        for name, rows in (("q_proj", m.hidden_size // self.tp),
                           ("k_proj", m.kv_dim // self.tp),
                           ("v_proj", m.kv_dim // self.tp)):
            stage = Stage(name, t, self._weight_transfer(rows, m.hidden_size),
                          rows * self._tiles(m.hidden_size))
            t = stage.end
            report.stages.append(stage)

        misc("rope_q", m.num_heads // self.tp * self.spu.rope_cycles(d), t)
        misc("rope_k", m.kv_heads // self.tp * self.spu.rope_cycles(d), t)
        misc("quant_k", m.kv_heads // self.tp * self.spu.quant_cycles(d), t)
        misc("quant_v", m.kv_heads // self.tp * self.spu.quant_cycles(d), t)
        t += sum(p.cycles for p in report.misc)

        for head in range(m.num_heads // self.tp):
            qk = Stage("qk_dot", t, self._kv_transfer(context) /
                       (m.num_heads // m.kv_heads),
                       (context + 1) * self._tiles(d))
            t = qk.end
            report.stages.append(qk)
            misc("softmax", self._softmax_cycles(context + 1), t)
            t += self._softmax_cycles(context + 1)
            av = Stage("av_dot", t, self._kv_transfer(context) /
                       (m.num_heads // m.kv_heads),
                       (context + 1) * self._tiles(d))
            t = av.end
            report.stages.append(av)

        o_proj = Stage("o_proj", t,
                       self._weight_transfer(m.hidden_size,
                                             m.hidden_size // self.tp),
                       m.hidden_size * self._tiles(m.hidden_size // self.tp))
        t = o_proj.end
        report.stages.append(o_proj)
        misc("residual_sqsum", self.spu.residual_cycles(m.hidden_size), t)
        return report

    def schedule(self, context: int, mode: str = "fused",
                 ) -> AttentionLayerReport:
        if mode == "fused":
            return self.fused_schedule(context)
        if mode == "coarse":
            return self.coarse_schedule(context)
        raise ScheduleError(f"unknown pipeline mode {mode!r}")

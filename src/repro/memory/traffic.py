"""Per-token DRAM traffic accounting for the decode phase.

Everything the accelerator touches per decoded token, in bytes:

* quantized weight codes of every streamed projection (all layers + head),
* their interleaved scale/zero metadata (Fig. 4A overhead),
* one embedding-table row (FP16),
* norm weights (FP16, streamed with the layer),
* KV cache reads: all cached K and V codes plus their scale-zero packs,
* KV cache writes: the freshly quantized K/V of this token plus its packs.

These byte counts drive both the analytical model and the cycle model;
they are also what the paper's "utilization" metric divides against
(weights only, Sec. VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ModelConfig, QuantConfig
from ..errors import SimulationError


@dataclass(frozen=True)
class DecodeTraffic:
    """Byte breakdown of one decode step at a given context length."""

    weight_code_bytes: float
    weight_meta_bytes: float
    embedding_row_bytes: float
    norm_bytes: float
    kv_read_bytes: float
    kv_read_pack_bytes: float
    kv_write_bytes: float
    kv_write_pack_bytes: float
    context: int

    @property
    def weight_bytes(self) -> float:
        """Weight traffic including metadata (what actually crosses the bus)."""
        return self.weight_code_bytes + self.weight_meta_bytes

    @property
    def kv_bytes(self) -> float:
        return (self.kv_read_bytes + self.kv_read_pack_bytes
                + self.kv_write_bytes + self.kv_write_pack_bytes)

    @property
    def total_bytes(self) -> float:
        return (self.weight_bytes + self.embedding_row_bytes
                + self.norm_bytes + self.kv_bytes)

    @property
    def read_bytes(self) -> float:
        return self.total_bytes - self.write_bytes

    @property
    def write_bytes(self) -> float:
        return self.kv_write_bytes + self.kv_write_pack_bytes


def decode_traffic(model: ModelConfig, quant: QuantConfig,
                   context: int, tp: int = 1) -> DecodeTraffic:
    """Traffic of decoding one token when ``context`` tokens are cached.

    ``context`` is the number of previously cached tokens whose K/V must
    be read (the new token's K/V are produced on-chip and only written).

    ``tp > 1`` accounts ONE shard of a tensor-parallel group: every
    streamed projection and the KV cache are divided ``tp`` ways, while
    the embedding row and the (replicated) norm weights still cross each
    shard's bus in full.
    """
    if tp < 1:
        raise SimulationError(f"tensor-parallel degree must be >= 1: {tp}")
    streamed = (model.decode_stream_params() - model.norm_params()) / tp
    code_bytes = streamed * quant.weight_bits / 8
    meta_bytes = streamed * quant.weight_overhead_bits_per_weight / 8

    embedding_row = model.hidden_size * quant.activation_bits / 8
    norm_bytes = model.norm_params() * 2  # FP16 norm weights

    kv_elems_per_token = 2 * model.num_layers * model.kv_dim / tp
    kv_read = context * kv_elems_per_token * quant.kv_bits / 8
    packs_per_token = 2 * model.num_layers * model.kv_heads / tp
    kv_read_packs = context * packs_per_token * quant.kv_pack_bits / 8

    kv_write = kv_elems_per_token * quant.kv_bits / 8
    kv_write_packs = packs_per_token * quant.kv_pack_bits / 8

    return DecodeTraffic(
        weight_code_bytes=code_bytes,
        weight_meta_bytes=meta_bytes,
        embedding_row_bytes=embedding_row,
        norm_bytes=norm_bytes,
        kv_read_bytes=kv_read,
        kv_read_pack_bytes=kv_read_packs,
        kv_write_bytes=kv_write,
        kv_write_pack_bytes=kv_write_packs,
        context=context,
    )

"""Bandwidth-bound analytical performance model (Table II's arithmetic).

Decoding is bandwidth-bound, so the hard ceiling on token rate is

    tokens/s = bandwidth / weight_bytes_per_token

where ``weight_bytes_per_token`` counts every parameter except the
embedding table at the quantized bit-width (Table II note 1: "the number
of model weight transfers possible within one second").  Bandwidth
*utilization* — the paper's comparison metric — is measured speed divided
by this ceiling.
"""

from __future__ import annotations

from ..config import ModelConfig, PlatformConfig, QuantConfig
from ..errors import ConfigError


def weight_bytes_per_token(model: ModelConfig, weight_bits: float) -> float:
    """Bytes of model weights streamed per decoded token."""
    if weight_bits <= 0:
        raise ConfigError(f"weight_bits must be positive, got {weight_bits}")
    return model.decode_stream_params() * weight_bits / 8


def theoretical_tokens_per_s(model: ModelConfig, platform: PlatformConfig,
                             weight_bits: float = 4.0) -> float:
    """The bandwidth-bound decode ceiling of ``model`` on ``platform``."""
    return platform.bandwidth_bytes_per_s / weight_bytes_per_token(
        model, weight_bits)


def utilization(measured_tokens_per_s: float, model: ModelConfig,
                platform: PlatformConfig, weight_bits: float = 4.0) -> float:
    """Measured speed as a fraction of the bandwidth-bound ceiling."""
    if measured_tokens_per_s < 0:
        raise ConfigError("measured speed must be non-negative")
    return measured_tokens_per_s / theoretical_tokens_per_s(
        model, platform, weight_bits)


def effective_bandwidth_demand(model: ModelConfig, quant: QuantConfig,
                               context: int) -> float:
    """Total bytes per token including metadata and KV traffic.

    The gap between this and :func:`weight_bytes_per_token` is the
    *intrinsic* utilization loss — even a perfect memory system cannot
    reach 100% on the paper's metric because scales, zeros, and the KV
    cache also ride the bus.
    """
    from ..memory.traffic import decode_traffic

    return decode_traffic(model, quant, context).total_bytes


def intrinsic_utilization_ceiling(model: ModelConfig, quant: QuantConfig,
                                  context: int) -> float:
    """Best possible utilization at a context length, before DDR losses."""
    return weight_bytes_per_token(model, quant.weight_bits) / \
        effective_bandwidth_demand(model, quant, context)

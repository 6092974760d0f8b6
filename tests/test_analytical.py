"""Analytical bandwidth-bound model (Table II arithmetic)."""

import pytest

from repro.config import (
    JETSON_AGX_ORIN,
    JETSON_ORIN_NANO,
    KV260,
    LLAMA2_7B,
    RASPBERRY_PI_4B,
    W4A16_KV8,
)
from repro.core.analytical import (
    effective_bandwidth_demand,
    intrinsic_utilization_ceiling,
    theoretical_tokens_per_s,
    utilization,
    weight_bytes_per_token,
)
from repro.errors import ConfigError


def test_kv260_theoretical_is_5_8():
    """Table II: 5.8 token/s ceiling for LLaMA2-7B W4 at 19.2 GB/s."""
    assert theoretical_tokens_per_s(LLAMA2_7B, KV260, 4) == pytest.approx(
        5.8, abs=0.05)


def test_pi_theoretical_is_3_9():
    assert theoretical_tokens_per_s(LLAMA2_7B, RASPBERRY_PI_4B, 4) == \
        pytest.approx(3.9, abs=0.05)


def test_agx_orin_theoretical_is_62():
    assert theoretical_tokens_per_s(LLAMA2_7B, JETSON_AGX_ORIN, 4) == \
        pytest.approx(62.1, abs=0.5)


def test_orin_nano_theoretical_is_20_7():
    assert theoretical_tokens_per_s(LLAMA2_7B, JETSON_ORIN_NANO, 4) == \
        pytest.approx(20.7, abs=0.3)


def test_weight_bytes_per_token():
    assert weight_bytes_per_token(LLAMA2_7B, 4) == pytest.approx(3.3e9,
                                                                 rel=0.01)


def test_utilization_of_reported_speed():
    """4.9 measured / 5.8 theoretical = 84.5%."""
    assert utilization(4.9, LLAMA2_7B, KV260, 4) == pytest.approx(0.845,
                                                                  abs=0.01)


def test_utilization_rejects_negative():
    with pytest.raises(ConfigError):
        utilization(-1, LLAMA2_7B, KV260)


def test_weight_bits_must_be_positive():
    with pytest.raises(ConfigError):
        weight_bytes_per_token(LLAMA2_7B, 0)


def test_effective_demand_exceeds_weights():
    demand = effective_bandwidth_demand(LLAMA2_7B, W4A16_KV8, 512)
    assert demand > weight_bytes_per_token(LLAMA2_7B, 4)


def test_intrinsic_ceiling_below_one():
    ceiling = intrinsic_utilization_ceiling(LLAMA2_7B, W4A16_KV8, 512)
    assert 0.85 < ceiling < 1.0


def test_intrinsic_ceiling_decreases_with_context():
    a = intrinsic_utilization_ceiling(LLAMA2_7B, W4A16_KV8, 64)
    b = intrinsic_utilization_ceiling(LLAMA2_7B, W4A16_KV8, 1024)
    assert b < a

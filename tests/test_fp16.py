"""FP16 datapath emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.fp16 import (
    FP16_MAX,
    fp16,
    fp16_dot,
    fp16_matvec,
    fp16_mul,
    fp16_tiled_reduce,
    fp16_tree_sum,
)


def test_fp16_rounds_to_half():
    # 1 + 2^-11 is the first value that cannot survive the FP16 mantissa.
    assert float(fp16(1.0 + 2**-11)) == 1.0
    assert float(fp16(1.0 + 2**-10)) == 1.0 + 2**-10


def test_is_fp16_exact():
    """Values on the FP16 grid survive the rounding cast unchanged."""
    exact = np.array([1.0, 0.5, 2048.0, -3.25, FP16_MAX])
    assert np.array_equal(fp16(exact).astype(np.float64), exact)
    assert float(fp16(1.0 + 2**-11)) != 1.0 + 2**-11


def test_fp16_mul_rounds_result():
    # 3.0003 rounds on input; the product rounds again on output.
    out = fp16_mul(1.0009765625, 1.0009765625)
    assert out.dtype == np.float16


def test_fp16_add_commutative():
    """The adder tree's two-input node rounds a + b and b + a alike."""
    a, b = 1.25, -3.5
    assert fp16_tree_sum([a, b]) == fp16_tree_sum([b, a])


def test_tree_sum_empty_is_zero():
    assert fp16_tree_sum([]) == np.float16(0.0)


def test_tree_sum_single():
    assert fp16_tree_sum([2.5]) == np.float16(2.5)


def test_tree_sum_odd_width():
    assert float(fp16_tree_sum([1.0, 2.0, 3.0])) == 6.0


def test_tree_sum_matches_exact_for_small_ints():
    vals = np.arange(1, 65, dtype=np.float64)
    assert float(fp16_tree_sum(vals)) == vals.sum()


def test_dot_matches_float64_within_fp16_error(rng):
    a = rng.standard_normal(128)
    b = rng.standard_normal(128)
    exact = float(np.dot(fp16(a).astype(np.float64),
                         fp16(b).astype(np.float64)))
    approx = float(fp16_dot(a, b))
    assert approx == pytest.approx(exact, abs=0.25)


def test_dot_tiled_shape_mismatch_raises():
    with pytest.raises(ValueError, match="reduction axis mismatch"):
        fp16_tiled_reduce(np.ones(4), np.ones(5))


def test_tiled_kernel_matches_dot_for_short_vectors(rng):
    """One tile: the shared tiled kernel is the scalar multiplier +
    adder-tree dot."""
    a = fp16(rng.standard_normal(100))
    b = fp16(rng.standard_normal(100))
    assert fp16_tiled_reduce(a, b, lanes=128) == fp16_dot(a, b)


def test_matvec_matches_rowwise_dots(rng):
    w = rng.standard_normal((6, 256))
    x = rng.standard_normal(256)
    out = fp16_matvec(w, x, lanes=128)
    for i in range(6):
        assert out[i] == fp16_tiled_reduce(w[i], x, lanes=128)


def test_matvec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fp16_matvec(np.ones((2, 3)), np.ones(4))


def test_matvec_lane_width_changes_rounding_not_magnitude(rng):
    w = rng.standard_normal((4, 128))
    x = rng.standard_normal(128)
    a = fp16_matvec(w, x, lanes=32).astype(np.float64)
    b = fp16_matvec(w, x, lanes=128).astype(np.float64)
    assert np.allclose(a, b, atol=0.05)


@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_tree_sum_close_to_exact(values):
    exact = float(np.sum(fp16(values).astype(np.float64)))
    approx = float(fp16_tree_sum(values))
    assert abs(approx - exact) <= max(4.0, abs(exact) * 0.02)


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=30, deadline=None)
def test_tree_sum_of_ones_is_count(n):
    # Integers up to 2048 are exact in FP16, so no rounding loss occurs.
    assert float(fp16_tree_sum(np.ones(n))) == n


def test_fp16_max_constant():
    assert FP16_MAX == pytest.approx(65504.0)

"""Exactness of the FP16 rounding primitives and of padded attention.

* :func:`fp16_round_f32` against the half casts at every float32
  exponent, probing each FP16 rounding midpoint, one float32 ulp either
  side of it, and the overflow/subnormal edges;
* ``_round_sum_f32`` (adder-tree levels, tile accumulators) over every
  finite FP16 value against a fixed partner set;
* the -0.0 value padding that lets rows of unequal context length share
  one attention call, kernel by kernel and through ``attend_grouped``.

The exhaustive versions of the first two sweeps (all float32 patterns,
all finite FP16 pairs) live in ``tests/exhaustive_fp16.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.model.kvcache import QuantizedKVCache, store_kv_rows
from repro.model.quantized import attend_grouped
from repro.numerics.fp16 import (_SMALL, _round_sum_f32,
                                 fp16_batched_weighted_values,
                                 fp16_round_f32, fp16_tree_sum)


def _half_cast(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return x.astype(np.float16).astype(np.float32)


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Bitwise equality, NaN positions matched (NaN payloads aside)."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    bad = got[~nan].view(np.uint32) != want[~nan].view(np.uint32)
    assert not bad.any(), (got[~nan][bad][:5], want[~nan][bad][:5])


def _binade_probes() -> np.ndarray:
    """Float32 probes of every exponent field: each FP16 rounding
    midpoint of the binade, one float32 ulp either side of it, and the
    binade's first and last patterns; both signs, plus +/-inf."""
    patterns = []
    for field in range(255):
        e = max(field, 1) - 127
        # float32 mantissa bits below the FP16 spacing at exponent e
        # (2^(e - 10) for FP16 normals, 2^-24 below 2^-14).
        shift = 13 + max(0, -14 - e)
        mant = np.array([0, 1, (1 << 23) - 2, (1 << 23) - 1], np.int64)
        if shift <= 23:
            mids = (np.arange(1 << (23 - shift), dtype=np.int64) << shift) \
                + (1 << (shift - 1))
            mant = np.concatenate([mant, mids - 1, mids, mids + 1])
        mant = mant[(mant >= 0) & (mant < 1 << 23)]
        patterns.append((field << 23) | mant)
    bits = np.concatenate(patterns).astype(np.uint32)
    bits = np.concatenate([bits, bits | np.uint32(0x80000000),
                           np.array([0x7F800000, 0xFF800000], np.uint32)])
    return bits.view(np.float32)


def _edges() -> np.ndarray:
    """The overflow and subnormal thresholds, one float32 ulp either
    side of each."""
    centres = np.array([65504.0, 65520.0, 65536.0, 2.0 ** -14, 2.0 ** -24,
                        2.0 ** -25, 1.5 * 2.0 ** -25], np.float32)
    up = np.nextafter(centres, np.float32(np.inf))
    down = np.nextafter(centres, np.float32(0))
    x = np.concatenate([centres, up, down])
    return np.concatenate([x, -x])


class TestRoundF32:
    def test_every_exponent_at_midpoints_and_neighbours(self):
        x = _binade_probes()
        assert x.size > _SMALL  # the multi-op path, not the half casts
        _assert_bits_equal(fp16_round_f32(x), _half_cast(x))

    def test_overflow_and_subnormal_edges(self):
        # Tiled past the small-array threshold: the float32 path.
        x = np.tile(_edges(), _SMALL // _edges().size + 1)
        assert x.size > _SMALL
        got = fp16_round_f32(x)
        _assert_bits_equal(got, _half_cast(x))
        assert got[x == np.float32(65520.0)][0] == np.inf
        assert np.signbit(fp16_round_f32(
            np.full(2 * _SMALL, -2.0 ** -26, np.float32))).all()


def _partners() -> np.ndarray:
    """256 FP16 partners: zeros, subnormals, the normal edges, +/-65504
    and its near-overflow neighbours, +/-inf, and seeded random halves."""
    tiny = 2.0 ** -24
    special = [0.0, tiny, 2 * tiny, 3 * tiny, 1023 * tiny, 2.0 ** -14,
               2.0 ** -14 + tiny * 2, 1.0, 1.0 + 2.0 ** -10, 2048.0,
               32768.0, 65504.0, 65472.0, 65440.0, 32752.0, np.inf]
    special = np.array(special + [-v for v in special], np.float32)
    rng = np.random.default_rng(17)
    fill = rng.integers(0, 1 << 16, size=512, dtype=np.uint32) \
        .astype(np.uint16).view(np.float16)
    fill = fill[np.isfinite(fill)].astype(np.float32)
    return np.concatenate([special, fill])[:256]


def test_round_sum_over_every_finite_half_times_partners():
    halves = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16) \
        .view(np.float16)
    halves = halves[np.isfinite(halves)].astype(np.float32)
    partners = _partners()
    assert partners.size == 256
    a = np.repeat(halves, partners.size)
    b = np.tile(partners, halves.size)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _round_sum_f32(a, b)
        want = _half_cast(a + b)
    _assert_bits_equal(got, want)


# ---------------------------------------------------------------------------
# padded attention
# ---------------------------------------------------------------------------

PAD_LENGTHS = (1, 2, 3, 127, 128, 129, 200, 256)


def _on_grid(x) -> np.ndarray:
    return _half_cast(np.asarray(x, np.float32))


def _signed_zero_rows(rng, width: int, d: int):
    """(values, probs) whose real products include -0.0 and exact zeros:
    row 0 has all-zero probabilities against negative values (every
    product -0.0), rows 1-2 mix signed zeros into ordinary data."""
    rows = len(PAD_LENGTHS)
    values = _on_grid(rng.standard_normal((rows, width, d)))
    probs = _on_grid(rng.random((rows, width)))
    values[0] = -np.abs(values[0]) - 1
    probs[0] = 0.0
    values[1, ::3] = -0.0
    values[2, ::4] = 0.0
    probs[1, ::5] = 0.0
    return values, probs


@pytest.mark.parametrize("width", [256, 300])
def test_negative_zero_value_padding_is_exact(width):
    rng = np.random.default_rng(width)
    d = 8
    values, probs = _signed_zero_rows(rng, width, d)
    real = np.arange(width) < np.array(PAD_LENGTHS)[:, None]
    padded_v = np.where(real[..., None], values, np.float32(-0.0))
    padded_p = np.where(real, probs, np.float32(0.0))
    got = fp16_batched_weighted_values(padded_v, padded_p)
    for h, length in enumerate(PAD_LENGTHS):
        want = fp16_batched_weighted_values(values[h : h + 1, :length],
                                            probs[h : h + 1, :length])[0]
        assert np.array_equal(got[h].view(np.uint16),
                              want.view(np.uint16)), (h, length)


def test_negative_zero_padding_keeps_every_tree_level():
    """The -0.0 pad is exact level by level, not only after the tile
    accumulator: an all -0.0 prefix still sums to -0.0, where a +0.0 pad
    would flip it to +0.0 (which only the +0-initialized accumulator
    then happens to wash out)."""
    for length in PAD_LENGTHS:
        products = np.full(length, -0.0, np.float16)
        for width in (length + 1, 2 * length + 3):
            pad = np.full(width - length, -0.0, np.float16)
            assert np.signbit(fp16_tree_sum(np.concatenate([products,
                                                            pad])))
            assert not np.signbit(fp16_tree_sum(np.concatenate(
                [products, np.zeros_like(pad)])))


GQA = ModelConfig(name="gqa-test", hidden_size=64, num_layers=1,
                  num_heads=4, num_kv_heads=2, intermediate_size=128,
                  vocab_size=64, max_context=160)


def _filled_cache(rng, length: int) -> QuantizedKVCache:
    cache = QuantizedKVCache(GQA)
    shape = (length, GQA.kv_heads, GQA.head_dim)
    store_kv_rows([cache] * length, 0,
                  _on_grid(rng.standard_normal(shape)).astype(np.float16),
                  _on_grid(rng.standard_normal(shape)).astype(np.float16),
                  list(range(length)))
    return cache


def _attend(q, caches, lengths):
    head_map = np.repeat(np.arange(GQA.kv_heads),
                         GQA.num_heads // GQA.kv_heads)
    inv_sqrt_d = np.float32(np.float16(1.0 / np.sqrt(GQA.head_dim)))
    return attend_grouped(q, caches, 0, lengths, head_map, inv_sqrt_d,
                          lanes=128)


def _assert_rows_match_single_calls(q, caches, lengths):
    got = _attend(q, caches, lengths)
    for i, (cache, length) in enumerate(zip(caches, lengths)):
        want = _attend(q[i : i + 1], [cache], [length])[0]
        assert np.array_equal(got[i].view(np.uint16),
                              want.view(np.uint16)), (i, length)


def test_attend_grouped_decode_mixed_lengths_match_per_row_calls():
    rng = np.random.default_rng(3)
    lengths = [1, 2, 7, 128, 129, 150, 64, 3]
    caches = [_filled_cache(rng, n) for n in lengths]
    q = _on_grid(rng.standard_normal(
        (len(lengths), GQA.num_heads, GQA.head_dim))).astype(np.float16)
    _assert_rows_match_single_calls(q, caches, lengths)


def test_attend_grouped_causal_prefill_matches_per_row_calls():
    rng = np.random.default_rng(4)
    prompt = 140  # crosses the 128-lane tile
    cache = _filled_cache(rng, prompt)
    q = _on_grid(rng.standard_normal(
        (prompt, GQA.num_heads, GQA.head_dim))).astype(np.float16)
    _assert_rows_match_single_calls(q, [cache] * prompt,
                                    [p + 1 for p in range(prompt)])

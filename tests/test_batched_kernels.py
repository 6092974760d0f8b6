"""Property tests: batched FP16 kernels are bit-identical to the
scalar reference oracles.

The tentpole claim of the vectorized simulator is *batch invariance*:
because every tile/tree reduction's rounding schedule depends only on
the reduction length, stacking any number of independent reductions of
equal length into one kernel call changes no bit anywhere.  These tests
pin that claim at every level — the rounding primitive, the tiled
kernels, softmax/RMSNorm/RoPE/KV8 helpers, and the whole model
(``forward_batch`` / ``prefill`` vs the per-token scalar path) — across
random shapes, lane counts, odd tile widths, and GQA group sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig, QuantConfig
from repro.model.kvcache import QuantizedKVCache
from repro.model.quantized import QuantizedModel
from repro.model.weights import quantize_model, random_weights
from repro.numerics.fp16 import (fp16, fp16_batched_scores,
                                 fp16_batched_weighted_values, fp16_matmul,
                                 fp16_matmul_t, fp16_matvec, fp16_round_f32)
from repro.numerics.rmsnorm import batched_two_pass_rmsnorm, two_pass_rmsnorm
from repro.numerics.rope import HardwareRope
from repro.numerics.softmax import batched_three_pass_softmax, three_pass_softmax
from repro.quant.kv8 import (kv_dequantize, kv_dequantize_batch, kv_quantize,
                             kv_quantize_batch, KVQuantParams)

LANES = st.sampled_from([1, 2, 3, 7, 16, 64, 128, 129])
SCALES = st.sampled_from([1e-6, 1e-2, 1.0, 10.0, 1e4])


def arr(rng, *shape, scale=1.0):
    return rng.standard_normal(shape) * scale


def same(a, b) -> bool:
    """Bitwise-equal values (NaNs from FP16 overflow compare equal)."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


# ---------------------------------------------------------------------------
# the rounding primitive
# ---------------------------------------------------------------------------


class TestRoundF32:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_half_casts_on_random_f32_bits(self, seed, n):
        """fp16_round_f32 == astype(float16).astype(float32), bitwise,
        for arbitrary finite/infinite float32 bit patterns."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        x = bits.view(np.float32)
        x = x[~np.isnan(x)]
        if x.size == 0:
            return
        with np.errstate(over="ignore"):
            want = x.astype(np.float16).astype(np.float32)
        got = fp16_round_f32(x)
        assert np.array_equal(want.view(np.uint32), got.view(np.uint32))

    def test_every_half_pattern_roundtrips(self):
        """All 2^16 float16 values are fixed points of the rounding."""
        halves = np.arange(2**16, dtype=np.uint16).view(np.float16)
        halves = halves[~np.isnan(halves)]
        x = halves.astype(np.float32)
        got = fp16_round_f32(x)
        assert np.array_equal(x.view(np.uint32), got.view(np.uint32))

    def test_boundaries(self):
        edges = np.array(
            [0.0, -0.0, 65504.0, 65519.99, 65520.0, -65520.0, np.inf,
             -np.inf, 6.103515625e-05, -6.103515625e-05, 5.96e-08,
             2.9802322e-08, -2.9802322e-08, 1e-45, -1e-45, 3.4e38, 1e-39],
            dtype=np.float32)
        with np.errstate(over="ignore"):
            want = edges.astype(np.float16).astype(np.float32)
        got = fp16_round_f32(edges)
        assert np.array_equal(want.view(np.uint32), got.view(np.uint32))

    def test_native_half_ufuncs_match_rounded_f32_ops(self):
        """NumPy's float16 add/mul equal compute-in-f32-then-round —
        the identity behind the kernels of repro.numerics.fp16 carrying
        FP16 values in float32 and rounding after every op — over every
        half bit pattern."""
        a = np.arange(2**16, dtype=np.uint16).view(np.float16)
        rng = np.random.default_rng(0)
        b = rng.integers(0, 2**16, size=a.size, dtype=np.uint16) \
            .view(np.float16)
        mask = ~(np.isnan(a) | np.isnan(b))
        a, b = a[mask], b[mask]
        with np.errstate(over="ignore", invalid="ignore"):
            for op in (np.add, np.multiply):
                native = op(a, b)
                rounded = op(a.astype(np.float32),
                             b.astype(np.float32)).astype(np.float16)
                ok = ~(np.isnan(native) & np.isnan(rounded))
                assert np.array_equal(native[ok].view(np.uint16),
                                      rounded[ok].view(np.uint16))


# ---------------------------------------------------------------------------
# tiled kernels
# ---------------------------------------------------------------------------


class TestTiledKernels:
    @given(st.integers(0, 10**9), st.integers(1, 40), st.integers(1, 300),
           st.integers(1, 9), LANES, SCALES)
    @settings(max_examples=120, deadline=None)
    def test_matmul_columns_equal_matvecs(self, seed, out_f, in_f, batch,
                                          lanes, scale):
        rng = np.random.default_rng(seed)
        w = arr(rng, out_f, in_f, scale=scale)
        x = arr(rng, in_f, batch)
        with np.errstate(over="ignore", invalid="ignore"):
            mm = fp16_matmul(w, x, lanes=lanes)
            mt = fp16_matmul_t(fp16(w).T, x, lanes=lanes)
            assert same(mm, mt)
            for j in range(batch):
                assert same(mm[:, j], fp16_matvec(w, x[:, j], lanes=lanes))

    @pytest.mark.parametrize("in_f, batch", [(0, 3), (5, 0), (0, 0)])
    def test_matmul_empty_reduction_or_batch(self, in_f, batch):
        # An empty reduction leaves the zero accumulator; an empty batch
        # gives an empty (out, 0) result.
        rng = np.random.default_rng(0)
        w = arr(rng, 4, in_f)
        x = arr(rng, in_f, batch)
        mt = fp16_matmul_t(fp16(w).T, x)
        assert mt.shape == (4, batch) and mt.dtype == np.float16
        assert same(mt, np.zeros((4, batch), np.float16))
        assert same(fp16_matmul(w, x), mt)

    @given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 50),
           st.sampled_from([2, 4, 8, 64]), LANES)
    @settings(max_examples=100, deadline=None)
    def test_scores_and_weighted_values_equal_per_head(self, seed, heads,
                                                       length, d, lanes):
        rng = np.random.default_rng(seed)
        keys = arr(rng, heads, length, d)
        q = arr(rng, heads, d)
        values = arr(rng, heads, length, d)
        probs = rng.random((heads, length))
        scores = fp16_batched_scores(keys, q, lanes=lanes)
        weighted = fp16_batched_weighted_values(values, probs, lanes=lanes)
        for h in range(heads):
            assert same(scores[h], fp16_matvec(keys[h], q[h], lanes=lanes))
            assert same(weighted[h],
                        fp16_matvec(values[h].T, probs[h], lanes=lanes))


# ---------------------------------------------------------------------------
# softmax / rmsnorm / rope / kv8
# ---------------------------------------------------------------------------


class TestBatchedHelpers:
    @given(st.integers(0, 10**9), st.integers(1, 8), st.integers(1, 60),
           SCALES)
    @settings(max_examples=100, deadline=None)
    def test_softmax_rows(self, seed, rows, n, scale):
        rng = np.random.default_rng(seed)
        x = arr(rng, rows, n, scale=min(scale, 10.0))
        batched = batched_three_pass_softmax(x)
        for r in range(rows):
            assert np.array_equal(batched[r], three_pass_softmax(x[r]))

    @given(st.integers(0, 10**9), st.integers(1, 8), st.integers(1, 200),
           SCALES, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_rmsnorm_rows(self, seed, rows, n, scale, weighted):
        rng = np.random.default_rng(seed)
        x = arr(rng, rows, n, scale=scale)
        w = arr(rng, n) if weighted else None
        batched = batched_two_pass_rmsnorm(x, w)
        for r in range(rows):
            assert np.array_equal(batched[r], two_pass_rmsnorm(x[r], w))

    @given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 5),
           st.sampled_from([4, 8, 16, 64]))
    @settings(max_examples=60, deadline=None)
    def test_rope_rows(self, seed, rows, heads, d):
        rng = np.random.default_rng(seed)
        rope = HardwareRope(d)
        x = arr(rng, rows, heads, d)
        positions = [int(p) for p in rng.integers(0, 100, size=rows)]
        batched = rope.apply_many(x, positions)
        for r in range(rows):
            assert np.array_equal(batched[r],
                                  rope.apply(x[r], positions[r]))

    @given(st.integers(0, 10**9), st.integers(1, 8),
           st.sampled_from([2, 5, 16, 64]), SCALES)
    @settings(max_examples=100, deadline=None)
    def test_kv8_rows(self, seed, heads, d, scale):
        rng = np.random.default_rng(seed)
        x = arr(rng, heads, d, scale=scale)
        codes, scales, zeros = kv_quantize_batch(x)
        deq = kv_dequantize_batch(codes, scales, zeros)
        deq32 = kv_dequantize_batch(codes, scales, zeros, dtype=np.float32)
        assert np.array_equal(deq.astype(np.float32), deq32)
        for h in range(heads):
            want_codes, params = kv_quantize(x[h])
            assert np.array_equal(codes[h], want_codes)
            assert params.scale == scales[h]
            assert params.zero == int(zeros[h])
            assert np.array_equal(deq[h], kv_dequantize(want_codes, params))

    def test_reference_gather_matches_batched(self):
        """The per-position scalar gather oracle equals the vectorized
        per-head and all-head gathers bit for bit."""
        rng = np.random.default_rng(11)
        cfg = ModelConfig(name="gather-test", hidden_size=32, num_layers=2,
                          num_heads=4, num_kv_heads=2,
                          intermediate_size=48, vocab_size=64,
                          max_context=24)
        cache = QuantizedKVCache(cfg)
        for pos in range(10):
            for layer in range(cfg.num_layers):
                cache.append(layer,
                             arr(rng, cfg.kv_heads, cfg.head_dim),
                             arr(rng, cfg.kv_heads, cfg.head_dim), pos)
        for layer in range(cfg.num_layers):
            all_k = cache.keys_batch(layer, 10)
            all_k32 = cache.keys_batch(layer, 10, dtype=np.float32)
            assert np.array_equal(all_k.astype(np.float32), all_k32)
            for head in range(cfg.kv_heads):
                ref = cache.keys_reference(layer, head, 10)
                assert np.array_equal(ref, cache.keys(layer, head, 10))
                assert np.array_equal(ref, all_k[head])
                vref = cache.values_reference(layer, head, 10)
                assert np.array_equal(vref,
                                      cache.values(layer, head, 10))

    def test_kv_quantize_single_matches_batch_wrapper(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16)
        codes, params = kv_quantize(v)
        assert isinstance(params, KVQuantParams)
        assert np.array_equal(kv_dequantize(codes, params),
                              kv_dequantize_batch(codes[None],
                                                  np.array([params.scale]),
                                                  np.array([params.zero]))[0])


# ---------------------------------------------------------------------------
# whole-model batch invariance (including GQA)
# ---------------------------------------------------------------------------


def make_model(num_heads: int, kv_heads: int, seed: int = 3,
               hidden: int = 64, layers: int = 2) -> QuantizedModel:
    cfg = ModelConfig(name=f"prop-{num_heads}-{kv_heads}",
                      hidden_size=hidden, num_layers=layers,
                      num_heads=num_heads, num_kv_heads=kv_heads,
                      intermediate_size=hidden + 32, vocab_size=96,
                      max_context=48)
    quant = QuantConfig(weight_group_size=16)
    return QuantizedModel(quantize_model(random_weights(cfg, seed=seed),
                                         quant))


@pytest.mark.parametrize("num_heads,kv_heads", [(4, 4), (4, 2), (8, 2)])
class TestModelBatchInvariance:
    def test_prefill_matches_sequential_forward(self, num_heads, kv_heads):
        model = make_model(num_heads, kv_heads)
        prompt = [1, 9, 4, 17, 2, 33, 8]
        seq_cache = QuantizedKVCache(model.config,
                                     model.qweights.quant.kv_bits)
        logits = None
        for pos, tok in enumerate(prompt):
            logits = model.forward_token_reference(tok, seq_cache, pos)
        batched_logits, _ = model.prefill(prompt)
        assert np.array_equal(logits, batched_logits)

    def test_forward_batch_matches_reference(self, num_heads, kv_heads):
        model = make_model(num_heads, kv_heads)
        prompts = [[1, 5, 9], [2, 6], [3, 7, 11, 13], [4, 8]]
        caches, positions, tokens = [], [], []
        ref_caches = []
        for i, prompt in enumerate(prompts):
            logits, cache = model.prefill(prompt)
            caches.append(cache)
            _, ref_cache = model.prefill(prompt)
            ref_caches.append(ref_cache)
            positions.append(len(prompt))
            tokens.append(int(np.argmax(logits)))
        # three decode steps: mixed then converging context lengths
        for step in range(3):
            batched = model.forward_batch(tokens, caches, positions)
            for i in range(len(prompts)):
                ref = model.forward_token_reference(
                    tokens[i], ref_caches[i], positions[i])
                assert np.array_equal(batched[i], ref), (step, i)
            positions = [p + 1 for p in positions]
            tokens = [int(np.argmax(batched[i]))
                      for i in range(len(prompts))]

    def test_prefill_resume_matches_cold(self, num_heads, kv_heads):
        model = make_model(num_heads, kv_heads)
        prompt = [1, 9, 4, 17, 2, 33, 8, 12]
        _, warm = model.prefill(prompt[:5])
        resumed, _ = model.prefill(prompt, cache=warm, start=5)
        cold, _ = model.prefill(prompt)
        assert np.array_equal(resumed, cold)

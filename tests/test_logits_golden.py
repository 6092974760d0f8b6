"""Frozen logits golden: raw FP16 logit bytes of the functional paths.

The serving digests fingerprint token *streams*, and the equivalence
tests compare the fast kernels against oracles built on the same
rounding primitives — neither would notice a rounding change shared by
both sides.  These digests hash the raw bytes of every logits vector the
functional model emits, so any change to a single bit of the FP16
datapath (rounding, reduction order, attention staging, KV8 storage)
fails here.  Re-pin them only for a change that is *meant* to alter the
simulated numerics.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import SMALL_MODEL, TINY_MODEL, QuantConfig
from repro.engine import ContinuousBatchScheduler, Request, build_backend
from repro.kv import PagedKVCache
from repro.model.quantized import QuantizedModel
from repro.model.weights import quantize_model, random_weights

#: prompt lengths of each seed's 8 prompts: spread over 1-39 so the
#: attention reductions cover odd/even widths and several tree depths.
PROMPT_LENS = (1, 2, 5, 9, 16, 23, 31, 39)
DECODE_STEPS = 12
QUANT = QuantConfig(weight_group_size=32)

GOLDEN = {
    ("tiny-test", 0): "bbcd6d1c2bafe1ce",
    ("tiny-test", 1): "b1f38c88d7b32816",
    ("tiny-test", 2): "578b00639eeb32d2",
    ("small-test", 0): "ef6774707152c97f",
    ("small-test", 1): "71c56eff7454a529",
    ("small-test", 2): "d8511138cd88e033",
}
#: the KV layout changes where K/V live, never what they hold, so both
#: KV modes of a TP group emit the same logits; and the FP16 tree
#: all-reduce reproduces one device's adder tree, so every TP degree
#: does too (the digests coincide with the single-device run's).
GOLDEN_TP2 = {"slotted": "585ed623a79a81ba", "paged": "585ed623a79a81ba"}
GOLDEN_TP4 = {"slotted": "585ed623a79a81ba", "paged": "585ed623a79a81ba"}
GOLDEN_TP = {2: GOLDEN_TP2, 4: GOLDEN_TP4}
GOLDEN_PAGED_VIEW = "ee5efc91929e4d86"


def _model(config, seed):
    return QuantizedModel(quantize_model(random_weights(config, seed=seed),
                                         QUANT))


def _prompts(config, seed):
    rng = np.random.default_rng(seed)
    return [[int(t) for t in rng.integers(0, config.vocab_size, size=n)]
            for n in PROMPT_LENS]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        assert a.dtype == np.float16
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _prefill_and_decode(model, prompts, caches, prepare=None):
    """Prefill every prompt into its cache, then ``DECODE_STEPS`` ragged
    ``forward_batch`` steps over all of them; yields every logits
    array in order.  ``prepare(i)``, for prefix-reusing caches, opens
    ``caches[i]`` and returns prompt ``i``'s resume point plus a hook
    to run once its prefill lands."""
    last = []
    for i, tokens in enumerate(prompts):
        start, finish = prepare(i) if prepare else (0, None)
        logits, _ = model.prefill(tokens, caches[i], start=start)
        if finish:
            finish()
        yield logits
        last.append(logits)
    positions = [len(p) for p in prompts]
    for _ in range(DECODE_STEPS):
        tokens = [int(np.argmax(row)) for row in last]
        batch = model.forward_batch(tokens, caches, positions)
        yield batch
        last = list(batch)
        positions = [p + 1 for p in positions]


@pytest.mark.parametrize("config", [TINY_MODEL, SMALL_MODEL],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefill_and_ragged_decode_logits_are_frozen(config, seed):
    from repro.model.kvcache import QuantizedKVCache

    model = _model(config, seed)
    prompts = _prompts(config, seed)
    caches = [QuantizedKVCache(config, QUANT.kv_bits) for _ in prompts]
    got = _digest(_prefill_and_decode(model, prompts, caches))
    assert got == GOLDEN[(config.name, seed)]


def test_paged_view_logits_are_frozen():
    """Block-table storage with a shared prefix (later prefills resume
    past the reused blocks) — the PagedSequenceView append/gather
    path."""
    config = TINY_MODEL
    model = _model(config, 0)
    system = _prompts(config, 0)[5][:16]
    prompts = [system + p[:24] for p in _prompts(config, 3)[:6]]
    paged = PagedKVCache(config, n_blocks=64, block_size=8,
                         store_data=True)
    caches, starts = [], []

    def prepare(i):
        # Open each sequence against the prefixes published so far.
        seq = paged.allocate(prompts[i])
        caches.append(paged.view(seq))
        starts.append(paged.cached_length(seq))
        return starts[-1], lambda: paged.commit_prefix(seq, prompts[i])

    arrays = list(_prefill_and_decode(model, prompts, caches, prepare))
    assert sum(starts) > 0
    assert _digest(arrays) == GOLDEN_PAGED_VIEW


def _record_logits(backend) -> list[np.ndarray]:
    """Wrap ``backend``'s prefill and batched decode so every logits
    vector it produces lands, in order, in the returned list."""
    emitted: list[np.ndarray] = []
    prefill, decode_batch = backend.prefill, backend.decode_batch

    def recording_prefill(state):
        cycles = prefill(state)
        emitted.append(state.logits)
        return cycles

    def recording_decode_batch(states):
        cycles = decode_batch(states)
        emitted.extend(s.logits for s in states)
        return cycles

    backend.prefill = recording_prefill
    backend.decode_batch = recording_decode_batch
    return emitted


@pytest.mark.parametrize("kv_mode", ["slotted", "paged"])
@pytest.mark.parametrize("tp", [2, 4])
def test_tp_group_logits_are_frozen(tp, kv_mode):
    config = TINY_MODEL
    qweights = quantize_model(random_weights(config, seed=1), QUANT)
    system = _prompts(config, 1)[4]
    requests = [Request(i, tuple(system[: 8 * (i % 3)] + p[:24]),
                        max_new_tokens=DECODE_STEPS)
                for i, p in enumerate(_prompts(config, 4))]
    backend = build_backend("functional", config, QUANT, qweights=qweights,
                            tp=tp, kv_mode=kv_mode, n_slots=4, block_size=8,
                            n_kv_blocks=48)
    emitted = _record_logits(backend)
    ContinuousBatchScheduler(backend, max_batch=4).run(requests)
    assert _digest(emitted) == GOLDEN_TP[tp][kv_mode]

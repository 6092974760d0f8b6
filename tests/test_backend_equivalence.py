"""Cross-backend differential harness.

One parametrized suite that replays the same trace through the
functional and cycle-model backends, under both the slotted and the
paged KV discipline, and checks that the engine's observable behaviour
is invariant to the backend/KV combination:

* token streams — the functional/slotted run is the reference; its
  recorded streams become the token oracle of the timing-only
  backend, so all four combinations must retire every request with
  exactly the same tokens;
* timing — the functional and cycle-model backends share one cost
  model, so their clocks must agree to float precision; batch=1 engine
  steps must equal the single-sequence cycle model exactly; and no
  decode step may beat the bandwidth roofline of its bus traffic, which
  it tracks within 10% in the DRAM-bound regime (LLaMA2-7B);
* paging — the paged runs must never be slower than slotted on a
  shared-prefix trace, and the functional paged run proves the shared
  blocks hold bit-identical K/V (else its argmax streams would drift).
"""

import numpy as np
import pytest

from repro.config import KV260, LLAMA2_7B, TINY_MODEL, W4A16_KV8, QuantConfig
from repro.core.cyclemodel import CycleModel
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    FunctionalBackend,
    Request,
    build_backend,
    synthetic_trace,
)
from repro.engine.backends import (
    _FF_VECTOR_MIN_STEPS,
    _stream_token,
    _stream_tokens,
)
from repro.memory.traffic import decode_traffic

from report_checks import assert_reports_identical

BACKENDS = ("functional", "cycle")
KV_MODES = ("slotted", "paged")

BLOCK_SIZE = 8
BUDGET_TOKENS = 256  # loose enough that no combination preempts
MAX_BATCH = 4


@pytest.fixture(scope="module")
def quant32():
    return QuantConfig(weight_group_size=32)


def shared_prefix_trace():
    """Six argmax requests, four sharing a 16-token system prompt."""
    system = tuple(range(1, 17))
    prompts = [system + (30 + i, 40 + i) for i in range(4)]
    prompts += [(7, 8, 9), (250, 251, 252, 253)]
    return [Request(i, p, max_new_tokens=6)
            for i, p in enumerate(prompts)]


def make_backend(name, kv_mode, qweights, quant, oracle=None,
                 model=TINY_MODEL, n_slots=MAX_BATCH):
    kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
              n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
    if name == "functional":
        return FunctionalBackend(qweights, n_slots=n_slots, **kv)
    return CycleModelBackend(model, quant, n_slots=n_slots,
                             token_oracle=oracle, **kv)


def run_engine(backend, requests, max_batch=MAX_BATCH):
    budget = BUDGET_TOKENS if backend.paged_kv is None else None
    engine = ContinuousBatchScheduler(backend, max_batch=max_batch,
                                      kv_token_budget=budget)
    return engine.run(requests)


def streams_of(report):
    return {r.request_id: tuple(r.tokens) for r in report.results}


@pytest.fixture(scope="module")
def reference(tiny_qweights, quant32):
    """Functional/slotted run: the source of truth for tokens + timing."""
    backend = make_backend("functional", "slotted", tiny_qweights, quant32)
    report = run_engine(backend, shared_prefix_trace())
    return report


@pytest.fixture(scope="module")
def oracle(reference):
    streams = streams_of(reference)

    def _oracle(request_id, step):
        return streams[request_id][step]

    return _oracle


class TestTokenStreamEquivalence:
    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("name", BACKENDS)
    def test_identical_streams(self, name, kv_mode, tiny_qweights,
                               quant32, reference, oracle):
        backend = make_backend(name, kv_mode, tiny_qweights, quant32,
                               oracle=oracle)
        report = run_engine(backend, shared_prefix_trace())
        assert streams_of(report) == streams_of(reference)
        assert {r.request_id: r.finish_reason for r in report.results} \
            == {r.request_id: r.finish_reason
                for r in reference.results}

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_functional_and_cycle_clocks_agree(self, kv_mode,
                                               tiny_qweights, quant32,
                                               reference, oracle):
        """Same cost model + same token streams => identical clocks."""
        fn = make_backend("functional", kv_mode, tiny_qweights, quant32)
        cy = make_backend("cycle", kv_mode, tiny_qweights, quant32,
                          oracle=oracle)
        fn_report = run_engine(fn, shared_prefix_trace())
        cy_report = run_engine(cy, shared_prefix_trace())
        assert fn_report.total_time_s \
            == pytest.approx(cy_report.total_time_s, rel=1e-12)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_paged_never_slower_on_shared_prefixes(self, name,
                                                   tiny_qweights, quant32,
                                                   oracle):
        runs = {}
        for kv_mode in KV_MODES:
            backend = make_backend(name, kv_mode, tiny_qweights, quant32,
                                   oracle=oracle)
            runs[kv_mode] = run_engine(backend, shared_prefix_trace())
        assert runs["paged"].total_time_s < runs["slotted"].total_time_s

    def test_paged_functional_reuses_blocks(self, tiny_qweights, quant32):
        backend = make_backend("functional", "paged", tiny_qweights,
                               quant32)
        run_engine(backend, shared_prefix_trace())
        # Three of the four system-prompt sharers skip 2 blocks each.
        assert backend.paged_kv.prefix_reused_tokens \
            == 3 * 2 * BLOCK_SIZE
        backend.paged_kv.audit()


class TestBatchOneMatchesSingleSequenceModel:
    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_cycle_backend_batch1_steps(self, quant32, kv_mode):
        prompt = (5, 6, 7, 8)
        backend = make_backend("cycle", kv_mode, None, quant32,
                               n_slots=1)
        report = run_engine(backend, [Request(0, prompt, 5)],
                            max_batch=1)
        cm = CycleModel(TINY_MODEL, quant32)
        freq = backend.freq_hz
        (result,) = report.results
        # Step i forwards with context prompt + i cached tokens.
        for i, step_s in enumerate(result.decode_step_s):
            want = cm.decode_step(len(prompt) + i).cycles
            assert step_s * freq == pytest.approx(want, rel=1e-12)

    def test_prefill_matches_single_sequence_model(self, quant32):
        prompt = (5, 6, 7, 8)
        backend = make_backend("cycle", "slotted", None, quant32,
                               n_slots=1)
        engine = ContinuousBatchScheduler(backend, max_batch=1,
                                          kv_token_budget=BUDGET_TOKENS)
        state = engine.submit(Request(0, prompt, 3))
        engine.run()
        cm = CycleModel(TINY_MODEL, quant32)
        assert state.prefill_cycles \
            == pytest.approx(cm.prefill_cycles(len(prompt)), rel=1e-12)


def roofline_s(model, quant, context, tp=1):
    """DDR-bound time of one batch-1 decode step: its bus bytes at the
    platform's peak bandwidth."""
    return decode_traffic(model, quant, context, tp).total_bytes \
        / KV260.bandwidth_bytes_per_s


def single_steps(backend, prompt, n_new):
    """``(context, step seconds)`` of one request decoded alone."""
    report = run_engine(backend, [Request(0, prompt, n_new)], max_batch=1)
    (result,) = report.results
    return [(len(prompt) + i, step_s)
            for i, step_s in enumerate(result.decode_step_s)]


class TestCycleModelRespectsRoofline:
    """The cycle model and the bandwidth roofline charge the same bus
    bytes: a decode step never beats the DDR-bound time of its traffic,
    and where decode is DRAM-bound (LLaMA2-7B) it lands within 10% of
    it — the paper's near-peak bandwidth utilization."""

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_bandwidth_bound_regime(self, kv_mode):
        backend = make_backend("cycle", kv_mode, None, W4A16_KV8,
                               model=LLAMA2_7B, n_slots=1)
        steps = single_steps(backend, tuple(range(1, 17)), 6)
        assert len(steps) == 6
        for context, step_s in steps:
            roof = roofline_s(LLAMA2_7B, W4A16_KV8, context)
            assert roof <= step_s < roof / 0.9, context

    def test_roofline_is_a_lower_bound_on_tiny(self, quant32):
        """The tiny model is overhead-dominated: far off the roofline,
        but never under it."""
        backend = make_backend("cycle", "slotted", None, quant32,
                               n_slots=1)
        for context, step_s in single_steps(backend, (5, 6, 7, 8), 12):
            assert roofline_s(TINY_MODEL, quant32, context) <= step_s

    def test_sharded_step_respects_the_shard_roofline(self):
        """A TP=2 shard streams half the projections and KV; its step
        (all-reduce included) stays above the shard's roofline and
        within 10% of it on LLaMA2-7B, and under the unsharded step."""
        backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2, n_slots=1)
        single = CycleModelBackend(LLAMA2_7B, W4A16_KV8, n_slots=1)
        for context, step_s in single_steps(backend, tuple(range(1, 9)),
                                            4):
            roof = roofline_s(LLAMA2_7B, W4A16_KV8, context, tp=2)
            assert roof <= step_s < roof / 0.9, context
            assert step_s < single.step_cycles([context]) \
                / single.freq_hz


class BuilderCycleBackend(CycleModelBackend):
    """Oracle: every step and prompt priced by the cycle model's full
    schedule builders instead of the memoized decomposition."""

    def step_cycles(self, contexts, fetched=None):
        cycles = self.cycles.batched_decode_step(contexts, self.mode,
                                                 fetched).cycles
        if self.comm is None:
            return cycles
        return cycles + self.comm.decode_step_cycles(len(contexts))

    def prefill_cycles(self, n_tokens, start=0):
        total = self.cycles.prefill_cycles(n_tokens, start)
        if self.comm is None:
            return total
        return total + self.comm.prefill_cycles(n_tokens - start)


class TestFastForwardEquivalence:
    """The fast-forward path and the memoized step costs are pure
    accelerations: every per-step observable — sampled tokens, per-step
    cycles and latencies, step counts, clocks — must be bit-identical
    to the eager step loop over the original builders (the
    ``BuilderCycleBackend`` oracle), under both KV disciplines and with
    arrival-gated traffic forcing windows to break mid-run.
    """

    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("arrival_rate", [1e9, 300.0])
    def test_fast_forward_is_bit_identical(self, kv_mode, arrival_rate, tp,
                                           quant32):
        trace = synthetic_trace(TINY_MODEL, 20,
                                arrival_rate_rps=arrival_rate, seed=9,
                                prompt_len=(3, 10), decode_len=(4, 30),
                                shared_prefix_len=8)
        kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
                  n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
        budget = BUDGET_TOKENS if kv_mode == "slotted" else None

        def run(cls, fast_forward):
            backend = cls(TINY_MODEL, quant32, tp=tp, n_slots=MAX_BATCH,
                          **kv)
            engine = ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH, kv_token_budget=budget,
                fast_forward=fast_forward)
            return engine.run(trace)

        reference = run(BuilderCycleBackend, False)
        assert_reports_identical(run(CycleModelBackend, False), reference)
        assert_reports_identical(run(CycleModelBackend, True), reference)

    @pytest.mark.parametrize("tp", [1, 2])
    def test_llama2_7b_paged_shared_prefix_is_bit_identical(self, tp):
        """The paper's deployment (LLaMA2-7B, paged KV, a 16-token
        shared prefix), alone and as a TP=2 group: windows and eager
        steps both equal the reference schedule builders, with arrivals
        spread over the run so windows break mid-decode."""
        trace = synthetic_trace(LLAMA2_7B, 8, arrival_rate_rps=2.0,
                                seed=5, prompt_len=(3, 8),
                                decode_len=(8, 40), shared_prefix_len=16)

        def run(cls, fast_forward):
            backend = cls(LLAMA2_7B, W4A16_KV8, tp=tp, n_slots=MAX_BATCH,
                          kv_mode="paged", block_size=BLOCK_SIZE)
            engine = ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH, fast_forward=fast_forward)
            return engine.run(trace)

        reference = run(BuilderCycleBackend, False)
        assert_reports_identical(run(CycleModelBackend, True), reference)
        assert_reports_identical(run(CycleModelBackend, False), reference)

    @pytest.mark.parametrize("fetched", [None, [5, 9, 24]],
                             ids=["slotted", "paged"])
    @pytest.mark.parametrize("n_steps", [
        1, _FF_VECTOR_MIN_STEPS - 1, _FF_VECTOR_MIN_STEPS,
        2 * _FF_VECTOR_MIN_STEPS + 3])
    @pytest.mark.parametrize("model", [TINY_MODEL, LLAMA2_7B],
                             ids=lambda m: m.name)
    def test_window_folds_match_reference_steps(self, model, n_steps,
                                                fetched):
        """Both cycle folds — the scalar loop below
        ``_FF_VECTOR_MIN_STEPS`` steps and the numpy fold from there on
        — equal the reference schedule builder step by step, fetching
        every cached token (slotted) or paged fetch counts below the
        contexts."""
        backend = CycleModelBackend(model, W4A16_KV8, n_slots=MAX_BATCH)
        contexts = [5, 17, 40]
        want = [backend.cycles.batched_decode_step(
                    [c + j for c in contexts], "fused",
                    None if fetched is None else [f + j for f in fetched]
                ).cycles
                for j in range(n_steps)]
        assert backend._fast_forward_cycles(contexts, fetched,
                                            n_steps) == want

    @pytest.mark.parametrize("request_id", [0, 3, 1_000_003, 7_654_321])
    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_stream_tokens_equal_the_scalar_hash(self, request_id, n):
        """The list builder is :func:`_stream_token` step by step: no
        EOS, an ``eos_id`` the hash never hits, and one it hits inside
        the window (the raw hash's own token at step ``n // 2``)."""
        vocab, base = TINY_MODEL.vocab_size, 11
        raw = [_stream_token(request_id, base + j, vocab, None)
               for j in range(64)]
        hit = raw[n // 2]
        missed = next(t for t in range(vocab) if t not in raw)
        for eos in (None, missed, hit):
            want = [_stream_token(request_id, base + j, vocab, eos)
                    for j in range(n)]
            assert _stream_tokens(request_id, base, n, vocab, eos) == want
            assert eos is None or eos not in want
        if n:
            assert _stream_tokens(request_id, base, n, vocab, hit) != \
                raw[:n]

    def test_stream_tokens_skip_wraps_past_the_last_id(self):
        """An EOS at the vocabulary's last id skips to token 0."""
        vocab = TINY_MODEL.vocab_size
        request_id, step = next(
            (r, j) for r in range(2_000_000, 2_100_000) for j in range(8)
            if _stream_token(r, j, vocab, None) == vocab - 1)
        tokens = _stream_tokens(request_id, 0, step + 1, vocab, vocab - 1)
        assert tokens[step] == 0
        assert tokens == [_stream_token(request_id, j, vocab, vocab - 1)
                          for j in range(step + 1)]

    def test_sharded_fast_forward_is_bit_identical(self, quant32):
        trace = synthetic_trace(TINY_MODEL, 12, arrival_rate_rps=500.0,
                                seed=4, prompt_len=(3, 10),
                                decode_len=(4, 24))

        def run(fast_forward):
            backend = CycleModelBackend(TINY_MODEL, quant32, tp=2,
                                        n_slots=MAX_BATCH)
            engine = ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH,
                kv_token_budget=BUDGET_TOKENS, fast_forward=fast_forward)
            return engine.run(trace)

        assert_reports_identical(run(True), run(False))

    def test_fast_forward_handles_finite_oracle_stream(self, quant32):
        """A recorded oracle ends at its EOS; the fast-forward window
        probe must not index past it even when max_new_tokens is larger
        (regression: planned_tokens used to prefetch the whole window)."""
        stream = (21, 22, 7)  # EOS 7 sampled at step 2

        def oracle(request_id, step):
            return stream[step]

        def run(fast_forward):
            backend = CycleModelBackend(TINY_MODEL, quant32, n_slots=1,
                                        token_oracle=oracle)
            engine = ContinuousBatchScheduler(
                backend, max_batch=1, kv_token_budget=BUDGET_TOKENS,
                fast_forward=fast_forward)
            return engine.run([Request(0, (5, 6), max_new_tokens=30,
                                       eos_id=7)])

        fast, slow = run(True), run(False)
        assert_reports_identical(fast, slow)
        assert streams_of(fast) == {0: stream}

    def test_fast_forward_respects_eos_retirement(self, quant32,
                                                  reference, oracle):
        """An oracle stream ending in EOS must retire at the same step
        with and without fast-forward (windows cannot skip the EOS)."""
        def run(fast_forward):
            backend = make_backend("cycle", "slotted", None, quant32,
                                   oracle=oracle)
            engine = ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH,
                kv_token_budget=BUDGET_TOKENS, fast_forward=fast_forward)
            return engine.run(shared_prefix_trace())

        assert_reports_identical(run(True), run(False))
        assert streams_of(run(True)) == streams_of(reference)


class TestBatchedDecodeEquivalence:
    """The functional backend's stacked ``forward_batch`` decode must
    emit the token stream of the scalar per-token reference path."""

    def test_forward_batch_stream_matches_scalar_reference(
            self, tiny_qweights, reference):
        from repro.model.kvcache import QuantizedKVCache

        model = FunctionalBackend(tiny_qweights,
                                  n_slots=MAX_BATCH).functional
        want = streams_of(reference)
        for request in shared_prefix_trace():
            cache = QuantizedKVCache(model.config,
                                     model.qweights.quant.kv_bits)
            logits = None
            for pos, tok in enumerate(request.prompt):
                logits = model.forward_token_reference(tok, cache, pos)
            got = []
            position = len(request.prompt)
            for _ in range(request.max_new_tokens):
                token = int(np.argmax(logits))
                got.append(token)
                if token == request.eos_id:
                    break
                if len(got) == request.max_new_tokens:
                    break
                logits = model.forward_token_reference(token, cache,
                                                       position)
                position += 1
            assert tuple(got) == want[request.request_id]


class TestShardedEquivalence:
    """Cluster equivalence: a TP group is still the same engine.

    The functional TP=2 (and TP=4) group must retire every request with
    exactly the token stream of the single-device reference — the FP16
    tree reduction reproducing the DOT engine's rounding — and keep the
    sharded cycle model's clock.
    """

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("tp", [2, 4])
    def test_functional_tp_streams_match_tp1(self, tp, kv_mode,
                                             tiny_qweights, reference):
        backend = FunctionalBackend(
            tiny_qweights, tp=tp, kv_mode=kv_mode, block_size=BLOCK_SIZE,
            n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
        report = run_engine(backend, shared_prefix_trace())
        assert streams_of(report) == streams_of(reference)
        assert {r.request_id: r.finish_reason for r in report.results} \
            == {r.request_id: r.finish_reason
                for r in reference.results}

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("tp", [2, 4])
    def test_sharded_functional_and_cycle_clocks_agree(self, tp, kv_mode,
                                                       tiny_qweights,
                                                       quant32, oracle):
        """Same per-shard cost model + same comm model + same tokens
        => identical cluster clocks, to the last bit."""
        kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
                  n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
        fn = build_backend("functional", TINY_MODEL, quant32,
                           qweights=tiny_qweights, tp=tp, **kv)
        cy = CycleModelBackend(TINY_MODEL, quant32, tp=tp,
                               n_slots=MAX_BATCH, token_oracle=oracle, **kv)
        fn_report = run_engine(fn, shared_prefix_trace())
        cy_report = run_engine(cy, shared_prefix_trace())
        assert fn_report.total_time_s == cy_report.total_time_s

"""Cross-backend differential harness.

One parametrized suite that replays the same trace through the
functional, cycle-model, and analytical backends, under both the
slotted and the paged KV discipline, and checks that the engine's
observable behaviour is invariant to the backend/KV combination:

* token streams — the functional/slotted run is the reference; its
  recorded streams become the token oracle of the timing-only
  backends, so all six combinations must retire every request with
  exactly the same tokens;
* timing — the functional and cycle-model backends share one cost
  model, so their clocks must agree to float precision; batch=1 engine
  steps must equal the single-sequence cycle model exactly; and the
  analytical roofline must track the cycle model within tolerance in
  the bandwidth-bound regime it models (LLaMA2-7B);
* paging — the paged runs must never be slower than slotted on a
  shared-prefix trace, and the functional paged run proves the shared
  blocks hold bit-identical K/V (else its argmax streams would drift).
"""

import numpy as np
import pytest

from repro.cluster import (
    TEN_GIG_ETHERNET,
    ShardedAnalyticalBackend,
    ShardedCycleBackend,
    ShardedFunctionalBackend,
)
from repro.config import LLAMA2_7B, TINY_MODEL, W4A16_KV8, QuantConfig
from repro.core.cyclemodel import CycleModel
from repro.engine import (
    AnalyticalBackend,
    ContinuousBatchScheduler,
    CycleModelBackend,
    FunctionalBackend,
    Request,
    synthetic_trace,
)

from report_checks import assert_reports_identical

BACKENDS = ("functional", "cycle", "analytical")
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
    cls = CycleModelBackend if name == "cycle" else AnalyticalBackend
    return cls(model, quant, n_slots=n_slots, token_oracle=oracle, **kv)


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
        engine.run([Request(0, prompt, 3)])
        cm = CycleModel(TINY_MODEL, quant32)
        assert engine.finished[0].prefill_cycles \
            == pytest.approx(cm.prefill_cycles(len(prompt)), rel=1e-12)


class TestAnalyticalTracksCycleModel:
    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_bandwidth_bound_regime(self, kv_mode):
        """On LLaMA2-7B the roofline and the cycle model must agree
        closely: decode is DRAM-bound and both charge the same bytes."""
        trace = synthetic_trace(LLAMA2_7B, 6, arrival_rate_rps=1e9,
                                seed=3, shared_prefix_len=16)
        times = {}
        for name in ("cycle", "analytical"):
            backend = make_backend(name, kv_mode, None, W4A16_KV8,
                                   model=LLAMA2_7B)
            times[name] = run_engine(backend, trace).total_time_s
        ratio = times["analytical"] / times["cycle"]
        assert ratio == pytest.approx(1.0, rel=0.05)

    def test_roofline_is_a_lower_bound_on_tiny(self, quant32, oracle):
        """The tiny model is overhead-dominated; the roofline may be
        optimistic but must never charge more than the cycle model."""
        times = {}
        for name in ("cycle", "analytical"):
            backend = make_backend(name, "slotted", None, quant32,
                                   oracle=oracle)
            times[name] = run_engine(
                backend, shared_prefix_trace()).total_time_s
        assert times["analytical"] <= times["cycle"]


class TestFastForwardEquivalence:
    """The fast-forward path and the memoized step costs are pure
    accelerations: every per-step observable — sampled tokens, per-step
    cycles and latencies, step counts, clocks — must be bit-identical
    to the step-by-step loop over the original schedule builders
    (``reference_costs=True``), under both KV disciplines and with
    arrival-gated traffic forcing windows to break mid-run.
    """

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("name", ["cycle", "analytical"])
    @pytest.mark.parametrize("arrival_rate", [1e9, 300.0])
    def test_fast_forward_is_bit_identical(self, name, kv_mode,
                                           arrival_rate, quant32):
        trace = synthetic_trace(TINY_MODEL, 20,
                                arrival_rate_rps=arrival_rate, seed=9,
                                prompt_len=(3, 10), decode_len=(4, 30),
                                shared_prefix_len=8)
        cls = CycleModelBackend if name == "cycle" else AnalyticalBackend
        kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
                  n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
        budget = BUDGET_TOKENS if kv_mode == "slotted" else None

        def run(fast_forward, reference_costs):
            backend = cls(TINY_MODEL, quant32, n_slots=MAX_BATCH,
                          reference_costs=reference_costs, **kv)
            engine = ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH, kv_token_budget=budget,
                fast_forward=fast_forward)
            return engine.run(trace)

        reference = run(False, True)
        assert_reports_identical(run(False, False), reference)
        assert_reports_identical(run(True, False), reference)

    def test_llama2_7b_paged_shared_prefix_is_bit_identical(self):
        """The paper's deployment (LLaMA2-7B, paged KV, a 16-token
        shared prefix): windows and eager steps both equal the
        reference schedule builders, with arrivals spread over the run
        so windows break mid-decode."""
        trace = synthetic_trace(LLAMA2_7B, 8, arrival_rate_rps=2.0,
                                seed=5, prompt_len=(3, 8),
                                decode_len=(8, 40), shared_prefix_len=16)

        def run(fast_forward, reference_costs):
            backend = CycleModelBackend(
                LLAMA2_7B, W4A16_KV8, n_slots=MAX_BATCH, kv_mode="paged",
                block_size=BLOCK_SIZE, reference_costs=reference_costs)
            engine = ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH, fast_forward=fast_forward)
            return engine.run(trace)

        reference = run(False, True)
        assert_reports_identical(run(True, False), reference)
        assert_reports_identical(run(False, False), reference)

    @pytest.mark.parametrize("cls", [ShardedCycleBackend,
                                     ShardedAnalyticalBackend])
    def test_sharded_fast_forward_is_bit_identical(self, cls, quant32):
        trace = synthetic_trace(TINY_MODEL, 12, arrival_rate_rps=500.0,
                                seed=4, prompt_len=(3, 10),
                                decode_len=(4, 24))

        def run(fast_forward):
            backend = cls(TINY_MODEL, quant32, tp=2, n_slots=MAX_BATCH)
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
    tree reduction reproducing the DOT engine's rounding — and the
    sharded analytical roofline must stay within tolerance of the
    sharded cycle model in the bandwidth-bound regime.
    """

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("tp", [2, 4])
    def test_functional_tp_streams_match_tp1(self, tp, kv_mode,
                                             tiny_qweights, reference):
        backend = ShardedFunctionalBackend(
            tiny_qweights, tp=tp, kv_mode=kv_mode, block_size=BLOCK_SIZE,
            n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
        report = run_engine(backend, shared_prefix_trace())
        assert streams_of(report) == streams_of(reference)
        assert {r.request_id: r.finish_reason for r in report.results} \
            == {r.request_id: r.finish_reason
                for r in reference.results}

    def test_sharded_functional_and_cycle_clocks_agree(self, tiny_qweights,
                                                       quant32, oracle):
        """Same per-shard cost model + same comm model + same tokens
        => identical cluster clocks."""
        fn = ShardedFunctionalBackend(
            tiny_qweights, tp=2, kv_mode="slotted", block_size=BLOCK_SIZE,
            n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
        cy = ShardedCycleBackend(
            TINY_MODEL, quant32, tp=2, kv_mode="slotted",
            block_size=BLOCK_SIZE,
            n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE, n_slots=MAX_BATCH,
            token_oracle=oracle)
        fn_report = run_engine(fn, shared_prefix_trace())
        cy_report = run_engine(cy, shared_prefix_trace())
        assert fn_report.total_time_s \
            == pytest.approx(cy_report.total_time_s, rel=1e-12)

    def test_analytical_tp_tracks_sharded_cycle_model(self):
        """On LLaMA2-7B the sharded roofline and the sharded cycle
        model must agree closely: both charge 1/tp of the DRAM bytes
        plus the identical collective time."""
        trace = synthetic_trace(LLAMA2_7B, 6, arrival_rate_rps=1e9,
                                seed=3, shared_prefix_len=16)
        times = {}
        for cls in (ShardedCycleBackend, ShardedAnalyticalBackend):
            backend = cls(LLAMA2_7B, W4A16_KV8, tp=2,
                          interconnect=TEN_GIG_ETHERNET,
                          n_slots=MAX_BATCH)
            times[cls] = run_engine(backend, trace).total_time_s
        ratio = times[ShardedAnalyticalBackend] / times[ShardedCycleBackend]
        assert ratio == pytest.approx(1.0, rel=0.05)

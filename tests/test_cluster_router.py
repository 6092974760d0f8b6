"""Data-parallel replica routing and merged cluster reports."""

import dataclasses

import pytest

from repro.cluster import ReplicaRouter
from repro.cluster.router import _affinity_key
from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    Request,
    ServeReport,
    synthetic_trace,
)
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def quant32():
    return QuantConfig(weight_group_size=32)


def engines(quant, n, kv_mode="slotted", max_batch=4, **kv):
    return [ContinuousBatchScheduler(
        CycleModelBackend(TINY_MODEL, quant, n_slots=max_batch,
                          kv_mode=kv_mode, **kv),
        max_batch=max_batch, kv_token_budget=256 if kv_mode == "slotted"
        else None)
        for _ in range(n)]


def trace(n=8, seed=0, shared_prefix_len=0):
    return synthetic_trace(TINY_MODEL, n_requests=n, arrival_rate_rps=1e9,
                           prompt_len=(3, 6), decode_len=(4, 8), seed=seed,
                           shared_prefix_len=shared_prefix_len)


class TestPolicies:
    def test_round_robin_spreads_evenly(self, quant32):
        router = ReplicaRouter(engines(quant32, 3), policy="round_robin")
        report = router.run(trace(9))
        assert [r.n_requests for r in report.replica_reports] == [3, 3, 3]

    def test_least_loaded_balances_token_work(self, quant32):
        router = ReplicaRouter(engines(quant32, 2), policy="least_loaded")
        # One giant request, then small ones: the giant replica must be
        # avoided until loads even out.
        reqs = [Request(0, tuple(range(1, 30)), max_new_tokens=30)]
        reqs += [Request(i, (5, 6, 7), max_new_tokens=4)
                 for i in range(1, 6)]
        router.run(reqs)
        assert router.assignments[0] == 0
        assert all(router.assignments[i] == 1 for i in range(1, 5))

    @pytest.mark.parametrize("policy", ("round_robin", "least_loaded",
                                        "prefix_affinity"))
    def test_running_load_counters_match_recomputation(self, quant32,
                                                       policy):
        """The O(1) load ledger must equal summing every routed
        request's cost from scratch — the pinned invariant behind
        least-loaded's incremental bookkeeping."""
        router = ReplicaRouter(engines(quant32, 3), policy=policy)
        reqs = trace(17, seed=5, shared_prefix_len=4)
        for request in reqs:
            router.route(request)
        assert router.loads == router.recompute_loads(reqs)
        assert sum(router.loads) == sum(
            len(r.prompt) + r.max_new_tokens for r in reqs)

    def test_prefix_affinity_colocates_shared_prompts(self, quant32):
        router = ReplicaRouter(engines(quant32, 4),
                               policy="prefix_affinity")
        shared = trace(8, shared_prefix_len=16)
        report = router.run(shared)
        replicas = {report.assignments[r.request_id] for r in shared}
        assert len(replicas) == 1  # every sharer landed together

    def test_prefix_affinity_feeds_one_paged_cache(self, quant32):
        """Colocated sharers hit one replica's PrefixCache; a spread
        policy would split (and duplicate) the resident blocks."""
        group = [ContinuousBatchScheduler(
            CycleModelBackend(TINY_MODEL, quant32, n_slots=4,
                              kv_mode="paged", block_size=8,
                              n_kv_blocks=32), max_batch=4)
            for _ in range(2)]
        router = ReplicaRouter(group, policy="prefix_affinity")
        router.run(trace(6, shared_prefix_len=16))
        reused = [e.backend.paged_kv.prefix_reused_tokens for e in group]
        assert sorted(reused) == [0, 5 * 16]  # one cold, one all-hits

    def test_short_prompts_fall_back_to_least_loaded(self, quant32):
        router = ReplicaRouter(engines(quant32, 2),
                               policy="prefix_affinity")
        reqs = [Request(i, (9,), max_new_tokens=2) for i in range(4)]
        router.run(reqs)
        counts = [0, 0]
        for replica in router.assignments.values():
            counts[replica] += 1
        assert counts == [2, 2]

    def test_affinity_key_ignores_final_token(self):
        assert _affinity_key((1, 2, 3), 8) == _affinity_key((1, 2, 9), 8)
        assert _affinity_key((1, 2, 3, 4), 2) == _affinity_key(
            (1, 2, 7, 8), 2)


class TestMergedReport:
    def test_merge_preserves_all_requests_and_metrics(self, quant32):
        router = ReplicaRouter(engines(quant32, 2))
        report = router.run(trace(8))
        assert isinstance(report, ServeReport)
        assert len(report.results) == 8
        assert [r.request_id for r in report.results] == list(range(8))
        assert report.total_time_s == max(
            r.total_time_s for r in report.replica_reports)
        assert report.n_steps == sum(
            r.n_steps for r in report.replica_reports)
        # Report metrics work on the union.
        assert report.mean_ttft_s > 0
        assert report.ttft_percentile_s(95) >= report.ttft_percentile_s(50)
        assert report.latency_percentile_s(50) > 0

    def test_replicas_raise_cluster_throughput(self, quant32):
        single = ReplicaRouter(engines(quant32, 1)).run(trace(12))
        double = ReplicaRouter(engines(quant32, 2)).run(trace(12))
        assert double.aggregate_tokens_per_s \
            > 1.5 * single.aggregate_tokens_per_s

    def test_merge_requires_reports(self):
        with pytest.raises(SimulationError):
            ServeReport.merge([], {})


class TestRouterGuards:
    def test_empty_router_rejected(self):
        with pytest.raises(SimulationError):
            ReplicaRouter([])

    def test_unknown_policy_rejected(self, quant32):
        with pytest.raises(SimulationError):
            ReplicaRouter(engines(quant32, 2), policy="random")

    def test_double_routing_rejected(self, quant32):
        router = ReplicaRouter(engines(quant32, 2))
        request = Request(0, (1, 2, 3), max_new_tokens=2)
        router.route(request)
        with pytest.raises(SimulationError):
            router.route(request)

    @pytest.mark.parametrize("factory,match", [
        (False, "already routed"), (True, "request 1 was served twice")],
        ids=["list", "factory"])
    def test_repeated_request_id_rejected(self, quant32, factory, match):
        """A sorted trace that repeats a request id is refused: a list
        by the routing guard, a streamed factory (which keeps no id
        map) when the replica reports merge."""
        requests = trace(4)
        requests[2] = dataclasses.replace(requests[2], request_id=1)
        router = ReplicaRouter(engines(quant32, 2))
        with pytest.raises(SimulationError, match=match):
            router.run((lambda: iter(requests)) if factory else requests)

    def test_streaming_factory_run_records_no_assignments(self, quant32):
        """A factory run keeps no O(trace) id map: ``assignments`` stays
        empty and every request is still served."""
        requests = trace(6)
        router = ReplicaRouter(engines(quant32, 2))
        report = router.run(lambda: iter(requests))
        assert router.assignments == {}
        assert report.n_requests == 6

    def test_run_is_repeatable(self, quant32):
        """Each run() is a fresh replay: request ids and load state from
        an earlier replay must not leak into the next."""
        router = ReplicaRouter(engines(quant32, 2), policy="least_loaded")
        first = router.run(trace(6))
        second = router.run(trace(6))
        assert first.assignments == second.assignments
        assert len(second.results) == 6

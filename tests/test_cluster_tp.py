"""TP groups: timing composition, capacity scaling, functional guards."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import GIG_ETHERNET, TEN_GIG_ETHERNET
from repro.config import KV260, LLAMA2_7B, TINY_MODEL, W4A16_KV8, QuantConfig
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    FunctionalBackend,
    Request,
    build_backend,
    derive_kv_token_budget,
)
from repro.errors import SimulationError
from repro.model.quantized import QuantizedModel
from repro.model.weights import quantize_model, random_weights
from repro.numerics.fp16 import fp16, fp16_matmul_t, fp16_tree_combine


@pytest.fixture(scope="module")
def quant32():
    return QuantConfig(weight_group_size=32)


def tiny_trace():
    return [Request(i, (10 + i, 20 + i, 30 + i), max_new_tokens=5)
            for i in range(4)]


class TestShardedTiming:
    def test_tp1_cycle_backend_matches_unsharded_exactly(self, quant32):
        """Degenerate TP group: no comm (the link is never priced),
        per-shard model == full model."""
        trace = tiny_trace()
        plain = CycleModelBackend(TINY_MODEL, quant32, n_slots=4)
        sharded = CycleModelBackend(TINY_MODEL, quant32, tp=1,
                                    interconnect=GIG_ETHERNET)
        assert sharded.comm is None
        t_plain = ContinuousBatchScheduler(
            plain, max_batch=4, kv_token_budget=256).run(trace).total_time_s
        t_sharded = ContinuousBatchScheduler(
            sharded, max_batch=4, kv_token_budget=256).run(trace).total_time_s
        assert t_plain == t_sharded

    def test_7b_step_splits_weights_plus_comm(self):
        """One TP=2 step = half the weight/KV stream + the collectives."""
        plain = CycleModelBackend(LLAMA2_7B, W4A16_KV8)
        sharded = CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2,
                                    interconnect=TEN_GIG_ETHERNET)
        contexts = [512] * 4
        shard_only = sharded.step_cycles(contexts) \
            - sharded.comm.decode_step_cycles(4)
        full = plain.step_cycles(contexts)
        # The shard streams half the projections but all the norms and
        # per-member misc, so it sits just above full/2.
        assert full / 2 < shard_only < full * 0.6
        assert sharded.step_cycles(contexts) > shard_only

    def test_7b_tp_decode_is_faster_but_sublinear(self):
        steps = {}
        for tp in (1, 2, 4):
            backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=tp,
                                        interconnect=TEN_GIG_ETHERNET)
            steps[tp] = backend.step_cycles([512] * 4)
        assert steps[2] < steps[1] and steps[4] < steps[2]
        assert steps[1] / steps[2] < 2.0
        assert steps[1] / steps[4] < 4.0

    def test_slower_link_costs_more(self):
        fast = CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2,
                                 interconnect=TEN_GIG_ETHERNET)
        slow = CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2,
                                 interconnect=GIG_ETHERNET)
        assert slow.step_cycles([128]) > fast.step_cycles([128])

    def test_prefill_charges_comm_only_for_computed_positions(self, quant32):
        backend = CycleModelBackend(TINY_MODEL, quant32, tp=2)
        full = backend.prefill_cycles(8)
        resumed = backend.prefill_cycles(8, start=4)
        assert resumed < full
        comm4 = backend.comm.prefill_cycles(4)
        comm8 = backend.comm.prefill_cycles(8)
        assert full - comm8 > resumed - comm4

class TestShardedCapacity:
    def test_budget_grows_superlinearly_with_tp(self):
        budgets = [derive_kv_token_budget(LLAMA2_7B, W4A16_KV8, KV260,
                                          cap_tokens=10**9, tp=tp)
                   for tp in (1, 2, 4)]
        assert budgets[1] > 2 * budgets[0]
        assert budgets[2] > 2 * budgets[1]

    def test_scheduler_uses_sharded_budget(self):
        plain = ContinuousBatchScheduler(
            CycleModelBackend(LLAMA2_7B, W4A16_KV8, n_slots=4), max_batch=4)
        sharded = ContinuousBatchScheduler(
            CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2, n_slots=4),
            max_batch=4)
        assert sharded.kv_token_budget > plain.kv_token_budget

    def test_paged_pool_sized_from_sharded_budget(self):
        # n_slots=8 puts the concurrency cap (8192 tokens) above the
        # single-device DRAM budget, so the sharded headroom can show.
        plain = CycleModelBackend(LLAMA2_7B, W4A16_KV8, n_slots=8,
                                  kv_mode="paged")
        sharded = CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2,
                                    n_slots=8, kv_mode="paged")
        assert sharded.paged_kv.n_total_blocks > plain.paged_kv.n_total_blocks


    def test_scheduler_forwards_custom_system_to_sharded_budget(self):
        """A caller-supplied capacity model must reach the sharded
        budget derivation, not be silently replaced by the default."""
        from repro.runtime.baremetal import BareMetalSystem

        starved = BareMetalSystem(KV260, os_reserved_bytes=2 * 2**30)
        backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2,
                                    n_slots=4)
        default = ContinuousBatchScheduler(backend, max_batch=4)
        custom = ContinuousBatchScheduler(
            CycleModelBackend(LLAMA2_7B, W4A16_KV8, tp=2, n_slots=4),
            system=starved, max_batch=4)
        assert custom.kv_token_budget < default.kv_token_budget


class TestScalingSweepBaseline:
    def test_custom_grid_baselines_on_fewest_boards(self, quant32):
        from repro.cluster import scaling_sweep

        points = scaling_sweep(TINY_MODEL, quant32, tp_values=(4, 2),
                               dp_values=(1,), n_requests=4, max_batch=2)
        by_tp = {p.tp: p for p in points}
        # tp=2 is the fewest-board point even though tp=4 ran first.
        assert by_tp[2].speedup == 1.0
        assert by_tp[2].baseline_boards == 2
        assert by_tp[4].speedup \
            == by_tp[4].aggregate_tokens_per_s \
            / by_tp[2].aggregate_tokens_per_s


@pytest.fixture(scope="module")
def misaligned_qweights(quant32):
    """Weights whose 384-wide down rows span three DOT tiles, which no
    tree of per-board partial sums can replay."""
    config = replace(TINY_MODEL, name="tiny-misaligned",
                     intermediate_size=384)
    return quantize_model(random_weights(config, seed=0), quant32)


class TestShardedFunctionalGuards:
    def test_misaligned_model_refused(self):
        """7B rows outrun the FP16 accumulation tree: sharded math would
        drift, so the functional group must refuse."""
        from repro.cluster.sharding import functional_reduction_is_exact

        assert not functional_reduction_is_exact(LLAMA2_7B, 2)

    def test_misaligned_functional_group_raises(self, misaligned_qweights):
        with pytest.raises(SimulationError, match="tp=2"):
            FunctionalBackend(misaligned_qweights, tp=2)

    def test_misaligned_rows_reduce_per_board(self, misaligned_qweights):
        """At tp=2 each board reduces its half of the down rows and the
        halves meet in one FP16 add, which rounds differently from one
        board's three-tile chain: the reason for the refusal above."""
        one = QuantizedModel(misaligned_qweights)
        two = QuantizedModel(misaligned_qweights, tp=2)
        mat_t = one._mats_t[0]["w_down"]
        x = fp16(np.random.default_rng(0).standard_normal((384, 8)))
        halves = [fp16_matmul_t(mat_t[rows], x[rows])
                  for rows in (slice(0, 192), slice(192, 384))]
        got = two._row_parallel(mat_t, x)
        assert np.array_equal(got, fp16_tree_combine(halves))
        assert not np.array_equal(got, one._row_parallel(mat_t, x))

    @pytest.mark.parametrize("model_tp, backend_tp", [(1, 2), (2, 1)])
    def test_functional_model_of_another_tp_refused(
            self, tiny_qweights, model_tp, backend_tp):
        model = QuantizedModel(tiny_qweights, tp=model_tp)
        with pytest.raises(SimulationError, match="tp="):
            FunctionalBackend(tiny_qweights, tp=backend_tp,
                              functional=model)

    def test_paged_tp_group_audits_clean(self, tiny_qweights):
        backend = FunctionalBackend(tiny_qweights, tp=2, kv_mode="paged",
                                    block_size=8, n_kv_blocks=32)
        engine = ContinuousBatchScheduler(backend, max_batch=4)
        report = engine.run(tiny_trace())
        assert len(report.results) == 4
        backend.paged_kv.audit()

    def test_paged_tp_group_reuses_prefixes(self, tiny_qweights):
        system = tuple(range(1, 17))
        reqs = [Request(i, system + (40 + i,), max_new_tokens=3)
                for i in range(3)]
        backend = FunctionalBackend(tiny_qweights, tp=2, kv_mode="paged",
                                    block_size=8, n_kv_blocks=32)
        engine = ContinuousBatchScheduler(backend, max_batch=2)
        engine.run(reqs)
        assert backend.paged_kv.prefix_reused_tokens > 0


class TestBuildBackendFactory:
    def test_dispatches_sharded_kinds(self, quant32):
        backend = build_backend("cycle", TINY_MODEL, quant32, tp=2)
        assert type(backend) is CycleModelBackend
        assert backend.tp == 2 and backend.comm.link == TEN_GIG_ETHERNET
        backend = build_backend("cycle", TINY_MODEL, quant32, tp=2,
                                interconnect=GIG_ETHERNET)
        assert backend.tp == 2 and backend.comm.link == GIG_ETHERNET

    def test_dispatches_plain_kinds(self, quant32):
        backend = build_backend("cycle", TINY_MODEL, quant32)
        assert isinstance(backend, CycleModelBackend)
        assert backend.comm is None

    def test_functional_without_weights_raises(self, quant32):
        with pytest.raises(SimulationError):
            build_backend("functional", TINY_MODEL, quant32, tp=2)

    def test_functional_with_weights(self, tiny_qweights, quant32):
        backend = build_backend("functional", TINY_MODEL, quant32, tp=2,
                                qweights=tiny_qweights)
        assert type(backend) is FunctionalBackend
        assert backend.tp == 2 and backend.functional.tp == 2
        assert backend.comm.link == TEN_GIG_ETHERNET

    @pytest.mark.parametrize("kind", ["spice", "analytical"])
    def test_unknown_kind_raises(self, quant32, kind):
        with pytest.raises(SimulationError, match=r"choose from \('cycle', "
                                                  r"'functional'\)"):
            build_backend(kind, TINY_MODEL, quant32)

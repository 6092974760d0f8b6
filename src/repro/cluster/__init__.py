"""repro.cluster — multi-accelerator serving.

The fourth architectural layer (device -> engine -> cluster): shard one
model across N boards with tensor parallelism, charge the interconnect
for the partial-sum collectives, and replicate whole engines behind a
data-parallel router.

A TP group is not a backend class: every engine backend takes ``tp`` and
``interconnect`` (:mod:`repro.engine.backends`).  The functional group
stays bit-exact because only its row-parallel partial sums change, and
they meet in an FP16 tree that reproduces one board's adder tree
(:func:`repro.cluster.sharding.functional_reduction_is_exact` says on
which models).

* :mod:`repro.cluster.sharding`     — TP weight/KV partitioning and the
  tiling validation back to the unsharded image.
* :mod:`repro.cluster.interconnect` — link model (bandwidth, latency,
  ring vs all-to-all) and per-step collective costs.
* :mod:`repro.cluster.router`       — replica routing and merged
  cluster serving reports.
* :mod:`repro.cluster.sweep`        — TP x DP scaling sweeps.

Quickstart — a cluster run is one :class:`repro.scenario.Scenario`
(TP shards, replicas, routing policy, faults and hedging are fields)::

    from repro import LLAMA2_7B, W4A16_KV8
    from repro.cluster import TEN_GIG_ETHERNET
    from repro.scenario import Scenario

    scenario = Scenario(model=LLAMA2_7B, quant=W4A16_KV8, tp=2,
                        interconnect=TEN_GIG_ETHERNET, replicas=3,
                        router="least_loaded", requests=48,
                        arrival_rate=1.0, chaos=True)
    report = scenario.serve()              # seeded crashes/hangs/slowdowns
    print(report.aggregate_tokens_per_s, report.resilience["n_lost"])
"""

from .interconnect import (
    AURORA_MESH,
    GIG_ETHERNET,
    INTERCONNECT_PRESETS,
    TEN_GIG_ETHERNET,
    CollectiveCost,
    LinkSpec,
    TPCommModel,
    all_gather_cost,
    all_reduce_cost,
)
from .faults import (
    ACTION_KINDS,
    FAULT_KINDS,
    DegradedModeConfig,
    FailureDomain,
    FaultAction,
    FaultEvent,
    FaultSchedule,
    HealthTracker,
    KilledRequest,
    MigratedRequest,
    ReplicaFaultPlan,
    RetryPolicy,
)
from .migration import HedgePolicy, MigrationPolicy
from .router import (
    POLICIES,
    ReplicaRouter,
)
from .sharding import (
    PROJECTION_AXES,
    functional_reduction_is_exact,
    projection_shapes,
    shard_kv_bytes_per_token,
    shard_model_config,
    shard_quant_params,
    shard_stream_params,
    unshard_quant_params,
    validate_kv_tiling,
    validate_shard_tiling,
    validate_tp,
)
from .sweep import ScalingPoint, scaling_sweep, tp_scaling_is_sane

__all__ = [
    "ACTION_KINDS",
    "AURORA_MESH",
    "CollectiveCost",
    "DegradedModeConfig",
    "FAULT_KINDS",
    "FailureDomain",
    "FaultAction",
    "FaultEvent",
    "FaultSchedule",
    "GIG_ETHERNET",
    "HealthTracker",
    "HedgePolicy",
    "INTERCONNECT_PRESETS",
    "KilledRequest",
    "LinkSpec",
    "MigratedRequest",
    "MigrationPolicy",
    "POLICIES",
    "PROJECTION_AXES",
    "ReplicaFaultPlan",
    "ReplicaRouter",
    "RetryPolicy",
    "ScalingPoint",
    "TEN_GIG_ETHERNET",
    "TPCommModel",
    "all_gather_cost",
    "all_reduce_cost",
    "functional_reduction_is_exact",
    "projection_shapes",
    "scaling_sweep",
    "shard_kv_bytes_per_token",
    "shard_model_config",
    "shard_quant_params",
    "shard_stream_params",
    "tp_scaling_is_sane",
    "unshard_quant_params",
    "validate_kv_tiling",
    "validate_shard_tiling",
    "validate_tp",
]

"""repro.cluster — multi-accelerator serving.

The fourth architectural layer (device -> engine -> cluster): shard one
model across N boards with tensor parallelism, charge the interconnect
for the partial-sum collectives, and replicate whole engines behind a
data-parallel router.

* :mod:`repro.cluster.sharding`     — TP weight/KV partitioning and the
  tiling validation back to the unsharded image.
* :mod:`repro.cluster.interconnect` — link model (bandwidth, latency,
  ring vs all-to-all) and per-step collective costs.
* :mod:`repro.cluster.tp`           — sharded engine backends (cycle,
  analytical, and the bit-exact functional group).
* :mod:`repro.cluster.router`       — replica routing and merged
  cluster serving reports.
* :mod:`repro.cluster.sweep`        — TP x DP scaling sweeps.

Quickstart::

    from repro import LLAMA2_7B, W4A16_KV8
    from repro.cluster import ShardedCycleBackend, TEN_GIG_ETHERNET
    from repro.engine import ContinuousBatchScheduler, synthetic_trace

    backend = ShardedCycleBackend(LLAMA2_7B, W4A16_KV8, tp=2,
                                  interconnect=TEN_GIG_ETHERNET)
    engine = ContinuousBatchScheduler(backend, max_batch=8)
    report = engine.run(synthetic_trace(LLAMA2_7B, n_requests=16))
    print(report.aggregate_tokens_per_s)   # ~2x one board, minus comm
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
    FunctionalShard,
    functional_reduction_is_exact,
    projection_shapes,
    shard_functional_weights,
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
from .tp import (
    ShardedAnalyticalBackend,
    ShardedCycleBackend,
    ShardedFunctionalBackend,
    derive_tp_kv_token_budget,
)

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
    "FunctionalShard",
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
    "ShardedAnalyticalBackend",
    "ShardedCycleBackend",
    "ShardedFunctionalBackend",
    "TEN_GIG_ETHERNET",
    "TPCommModel",
    "all_gather_cost",
    "all_reduce_cost",
    "derive_tp_kv_token_budget",
    "functional_reduction_is_exact",
    "projection_shapes",
    "scaling_sweep",
    "shard_functional_weights",
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

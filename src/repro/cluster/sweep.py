"""TP x DP scaling sweeps: how serving throughput grows with boards.

Replays one synthetic trace through every (tensor-parallel degree,
replica count) grid point on cycle-model backends and records cluster
throughput.  The expected shape on a bandwidth-bound model: TP divides
the per-step weight stream, so throughput rises with TP but sub-
linearly (the interconnect's all-reduce time is the gap the link model
charges); DP multiplies serving capacity near-linearly as replicas
split the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import KV260, ModelConfig, PlatformConfig, QuantConfig
from ..errors import SimulationError
from .interconnect import TEN_GIG_ETHERNET, LinkSpec


@dataclass(frozen=True)
class ScalingPoint:
    """One grid point of a scaling sweep."""

    tp: int
    replicas: int
    aggregate_tokens_per_s: float
    #: vs the fewest-board grid point — (tp=1, replicas=1) when swept.
    speedup: float
    total_time_s: float
    mean_batch: float
    comm_step_time_s: float     # interconnect share of one decode step
    kv_budget_tokens: int
    #: boards of the grid point the speedups are measured against.
    baseline_boards: int = 1

    @property
    def n_boards(self) -> int:
        return self.tp * self.replicas

    @property
    def efficiency(self) -> float:
        """Per-board speedup vs the baseline's per-board throughput —
        1.0 is perfect linear scaling."""
        return self.speedup * self.baseline_boards / self.n_boards


def scaling_sweep(model: ModelConfig, quant: QuantConfig,
                  platform: PlatformConfig = KV260,
                  tp_values=(1, 2, 4), dp_values=(1, 2),
                  interconnect: LinkSpec = TEN_GIG_ETHERNET,
                  n_requests: int = 10, max_batch: int = 8,
                  mode: str = "fused", router_policy: str = "round_robin",
                  prompt_len=(6, 12), decode_len=(12, 20),
                  seed: int = 0, telemetry: str = "full",
                  max_steps: int | None = None) -> list[ScalingPoint]:
    """Replay one trace over the TP x DP grid on cycle backends.

    Every grid point is one :class:`repro.scenario.Scenario`: the same
    trace (same seed) hits each of them, so points differ only in how
    the cluster splits the work — TP shards every step, DP shards the
    queue.  ``telemetry != "full"`` streams the trace, so the grid
    scales to million-request traces at O(in-flight) memory.
    ``max_steps`` defaults to the scenario's step cap.
    """
    if not tp_values or not dp_values:
        raise SimulationError("scaling sweep needs tp and dp values")
    from ..scenario import Scenario

    points: list[ScalingPoint] = []
    for tp in tp_values:
        for dp in dp_values:
            deployment = Scenario(
                model=model, quant=quant, platform=platform, mode=mode,
                max_batch=max_batch, tp=tp, interconnect=interconnect,
                replicas=dp, router=router_policy, requests=n_requests,
                arrival_rate=1e9, prompt_len=prompt_len,
                decode_len=decode_len, seed=seed,
                telemetry=telemetry).build()
            report = deployment.serve(max_steps=max_steps)
            comm = deployment.backends[0].comm
            comm_s = 0.0 if comm is None else comm.decode_step_cost(
                max(1, round(report.mean_batch))).time_s
            points.append(ScalingPoint(
                tp=tp, replicas=dp,
                aggregate_tokens_per_s=report.aggregate_tokens_per_s,
                speedup=1.0, total_time_s=report.total_time_s,
                mean_batch=report.mean_batch, comm_step_time_s=comm_s,
                kv_budget_tokens=deployment.engines[0].kv_token_budget))
    # Speedups are relative to the fewest-board configuration in the
    # grid — (tp=1, replicas=1) whenever it was swept — regardless of
    # iteration order.
    base = min(points, key=lambda p: (p.n_boards, p.tp))
    return [replace(p, speedup=p.aggregate_tokens_per_s
                    / base.aggregate_tokens_per_s,
                    baseline_boards=base.n_boards) for p in points]


def tp_scaling_is_sane(points: list[ScalingPoint]) -> bool:
    """Acceptance shape at fixed DP: throughput strictly rises with TP
    but stays below linear whenever the interconnect charges time."""
    by_dp: dict[int, list[ScalingPoint]] = {}
    for p in points:
        by_dp.setdefault(p.replicas, []).append(p)
    for series in by_dp.values():
        series.sort(key=lambda p: p.tp)
        for prev, cur in zip(series, series[1:]):
            if cur.aggregate_tokens_per_s <= prev.aggregate_tokens_per_s:
                return False
            gain = cur.aggregate_tokens_per_s / prev.aggregate_tokens_per_s
            if cur.comm_step_time_s > 0 and gain >= cur.tp / prev.tp:
                return False
    return True

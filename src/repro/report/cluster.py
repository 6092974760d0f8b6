"""Text renderers for multi-accelerator scaling results.

Same conventions as :mod:`repro.report.tables`: each renderer returns
``(rows, text)`` — raw row dicts for programmatic checks plus a
formatted table, with an ASCII speedup bar per grid point (the offline
stand-in for a scaling plot).
"""

from __future__ import annotations

from ..errors import ReproError
from .tables import format_table


def scaling_table(points) -> tuple[list[dict], str]:
    """Render a TP x DP scaling sweep (:mod:`repro.cluster.sweep`)."""
    if not points:
        raise ReproError("scaling table needs at least one point")
    rows = []
    for p in points:
        rows.append({
            "tp": p.tp,
            "replicas": p.replicas,
            "boards": p.n_boards,
            "aggregate_tokens_per_s": p.aggregate_tokens_per_s,
            "speedup": p.speedup,
            "efficiency": p.efficiency,
            "comm_step_ms": p.comm_step_time_s * 1e3,
            "kv_budget_tokens": p.kv_budget_tokens,
        })
    headers = ["tp", "dp", "boards", "agg tok/s", "speedup", "eff",
               "comm/step", "KV budget", ""]
    peak = max(r["speedup"] for r in rows)
    width = 24
    body = []
    for r in rows:
        bar = "#" * max(1, round(r["speedup"] / peak * width))
        body.append([
            str(r["tp"]), str(r["replicas"]), str(r["boards"]),
            f"{r['aggregate_tokens_per_s']:9.3f}",
            f"{r['speedup']:6.2f}x",
            f"{r['efficiency']:5.1%}",
            f"{r['comm_step_ms']:7.3f} ms",
            f"{r['kv_budget_tokens']:6d} tok",
            bar,
        ])
    return rows, format_table(headers, body)


def replica_table(report) -> tuple[list[dict], str]:
    """Per-replica breakdown of a cluster :class:`repro.engine.ServeReport`
    (its ``replica_reports``)."""
    if not report.replica_reports:
        raise ReproError("cluster report has no replicas")
    rows = []
    for idx, rep in enumerate(report.replica_reports):
        # n_requests (not len(results)) so sketch-level replica
        # reports — which keep no per-request results — render.
        served = rep.n_requests
        rows.append({
            "replica": idx,
            "requests": served,
            "new_tokens": rep.total_new_tokens,
            "time_s": rep.total_time_s,
            "tokens_per_s": rep.aggregate_tokens_per_s,
            "mean_ttft_s": rep.mean_ttft_s if rep.n_served else 0.0,
            "preemptions": rep.preemptions,
        })
    headers = ["replica", "requests", "new tokens", "time", "tok/s",
               "mean TTFT", "preempt"]
    body = [[str(r["replica"]), str(r["requests"]), str(r["new_tokens"]),
             f"{r['time_s']:8.3f} s", f"{r['tokens_per_s']:9.3f}",
             f"{r['mean_ttft_s'] * 1e3:8.3f} ms", str(r["preemptions"])]
            for r in rows]
    return rows, format_table(headers, body)

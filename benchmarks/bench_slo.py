"""Multi-tenant SLO serving: priority scheduling vs FIFO under load.

The PR 7 tenancy layer claims that priority-ordered admission plus
priority-aware preemption buys interactive traffic its TTFT SLO out of
the same pool that FIFO serves — paying with batch/best-effort latency
and a bounded slice of total throughput, not with extra hardware.  This
benchmark measures that trade on a mixed-tenant synthetic sweep
(25% interactive, 50% batch with a KV quota, 25% best-effort with a
smaller quota) at three arrival rates spanning light load, the
saturation knee, and full overload.

At every load point the identical trace runs twice through the same
engine configuration: once with tenancy active, once with every request
retagged to the default tenant — plain FIFO, the pre-PR scheduler
behavior.  Interactive p99 TTFT for the FIFO run is computed over the
same request-id subset, so the comparison is request-for-request at
equal offered load.

Results go to ``BENCH_slo.json`` at the repo root and
``benchmarks/results/slo.txt``.  The assertions double as the CI smoke
budget (``SLO_SWEEP=smoke`` scales the sweep down and writes its
record, texts and run store under the gitignored
``benchmarks/results/smoke/``): priority admission
must beat FIFO on interactive p99 TTFT by a wide margin past the knee,
and the total-goodput tax for that protection stays bounded.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from mixed_tenants import BASE, SMOKE_DIR, timed_serve
from repro.engine import DEFAULT_TENANT
from repro.stats import percentile_of_sorted

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: ``full`` is the committed record (100k requests per run, three load
#: points); ``smoke`` is the CI budget with the same floor assertions.
SWEEP_MODE = os.environ.get("SLO_SWEEP", "full")
#: The full budget writes the committed record and run store; smoke
#: writes both under the gitignored ``SMOKE_DIR``.
RECORD_PATH = (SMOKE_DIR if SWEEP_MODE == "smoke" else REPO_ROOT) \
    / "BENCH_slo.json"
RUNS_DIR = SMOKE_DIR / "runs" if SWEEP_MODE == "smoke" \
    else REPO_ROOT / "benchmarks" / "runs"
N_REQUESTS = 12_000 if SWEEP_MODE == "smoke" else 100_000
#: Arrival rates: light load, the saturation knee, full overload
#: (pool tokens/s is ~110k at this config; smoke keeps knee+overload).
LOADS = (12_000.0, 25_000.0) if SWEEP_MODE == "smoke" \
    else (5_000.0, 12_000.0, 25_000.0)

RECORD: dict = {"schema": "slo-v1", "sections": {}}

#: one engine, windows telemetry; the sweep sets the arrival rate
SCENARIO = dataclasses.replace(BASE, requests=N_REQUESTS,
                               telemetry="windows")


def _load_point(rate: float) -> dict:
    scenario = dataclasses.replace(SCENARIO, arrival_rate=rate)
    trace = list(scenario.trace())
    fg_ids = {r.request_id for r in trace
              if r.tenant.priority == "interactive"}
    prio, prio_wall = timed_serve(scenario, trace)
    fifo, fifo_wall = timed_serve(
        scenario, [dataclasses.replace(r, tenant=DEFAULT_TENANT)
                   for r in trace])

    # FIFO per-class view: same request-id subset, same offered load.
    fifo_fg = sorted(r.ttft_s for r in fifo.results
                     if r.request_id in fg_ids and r.ttft_s is not None)
    stats = prio.tenant_stats
    classes = {name: {"n_requests": s["n_requests"],
                      "n_rejected": s["n_rejected"],
                      "goodput_tokens_per_s":
                          round(s["goodput_tokens_per_s"], 1),
                      "p50_ttft_ms": round(s["p50_ttft_s"] * 1e3, 3)
                      if s["p50_ttft_s"] is not None else None,
                      "p99_ttft_ms": round(s["p99_ttft_s"] * 1e3, 3)
                      if s["p99_ttft_s"] is not None else None}
               for name, s in stats.items()}
    return {
        "arrival_rate_rps": rate,
        "priority": {
            "classes": classes,
            "total_goodput_tokens_per_s": round(
                sum(s["goodput_tokens_per_s"] for s in stats.values()),
                1),
            "preemptions": prio.preemptions,
            "wall_s": prio_wall,
        },
        "fifo": {
            "interactive_p99_ttft_ms": round(
                percentile_of_sorted(fifo_fg, 99) * 1e3, 3),
            "interactive_p50_ttft_ms": round(
                percentile_of_sorted(fifo_fg, 50) * 1e3, 3),
            "total_goodput_tokens_per_s": round(
                fifo.total_new_tokens / fifo.total_time_s, 1),
            "preemptions": fifo.preemptions,
            "wall_s": fifo_wall,
        },
    }


def bench_slo_load_sweep(save_result):
    """Interactive p99 TTFT and goodput vs load: priority vs FIFO."""
    rows = [_load_point(rate) for rate in LOADS]
    section = {"model": SCENARIO.model.name, "mode": SWEEP_MODE,
               "n_requests": N_REQUESTS, "max_batch": SCENARIO.max_batch,
               "kv_token_budget": SCENARIO.kv_budget,
               "mix": [{"name": spec.name, "priority": spec.priority,
                        "kv_quota_tokens": spec.kv_quota_tokens,
                        "ttft_slo_s": spec.ttft_slo_s, "share": share}
                       for spec, share in SCENARIO.tenant_mix],
               "rows": rows}
    RECORD["sections"]["load_sweep"] = section

    # CI floors.  Acceptance: priority admission + preemption improves
    # interactive p99 TTFT over FIFO at equal load — recorded ~2.6x at
    # light load and >100x past the knee; the floors leave margin.
    for row in rows:
        prio_p99 = row["priority"]["classes"]["interactive"][
            "p99_ttft_ms"]
        fifo_p99 = row["fifo"]["interactive_p99_ttft_ms"]
        assert prio_p99 < fifo_p99, row
        # Protecting interactive latency must not collapse throughput:
        # the goodput tax stays bounded at every load point.
        assert row["priority"]["total_goodput_tokens_per_s"] \
            >= 0.75 * row["fifo"]["total_goodput_tokens_per_s"], row
        assert row["priority"]["classes"]["interactive"][
            "n_rejected"] == 0, row
    knee = rows[-2] if len(rows) > 2 else rows[0]
    overload = rows[-1]
    for row in (knee, overload):
        prio_p99 = row["priority"]["classes"]["interactive"][
            "p99_ttft_ms"]
        assert prio_p99 * 10 < row["fifo"]["interactive_p99_ttft_ms"], \
            row
    # Quota + priority pressure must actually engage past the knee.
    assert overload["priority"]["preemptions"] > 0, overload
    save_result("slo_load_sweep", json.dumps(rows, indent=2))


def bench_write_record(save_result):
    """Persist the machine-readable record (runs last in this file)."""
    assert set(RECORD["sections"]) == {"load_sweep"}
    RECORD["note"] = (
        "priority vs FIFO on the identical mixed-tenant trace at equal "
        "offered load; scheduling-policy outcomes are exact simulator "
        "observables, wall_s is harness time (tiers are bit-identical; "
        "see tests/test_tenancy.py)")
    RECORD_PATH.parent.mkdir(parents=True, exist_ok=True)
    RECORD_PATH.write_text(json.dumps(RECORD, indent=2) + "\n")

    sweep = RECORD["sections"]["load_sweep"]
    lines = [
        "Multi-tenant SLO serving — priority scheduling vs FIFO",
        f"model {sweep['model']}, {sweep['n_requests']:,} requests/run, "
        f"batch {sweep['max_batch']}, KV {sweep['kv_token_budget']} "
        f"tokens, mode {sweep['mode']}", ""]
    for row in sweep["rows"]:
        fg = row["priority"]["classes"]["interactive"]
        lines.append(
            f"  load {row['arrival_rate_rps']:>8,.0f} rps: interactive "
            f"p99 TTFT {fg['p99_ttft_ms']:>9.3f} ms (priority) vs "
            f"{row['fifo']['interactive_p99_ttft_ms']:>9.3f} ms (FIFO), "
            f"goodput {row['priority']['total_goodput_tokens_per_s']:>9,.0f}"
            f" vs {row['fifo']['total_goodput_tokens_per_s']:>9,.0f} tok/s,"
            f" {row['priority']['preemptions']} preemptions")
    save_result("slo", "\n".join(lines))

    # Mirror the headline numbers into the diffable run store (one flat
    # metric per load point), so ``repro obs diff`` tracks SLO drift.
    from repro.obs import RunStore

    metrics = {}
    for row in sweep["rows"]:
        rate = f"{row['arrival_rate_rps']:.0f}rps"
        fg = row["priority"]["classes"]["interactive"]
        metrics[f"{rate}.interactive_p99_ttft_ms"] = fg["p99_ttft_ms"]
        metrics[f"{rate}.fifo_interactive_p99_ttft_ms"] = \
            row["fifo"]["interactive_p99_ttft_ms"]
        metrics[f"{rate}.goodput_tokens_per_s"] = \
            row["priority"]["total_goodput_tokens_per_s"]
        metrics[f"{rate}.preemptions"] = row["priority"]["preemptions"]
    store = RunStore(RUNS_DIR)
    store.save(store.record(
        "slo", {"bench": "slo", "mode": SWEEP_MODE,
                "n_requests": N_REQUESTS}, metrics))


if __name__ == "__main__":
    def _print_result(name, text):
        print(f"[{name}]\n{text}\n")

    bench_slo_load_sweep(_print_result)
    bench_write_record(_print_result)

"""Graceful drains vs crashes, correlated rack outages, hedged tails.

The PR 10 migration layer claims that *planned* capacity loss is
qualitatively cheaper than *unplanned* loss: a drained replica stops
admitting, finishes what it can inside the drain window, and checkpoints
the rest — KV bytes ship over the interconnect and resume on a healthy
peer with **zero recompute** and **zero lost requests** — while the same
replica crashing at the same instant kills its in-flight work onto the
retry path.  Correlated faults ride a :class:`FailureDomain` topology
(a rack outage takes all its members at once), and an optional
:class:`HedgePolicy` duplicates tail-stuck requests onto a second
healthy domain, first token wins.

Three measured claims on the three-replica knee (six for the rack
study), all deterministic functions of the trace seed and schedule:

* **drain vs crash** — same replica, same instant, same window: the
  drain migrates instead of killing, and beats the crash on p99 TTFT;
* **correlated rack outage vs independent crashes** — the same three
  replicas fail together (one rack) or staggered (independent); both
  lose zero requests, and the correlated outage's simultaneous capacity
  loss shows up in the degraded-goodput window;
* **hedged tails** — a replica hangs; hedged dispatch cuts p99 TTFT
  against the retry-only run on the identical trace.

Results go to ``BENCH_migration.json`` at the repo root,
``benchmarks/results/migration*.txt``, and the run store under
``benchmarks/runs/migration.jsonl``.  The assertions double as the CI
chaos smoke (``MIGRATION_SWEEP=smoke`` scales the trace down and
writes all three under the gitignored ``benchmarks/results/smoke/``):
migrated work > 0, zero lost, zero recompute, drain p99 < crash p99.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from mixed_tenants import BASE, SMOKE_DIR, timed_serve
from repro.cluster import FailureDomain, FaultEvent, FaultSchedule

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: ``full`` is the committed record; ``smoke`` is the CI budget with
#: the same floor assertions.
SWEEP_MODE = os.environ.get("MIGRATION_SWEEP", "full")
#: The full budget writes the committed record and run store; smoke
#: writes both under the gitignored ``SMOKE_DIR``.
RECORD_PATH = (SMOKE_DIR if SWEEP_MODE == "smoke" else REPO_ROOT) \
    / "BENCH_migration.json"
RUNS_DIR = SMOKE_DIR / "runs" if SWEEP_MODE == "smoke" \
    else REPO_ROOT / "benchmarks" / "runs"
N_REQUESTS = 1_500 if SWEEP_MODE == "smoke" else 12_000
LOAD_RPS = 36_000.0

RECORD: dict = {"schema": "migration-v1", "sections": {}}


#: Trace and cluster of every run: three replicas at the knee (six for
#: the rack study).  Each run adds its fault schedule, which brings
#: retry and degraded-mode shedding with it.
SCENARIO = dataclasses.replace(BASE, replicas=3, router="least_loaded",
                               requests=N_REQUESTS, arrival_rate=LOAD_RPS)
SPAN_S = N_REQUESTS / LOAD_RPS


def _timed(events, topology=None, **changes) -> tuple:
    """timed_serve of SCENARIO, with ``changes``, under ``events``."""
    return timed_serve(dataclasses.replace(
        SCENARIO, faults=FaultSchedule(events, topology=topology),
        **changes))


def _headline(report) -> dict:
    return {
        "goodput_tokens_per_s": round(
            report.total_new_tokens / report.total_time_s, 1),
        "p99_ttft_ms": round(report.ttft_percentile_s(99) * 1e3, 3),
        "p50_ttft_ms": round(report.ttft_percentile_s(50) * 1e3, 3)}


#: Fault instant and window shared by the drain and the crash so the
#: comparison is same-replica, same-instant, same-width.  The window is
#: a fraction of one decode's service time: in-flight work *cannot* all
#: finish inside it, so the drain is forced onto the
#: checkpoint-and-migrate path (and the crash kills the same work).
FAULT_REPLICA = 1
FAULT_AT_S, FAULT_WINDOW_S = 0.35 * SPAN_S, 0.0005


def bench_drain_vs_crash(save_result):
    """Planned drain (migrate) vs unplanned crash (kill + retry)."""
    at_s, window_s = FAULT_AT_S, FAULT_WINDOW_S
    drain_rep, drain_wall = _timed(
        [FaultEvent("drain", FAULT_REPLICA, at_s, window_s)])
    crash_rep, crash_wall = _timed(
        [FaultEvent("crash", FAULT_REPLICA, at_s, window_s,
                    warmup_s=0.0)])
    drain, crash = drain_rep.resilience, crash_rep.resilience

    section = {
        "model": SCENARIO.model.name, "mode": SWEEP_MODE,
        "n_requests": N_REQUESTS, "replicas": 3,
        "arrival_rate_rps": LOAD_RPS, "trace_seed": SCENARIO.seed,
        "fault": {"replica": FAULT_REPLICA,
                  "at_ms": round(at_s * 1e3, 3),
                  "window_ms": round(window_s * 1e3, 3)},
        "drain": dict(_headline(drain_rep),
                      n_migrated=drain["n_migrated"],
                      migrated_kv_bytes=drain["migrated_kv_bytes"],
                      n_resumed=drain["n_resumed"],
                      recompute_tokens=drain["resume_recompute_tokens"],
                      n_killed=drain["n_killed"],
                      n_lost=drain["n_lost"], wall_s=drain_wall),
        "crash": dict(_headline(crash_rep),
                      n_killed=crash["n_killed"],
                      n_redispatched=crash["n_redispatched"],
                      n_lost=crash["n_lost"], wall_s=crash_wall),
    }
    RECORD["sections"]["drain_vs_crash"] = section

    # CI floors.  Acceptance: a drain migrates real KV state, loses
    # nothing, recomputes nothing, and beats the same-instant crash on
    # tail latency.
    assert drain["n_drains"] == 1 and drain["n_migrated"] > 0, drain
    assert drain["migrated_kv_bytes"] > 0, drain
    assert drain["resume_recompute_tokens"] == 0, drain
    assert drain["n_killed"] == 0 and drain["n_lost"] == 0, drain
    assert drain["n_failed"] == 0, drain
    assert crash["n_killed"] > 0 and crash["n_lost"] == 0, crash
    assert section["drain"]["p99_ttft_ms"] \
        < section["crash"]["p99_ttft_ms"], section
    # Every admitted request is accounted for on both paths.
    assert drain_rep.n_requests == N_REQUESTS
    assert crash_rep.n_requests == N_REQUESTS
    save_result("migration_drain_vs_crash",
                json.dumps(section, indent=2))


#: Rack topology for the correlated-outage study: six replicas in two
#: racks of three.  The outage takes rack0 whole.
RACKS = (FailureDomain("rack0", (0, 1, 2)),
         FailureDomain("rack1", (3, 4, 5)))


def bench_correlated_rack_outage(save_result):
    """One rack fails together vs the same replicas failing staggered."""
    at_s, down_s = 0.3 * SPAN_S, 0.1 * SPAN_S
    correlated = [FaultEvent("crash", r, at_s, down_s, warmup_s=0.0)
                  for r in RACKS[0].replicas]
    # Independent: identical replicas and total downtime, but the
    # crashes are staggered so the cluster never loses more than one
    # replica at a time.
    independent = [FaultEvent("crash", r, at_s + i * 1.5 * down_s,
                              down_s, warmup_s=0.0)
                   for i, r in enumerate(RACKS[0].replicas)]
    corr_rep, corr_wall = _timed(correlated, replicas=6, topology=RACKS)
    ind_rep, ind_wall = _timed(independent, replicas=6, topology=RACKS)
    corr, ind = corr_rep.resilience, ind_rep.resilience

    section = {
        "mode": SWEEP_MODE, "n_requests": N_REQUESTS, "replicas": 6,
        "racks": [{"name": d.name, "replicas": list(d.replicas)}
                  for d in RACKS],
        "outage": {"at_ms": round(at_s * 1e3, 3),
                   "downtime_ms": round(down_s * 1e3, 3)},
        "correlated": dict(
            _headline(corr_rep), n_killed=corr["n_killed"],
            n_redispatched=corr["n_redispatched"],
            n_lost=corr["n_lost"],
            degraded_time_ms=round(corr["degraded_time_s"] * 1e3, 3),
            wall_s=corr_wall),
        "independent": dict(
            _headline(ind_rep), n_killed=ind["n_killed"],
            n_redispatched=ind["n_redispatched"],
            n_lost=ind["n_lost"],
            degraded_time_ms=round(ind["degraded_time_s"] * 1e3, 3),
            wall_s=ind_wall),
    }
    RECORD["sections"]["correlated_rack_outage"] = section

    # CI floors: a whole-rack outage still costs latency, never
    # requests — the survivors in rack1 absorb everything (domain-aware
    # retry rotation steers re-dispatches off the dead rack).
    assert corr["n_crashes"] == 3 and corr["n_killed"] > 0, corr
    assert corr["n_lost"] == 0 and corr["n_failed"] == 0, corr
    assert corr["n_redispatched"] == corr["n_killed"], corr
    assert ind["n_lost"] == 0 and ind["n_failed"] == 0, ind
    assert corr_rep.n_requests == N_REQUESTS
    assert ind_rep.n_requests == N_REQUESTS
    save_result("migration_rack_outage", json.dumps(section, indent=2))


#: The hedge study runs at a third of the knee load: hedging targets
#: the tail a *stuck replica* inflicts on its own requests, which is
#: only attributable when the survivors have headroom to absorb the
#: duplicates (at the knee the hang floods every replica's queue and
#: the whole distribution shifts, not just the tail).
HEDGE_RPS = LOAD_RPS / 3


def bench_hedged_tail(save_result):
    """Hedged dispatch vs retry-only under a mid-run replica hang."""
    span = N_REQUESTS / HEDGE_RPS
    hang = [FaultEvent("hang", 0, 0.1 * span, 0.6 * span)]
    plain_rep, plain_wall = _timed(hang, arrival_rate=HEDGE_RPS)
    # Hedge when a request's first token is four medians late: the
    # hang victims blow far past that, everyone else stays under it.
    delay_s = plain_rep.ttft_percentile_s(50) * 4
    hedge_rep, hedge_wall = _timed(hang, hedge=delay_s,
                                   arrival_rate=HEDGE_RPS)
    hedge = hedge_rep.resilience

    section = {
        "mode": SWEEP_MODE, "n_requests": N_REQUESTS, "replicas": 3,
        "arrival_rate_rps": HEDGE_RPS,
        "hang": {"replica": 0, "at_ms": round(0.1 * span * 1e3, 3),
                 "duration_ms": round(0.6 * span * 1e3, 3)},
        "hedge_delay_ms": round(delay_s * 1e3, 3),
        "retry_only": dict(_headline(plain_rep), wall_s=plain_wall),
        "hedged": dict(_headline(hedge_rep),
                       n_hedged=hedge["n_hedged"],
                       n_hedge_wins=hedge["n_hedge_wins"],
                       n_lost=hedge["n_lost"], wall_s=hedge_wall),
    }
    RECORD["sections"]["hedged_tail"] = section

    assert hedge["n_hedged"] > 0 and hedge["n_hedge_wins"] > 0, hedge
    assert hedge["n_lost"] == 0, hedge
    assert section["hedged"]["p99_ttft_ms"] \
        < section["retry_only"]["p99_ttft_ms"], section
    save_result("migration_hedged_tail", json.dumps(section, indent=2))


def bench_migration_replay_identical(save_result):
    """Same schedule + trace seed -> bit-identical drain report."""
    drain = [FaultEvent("drain", FAULT_REPLICA, FAULT_AT_S,
                        FAULT_WINDOW_S)]
    first, _ = _timed(drain)
    second, _ = _timed(drain)
    assert first.resilience == second.resilience
    assert first.total_time_s == second.total_time_s
    assert first.n_steps == second.n_steps
    assert len(first.results) == len(second.results)
    for a, b in zip(first.results, second.results):
        assert (a.request_id, a.tokens, a.ttft_s, a.e2e_s,
                a.finish_reason, a.preemptions) == \
            (b.request_id, b.tokens, b.ttft_s, b.e2e_s,
             b.finish_reason, b.preemptions), (a, b)
    RECORD["sections"]["replay"] = {
        "mode": SWEEP_MODE, "n_requests": N_REQUESTS,
        "trace_seed": SCENARIO.seed, "bit_identical": True}
    save_result("migration_replay",
                f"drain replay over {N_REQUESTS} requests: "
                f"{len(first.results)} results, resilience + "
                f"per-request fields bit-identical across runs")


def bench_write_record(save_result):
    """Persist the machine-readable record (runs last in this file)."""
    assert set(RECORD["sections"]) == {
        "drain_vs_crash", "correlated_rack_outage", "hedged_tail",
        "replay"}
    RECORD["note"] = (
        "planned drain (checkpoint + KV migration, zero recompute) vs "
        "same-instant crash; whole-rack correlated outage vs staggered "
        "independent crashes over a FailureDomain topology; hedged "
        "dispatch vs retry-only under a replica hang; all runs are "
        "deterministic simulator observables (wall_s is harness time)")
    RECORD_PATH.parent.mkdir(parents=True, exist_ok=True)
    RECORD_PATH.write_text(json.dumps(RECORD, indent=2) + "\n")

    dvc = RECORD["sections"]["drain_vs_crash"]
    rack = RECORD["sections"]["correlated_rack_outage"]
    hedge = RECORD["sections"]["hedged_tail"]
    lines = [
        "Graceful drains, KV migration, correlated failure domains",
        f"model {dvc['model']}, {dvc['n_requests']:,} requests, load "
        f"{dvc['arrival_rate_rps']:,.0f} rps, mode {dvc['mode']}", "",
        f"  drain:  migrated {dvc['drain']['n_migrated']} "
        f"({dvc['drain']['migrated_kv_bytes']:,} KV bytes), resumed "
        f"{dvc['drain']['n_resumed']}, recompute "
        f"{dvc['drain']['recompute_tokens']} tokens, lost "
        f"{dvc['drain']['n_lost']}, p99 TTFT "
        f"{dvc['drain']['p99_ttft_ms']:.3f} ms",
        f"  crash:  killed {dvc['crash']['n_killed']}, redispatched "
        f"{dvc['crash']['n_redispatched']}, lost "
        f"{dvc['crash']['n_lost']}, p99 TTFT "
        f"{dvc['crash']['p99_ttft_ms']:.3f} ms",
        f"  rack outage: correlated p99 "
        f"{rack['correlated']['p99_ttft_ms']:.3f} ms vs independent "
        f"{rack['independent']['p99_ttft_ms']:.3f} ms (both lost 0)",
        f"  hedging: {hedge['hedged']['n_hedged']} hedged, "
        f"{hedge['hedged']['n_hedge_wins']} wins, p99 TTFT "
        f"{hedge['hedged']['p99_ttft_ms']:.3f} ms vs "
        f"{hedge['retry_only']['p99_ttft_ms']:.3f} ms retry-only",
    ]
    save_result("migration", "\n".join(lines))

    # Mirror the headline numbers into the diffable run store so
    # ``repro obs diff --baseline-window k`` tracks drift over a
    # noise-robust median baseline.
    from repro.obs import RunStore

    metrics = {
        "drain_n_migrated": dvc["drain"]["n_migrated"],
        "drain_migrated_kv_bytes": dvc["drain"]["migrated_kv_bytes"],
        "drain_recompute_tokens": dvc["drain"]["recompute_tokens"],
        "drain_n_lost": dvc["drain"]["n_lost"],
        "drain_p99_ttft_ms": dvc["drain"]["p99_ttft_ms"],
        "crash_p99_ttft_ms": dvc["crash"]["p99_ttft_ms"],
        "rack_correlated_p99_ttft_ms":
            rack["correlated"]["p99_ttft_ms"],
        "rack_independent_p99_ttft_ms":
            rack["independent"]["p99_ttft_ms"],
        "hedged_p99_ttft_ms": hedge["hedged"]["p99_ttft_ms"],
        "retry_only_p99_ttft_ms": hedge["retry_only"]["p99_ttft_ms"],
        "n_hedge_wins": hedge["hedged"]["n_hedge_wins"],
    }
    store = RunStore(RUNS_DIR)
    store.save(store.record(
        "migration", {"bench": "migration", "mode": SWEEP_MODE,
                      "n_requests": N_REQUESTS,
                      "trace_seed": SCENARIO.seed}, metrics))


if __name__ == "__main__":
    def _print_result(name, text):
        print(f"[{name}]\n{text}\n")

    bench_drain_vs_crash(_print_result)
    bench_correlated_rack_outage(_print_result)
    bench_hedged_tail(_print_result)
    bench_migration_replay_identical(_print_result)
    bench_write_record(_print_result)

"""Fault-tolerant cluster serving: crash-and-recover at the knee.

The PR 9 resilience layer claims that a replica crash in a data-parallel
cluster costs latency, never requests: every request in flight on the
failed replica is re-dispatched to the survivors with capped exponential
backoff, degraded-mode admission sheds only best-effort traffic while
capacity is down, and the whole episode — fault injection, detection,
retry, recovery warm-up — is a deterministic function of the fault seed
and the trace seed.

This benchmark measures that claim on a three-replica cluster at the
saturation knee: one replica crashes mid-traffic and comes back through
a warm-up slowdown.  The identical trace also runs through a healthy
cluster, so the cost of the crash (interactive p99 TTFT, total goodput)
is measured against the no-fault baseline at equal offered load, and
the chaos run is executed twice to pin the bit-identical-replay
contract.

Results go to ``BENCH_faults.json`` at the repo root,
``benchmarks/results/resilience.txt``, and the diffable run store under
``benchmarks/runs/faults.jsonl``.  The assertions double as the CI
chaos smoke (``RESILIENCE_SWEEP=smoke`` scales the trace down and
writes all three under the gitignored ``benchmarks/results/smoke/``): zero
lost requests, recovery completes (every killed request is
re-dispatched, none fail), and interactive p99 TTFT stays bounded
through the outage.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from mixed_tenants import BASE, SMOKE_DIR, timed_serve
from repro.cluster import FaultSchedule

REPO_ROOT = pathlib.Path(__file__).parent.parent

REPLICAS = 3

#: ``full`` is the committed record; ``smoke`` is the CI budget with
#: the same floor assertions.
SWEEP_MODE = os.environ.get("RESILIENCE_SWEEP", "full")
#: The full budget writes the committed record and run store; smoke
#: writes both under the gitignored ``SMOKE_DIR``.
RECORD_PATH = (SMOKE_DIR if SWEEP_MODE == "smoke" else REPO_ROOT) \
    / "BENCH_faults.json"
RUNS_DIR = SMOKE_DIR / "runs" if SWEEP_MODE == "smoke" \
    else REPO_ROOT / "benchmarks" / "runs"
N_REQUESTS = 3_000 if SWEEP_MODE == "smoke" else 30_000
#: Offered load at the three-replica saturation knee (~3x the single
#: engine knee measured by bench_slo at this model/config).
LOAD_RPS = 36_000.0
FAULT_SEED = 7

RECORD: dict = {"schema": "faults-v1", "sections": {}}


#: the healthy three-replica cluster at the knee
HEALTHY = dataclasses.replace(BASE, replicas=REPLICAS,
                              router="least_loaded", requests=N_REQUESTS,
                              arrival_rate=LOAD_RPS)
#: One replica crashes mid-traffic and warms back up (retry and
#: degraded-mode shedding come with the schedule).  Pure function of the
#: arrival span and FAULT_SEED-derived constants, so the whole episode
#: replays bit-identically.
_SPAN_S = N_REQUESTS / LOAD_RPS
CHAOS = dataclasses.replace(HEALTHY, faults=FaultSchedule.single_crash(
    replica=FAULT_SEED % REPLICAS, at_s=0.35 * _SPAN_S,
    downtime_s=0.2 * _SPAN_S, warmup_s=0.1 * _SPAN_S, warmup_factor=2.0))


def _classes(report) -> dict:
    out = {}
    for name, s in report.tenant_stats.items():
        out[name] = {
            "n_requests": s["n_requests"],
            "n_rejected": s["n_rejected"],
            "n_failed": s.get("n_failed", 0),
            "goodput_tokens_per_s": round(s["goodput_tokens_per_s"], 1),
            "p99_ttft_ms": round(s["p99_ttft_s"] * 1e3, 3)
            if s["p99_ttft_s"] is not None else None}
    return out


def bench_resilience_crash_at_knee(save_result):
    """Single-replica crash-and-recover vs the healthy baseline."""
    healthy, healthy_wall = timed_serve(HEALTHY)
    chaos, chaos_wall = timed_serve(CHAOS)
    res = chaos.resilience

    event = CHAOS.faults.events[0]
    section = {
        "model": HEALTHY.model.name, "mode": SWEEP_MODE,
        "n_requests": N_REQUESTS, "replicas": REPLICAS,
        "max_batch": HEALTHY.max_batch,
        "kv_token_budget": HEALTHY.kv_budget,
        "arrival_rate_rps": LOAD_RPS, "fault_seed": FAULT_SEED,
        "trace_seed": HEALTHY.seed,
        "fault": {"kind": event.kind, "replica": event.replica,
                  "at_ms": round(event.start_s * 1e3, 3),
                  "downtime_ms": round(event.duration_s * 1e3, 3),
                  "warmup_ms": round(event.warmup_s * 1e3, 3)},
        "healthy": {
            "classes": _classes(healthy),
            "goodput_tokens_per_s": round(
                healthy.total_new_tokens / healthy.total_time_s, 1),
            "wall_s": healthy_wall},
        "chaos": {
            "classes": _classes(chaos),
            "goodput_tokens_per_s": round(
                chaos.total_new_tokens / chaos.total_time_s, 1),
            "resilience": {k: (list(v) if isinstance(v, tuple) else v)
                           for k, v in res.items()},
            "wall_s": chaos_wall},
    }
    RECORD["sections"]["crash_at_knee"] = section

    # CI floors.  Acceptance: a crash costs latency, never requests.
    assert res["n_lost"] == 0, res
    assert not res["lost_request_ids"], res
    # The crash must actually hit in-flight work, and recovery must
    # complete: every killed request re-dispatched, none exhaust the
    # retry budget with two healthy survivors.
    assert res["n_crashes"] == 1 and res["n_killed"] > 0, res
    assert res["n_redispatched"] == res["n_killed"], res
    assert res["n_failed"] == 0, res
    assert res["mttr_s"] is not None and res["downtime_s"] > 0, res
    # The survivors keep serving through the outage.
    assert res["goodput_degraded_tokens_per_s"] is not None \
        and res["goodput_degraded_tokens_per_s"] > 0, res
    # Every admitted request is accounted for: retired, failed, or shed.
    assert chaos.n_requests == N_REQUESTS, chaos.n_requests
    # Degraded-mode admission sheds only while capacity is down, and
    # never the interactive class.
    assert section["chaos"]["classes"]["interactive"]["n_rejected"] == 0, section
    # Bounded interactive latency through the crash: the p99 TTFT may
    # spike (killed work re-queues behind backoff, the backlog built
    # during the outage drains at reduced capacity) but the tail is the
    # crash, not a persistent degradation — it stays inside one outage
    # window (downtime + warm-up), and it must genuinely cost more
    # than the healthy baseline or the fault never engaged.
    fg_healthy = section["healthy"]["classes"]["interactive"][
        "p99_ttft_ms"]
    fg_chaos = section["chaos"]["classes"]["interactive"]["p99_ttft_ms"]
    outage_ms = section["fault"]["downtime_ms"] \
        + section["fault"]["warmup_ms"]
    assert fg_healthy < fg_chaos <= outage_ms, \
        (fg_healthy, fg_chaos, outage_ms)
    # Goodput recovery: losing 1/3 capacity for ~20% of the arrival
    # span must not halve cluster throughput.
    assert section["chaos"]["goodput_tokens_per_s"] \
        >= 0.5 * section["healthy"]["goodput_tokens_per_s"], section
    save_result("resilience_crash_at_knee",
                json.dumps(section, indent=2))


def bench_resilience_replay_identical(save_result):
    """Same fault seed + trace seed -> bit-identical chaos report."""
    first, _ = timed_serve(CHAOS)
    second, _ = timed_serve(CHAOS)
    assert first.resilience == second.resilience
    assert first.total_time_s == second.total_time_s
    assert first.n_steps == second.n_steps
    assert len(first.results) == len(second.results)
    for a, b in zip(first.results, second.results):
        assert (a.request_id, a.tokens, a.prompt_len, a.ttft_s,
                a.e2e_s, a.finish_reason, a.preemptions) == \
            (b.request_id, b.tokens, b.prompt_len, b.ttft_s,
             b.e2e_s, b.finish_reason, b.preemptions), (a, b)
    RECORD["sections"]["replay"] = {
        "mode": SWEEP_MODE, "n_requests": N_REQUESTS,
        "fault_seed": FAULT_SEED, "trace_seed": HEALTHY.seed,
        "bit_identical": True}
    save_result("resilience_replay",
                f"chaos replay over {N_REQUESTS} requests: "
                f"{len(first.results)} results, resilience + per-request "
                f"fields bit-identical across runs")


def bench_write_record(save_result):
    """Persist the machine-readable record (runs last in this file)."""
    assert set(RECORD["sections"]) == {"crash_at_knee", "replay"}
    RECORD["note"] = (
        "single-replica crash-and-recover at the three-replica "
        "saturation knee vs the healthy baseline on the identical "
        "trace; fault injection, retry, and recovery are deterministic "
        "simulator observables (wall_s is harness time); replay "
        "section pins the bit-identical same-seed contract")
    RECORD_PATH.parent.mkdir(parents=True, exist_ok=True)
    RECORD_PATH.write_text(json.dumps(RECORD, indent=2) + "\n")

    section = RECORD["sections"]["crash_at_knee"]
    res = section["chaos"]["resilience"]
    lines = [
        "Fault-tolerant cluster serving — crash-and-recover at the knee",
        f"model {section['model']}, {section['n_requests']:,} requests, "
        f"{section['replicas']} replicas, load "
        f"{section['arrival_rate_rps']:,.0f} rps, mode {section['mode']}",
        f"crash: replica {section['fault']['replica']} at "
        f"{section['fault']['at_ms']:.3f} ms for "
        f"{section['fault']['downtime_ms']:.3f} ms "
        f"(+{section['fault']['warmup_ms']:.3f} ms warm-up)", "",
        f"  killed {res['n_killed']}, redispatched "
        f"{res['n_redispatched']}, failed {res['n_failed']}, shed "
        f"{res['n_shed']}, lost {res['n_lost']} "
        f"(retry rounds {res['retry_rounds']})",
        f"  mttr {res['mttr_s'] * 1e3:.3f} ms, degraded goodput "
        f"{res['goodput_degraded_tokens_per_s']:,.0f} tok/s",
        f"  goodput {section['chaos']['goodput_tokens_per_s']:,.0f} "
        f"(chaos) vs {section['healthy']['goodput_tokens_per_s']:,.0f} "
        f"(healthy) tok/s",
        f"  interactive p99 TTFT "
        f"{section['chaos']['classes']['interactive']['p99_ttft_ms']:.3f} "
        f"(chaos) vs "
        f"{section['healthy']['classes']['interactive']['p99_ttft_ms']:.3f} "
        f"(healthy) ms",
    ]
    save_result("resilience", "\n".join(lines))

    # Mirror the headline numbers into the diffable run store so
    # ``repro obs diff`` tracks resilience drift commit over commit.
    from repro.obs import RunStore

    metrics = {
        "n_killed": res["n_killed"],
        "n_redispatched": res["n_redispatched"],
        "n_failed": res["n_failed"],
        "n_shed": res["n_shed"],
        "n_lost": res["n_lost"],
        "retry_rounds": res["retry_rounds"],
        "mttr_s": res["mttr_s"],
        "downtime_s": res["downtime_s"],
        "goodput_degraded_tokens_per_s":
            res["goodput_degraded_tokens_per_s"],
        "chaos_goodput_tokens_per_s":
            section["chaos"]["goodput_tokens_per_s"],
        "healthy_goodput_tokens_per_s":
            section["healthy"]["goodput_tokens_per_s"],
        "chaos_interactive_p99_ttft_ms":
            section["chaos"]["classes"]["interactive"]["p99_ttft_ms"],
        "healthy_interactive_p99_ttft_ms":
            section["healthy"]["classes"]["interactive"]["p99_ttft_ms"],
    }
    store = RunStore(RUNS_DIR)
    store.save(store.record(
        "faults", {"bench": "resilience", "mode": SWEEP_MODE,
                   "n_requests": N_REQUESTS, "replicas": REPLICAS,
                   "fault_seed": FAULT_SEED, "trace_seed": HEALTHY.seed},
        metrics))


if __name__ == "__main__":
    def _print_result(name, text):
        print(f"[{name}]\n{text}\n")

    bench_resilience_crash_at_knee(_print_result)
    bench_resilience_replay_identical(_print_result)
    bench_write_record(_print_result)

"""Simulated end-to-end metrics, the correctness verdict, the digest,
and the error of the single-stream decode against the paper.

Every simulated number is read from the report the program returns;
percentiles use the report's own estimators (``repro.stats``), so they
equal what ``repro serve-sim`` prints for the same scenario.
"""

from __future__ import annotations

import hashlib

#: The paper's reported single-stream LLaMA2-7B decode on the KV260:
#: ~5 token/s at ~85% of peak DRAM bandwidth (abstract).
PAPER_DECODE_TOK_S = 5.0
PAPER_BW_UTIL = 0.85

#: The tail percentile of every bounded latency metric.  p99 is printed
#: beside it where at least ten samples lie beyond, but it is not a
#: bounded metric: on the smaller workloads it has too few samples beyond
#: it, and where it has enough it still moves by a fifth between seeds.
#: For the same reason the interactive class's TTFT is printed, not
#: bounded: its p50 and p90 move by 12-40% between seeds at the knee.
TAIL = 90


def fingerprint(report) -> tuple:
    """Cheap simulated observables of a report, compared across every
    repetition (and traced vs untraced) — any difference is a failure."""
    return (report.n_requests, report.total_new_tokens, report.n_steps,
            report.total_time_s, report.ttft_percentile_s(50),
            report.ttft_percentile_s(TAIL), report.latency_percentile_s(50),
            report.latency_percentile_s(TAIL))


def _beyond(n: int, pct: float) -> int:
    """Samples ranked above the ``pct`` nearest-rank index of an
    ``n``-sample (the index ``repro.stats`` reads)."""
    return n - 1 - int(round(pct / 100 * (n - 1))) if n else 0


def sim_metrics(report, results: list) -> tuple[dict, list[str]]:
    """The simulated-board end-to-end metrics, plus one line per sample
    (all TTFTs, all token gaps, interactive-class TTFTs) giving its size
    and, for each percentile, the samples beyond it."""
    from repro.engine import FinishReason
    from repro.stats import percentile_of_sorted

    inter = sorted(r.ttft_s for r in results
                   if r.tenant_class == "interactive"
                   and r.ttft_s is not None)
    served = sum(1 for r in results if r.finish_reason not in
                 (FinishReason.REJECTED, FinishReason.FAILED))
    metrics = {
        "sim_tok_s": report.aggregate_tokens_per_s,
        "ttft_p50_ms": report.ttft_percentile_s(50) * 1e3,
        "ttft_p90_ms": report.ttft_percentile_s(TAIL) * 1e3,
        "tpot_p50_ms": report.latency_percentile_s(50) * 1e3,
        "tpot_p90_ms": report.latency_percentile_s(TAIL) * 1e3,
        "served_share": served / len(results),
    }
    samples = (
        ("ttft", sum(1 for r in results if r.ttft_s is not None),
         report.ttft_percentile_s),
        ("tpot", sum(len(r.decode_step_s) for r in results),
         report.latency_percentile_s),
        ("interactive ttft", len(inter),
         lambda p: percentile_of_sorted(inter, p)))
    notes = []
    for label, n, percentile in samples:
        if not n:
            continue
        parts = []
        for p in (50, TAIL, 99):
            beyond = _beyond(n, p)
            parts.append(f"p{p} {percentile(p) * 1e3:.4f} ms ({beyond} "
                         "beyond)" if beyond >= 10 else
                         f"p{p} omitted ({beyond} beyond < 10)")
        notes.append(f"{label}: n={n}: " + ", ".join(parts))
    return metrics, notes


def digest(results: list) -> str:
    """Digest of per-request token counts, finish reasons and TTFTs:
    equal digests mean bit-identical simulated outcomes."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.request_id} {len(r.tokens)} {r.finish_reason.value} "
                 f"{r.ttft_s!r}\n".encode())
    return h.hexdigest()[:16]


def verdict(workload, trace: list, report, results: list,
            program) -> tuple[int, list[str]]:
    """``(operations attempted, problems)``.  Each submitted request is
    one operation; each problem is one failed operation."""
    from repro.engine import FinishReason

    problems = []
    by_id = {r.request_id: r for r in trace}
    seen: dict[int, int] = {}
    for r in results:
        seen[r.request_id] = seen.get(r.request_id, 0) + 1
    for rid in by_id:
        if seen.get(rid, 0) != 1:
            problems.append(f"request {rid}: {seen.get(rid, 0)} terminal "
                            "results (want exactly 1)")
    for rid in seen.keys() - by_id.keys():
        problems.append(f"result for unknown request id {rid}")
    total = 0
    for r in results:
        total += len(r.tokens)
        req = by_id.get(r.request_id)
        if req is not None and len(r.tokens) > req.max_new_tokens:
            problems.append(f"request {r.request_id}: {len(r.tokens)} "
                            f"tokens > budget {req.max_new_tokens}")
        if r.finish_reason is FinishReason.FAILED and r.tokens:
            problems.append(f"request {r.request_id}: failed with tokens")
    if total != report.total_new_tokens:
        problems.append(f"token totals disagree: results {total} vs "
                        f"report {report.total_new_tokens}")
    res = getattr(report, "resilience", None)
    if res is not None and res["n_lost"]:
        problems.append(f"{res['n_lost']} requests lost")
    if workload.faults:
        if not res:
            problems.append("fault script did not run")
        else:
            for key in ("n_killed", "n_redispatched", "n_migrated",
                        "migrated_kv_bytes", "n_resumed"):
                if res[key] <= 0:
                    problems.append(f"recovery path idle: {key} == 0")
            if res["resume_recompute_tokens"]:
                problems.append("migration recomputed prefill tokens")
    if workload.backend == "functional":
        problems += oracle_mismatches(program, trace, results)
    return len(trace), problems


#: how many requests ``functional-tiny`` re-decodes through the oracle
N_ORACLE = 4


def oracle_mismatches(program, trace: list, results: list) -> list[str]:
    """Re-decode a fixed sample of requests through the scalar oracle
    ``QuantizedModel.forward_token_reference`` and compare tokens."""
    import numpy as np

    from repro.model.kvcache import QuantizedKVCache

    model = program.backends[0].functional
    out = {r.request_id: r for r in results}
    step = max(1, len(trace) // N_ORACLE)
    problems = []
    for request in trace[::step][:N_ORACLE]:
        want = out[request.request_id].tokens
        cache = QuantizedKVCache(model.config, model.qweights.quant.kv_bits)
        for pos, token in enumerate(request.prompt):
            logits = model.forward_token_reference(token, cache, pos)
        pos = len(request.prompt)
        got: list[int] = []
        while len(got) < len(want):
            got.append(int(np.argmax(logits)))
            if len(got) < len(want):
                logits = model.forward_token_reference(got[-1], cache, pos)
                pos += 1
        if tuple(got) != tuple(want):
            problems.append(f"request {request.request_id}: tokens differ "
                            "from the scalar oracle")
    return problems


def paper_headline() -> tuple[float, float]:
    """Single-stream LLaMA2-7B decode at context 1023 on the KV260
    through the public cycle model: ``(token/s, bandwidth util)``."""
    from repro.config import KV260, LLAMA2_7B, W4A16_KV8
    from repro.core.cyclemodel import CycleModel

    step = CycleModel(LLAMA2_7B, W4A16_KV8, KV260).decode_step(1023)
    return step.tokens_per_s, step.utilization

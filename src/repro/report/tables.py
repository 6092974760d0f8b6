"""Text renderers for Tables I, II, and III, plus serving-stat tables.

Each function returns ``(rows, text)``: the raw row dictionaries for
programmatic checks and a formatted table string for humans.  Model-side
numbers come from the simulators; paper-side numbers are carried along for
side-by-side comparison.  :func:`window_stats_table` and
:func:`tenant_stats_table` render the serving reports' ``window_stats``
and ``tenant_stats`` sections — the CLI's ``serve-sim`` output and the
run store's ``obs show`` read through the same renderers.
"""

from __future__ import annotations

from ..baselines.entries import OUR_ENTRY, TABLE_II_ENTRIES, TABLE_III_ENTRIES
from ..config import KV260, LLAMA2_7B, W4A16_KV8
from ..core.cyclemodel import CycleModel
from ..core.power import estimate_power
from ..core.resources import PAPER_TABLE_I, estimate_resources


def format_table(headers: list[str], rows: list[list]) -> str:
    """Minimal fixed-width table formatter."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths))
    line = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(headers), line] + [fmt(r) for r in cells])


def window_stats_table(stats: dict | None) -> tuple[list[dict], str]:
    """Fast-forward window counts and the break-reason histogram.

    ``stats`` is a report's ``window_stats`` dict (``n_windows`` /
    ``n_segments`` / ``folded_retirements`` / ``folded_admissions`` /
    ``breaks``); rows are one
    dict per nonzero break reason with its share of all breaks.
    """
    if not stats or not stats.get("n_windows"):
        return [], "no fast-forward windows recorded"
    breaks = stats.get("breaks", {})
    total = sum(breaks.values())
    rows = [{"reason": reason, "count": count,
             "share": count / total if total else 0.0}
            for reason, count in breaks.items() if count]
    headers = ["Break reason", "Count", "Share"]
    body = [[r["reason"], r["count"], f"{r['share']:.1%}"] for r in rows]
    text = (f"{stats['n_windows']} windows, {stats['n_segments']} "
            f"segments, {stats['folded_retirements']} folded "
            f"retirements, {stats.get('folded_admissions', 0)} folded "
            f"admissions, {total} breaks\n")
    text += format_table(headers, body)
    return rows, text


def _ms(seconds) -> str:
    return "n/a" if seconds is None else f"{seconds * 1e3:.3f}"


def tenant_stats_table(stats: dict | None) -> tuple[list[dict], str]:
    """Per-tenant-class serving summary as one row per class.

    ``stats`` is a report's ``tenant_stats`` dict (class name ->
    summary); percentile cells render ``n/a`` when a class retired no
    requests.  Returned rows are the summaries with the class name
    folded in, so programmatic checks need no separate key.
    """
    if not stats:
        return [], "no tenant classes recorded"
    rows = [{"tenant": name, **summary}
            for name, summary in stats.items()]
    headers = ["Tenant", "Requests", "Rejected", "Goodput tok/s",
               "Mean TTFT ms", "p99 TTFT ms", "p99 e2e ms"]
    body = [[r["tenant"], r["n_requests"], r["n_rejected"],
             f"{r['goodput_tokens_per_s']:.3f}",
             _ms(r["mean_ttft_s"]), _ms(r["p99_ttft_s"]),
             _ms(r["p99_e2e_s"])] for r in rows]
    return rows, format_table(headers, body)


def table1_resources() -> tuple[list[dict], str]:
    """Table I: resource consumption breakdown, model vs paper."""
    report = estimate_resources()
    rows = []
    order = ["MemCtrl", "VPU", "SPU"]
    for name in order + ["Total"]:
        cost = report.total if name == "Total" else report.components[name]
        paper = PAPER_TABLE_I[name]
        rows.append({
            "component": name,
            "lut": round(cost.lut), "lut_paper": paper["lut"],
            "ff": round(cost.ff), "ff_paper": paper["ff"],
            "carry": round(cost.carry), "carry_paper": paper["carry"],
            "dsp": round(cost.dsp), "dsp_paper": paper["dsp"],
            "bram": round(cost.bram, 1), "bram_paper": paper["bram"],
            "uram": round(cost.uram), "uram_paper": paper["uram"],
        })
    util = report.utilization()
    headers = ["Component", "LUT (paper)", "FF (paper)", "CARRY (paper)",
               "DSP (paper)", "BRAM (paper)", "URAM (paper)"]
    body = [[r["component"],
             f"{r['lut']} ({r['lut_paper']})",
             f"{r['ff']} ({r['ff_paper']})",
             f"{r['carry']} ({r['carry_paper']})",
             f"{r['dsp']} ({r['dsp_paper']})",
             f"{r['bram']} ({r['bram_paper']})",
             f"{r['uram']} ({r['uram_paper']})"] for r in rows]
    text = format_table(headers, body)
    text += "\n\nDevice utilization: " + ", ".join(
        f"{k.upper()} {v:.0%}" for k, v in util.items())
    text += f"\nEstimated power: {estimate_power(report):.2f} W (paper: 6.57 W)"
    return rows, text


def _ours_row(context: int = 1023) -> dict:
    """Our row of Table II, measured by the cycle model."""
    cm = CycleModel(LLAMA2_7B, W4A16_KV8, KV260)
    step = cm.decode_step(context, "fused")
    return {
        "name": "Ours (simulated)",
        "device": "KV260",
        "model": LLAMA2_7B.name,
        "bandwidth_gbps": KV260.bandwidth_gbps,
        "theoretical": OUR_ENTRY.theoretical_tokens_per_s,
        "tokens_per_s": step.tokens_per_s,
        "utilization": step.utilization,
    }


def table2_fpga(context: int = 1023) -> tuple[list[dict], str]:
    """Table II: comparison with existing FPGA research."""
    rows = []
    for e in TABLE_II_ENTRIES:
        rows.append({
            "name": e.name, "device": e.device, "model": e.model_name,
            "bandwidth_gbps": e.bandwidth_gbps,
            "theoretical": e.theoretical_tokens_per_s,
            "tokens_per_s": e.reported_tokens_per_s,
            "utilization": e.utilization,
            "paper_utilization": e.reported_utilization,
        })
    ours = _ours_row(context)
    ours["paper_utilization"] = OUR_ENTRY.reported_utilization
    rows.append(ours)
    headers = ["Work", "Device", "Model", "GB/s", "token/s^1", "token/s^2",
               "Util."]
    body = [[r["name"], r["device"], r["model"],
             f"{r['bandwidth_gbps']:g}",
             f"{r['theoretical']:.1f}", f"{r['tokens_per_s']:.2f}",
             f"{r['utilization']:.1%}"] for r in rows]
    return rows, format_table(headers, body)


def table3_edge(context: int = 1023) -> tuple[list[dict], str]:
    """Table III: comparison with embedded CPU/GPUs."""
    rows = []
    for e in TABLE_III_ENTRIES:
        rows.append({
            "name": e.name, "device": e.device, "framework": e.framework,
            "bandwidth_gbps": e.bandwidth_gbps,
            "theoretical": e.theoretical_tokens_per_s,
            "tokens_per_s": e.reported_tokens_per_s,
            "utilization": e.utilization,
        })
    ours = _ours_row(context)
    ours["framework"] = "ours"
    rows.append(ours)
    headers = ["Device", "GB/s", "Framework", "token/s^1", "token/s^2",
               "Util."]
    body = [[r["device"], f"{r['bandwidth_gbps']:g}",
             r.get("framework", ""),
             f"{r['theoretical']:.1f}", f"{r['tokens_per_s']:.2f}",
             f"{r['utilization']:.1%}"] for r in rows]
    return rows, format_table(headers, body)

"""Self-tests of the benchmark itself.

Run from the repository root: ``python3 perfbench/selftest.py`` (about
a minute).  The traced/untraced checks use scaled-down copies of the
workloads; the serve-sim and output-schema checks use the real ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402
from run import timed_serve  # noqa: E402
from tracer import LAYER_NAMES, SimLedger, Tracer, layer_metrics  # noqa: E402

#: small copies of each workload: same shape, a fraction of the trace
SCALED = {"knee-tenants": 1500, "chaos-drain": 1500, "paper-7b": 60,
          "functional-tiny": 24}
_PAIRS: dict = {}


def _pair(name: str) -> dict:
    """One untraced and one traced serve of a scaled workload."""
    if name not in _PAIRS:
        w = dataclasses.replace(workloads.WORKLOADS[name],
                                n_requests=SCALED[name])
        trace = workloads.make_trace(w, 3)
        program = workloads.build(w, 3)
        plain, plain_s = timed_serve(program, trace)
        tracer, ledger = Tracer(), SimLedger()
        traced_program = workloads.build(w, 3)
        traced, traced_s = timed_serve(traced_program, trace, tracer,
                                       ledger)
        _PAIRS[name] = dict(
            w=w, trace=trace, program=program, plain=plain,
            traced=traced, traced_program=traced_program,
            layers=layer_metrics(tracer, ledger, traced_program, traced,
                                 traced_s, plain_s))
    return _PAIRS[name]


def test_traced_equals_untraced():
    """Tracing changes no simulated result."""
    for name in SCALED:
        p = _pair(name)
        assert measure.fingerprint(p["plain"]) == \
            measure.fingerprint(p["traced"]), name
        assert measure.digest(p["plain"].results) == \
            measure.digest(p["traced"].results), name
        plain, _ = measure.sim_metrics(p["plain"], p["plain"].results)
        traced, _ = measure.sim_metrics(p["traced"], p["traced"].results)
        assert plain == traced, name


def test_self_times_sum_to_traced_run():
    """Per-layer self times account for the traced run_s."""
    for name in SCALED:
        m = _pair(name)["layers"]
        total = sum(m[f"{layer}.self_s"] for layer in LAYER_NAMES)
        assert abs(total - m["trace.run_s"]) <= 0.03 * m["trace.run_s"], \
            (name, total, m["trace.run_s"])


def test_verdict_passes_and_oracle_catches_a_wrong_token():
    for name in SCALED:
        p = _pair(name)
        _, problems = measure.verdict(p["w"], p["trace"], p["plain"],
                                      p["plain"].results, p["program"])
        # a scaled-down fault script need not reach every recovery path
        problems = [q for q in problems
                    if not q.startswith("recovery path idle")]
        assert not problems, (name, problems)
    p = _pair("functional-tiny")
    results = list(p["plain"].results)
    first = results[0]
    results[0] = dataclasses.replace(
        first, tokens=((first.tokens[0] + 1) % 256,) + first.tokens[1:])
    assert measure.oracle_mismatches(p["program"], p["trace"], results)


def test_seed_changes_trace_not_fault_script():
    w = workloads.WORKLOADS["chaos-drain"]
    a, b = workloads.make_trace(w, 1), workloads.make_trace(w, 2)
    assert [r.arrival_s for r in a] != [r.arrival_s for r in b]
    assert workloads.build(w, 1).router.faults == \
        workloads.build(w, 2).router.faults


def _serve_sim_numbers(seed: int) -> dict:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([
            "serve-sim", "--model", "tiny-test", "--backend", "cycle",
            "--replicas", "3", "--router", "round_robin",
            "--requests", "12000", "--arrival-rate", "36000",
            "--tenants", "fg:interactive,bulk:batch,bg:best_effort",
            "--telemetry", "windows", "--seed", str(seed)]) == 0
    text = out.getvalue()

    def grab(label: str) -> str:
        return re.search(rf"{re.escape(label)}\s*:\s*([\d.]+)",
                         text).group(1)

    return {"rate": grab("aggregate rate"), "ttft50": grab("TTFT p50"),
            "ttft99": grab("TTFT p99"), "lat50": grab("token lat p50"),
            "lat99": grab("token lat p99")}


def test_knee_matches_serve_sim():
    """knee-tenants' simulated numbers are serve-sim's for the same
    flags and seed."""
    seed = 5
    w = workloads.KNEE
    report, _ = timed_serve(workloads.build(w, seed),
                            workloads.make_trace(w, seed))
    ours = {"rate": f"{report.aggregate_tokens_per_s:.3f}",
            "ttft50": f"{report.ttft_percentile_s(50) * 1e3:.3f}",
            "ttft99": f"{report.ttft_percentile_s(99) * 1e3:.3f}",
            "lat50": f"{report.latency_percentile_s(50) * 1e3:.3f}",
            "lat99": f"{report.latency_percentile_s(99) * 1e3:.3f}"}
    assert ours == _serve_sim_numbers(seed)


def test_printed_metrics_are_declared():
    """Every metric run.py prints is in BENCHMARK.json with its unit,
    and each mode prints every metric of its kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "knee-tenants", "--seed", "2", "--seconds", "1", "--trace",
             str(trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=180, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and not result["failed"]
        declared = {m["name"]: m for m in spec[kind]}
        assert set(result["metrics"]) == set(declared), trace
        for name, value in result["metrics"].items():
            assert value["unit"] == declared[name]["unit"], name
            assert declared[name]["better"] in ("higher", "lower"), name
            assert re.search(rf"^\s+{re.escape(name)}\s", out, re.M), name


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

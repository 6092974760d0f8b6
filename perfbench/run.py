"""The repository's benchmark: one workload, measured for a fixed time.

Usage, from the repository root::

    python3 perfbench/run.py --workload knee-tenants --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
simulator's host cost (``run_s`` and ``setup_s``, scaled to a reference
core speed — see ``REF_SECONDS`` — and ``peak_rss_mb``) and the
simulated board's serving results.  ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics instead
(``tracer.py``), writing the traced spans to ``perfbench/out/``.  Each
repetition builds a fresh program (no memo survives) and serves the
same seeded trace; every repetition must reproduce the first one's
simulated results exactly.  Every run appends an ``obsrun-v1`` record
to ``perfbench/runs/`` (compare with ``python -m repro obs diff
--runs-dir perfbench/runs --baseline-window 3 perf-<workload>
perf-<workload>``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``
with the metric names and units of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
N_SETUP_PROBES = 7
#: ``run_s`` and ``setup_s`` are host seconds at a fixed reference
#: speed: scaled by ``REF_SECONDS`` over the median time of
#: :func:`calibrate` in the same process (run between repetitions).  A
#: shared machine's core speed drifts by up to 2x over minutes; over ten
#: seeds of knee-tenants the scaling cut the spread of run_s (IQR /
#: median) from 25% to 6%.  The constant is about the loop's
#: time on an idle core (2.0 GHz x86 VM), so the scaled figures read as
#: seconds on such a core.
REF_SECONDS = 0.03
#: calibration samples taken before the first and after every repetition
N_CALIBRATE = 3


def calibrate() -> float:
    """Seconds a fixed pure-Python loop (dict updates, a keyed sort)
    takes right now."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    sorted(range(60_000), key=lambda x: (x * 7919) % 100_003)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Median of several fresh-process set-ups (``--setup-probe``): each
    times its imports plus model, backend, engine and router
    construction from inside the process, at the reference speed."""
    samples = []
    for _ in range(N_SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def timed_serve(program, trace: list, tracer=None, ledger=None):
    """``(report, host seconds)`` of one serve call, traced or not."""
    from workloads import serve

    gc.collect()
    if tracer is not None:
        tracer.install(ledger.hooks())
    try:
        t0 = time.perf_counter()
        report = serve(program, trace)
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return report, elapsed


class Run:
    """The repetitions of one invocation and what they found."""

    def __init__(self, workload, seed: int, trace: list) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.wall_s: list[float] = []    # per repetition, as measured
        self.calibration: list[float] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.problems: list[str] = []
        self.first = None          # the first repetition's fingerprint
        self.sim: dict = {}
        self.notes: list[str] = []
        self.digest = ""
        self.record_metrics: dict = {}
        self.record_sections: dict = {}
        self.last_tracer = None

    def check(self, program, report, label: str) -> None:
        """Verify a repetition: the first in full (one operation per
        request), every later one by its simulated fingerprint (one
        operation: identical to the first, or a failure)."""
        import measure

        fp = measure.fingerprint(report)
        if self.first is None:
            from repro.obs import report_metrics

            self.first = fp
            results = report.results
            n, problems = measure.verdict(self.workload, self.trace,
                                          report, results, program)
            self.attempted += n
            self.problems += problems
            self.sim, self.notes = measure.sim_metrics(report, results)
            self.digest = measure.digest(results)
            self.record_metrics, self.record_sections = \
                report_metrics(report)
        else:
            self.attempted += 1
            if fp != self.first:
                self.problems.append(
                    f"{label} simulated results differ from the first "
                    "repetition")

    @property
    def run_s(self) -> float:
        """Median repetition, at the reference speed."""
        return statistics.median(self.wall_s) * REF_SECONDS \
            / statistics.median(self.calibration)

    def repeat(self, seconds: float, traced: bool) -> None:
        from tracer import SimLedger, Tracer, layer_metrics
        from workloads import build

        start = time.perf_counter()
        self.calibration += [calibrate() for _ in range(N_CALIBRATE)]
        while True:
            program = build(self.workload, self.seed)
            report, elapsed = timed_serve(program, self.trace)
            self.calibration += [calibrate() for _ in range(N_CALIBRATE)]
            self.wall_s.append(elapsed)
            self.check(program, report, f"repetition {len(self.wall_s)}")
            del program, report
            if traced:
                tracer, ledger = Tracer(), SimLedger()
                program = build(self.workload, self.seed)
                report, elapsed = timed_serve(program, self.trace, tracer,
                                              ledger)
                self.check(program, report,
                           f"traced repetition {len(self.traced) + 1}")
                self.traced.append(layer_metrics(
                    tracer, ledger, program, report, elapsed,
                    statistics.median(self.wall_s)))
                self.last_tracer = tracer
                del program, report
            spent = time.perf_counter() - start
            per_rep = spent / len(self.wall_s)
            if spent + per_rep > seconds:
                return


def load_schema() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        t0 = time.perf_counter()
        workloads.build(w, args.seed)  # every repro import happens here
        elapsed = time.perf_counter() - t0
        ref = statistics.median(calibrate() for _ in range(N_CALIBRATE))
        print(f"{elapsed * REF_SECONDS / ref:.9f}")
        return 0
    schema = load_schema()
    setup_s = 0.0 if args.trace else measure_setup(w.name, args.seed)
    trace = workloads.make_trace(w, args.seed)
    run = Run(w, args.seed, trace)
    run.repeat(args.seconds, traced=bool(args.trace))
    report_run(run, args, schema, setup_s)
    return 0


def report_run(run: Run, args, schema: dict, setup_s: float) -> None:
    import measure
    from repro.obs import RunStore

    w = run.workload
    run_s = run.run_s
    if args.trace:
        metrics = {name: statistics.median(t[name] for t in run.traced)
                   for name in run.traced[0]}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{w.name}.json.gz"
        run.last_tracer.write(spans)
    else:
        tok_s, util = measure.paper_headline()
        metrics = {"run_s": run_s, "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024,
                   **run.sim,
                   "paper_decode_tok_s": tok_s, "paper_bw_util": util}
    failed = len(run.problems)
    print(f"perfbench {w.name} seed {run.seed}: {len(run.trace)} "
          f"requests x {len(run.wall_s)} untraced"
          + (f" + {len(run.traced)} traced" if args.trace else "")
          + " repetitions (wall s: "
          + ", ".join(f"{s:.3f}" for s in run.wall_s)
          + f"; calibration median "
          f"{statistics.median(run.calibration) * 1e3:.1f} ms vs "
          f"{REF_SECONDS * 1e3:.0f} ms reference)")
    print("  open loop: Poisson arrivals in simulated time "
          f"({w.arrival_rps:g} rps); generator lateness is 0 by "
          "construction")
    for name, value in metrics.items():
        spec = schema[name]
        print(f"  {name:<36} {value:>16.6g} {spec['unit']:<8} "
              f"({spec['better']} is better)")
    if not args.trace:
        for note in run.notes:
            print(f"  {note}")
        tok_s, util = metrics["paper_decode_tok_s"], metrics["paper_bw_util"]
        print(f"  vs paper: {tok_s:.3f} token/s vs ~"
              f"{measure.PAPER_DECODE_TOK_S:g} reported "
              f"({tok_s / measure.PAPER_DECODE_TOK_S - 1:+.1%}); "
              f"bandwidth util {util:.1%} vs {measure.PAPER_BW_UTIL:.0%} "
              f"({util / measure.PAPER_BW_UTIL - 1:+.1%})")
        print("  the serving workloads have no hardware reference: their "
              "simulated numbers are unvalidated")
    else:
        from tracer import LAYER_NAMES

        closure = sum(metrics[f"{layer}.self_s"] for layer in LAYER_NAMES)
        print(f"  per-layer self time sums to {closure:.4f} s of traced "
              f"run_s {metrics['trace.run_s']:.4f} s; spans -> "
              f"{spans.relative_to(ROOT)}")
    print(f"  digest {run.digest} (per-request tokens, finish reasons, "
          "TTFTs)")
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    print(f"  correctness: {'OK' if not failed else 'FAILED'} "
          f"({run.attempted} operations, {failed} failed)")

    store = RunStore(HERE / "runs")
    label = f"perf-{w.name}" + ("-trace" if args.trace else "")
    extra = dict(metrics)
    if not args.trace:
        extra.update(ref_wall_run_s=run_s, ref_wall_setup_s=setup_s,
                     wall_run_s=statistics.median(run.wall_s))
    record = store.record(label, {"workload": w.name, "seed": run.seed,
                                  "seconds": args.seconds,
                                  "trace": args.trace,
                                  "digest": run.digest},
                          {**run.record_metrics, **extra},
                          run.record_sections)
    store.save(record)
    print(f"  run record {record.run_id} -> "
          f"{(HERE / 'runs' / (label + '.jsonl')).relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": schema[name]["unit"]}
                    for name, value in metrics.items()}}))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``      — headline reproduction numbers for a model/platform.
* ``tables``    — print Tables I, II, and III.
* ``capacity``  — capacity report (Fig. 1) for a model and context.
* ``sweep``     — decode-rate context sweep.
* ``explore``   — design-space sweep with the Pareto frontier.
* ``generate``  — run the functional pipeline on a tiny synthetic model.
* ``serve-sim`` — replay a synthetic request trace through the
  continuous-batching engine (optionally a TP x replicas cluster) and
  report serving metrics.
* ``bench-serve`` — throughput-vs-batch curve of the batched cycle
  model; ``--scaling-sweep`` records the multi-accelerator TP x DP
  curve instead.
* ``obs``       — the diffable run store: ``obs list`` enumerates
  recorded runs, ``obs show`` prints one record, ``obs diff`` compares
  two and exits nonzero when a metric regressed beyond the threshold.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Sequence

from .cluster.router import POLICIES
from .config import KV260, MODEL_PRESETS, PLATFORM_PRESETS, QuantConfig
from .engine.telemetry import TELEMETRY_LEVELS
from .errors import ReproError


def _model(name: str):
    try:
        return MODEL_PRESETS[name]
    except KeyError:
        raise ReproError(
            f"unknown model {name!r}; choose from {sorted(MODEL_PRESETS)}"
        ) from None


def _platform(name: str):
    try:
        return PLATFORM_PRESETS[name]
    except KeyError:
        raise ReproError(
            f"unknown platform {name!r}; choose from "
            f"{sorted(PLATFORM_PRESETS)}"
        ) from None


def _quant(args) -> QuantConfig:
    return QuantConfig(weight_bits=args.weight_bits, kv_bits=args.kv_bits,
                       weight_group_size=args.group_size)


def cmd_info(args) -> int:
    from .core.accelerator import Accelerator

    model = _model(args.model)
    platform = _platform(args.platform)
    acc = Accelerator.analytical(model, _quant(args), platform)
    print(f"{model.name} on {platform.name} "
          f"({platform.bandwidth_gbps} GB/s)")
    print(f"  theoretical ceiling : "
          f"{acc.theoretical_tokens_per_s():.2f} token/s")
    perf = acc.decode_perf(args.context)
    print(f"  simulated @ctx {args.context:<5}: {perf.tokens_per_s:.2f} "
          f"token/s ({perf.utilization:.1%} util)")
    print(f"  power               : {acc.power_w():.2f} W")
    return 0


def cmd_tables(args) -> int:
    from .report.tables import table1_resources, table2_fpga, table3_edge

    for title, fn in (("Table I", table1_resources),
                      ("Table II", lambda: table2_fpga(args.context)),
                      ("Table III", lambda: table3_edge(args.context))):
        _, text = fn()
        print(f"=== {title} ===\n{text}\n")
    return 0


def cmd_capacity(args) -> int:
    from .runtime.baremetal import BareMetalSystem
    from .units import MIB

    model = _model(args.model)
    platform = _platform(args.platform)
    system = BareMetalSystem(platform)
    report = system.capacity_report(model, _quant(args), args.context)
    print(f"{model.name} at context {args.context} on {platform.name}:")
    print(f"  weights : {report.weight_bytes / MIB:8.1f} MiB")
    print(f"  KV cache: {report.kv_bytes / MIB:8.1f} MiB")
    print(f"  reserved: {report.reserved_bytes / MIB:8.1f} MiB")
    print(f"  uses {report.model_utilization:.1%} of "
          f"{report.dram_bytes // MIB} MiB -> "
          f"{'FITS' if report.fits else 'DOES NOT FIT'}")
    if report.fits:
        print(f"  max context: {system.max_context(model, _quant(args))}")
    return 0 if report.fits else 1


def cmd_sweep(args) -> int:
    from .core.cyclemodel import CycleModel

    model = _model(args.model)
    cm = CycleModel(model, _quant(args), _platform(args.platform))
    contexts = range(0, args.context + 1, max(1, args.context // args.steps))
    print(f"ctx     token/s   util    ({args.mode} pipeline)")
    for ctx in contexts:
        step = cm.decode_step(ctx, args.mode)
        print(f"{ctx:5d}   {step.tokens_per_s:7.3f}   {step.utilization:.1%}")
    return 0


def cmd_explore(args) -> int:
    from .core.explore import pareto_frontier, sweep_design_space

    model = _model(args.model)
    points = sweep_design_space(model, _quant(args), context=args.context)
    frontier = {(p.lanes, p.axi_ports, p.freq_mhz)
                for p in pareto_frontier(points)}
    print("lanes  ports  MHz   token/s   W      LUT%   fits  pareto")
    for p in points:
        mark = "*" if (p.lanes, p.axi_ports, p.freq_mhz) in frontier else ""
        print(f"{p.lanes:5d}  {p.axi_ports:5d}  {p.freq_mhz:4.0f}"
              f"  {p.tokens_per_s:7.3f}   {p.power_w:5.2f}"
              f"  {p.lut_util:5.1%}  {str(p.fits):5}  {mark}")
    return 0


def cmd_convert(args) -> int:
    """Quantize a synthetic model and write the SD-card checkpoint file."""
    from .model.weights import quantize_model, random_weights
    from .packing.checkpoint import read_checkpoint, write_checkpoint
    from .packing.memimage import build_memory_image

    model = _model(args.model)
    group = min(args.group_size, model.hidden_size)
    quant = QuantConfig(weight_bits=args.weight_bits, kv_bits=args.kv_bits,
                        weight_group_size=group)
    qweights = quantize_model(random_weights(model, seed=args.seed), quant)
    image = build_memory_image(model, quant, context=model.max_context,
                               qweights=qweights)
    with open(args.out, "wb") as stream:
        n = write_checkpoint(image, stream)
    print(f"wrote {n} bytes ({len(image.data)} regions) to {args.out}")
    with open(args.out, "rb") as stream:
        read_checkpoint(stream)  # verify CRCs like the loader would
    print("verification: all region CRCs OK")
    return 0


def cmd_summary(args) -> int:
    from .report.summary import render_summary, reproduction_summary

    numbers = reproduction_summary(context=args.context)
    print(render_summary(numbers))
    ok = numbers.all_match()
    print(f"\nreproduction {'HOLDS' if ok else 'BROKEN'}")
    return 0 if ok else 1


def cmd_generate(args) -> int:
    from .model.sampler import Sampler
    from .model.weights import quantize_model, random_weights
    from .runtime.session import InferenceSession

    model = _model(args.model)
    group = min(args.group_size, model.hidden_size)
    quant = QuantConfig(weight_bits=args.weight_bits, kv_bits=args.kv_bits,
                        weight_group_size=group)
    qweights = quantize_model(random_weights(model, seed=args.seed), quant)
    sampler = None
    if args.temperature > 0:
        sampler = Sampler(temperature=args.temperature, seed=args.seed)
    session = InferenceSession(qweights, sampler=sampler,
                               check_capacity=False)
    result = session.generate(args.prompt, max_new_tokens=args.tokens)
    print(f"prompt    : {result.prompt!r}")
    print(f"completion: {result.completion!r}")
    print(f"perf      : {result.perf.tokens_per_s:.1f} token/s simulated, "
          f"TTFT {result.perf.ttft_s * 1e3:.2f} ms")
    return 0


def _interconnect(args):
    from .cluster import INTERCONNECT_PRESETS

    try:
        return INTERCONNECT_PRESETS[args.interconnect]
    except KeyError:
        raise ReproError(
            f"unknown interconnect {args.interconnect!r}; choose from "
            f"{sorted(INTERCONNECT_PRESETS)}") from None


def _tenant_mix(args):
    """``--tenants/--priority-mix/--quota`` -> a trace tenant-mix spec
    (None when tenancy is off)."""
    from .engine import TenantSpec

    if not args.tenants:
        if args.priority_mix:
            raise ReproError("--priority-mix needs --tenants")
        return None
    if args.quota < 0:
        raise ReproError(f"--quota must be >= 0 tokens (0 = unlimited): "
                         f"{args.quota}")
    specs = []
    for entry in args.tenants.split(","):
        parts = entry.strip().split(":")
        if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
            raise ReproError(
                f"bad --tenants entry {entry.strip()!r}; expected "
                "name:class[:kv-quota-tokens]")
        quota = parts[2] if len(parts) == 3 else str(args.quota)
        if not quota.isdecimal():
            raise ReproError(
                f"bad --tenants entry {entry.strip()!r}: quota "
                f"{quota!r} is not a token count >= 0 (0 = unlimited)")
        specs.append(TenantSpec(name=parts[0], priority=parts[1],
                                kv_quota_tokens=int(quota) or None))
    shares = [1.0] * len(specs)
    if args.priority_mix:
        try:
            shares = [float(s) for s in args.priority_mix.split(",")]
        except ValueError:
            raise ReproError(
                f"bad --priority-mix {args.priority_mix!r}; expected "
                "comma-separated numbers, e.g. 0.3,0.5,0.2") from None
        if len(shares) != len(specs):
            raise ReproError(
                f"--priority-mix gives {len(shares)} shares for "
                f"{len(specs)} tenants")
    return tuple(zip(specs, shares))


def _check_serve_destinations(args) -> None:
    """Fail fast on unwritable ``--trace-out``/``--record`` targets.

    A long simulation that dies at the final write is the worst
    failure mode, so both destinations are probed before any work
    starts and bad ones surface as a clear :class:`ReproError`.
    """
    import pathlib

    if args.trace_out:
        target = pathlib.Path(args.trace_out)
        if target.is_dir():
            raise ReproError(
                f"--trace-out {args.trace_out!r} is a directory, "
                "not a writable file path")
        parent = target.parent
        if not parent.is_dir():
            raise ReproError(
                f"--trace-out {args.trace_out!r}: directory "
                f"{parent} does not exist")
        probe = parent / f".{target.name}.writable"
        try:
            probe.touch()
            probe.unlink()
        except OSError as exc:
            raise ReproError(
                f"--trace-out {args.trace_out!r} is not writable "
                f"({exc})") from None
    if args.record:
        from .obs import RunStore

        store = RunStore(args.runs_dir)
        store._label_path(args.record)  # validates the label shape
        try:
            store.root.mkdir(parents=True, exist_ok=True)
            probe = store.root / ".writable"
            probe.touch()
            probe.unlink()
        except OSError as exc:
            raise ReproError(
                f"--record {args.record!r}: run-store root "
                f"{store.root} is not writable ({exc})") from None


def cmd_serve_sim(args) -> int:
    from .scenario import Scenario

    if args.per_request and args.telemetry == "sketch":
        raise ReproError(
            "--per-request needs per-request results; use "
            "--telemetry full or windows")
    scenario = Scenario(
        model=_model(args.model), quant=_quant(args),
        platform=_platform(args.platform), backend=args.backend,
        mode=args.mode, max_batch=args.max_batch, kv=args.kv,
        kv_budget=args.kv_budget, block_size=args.block_size,
        kv_blocks=args.kv_blocks, tp=args.tp,
        interconnect=_interconnect(args), replicas=args.replicas,
        router=args.router, requests=args.requests,
        arrival_rate=args.arrival_rate,
        prompt_len=(args.prompt_min, args.prompt_max),
        decode_len=(args.decode_min, args.decode_max), seed=args.seed,
        shared_prefix=args.shared_prefix, tenant_mix=_tenant_mix(args),
        chaos=args.chaos, fault_seed=args.fault_seed, drain=args.drain,
        domains=args.domains, retry_budget=args.retry_budget,
        hedge=args.hedge, telemetry=args.telemetry)
    _check_serve_destinations(args)
    deployment = scenario.build()
    backends, engines = deployment.backends, deployment.engines
    recorders = None
    if args.trace_out:
        from .obs import FlightRecorder

        recorders = [FlightRecorder(replica=idx)
                     for idx in range(len(engines))]
        for engine, recorder in zip(engines, recorders):
            engine.flight = recorder
    report = deployment.serve()
    model, platform = scenario.model, scenario.platform
    backend, engine = backends[0], engines[0]

    kv_desc = f"KV budget {engine.kv_token_budget} tokens"
    if args.kv == "paged":
        kv_desc = (f"paged KV: {backend.paged_kv.n_total_blocks} blocks "
                   f"x {args.block_size} tokens")
    cluster_desc = ""
    if args.tp > 1 or args.replicas > 1:
        cluster_desc = (f", tp {args.tp} x {args.replicas} replicas over "
                        f"{args.interconnect} ({args.router})")
    print(f"serve-sim: {args.requests} requests, {model.name} on "
          f"{platform.name} ({args.backend} backend, max batch "
          f"{args.max_batch}, {kv_desc}{cluster_desc})")
    print(f"  simulated time : {report.total_time_s:10.3f} s "
          f"({report.n_steps} engine steps)")
    print(f"  aggregate rate : {report.aggregate_tokens_per_s:10.3f} "
          f"token/s ({report.total_new_tokens} tokens)")
    if not report.n_served:
        # Every request was rejected or failed: no batch, TTFT or token
        # latency exists to report.
        print(f"  0 served       : all {report.n_requests} requests "
              "rejected or failed")
    else:
        print(f"  batch occupancy: mean {report.mean_batch:.2f}, "
              f"max {report.max_batch_observed}, "
              f"preemptions {report.preemptions}")
        print(f"  mean TTFT      : {report.mean_ttft_s * 1e3:10.3f} ms")
        for p in (50, 95, 99):
            print(f"  TTFT p{p:<3}      : "
                  f"{report.ttft_percentile_s(p) * 1e3:10.3f} ms")
        for p in (50, 95, 99):
            print(f"  token lat p{p:<3}: "
                  f"{report.latency_percentile_s(p) * 1e3:10.3f} ms")
    if args.kv == "paged":
        reused = sum(b.paged_kv.prefix_reused_tokens for b in backends)
        hits = sum(b.paged_kv.prefix.hits for b in backends)
        evictions = sum(b.paged_kv.prefix.evictions for b in backends)
        print(f"  prefix reuse   : {reused} prompt "
              f"tokens served from cache "
              f"({hits} block hits, "
              f"{evictions} evictions)")
    if args.replicas > 1:
        from .report.cluster import replica_table

        _, text = replica_table(report)
        print("  " + text.replace("\n", "\n  "))
    resilience = report.resilience
    if resilience:
        goodput = resilience.get("goodput_degraded_tokens_per_s")
        print(f"  chaos          : seed {args.fault_seed} -> "
              f"{resilience['n_crashes']} crashes, "
              f"{resilience['n_hangs']} hangs, "
              f"{resilience['n_slowdowns']} slowdowns")
        print(f"    killed {resilience['n_killed']}, "
              f"redispatched {resilience['n_redispatched']}, "
              f"failed {resilience['n_failed']}, "
              f"shed {resilience['n_shed']}, "
              f"lost {resilience['n_lost']} "
              f"(retry rounds {resilience['retry_rounds']}: sweeps "
              "that re-ran a replica)")
        if resilience.get("n_drains"):
            print(f"    drains {resilience['n_drains']}: "
                  f"migrated {resilience['n_migrated']} "
                  f"({resilience['migrated_kv_bytes']} KV bytes), "
                  f"resumed {resilience['n_resumed']}, "
                  f"recompute {resilience['resume_recompute_tokens']} "
                  f"tokens")
        if resilience.get("n_hedged"):
            print(f"    hedged {resilience['n_hedged']}, "
                  f"hedge wins {resilience['n_hedge_wins']}")
        mttr = resilience["mttr_s"]
        mttr_desc = "-" if mttr is None else f"{mttr * 1e3:.3f} ms"
        tail = "" if goodput is None \
            else f", degraded goodput {goodput:.3f} tok/s"
        print(f"    mttr {mttr_desc}, "
              f"downtime {resilience['downtime_s'] * 1e3:.3f} ms"
              f"{tail}")
    if scenario.tenant_mix is not None:
        from .report.tables import tenant_stats_table

        _, text = tenant_stats_table(report.tenant_stats)
        print("  tenant classes :")
        print("  " + text.replace("\n", "\n  "))
    if args.window_stats:
        from .report.tables import window_stats_table

        _, text = window_stats_table(report.window_stats)
        print("  window stats   : " + text.replace("\n", "\n  "))
    if args.per_request:
        print("  id  prompt  new  ttft_ms    e2e_ms  reason")
        for r in report.results:
            ttft = "      -" if r.ttft_s is None \
                else f"{r.ttft_s * 1e3:7.2f}"
            print(f"  {r.request_id:2d}  {r.prompt_len:6d}  "
                  f"{len(r.tokens):3d}  {ttft}  "
                  f"{r.e2e_s * 1e3:8.2f}  {r.finish_reason.value}")
    if recorders is not None:
        from .obs import export_chrome_trace

        payload = export_chrome_trace(args.trace_out, recorders)
        print(f"  trace          : {len(payload['traceEvents'])} events "
              f"-> {args.trace_out}")
    if args.record:
        from .obs import RunStore

        store = RunStore(args.runs_dir)
        record = store.record_report(
            args.record, report,
            config={"command": "serve-sim", **scenario.config()})
        print(f"  run record     : {record.run_id} -> "
              f"{store.root / (args.record + '.jsonl')}")
    return 0


def _fmt_metric(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_obs_list(args) -> int:
    from .obs import RunStore
    from .report.tables import format_table

    records = RunStore(args.runs_dir).list_runs()
    if not records:
        print(f"no runs recorded under {args.runs_dir}")
        return 0
    import time

    headers = ["Run", "Created", "Commit", "Requests", "tok/s",
               "p99 TTFT ms"]
    body = []
    for r in records:
        tok = r.metrics.get("aggregate_tokens_per_s")
        p99 = r.metrics.get("p99_ttft_s")
        body.append([
            r.run_id,
            time.strftime("%Y-%m-%d %H:%M:%S",
                          time.localtime(r.created_unix)),
            r.git_commit or "-",
            r.metrics.get("n_requests", "-"),
            f"{tok:.3f}" if tok is not None else "-",
            f"{p99 * 1e3:.3f}" if p99 is not None else "-"])
    print(format_table(headers, body))
    return 0


def cmd_obs_show(args) -> int:
    from .obs import RunStore, metric_direction
    from .report.tables import (format_table, tenant_stats_table,
                                window_stats_table)

    record = RunStore(args.runs_dir).load(args.run)
    print(f"{record.run_id} ({record.schema}, commit "
          f"{record.git_commit or 'unknown'})")
    if record.config:
        print("config: " + ", ".join(
            f"{k}={v}" for k, v in sorted(record.config.items())))
    direction_name = {1: "higher", -1: "lower", 0: "-"}
    body = [[key, _fmt_metric(value),
             direction_name[metric_direction(key)]]
            for key, value in sorted(record.metrics.items())]
    print(format_table(["Metric", "Value", "Better"], body))
    window_stats = record.sections.get("window_stats")
    if window_stats:
        _, text = window_stats_table(window_stats)
        print("\nwindow stats: " + text)
    tenant_stats = record.sections.get("tenant_stats")
    if tenant_stats:
        _, text = tenant_stats_table(tenant_stats)
        print("\ntenant classes:\n" + text)
    return 0


def cmd_obs_diff(args) -> int:
    from .obs import RunStore, diff_records
    from .report.tables import format_table

    store = RunStore(args.runs_dir)
    if args.baseline_window > 1:
        from .obs import median_record

        base = median_record(
            store.load_window(args.base, args.baseline_window))
    else:
        base = store.load(args.base)
    new = store.load(args.new)
    deltas = diff_records(base, new, threshold=args.threshold)
    body = []
    regressions = []
    for d in deltas:
        change = "n/a" if d.rel_change is None \
            else f"{d.rel_change:+.2%}"
        flag = ""
        if d.regressed:
            flag = "REGRESSED"
            regressions.append(d)
        elif d.improved:
            flag = "improved"
        body.append([d.key, f"{d.base:.6g}", f"{d.new:.6g}", change,
                     flag])
    print(f"diff {base.run_id} -> {new.run_id} "
          f"(threshold {args.threshold:.0%})")
    print(format_table(["Metric", "Base", "New", "Change", "Flag"],
                       body))
    if regressions:
        print(f"{len(regressions)} metric(s) REGRESSED beyond "
              f"{args.threshold:.0%}: "
              + ", ".join(d.key for d in regressions))
        return 1
    print("no regressions beyond threshold")
    return 0


def cmd_bench_serve_scaling(args) -> int:
    """TP x DP grid replay: the multi-accelerator scaling curve."""
    from .cluster import scaling_sweep, tp_scaling_is_sane
    from .report.cluster import scaling_table

    model = _model(args.model)
    platform = _platform(args.platform)
    points = scaling_sweep(model, _quant(args), platform,
                           tp_values=(1, 2, 4), dp_values=(1, 2),
                           interconnect=_interconnect(args),
                           n_requests=args.requests,
                           max_batch=args.max_batch, mode=args.mode,
                           seed=args.seed, telemetry=args.telemetry)
    _, text = scaling_table(points)
    print(f"TP x DP scaling — {model.name} on {platform.name}, "
          f"{args.interconnect} interconnect, "
          f"{args.requests}-request trace")
    print(text)
    sane = tp_scaling_is_sane(points)
    print("tensor-parallel scaling "
          + ("HOLDS" if sane else "DOES NOT HOLD")
          + " (throughput rises with tp, sub-linear under "
          "interconnect cost)")
    return 0 if sane else 1


def cmd_bench_serve(args) -> int:
    from .core.cyclemodel import CycleModel
    from .core.vpu import VpuSpec

    if args.scaling_sweep:
        return cmd_bench_serve_scaling(args)
    if args.max_batch < 2:
        raise ReproError(
            "bench-serve needs --max-batch >= 2 to compare against the "
            "single-request rate")
    model = _model(args.model)
    platform = _platform(args.platform)
    vpu = VpuSpec(lanes=args.lanes) if args.lanes else None
    cm = CycleModel(model, _quant(args), platform, vpu=vpu)
    batches = []
    b = 1
    while b <= args.max_batch:
        batches.append(b)
        b *= 2
    points = cm.batch_sweep(batches, args.context, args.mode)
    single = points[0].aggregate_tokens_per_s
    print(f"{model.name} on {platform.name} @ctx {args.context} "
          f"({args.mode} pipeline"
          + (f", {args.lanes} lanes" if args.lanes else "") + ")")
    print("batch   agg tok/s   per-seq    util    speedup")
    for p in points:
        print(f"{p.batch:5d}   {p.aggregate_tokens_per_s:9.3f}   "
              f"{p.per_sequence_tokens_per_s:7.3f}   {p.utilization:5.1%}"
              f"   {p.aggregate_tokens_per_s / single:6.2f}x")
    amortized = all(p.aggregate_tokens_per_s > single
                    for p in points if p.batch >= 2)
    print("weight-stream amortization "
          + ("VISIBLE" if amortized else "NOT VISIBLE")
          + " (aggregate rate vs batch=1)")
    if args.kv_compare:
        print()
        return 0 if (cmd_bench_serve_kv_modes(args) == 0 and amortized) \
            else 1
    return 0 if amortized else 1


def cmd_bench_serve_kv_modes(args) -> int:
    """Slotted-vs-paged engine replay on one shared-prefix trace."""
    from .scenario import Scenario

    scenario = Scenario(
        model=_model(args.model), quant=_quant(args),
        platform=_platform(args.platform), mode=args.mode,
        max_batch=args.max_batch, kv_budget=args.kv_budget,
        block_size=args.block_size, requests=args.requests,
        arrival_rate=1e9, prompt_len=(4, 12), decode_len=(16, 32),
        seed=args.seed, shared_prefix=args.shared_prefix)
    # Both disciplines derive the same budget when --kv-budget is 0
    # (slotted caps the scheduler with it, paged sizes the pool).
    deployments = {kv: replace(scenario, kv=kv).build()
                   for kv in ("slotted", "paged")}
    print(f"KV modes — {args.requests} requests sharing a "
          f"{args.shared_prefix}-token prefix, budget "
          f"{deployments['slotted'].engines[0].kv_token_budget} tokens")
    print("mode      agg tok/s   mean batch  max batch  preempt  reuse")
    stats = {}
    for kv_mode, deployment in deployments.items():
        stats[kv_mode] = report = deployment.serve()
        paged_kv = deployment.backends[0].paged_kv
        reused = 0 if paged_kv is None else paged_kv.prefix_reused_tokens
        print(f"{kv_mode:8}  {report.aggregate_tokens_per_s:9.3f}   "
              f"{report.mean_batch:10.2f}  {report.max_batch_observed:9d}"
              f"  {report.preemptions:7d}  {reused:5d}")
    # A win requires strictly more throughput, and a strictly larger
    # admitted batch whenever the KV budget (not --max-batch) was what
    # capped the slotted run — when slotted already reaches the
    # concurrency cap, batch cannot differentiate and throughput decides.
    slotted_budget_limited = \
        stats["slotted"].max_batch_observed < args.max_batch
    wins = (stats["paged"].aggregate_tokens_per_s
            > stats["slotted"].aggregate_tokens_per_s
            and (not slotted_budget_limited
                 or stats["paged"].max_batch_observed
                 > stats["slotted"].max_batch_observed))
    print("paged KV " + ("WINS" if wins else "DOES NOT WIN")
          + " (throughput + admitted batch vs slotted)")
    return 0 if wins else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Embedded-FPGA LLM decoding reproduction (DATE 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_default="LLaMA2-7B", context=True):
        p.add_argument("--model", default=model_default)
        p.add_argument("--platform", default=KV260.name)
        p.add_argument("--weight-bits", type=int, default=4)
        p.add_argument("--kv-bits", type=int, default=8)
        p.add_argument("--group-size", type=int, default=128)
        if context:
            p.add_argument("--context", type=int, default=1023)

    p = sub.add_parser("info", help="headline numbers")
    common(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("tables", help="print Tables I-III")
    p.add_argument("--context", type=int, default=1023)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("capacity", help="Fig. 1 capacity report")
    common(p)
    p.set_defaults(fn=cmd_capacity, context=1024)

    p = sub.add_parser("sweep", help="context sweep")
    common(p)
    p.add_argument("--mode", choices=("fused", "coarse"), default="fused")
    p.add_argument("--steps", type=int, default=8)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("explore", help="design-space exploration")
    common(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("convert",
                       help="write a checkpoint file (tiny models)")
    common(p, model_default="tiny-test")
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_convert, group_size=32)

    p = sub.add_parser("summary",
                       help="every headline claim, pass/fail vs the paper")
    p.add_argument("--context", type=int, default=1023)
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("serve-sim",
                       help="continuous-batching serving simulation")
    common(p, model_default="tiny-test", context=False)
    p.add_argument("--backend", choices=("cycle", "analytical", "functional"),
                   default="cycle")
    p.add_argument("--mode", choices=("fused", "coarse"), default="fused")
    p.add_argument("--requests", type=int, default=16)
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--arrival-rate", type=float, default=1e6,
                   help="requests per simulated second")
    p.add_argument("--prompt-min", type=int, default=4)
    p.add_argument("--prompt-max", type=int, default=16)
    p.add_argument("--decode-min", type=int, default=8)
    p.add_argument("--decode-max", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kv-budget", type=int, default=0,
                   help="override the KV token budget (0 = derive from "
                        "the capacity report); small values force "
                        "preemption")
    p.add_argument("--kv", choices=("slotted", "paged"), default="slotted",
                   help="KV discipline: per-slot worst-case reservations "
                        "or block-granular paging with prefix reuse")
    p.add_argument("--block-size", type=int, default=16,
                   help="tokens per KV block (paged mode)")
    p.add_argument("--kv-blocks", type=int, default=0,
                   help="paged pool size in blocks (0 = derive from the "
                        "capacity report or --kv-budget)")
    p.add_argument("--shared-prefix", type=int, default=0,
                   help="prepend one fixed system prompt of this many "
                        "tokens to every request")
    p.add_argument("--tp", type=int, default=1,
                   help="tensor-parallel shards per replica (1 = one "
                        "board)")
    p.add_argument("--replicas", type=int, default=1,
                   help="data-parallel replicas behind the router")
    p.add_argument("--interconnect", default="10GbE",
                   help="board-to-board link preset for --tp > 1 "
                        "(1GbE, 10GbE, Aurora-x4)")
    p.add_argument("--router", choices=POLICIES, default="round_robin",
                   help="replica routing policy for --replicas > 1")
    p.add_argument("--telemetry", choices=TELEMETRY_LEVELS, default="full",
                   help="recording level: full materializes every "
                        "step, windows keeps columnar records that "
                        "expand to identical values, sketch keeps "
                        "aggregates only and replaces the exact "
                        "latency sample with a mergeable t-digest")
    p.add_argument("--per-request", action="store_true",
                   help="print the per-request table")
    p.add_argument("--window-stats", action="store_true",
                   help="print fast-forward window counts and the "
                        "break-reason histogram")
    p.add_argument("--record", default="",
                   help="append this run's metrics to the run store "
                        "under the given label (see 'repro obs')")
    p.add_argument("--runs-dir", default="benchmarks/runs",
                   help="run-store root for --record")
    p.add_argument("--trace-out", default="",
                   help="write the request lifecycle as Chrome "
                        "trace-event JSON (open in Perfetto or "
                        "chrome://tracing)")
    p.add_argument("--tenants", default="",
                   help="multi-tenant mix: comma-separated "
                        "name:class[:kv-quota-tokens] entries, e.g. "
                        "fg:interactive,bulk:batch:4096,bg:best_effort "
                        "(classes: interactive, batch, best_effort)")
    p.add_argument("--priority-mix", default="",
                   help="traffic shares aligned with --tenants, e.g. "
                        "0.3,0.5,0.2 (default: equal shares)")
    p.add_argument("--quota", type=int, default=0,
                   help="default per-tenant KV quota in tokens for "
                        "--tenants entries without their own (0 = "
                        "unlimited)")
    p.add_argument("--chaos", action="store_true",
                   help="inject a seeded fault schedule (--replicas "
                        ">= 2): replica crashes, hangs, and slowdowns; "
                        "killed requests are re-dispatched to healthy "
                        "replicas with capped exponential backoff and "
                        "degraded-mode admission sheds best-effort "
                        "traffic while capacity is down")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="fault-schedule seed; the same --fault-seed "
                        "and --seed replay the run bit-identically")
    p.add_argument("--retry-budget", type=int, default=3,
                   help="re-dispatch attempts per killed request "
                        "before it surfaces as failed")
    p.add_argument("--drain", action="store_true",
                   help="planned maintenance drain of replica 0 "
                        "mid-run: stop admitting, checkpoint in-flight "
                        "KV, and migrate it to healthy peers")
    p.add_argument("--domains", type=int, default=0,
                   help="partition replicas into this many contiguous "
                        "failure domains (racks) so generated faults "
                        "correlate within a domain; needs --chaos")
    p.add_argument("--hedge", type=float, default=0.0,
                   help="hedge delay in seconds: duplicate a request "
                        "onto a second healthy domain when its first "
                        "token is this late, first token wins "
                        "(0 disables)")
    p.set_defaults(fn=cmd_serve_sim)

    p = sub.add_parser("bench-serve",
                       help="batched decode throughput vs batch size")
    common(p)
    p.add_argument("--mode", choices=("fused", "coarse"), default="fused")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--lanes", type=int, default=0,
                   help="override DOT-engine lanes (0 = platform default)")
    p.add_argument("--kv-compare", action="store_true",
                   help="also replay a shared-prefix trace through the "
                        "engine with slotted and paged KV")
    p.add_argument("--kv-budget", type=int, default=0,
                   help="KV token budget for the comparison (0 = derive)")
    p.add_argument("--block-size", type=int, default=16,
                   help="tokens per KV block (paged side)")
    p.add_argument("--shared-prefix", type=int, default=128,
                   help="shared system-prompt tokens in the trace")
    p.add_argument("--requests", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scaling-sweep", action="store_true",
                   help="replay one trace over a TP in {1,2,4} x "
                        "replicas in {1,2} grid and print the "
                        "multi-accelerator scaling curve")
    p.add_argument("--interconnect", default="10GbE",
                   help="board-to-board link preset for the sweep")
    p.add_argument("--telemetry", choices=TELEMETRY_LEVELS, default="full",
                   help="recording level for --scaling-sweep replays "
                        "(windows/sketch stream million-request grids)")
    p.set_defaults(fn=cmd_bench_serve, context=512)

    p = sub.add_parser("obs",
                       help="run store: list, show, and diff recorded "
                            "serving runs")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    def runs_dir(q):
        q.add_argument("--runs-dir", default="benchmarks/runs",
                       help="run-store root directory")

    q = obs_sub.add_parser("list", help="list recorded runs")
    runs_dir(q)
    q.set_defaults(fn=cmd_obs_list)

    q = obs_sub.add_parser("show", help="print one run record")
    q.add_argument("run", help="run id (label#seq), bare label (its "
                               "latest run), or path to a .jsonl file")
    runs_dir(q)
    q.set_defaults(fn=cmd_obs_show)

    q = obs_sub.add_parser("diff",
                           help="compare two runs; exits nonzero when "
                                "a metric regressed beyond the "
                                "threshold")
    q.add_argument("base", help="baseline run selector")
    q.add_argument("new", help="candidate run selector")
    q.add_argument("--threshold", type=float, default=0.05,
                   help="relative change beyond which a directional "
                        "metric is flagged (default 0.05)")
    q.add_argument("--baseline-window", type=int, default=1,
                   help="compare against the per-metric median of the "
                        "last K baseline runs instead of a single "
                        "record (default 1)")
    runs_dir(q)
    q.set_defaults(fn=cmd_obs_diff)

    p = sub.add_parser("generate", help="functional generation (tiny models)")
    common(p, model_default="tiny-test")
    p.add_argument("--prompt", default="Hello FPGA")
    p.add_argument("--tokens", type=int, default=16)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    # Tiny models need a group size that divides their hidden size.
    p.set_defaults(fn=cmd_generate, group_size=32)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # unreachable; keeps type checkers honest

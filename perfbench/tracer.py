"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public methods of each layer's classes (the
table :data:`LAYERS`) for the length of one traced run, records a span
``(entry, parent, start, end)`` per outermost call of a layer, and
restores the originals afterwards.  Nothing under ``src/`` changes.

Rules:

* a layer's self time is its spans' time minus their child spans';
* a call made while the same layer is already on the stack is counted
  but not timed again (so a layer's spans never overlap each other);
* time in unwrapped code (``engine.request``, ``numerics``, ``quant``,
  ``memory``, ``obs``) lands in the nearest wrapped caller's layer.

:class:`SimLedger` reads simulated quantities from the arguments and
return values of those same public calls.  DRAM bytes are *computed*
with ``repro.memory.traffic`` from the contexts each decode step
attended over — they are a model's figures, not a measurement.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
import types
from array import array

import numpy as np

#: layer -> the classes whose public methods are its entry points.
LAYERS = (
    ("cluster", (("repro.cluster.router", "ReplicaRouter"),)),
    ("engine.scheduler", (("repro.engine.scheduler",
                           "ContinuousBatchScheduler"),)),
    ("engine.backends", (("repro.engine.backends", "_KVMixin"),
                         ("repro.engine.backends", "_TimingStreamMixin"),
                         ("repro.engine.backends", "_CycleTimedBackend"),
                         ("repro.engine.backends", "CycleModelBackend"),
                         ("repro.engine.backends", "FunctionalBackend"))),
    ("engine.telemetry", (("repro.engine.telemetry", "TelemetryRecorder"),
                          ("repro.engine.telemetry",
                           "StreamedServeReport"))),
    ("core", (("repro.core.cyclemodel", "CycleModel"),
              ("repro.core.pipeline", "AttentionPipeline"),
              ("repro.core.scheduler", "TokenScheduler"))),
    ("kv", (("repro.kv.paged", "PagedKVCache"),
            ("repro.kv.prefix", "PrefixCache"))),
    ("model", (("repro.model.quantized", "QuantizedModel"),)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)


class Tracer:
    """Span recorder over the wrapped entry points (see module doc)."""

    def __init__(self) -> None:
        self.entries: list[str] = []      # "Class.method" per entry id
        self.entry_layer: list[int] = []
        self.calls: list[int] = []        # every call, nested included
        self.span_entry = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._busy = [False] * len(LAYERS)
        self._stack = [-1]
        self._patches: list[tuple[type, str, object]] = []

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every entry point.  ``hooks`` maps ``"Class.method"`` to
        ``(pre, post)``: ``pre(args, kwargs)`` runs before an outermost
        call and its value reaches ``post(value, args, result)`` after."""
        hooks = hooks or {}
        for lid, (_, classes) in enumerate(LAYERS):
            for module, cls_name in classes:
                cls = getattr(importlib.import_module(module), cls_name)
                for name, fn in list(vars(cls).items()):
                    if name.startswith("_") \
                            or not isinstance(fn, types.FunctionType):
                        continue
                    qual = f"{cls_name}.{name}"
                    eid = len(self.entries)
                    self.entries.append(qual)
                    self.entry_layer.append(lid)
                    self.calls.append(0)
                    pre, post = hooks.get(qual, (None, None))
                    self._patches.append((cls, name, fn))
                    setattr(cls, name,
                            self._wrap(fn, eid, lid, pre, post))

    def uninstall(self) -> None:
        for cls, name, fn in reversed(self._patches):
            setattr(cls, name, fn)
        self._patches.clear()

    def _wrap(self, fn, eid: int, lid: int, pre, post):
        busy, stack, calls = self._busy, self._stack, self.calls
        add_entry, add_parent = self.span_entry.append, \
            self.span_parent.append
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[eid] += 1
            if busy[lid]:
                return fn(*args, **kwargs)
            busy[lid] = True
            idx = len(starts)
            add_entry(eid)
            add_parent(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            token = pre(args, kwargs) if pre is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                busy[lid] = False
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- derived numbers ----------------------------------------------------

    def n_spans(self) -> int:
        return len(self.span_start)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span time minus child-span time."""
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        if not self.n_spans():
            return out
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        layer = np.asarray(self.entry_layer, dtype=np.int64)[
            np.frombuffer(self.span_entry, dtype=np.int32)]
        per = np.bincount(layer, weights=dur - child,
                          minlength=len(LAYERS))
        return {name: float(per[i]) for i, name in enumerate(LAYER_NAMES)}

    def layer_spans(self, layer: str) -> int:
        """Outermost (timed) calls into ``layer``."""
        if not self.n_spans():
            return 0
        lid = LAYER_NAMES.index(layer)
        layer_of = np.asarray(self.entry_layer)[
            np.frombuffer(self.span_entry, dtype=np.int32)]
        return int((layer_of == lid).sum())

    def entry_time(self, qual: str) -> float:
        """Seconds inside the timed spans of one entry point."""
        if not self.n_spans():
            return 0.0
        eid = self.entries.index(qual)
        mask = np.frombuffer(self.span_entry, dtype=np.int32) == eid
        return float((np.frombuffer(self.span_end)[mask]
                      - np.frombuffer(self.span_start)[mask]).sum())

    def count(self, *quals: str) -> int:
        """Calls (nested included) of the named ``Class.method`` entries."""
        return sum(c for q, c in zip(self.entries, self.calls)
                   if q in quals)

    def write(self, path) -> None:
        """Spans as gzipped columnar JSON: times in microseconds from the
        first span, ``parent`` -1 for a root."""
        t0 = self.span_start[0] if self.n_spans() else 0.0
        payload = {
            "entries": self.entries,
            "entry_layer": [LAYER_NAMES[i] for i in self.entry_layer],
            "entry": list(self.span_entry),
            "parent": list(self.span_parent),
            "start_us": [round((t - t0) * 1e6, 3) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6, 3) for t in self.span_end],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


class _BoardAcc:
    __slots__ = ("prefill_cycles", "decode_cycles", "steps", "tokens",
                 "fetched", "board_s")

    def __init__(self) -> None:
        self.prefill_cycles = 0.0
        self.decode_cycles = 0.0
        self.steps = 0
        self.tokens = 0
        self.fetched = 0
        self.board_s = 0.0


class SimLedger:
    """Simulated board quantities from public-call arguments and returns.

    Accumulators are per backend and reset whenever that backend's
    engine starts a run, so a fault run's fixed-point replays leave only
    the final (reported) round.  Decode cycles are the backend's, before
    any fault slowdown factor the scheduler applies on top.
    """

    def __init__(self) -> None:
        self.acc: dict[int, _BoardAcc] = {}
        self.engine_runs = 0
        self.ff_calls = 0
        self.ff_steps = 0
        self.model_rows = 0
        self.breaks: dict[str, int] = {}
        self._fetch = None
        self._ff = None

    def _board(self, backend) -> _BoardAcc:
        acc = self.acc.get(id(backend))
        if acc is None:
            acc = self.acc[id(backend)] = _BoardAcc()
        return acc

    def _charge(self, backend, cycles_sum: float, n: int,
                fetch0: list) -> None:
        acc = self._board(backend)
        acc.decode_cycles += cycles_sum
        acc.steps += n
        acc.tokens += n * len(fetch0)
        # member fetches advance by one per step: sum over the window
        acc.fetched += n * sum(fetch0) + len(fetch0) * n * (n - 1) // 2

    # -- hook bodies --------------------------------------------------------

    def _run_pre(self, args, kwargs):
        self.acc[id(args[0].backend)] = _BoardAcc()
        self.engine_runs += 1

    def _run_post(self, _, args, report):
        self._board(args[0].backend).board_s = report.total_time_s

    def _prefill_post(self, _, args, cycles):
        self._board(args[0]).prefill_cycles += cycles

    def _decode_pre(self, args, kwargs):
        self._fetch = None
        return [s.context for s in args[1]]

    def _decode_post(self, contexts, args, cycles):
        fetch = self._fetch if self._fetch is not None else contexts
        self._charge(args[0], cycles, 1, list(fetch))

    def _ff_pre(self, args, kwargs):
        self._fetch = None
        return [s.context for s in args[1]]

    def _ff_post(self, contexts, args, cycles):
        fetch = self._fetch if self._fetch is not None else contexts
        self._ff = (np.asarray(cycles, dtype=np.float64), list(fetch))

    def _commit_pre(self, args, kwargs):
        n = args[2]
        cycles, fetch = self._ff
        self.ff_calls += 1
        self.ff_steps += n
        self._charge(args[0], float(cycles[:n].sum()), n, fetch)

    def _fetch_post(self, _, args, plan):
        self._fetch = plan

    def _rows_batch(self, args, kwargs):
        self.model_rows += len(args[1])

    def _rows_prefill(self, args, kwargs):
        start = kwargs.get("start", args[3] if len(args) > 3 else 0)
        self.model_rows += len(args[1]) - start

    def _break_pre(self, args, kwargs):
        self.breaks[args[1]] = self.breaks.get(args[1], 0) + 1

    def hooks(self) -> dict:
        decode = (self._decode_pre, self._decode_post)
        prefill = (None, self._prefill_post)
        return {
            "ContinuousBatchScheduler.run": (self._run_pre, self._run_post),
            "CycleModelBackend.prefill": prefill,
            "FunctionalBackend.prefill": prefill,
            "CycleModelBackend.decode_batch": decode,
            "FunctionalBackend.decode_batch": decode,
            "_TimingStreamMixin.fast_forward_cycles":
                (self._ff_pre, self._ff_post),
            "_TimingStreamMixin.commit_fast_forward":
                (self._commit_pre, None),
            "PagedKVCache.fetch_plan": (None, self._fetch_post),
            "TelemetryRecorder.note_break": (self._break_pre, None),
            "QuantizedModel.forward_batch": (self._rows_batch, None),
            "QuantizedModel.prefill": (self._rows_prefill, None),
        }

    def totals(self) -> _BoardAcc:
        out = _BoardAcc()
        for acc in self.acc.values():
            for field in _BoardAcc.__slots__:
                setattr(out, field, getattr(out, field) + getattr(acc, field))
        return out


def layer_metrics(tracer: Tracer, ledger: SimLedger, program, report,
                  run_s: float, untraced_run_s: float) -> dict:
    """Every per-layer metric of one traced run, by its BENCHMARK.json
    name.  Host counts cover all work done (fault replays included);
    simulated quantities cover the reported (final) round."""
    from repro.memory.traffic import decode_traffic

    self_s = tracer.self_times()
    w = program.workload
    backend = program.backends[0]
    res = getattr(report, "resilience", None) or {}
    eager = tracer.count("ContinuousBatchScheduler.step")
    windows = tracer.count("TelemetryRecorder.record_window")
    iterations = eager + windows
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYER_NAMES}
    m["cluster.engine_runs_per_replica"] = ledger.engine_runs / w.replicas
    for key, name in (("retry_rounds", "retry_rounds"),
                      ("killed", "n_killed"),
                      ("redispatched", "n_redispatched"),
                      ("migrated", "n_migrated"),
                      ("migrated_kv_bytes", "migrated_kv_bytes"),
                      ("shed", "n_shed")):
        m[f"cluster.{key}"] = res.get(name, 0)
    sch = "engine.scheduler"
    m[f"{sch}.iterations"] = iterations
    m[f"{sch}.us_per_iter"] = tracer.entry_time(
        "ContinuousBatchScheduler.run") / max(iterations, 1) * 1e6
    m[f"{sch}.windows"] = windows
    m[f"{sch}.eager_steps"] = eager
    m[f"{sch}.admission_breaks"] = ledger.breaks.get("admission", 0)
    m[f"{sch}.block_frontier_breaks"] = \
        ledger.breaks.get("block-frontier", 0)
    m[f"{sch}.preemptions"] = report.preemptions
    m[f"{sch}.mean_batch"] = report.mean_batch
    be = "engine.backends"
    m[f"{be}.calls.prefill"] = tracer.count(
        "CycleModelBackend.prefill", "FunctionalBackend.prefill")
    m[f"{be}.calls.decode_batch"] = tracer.count(
        "CycleModelBackend.decode_batch", "FunctionalBackend.decode_batch")
    m[f"{be}.calls.fast_forward"] = tracer.count(
        "_TimingStreamMixin.fast_forward_cycles")
    m[f"{be}.calls.planned_tokens"] = tracer.count(
        "_TimingStreamMixin.planned_tokens")
    m[f"{be}.steps_per_ff_call"] = \
        ledger.ff_steps / ledger.ff_calls if ledger.ff_calls else 0.0
    tel = LAYER_NAMES.index("engine.telemetry")
    m["engine.telemetry.calls"] = sum(
        c for c, lid in zip(tracer.calls, tracer.entry_layer) if lid == tel)
    m["core.schedule_builds"] = tracer.layer_spans("core")
    paged = [b.paged_kv for b in program.backends if b.paged_kv is not None]
    m["kv.prefix_hit_tokens"] = sum(p.prefix_reused_tokens for p in paged)
    m["kv.evictions"] = sum(p.prefix.evictions for p in paged)
    m["model.forward_calls"] = tracer.count(
        "QuantizedModel.forward_batch", "QuantizedModel.prefill")
    m["model.us_per_row"] = self_s["model"] / ledger.model_rows * 1e6 \
        if ledger.model_rows else 0.0

    # Simulated DRAM bytes, computed (memory.traffic is linear in the
    # fetched context): weights + norms once per step, embedding row and
    # KV write per member, KV reads per fetched cached token.
    t = ledger.totals()
    base = decode_traffic(backend.model_config, backend.quant, 0)
    one = decode_traffic(backend.model_config, backend.quant, 1)
    per_fetch = one.kv_read_bytes + one.kv_read_pack_bytes
    weights = t.steps * base.weight_bytes
    total = (weights + t.steps * base.norm_bytes
             + t.tokens * (base.embedding_row_bytes + base.kv_write_bytes
                           + base.kv_write_pack_bytes)
             + t.fetched * per_fetch)
    decode_s = t.decode_cycles / backend.freq_hz
    prefill_s = t.prefill_cycles / backend.freq_hz
    m["memory.dram_bytes_per_token"] = total / t.tokens if t.tokens else 0.0
    m["memory.weight_share"] = weights / total if total else 0.0
    m["memory.bw_util"] = total / (decode_s * backend.platform
                                   .bandwidth_bytes_per_s) \
        if decode_s else 0.0
    m["board.prefill_share"] = prefill_s / t.board_s
    m["board.decode_share"] = decode_s / t.board_s
    m["board.idle_share"] = 1.0 - (prefill_s + decode_s) / t.board_s
    m["trace.run_s"] = run_s
    m["trace.overhead"] = run_s / untraced_run_s
    return m

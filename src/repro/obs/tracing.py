"""Request-lifecycle flight recorder and Chrome trace export.

A :class:`FlightRecorder` attached to a scheduler (``engine.flight =
FlightRecorder()``) captures the life of every request as typed span
and instant events — queued → prefill → decode, punctuated by
preempt/evict/quota-retire instants and closed by a retirement — plus
one span per fast-forward window (tagged with its break reason) and
per eager step on a dedicated scheduler track.  Recording is opt-in
and zero-cost when off: the scheduler's only obligation is an
``is None`` check per hook site.

The captured stream exports as Chrome trace-event JSON
(:func:`export_chrome_trace`) — the ``{"traceEvents": [...]}`` format
that Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
directly.  Each replica becomes one *process* (``pid``), the scheduler
track is thread 0, and every request gets its own thread lane
(``tid = request_id + 1``), so a cluster run merges by concatenating
recorders with distinct replica ids.  Timestamps are the simulated
engine clock in microseconds; events are emitted in simulation order
per recorder and globally sorted at export, so exported clocks are
monotone and every ``B`` has its balancing ``E``.
"""

from __future__ import annotations

import json
from typing import Iterable

#: tid of the scheduler (windows + eager steps) track; request lanes
#: start at 1 so request id 0 cannot collide with it.
SCHEDULER_TID = 0


class FlightRecorder:
    """Collects one engine's lifecycle events (see module docstring)."""

    __slots__ = ("replica", "_events", "_open", "_max_ts")

    def __init__(self, replica: int = 0) -> None:
        self.replica = replica
        #: (ts_s, ph, name, tid, args-or-None) in emission order.
        self._events: list[tuple] = []
        #: request id -> (open phase name, opened-at ts) — at most one
        #: open span per request lane, so B/E balance by construction.
        self._open: dict[int, tuple[str, float]] = {}
        self._max_ts = 0.0

    def __len__(self) -> int:
        return len(self._events)

    def reset(self) -> None:
        """Drop everything recorded so far.  The router's crash
        re-dispatch may replay a replica several times before its
        fixed point; only the converged replay's timeline is the run,
        so each replay starts from a clean recorder."""
        self._events.clear()
        self._open.clear()
        self._max_ts = 0.0

    def _emit(self, ts_s: float, ph: str, name: str, tid: int,
              args: dict | None = None) -> None:
        if ts_s > self._max_ts:
            self._max_ts = ts_s
        self._events.append((ts_s, ph, name, tid, args))

    # -- scheduler-facing hooks --------------------------------------

    def request_phase(self, request_id: int, phase: str | None,
                      ts_s: float, **args) -> None:
        """Move a request to ``phase`` (``"queued"``/``"prefill"``/
        ``"decode"``), closing whatever phase was open at ``ts_s``;
        ``phase=None`` just closes (retirement)."""
        tid = request_id + 1
        prev = self._open.pop(request_id, None)
        if prev is not None:
            self._emit(ts_s, "E", prev[0], tid)
        if phase is not None:
            self._open[request_id] = (phase, ts_s)
            self._emit(ts_s, "B", phase, tid, args or None)

    def instant(self, name: str, ts_s: float, request_id: int,
                **args) -> None:
        """A point event on a request's lane (preempt, retired, ...)."""
        self._emit(ts_s, "i", name, request_id + 1, args or None)

    def span(self, name: str, t0_s: float, t1_s: float, **args) -> None:
        """A closed span on the scheduler track (window, eager step)."""
        self._emit(t0_s, "B", name, SCHEDULER_TID, args or None)
        self._emit(t1_s, "E", name, SCHEDULER_TID)

    def marker(self, name: str, ts_s: float, **args) -> None:
        """A point event on the scheduler track (crash, recover,
        hang, slowdown — replica-wide conditions, not any one
        request's)."""
        self._emit(ts_s, "i", name, SCHEDULER_TID, args or None)

    # -- export ------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        """This recorder's events as Chrome trace-event dicts, sorted
        by timestamp, with metadata rows naming the process and the
        scheduler track.  Requests still in flight (a truncated or
        aborted run) get a terminal ``aborted`` instant and their open
        span closed at the latest observed clock, so the stream stays
        B/E-balanced and the abort is visible in the trace."""
        pid = self.replica
        out = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"replica {pid}"}},
            {"name": "thread_name", "ph": "M", "pid": pid,
             "tid": SCHEDULER_TID, "args": {"name": "scheduler"}},
        ]
        tail: list[tuple] = []
        for rid, (phase, _t0) in self._open.items():
            tail.append((self._max_ts, "i", "aborted", rid + 1,
                         {"phase": phase}))
            tail.append((self._max_ts, "E", phase, rid + 1, None))
        body = []
        for ts_s, ph, name, tid, args in \
                sorted(self._events + tail, key=lambda e: e[0]):
            event = {"name": name, "ph": ph, "cat": "serve",
                     "ts": ts_s * 1e6, "pid": pid, "tid": tid}
            if ph == "i":
                event["s"] = "t"  # instant scoped to its thread lane
            if args:
                event["args"] = args
            body.append(event)
        return out + body


def merge_chrome_events(
        recorders: "Iterable[FlightRecorder]") -> list[dict]:
    """Cluster merge: interleave per-replica event streams.  Replica
    ids become Chrome process ids, so recorders must carry distinct
    ``replica`` values (the router's engine order is the natural one).
    Metadata rows lead; body events are globally sorted by timestamp —
    the sort is stable, so each (pid, tid) lane keeps its emission
    order and B/E spans stay balanced.
    """
    meta: list[dict] = []
    body: list[dict] = []
    for recorder in recorders:
        for event in recorder.chrome_events():
            (meta if event["ph"] == "M" else body).append(event)
    body.sort(key=lambda e: e["ts"])
    return meta + body


def export_chrome_trace(
        path, recorders: "FlightRecorder | Iterable[FlightRecorder]",
) -> dict:
    """Write a Chrome trace-event JSON file and return the payload.

    ``recorders`` is one :class:`FlightRecorder` or an iterable of them
    (one per cluster replica).  The file loads directly in Perfetto or
    ``chrome://tracing``.
    """
    if isinstance(recorders, FlightRecorder):
        recorders = (recorders,)
    payload = {
        "displayTimeUnit": "ms",
        "traceEvents": merge_chrome_events(recorders),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return payload

"""Step records and their columnar storage.

:class:`StepEvent` and :class:`StepWindow` are the simulator's step
telemetry vocabulary (historically defined in
:mod:`repro.engine.telemetry`, which still re-exports them).  At
``telemetry="windows"`` a million-request sweep produces millions of
them, and a Python object per record — plus a small numpy array per
window and a tuple per segment — is what used to keep that level from
scaling.  :class:`ColumnarRecords` stores the same stream as growable
``array``-module columns (a handful of bytes per record) and
materializes :class:`StepEvent` / :class:`StepWindow` objects lazily on
iteration, so every existing expansion API — ``expand()``,
``step_batches``, ``latency_stream`` — reads bit-identical values while
recording stays O(columns), not O(objects).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StepEvent:
    """What one scheduler iteration did (for logs and tests)."""

    clock_s: float
    batch: int
    cycles: float
    admitted: int
    preempted: int
    retired: int


@dataclass(frozen=True)
class StepWindow:
    """A run of ``count`` fast-forwarded decode steps as one object.

    The window chains piecewise-static segments: ``segments`` holds one
    ``(count, batch, admitted, retired)`` tuple per segment, with
    ``sum(counts) == count``.  A segment opens with the admissions the
    window folded at its start (``admitted`` — their prefills advance
    the clock *between* segments) and ends at a predicted retirement
    (``retired`` members leave at its last step).  Nothing is preempted
    inside a window, so the per-step facts are the cycle counts — one
    float64 array over the whole window — and the clocks, which
    :meth:`expand` re-derives from each segment's start clock
    (``starts``) through the same sequential adds the scheduler used
    to advance its clock (a ``cumsum``), reproducing the eager
    :class:`StepEvent` stream bit for bit: ``admitted`` lands on a
    segment's first event and ``retired`` on its last, as in the
    eager step that admitted or retired them.
    """

    freq_hz: float
    count: int
    cycles: np.ndarray
    segments: tuple[tuple[int, int, int, int], ...]
    #: engine clock before each segment's first step
    starts: tuple[float, ...]

    def latencies(self) -> np.ndarray:
        """Per-step seconds — the identical floats eager stepping
        records into every member's ``decode_step_s``."""
        return self.cycles / self.freq_hz

    def expand(self) -> list[StepEvent]:
        latencies = self.latencies()
        cycle_list = self.cycles.tolist()
        events: list[StepEvent] = []
        pos = 0
        for start, (count, batch, admitted, retired) in zip(
                self.starts, self.segments):
            clocks = np.cumsum(np.concatenate(
                ([start], latencies[pos:pos + count])))[1:].tolist()
            for j in range(count):
                events.append(StepEvent(
                    clock_s=clocks[j], batch=batch,
                    cycles=cycle_list[pos + j],
                    admitted=admitted if j == 0 else 0, preempted=0,
                    retired=retired if j == count - 1 else 0))
            pos += count
        return events


class ColumnarRecords:
    """A ``list[StepEvent | StepWindow]`` stored as typed columns.

    Append-only during a run; reads iterate (or index) and materialize
    record objects on the fly, bit-identical to what was appended —
    cycle arrays and segment tuples round-trip through the columns
    unchanged.  A window is appended one segment at a time, as the
    scheduler charges it (:meth:`append_segment`), so a window that
    spans a whole run never buffers its steps outside the columns.
    Supports ``len``, iteration, and indexing, so code written against
    the list representation keeps working.
    """

    __slots__ = ("freq_hz", "_kinds", "_ev_clock", "_ev_batch",
                 "_ev_cycles", "_ev_admitted", "_ev_preempted",
                 "_ev_retired", "_win_cycle_off", "_win_seg_off",
                 "_cycles", "_seg_starts", "_seg_counts", "_seg_batches",
                 "_seg_admitted", "_seg_retired")

    def __init__(self, freq_hz: float) -> None:
        self.freq_hz = freq_hz
        self._kinds = array("b")       # 0 = StepEvent, 1 = StepWindow
        # StepEvent columns.
        self._ev_clock = array("d")
        self._ev_batch = array("q")
        self._ev_cycles = array("d")
        self._ev_admitted = array("q")
        self._ev_preempted = array("q")
        self._ev_retired = array("q")
        # StepWindow columns: every window's per-step cycles are packed
        # into one flat column and its segments into per-segment
        # columns; a window is its offsets into both (it ends where
        # the next window starts).
        self._win_cycle_off = array("q")
        self._win_seg_off = array("q")
        self._cycles = array("d")
        self._seg_starts = array("d")
        self._seg_counts = array("i")
        self._seg_batches = array("i")
        self._seg_admitted = array("i")
        self._seg_retired = array("i")

    # -- appends -----------------------------------------------------

    def append(self, event: StepEvent) -> None:
        self._kinds.append(0)
        self._ev_clock.append(event.clock_s)
        self._ev_batch.append(event.batch)
        self._ev_cycles.append(event.cycles)
        self._ev_admitted.append(event.admitted)
        self._ev_preempted.append(event.preempted)
        self._ev_retired.append(event.retired)

    def append_segment(self, start_s: float, cycles: Sequence[float],
                       batch: int, admitted: int, retired: int,
                       new_window: bool) -> None:
        """One window segment of ``len(cycles)`` steps starting at
        clock ``start_s``; ``new_window`` opens a new window record,
        otherwise the segment extends the last one."""
        if new_window:
            self._kinds.append(1)
            self._win_cycle_off.append(len(self._cycles))
            self._win_seg_off.append(len(self._seg_counts))
        self._cycles.extend(cycles)
        self._seg_starts.append(start_s)
        self._seg_counts.append(len(cycles))
        self._seg_batches.append(batch)
        self._seg_admitted.append(admitted)
        self._seg_retired.append(retired)

    # -- reads -------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self._ev_clock)

    @property
    def n_windows(self) -> int:
        return len(self._win_cycle_off)

    @property
    def n_bytes(self) -> int:
        """Approximate storage footprint (column payloads only)."""
        return sum(len(getattr(self, name)) * getattr(self, name).itemsize
                   for name in self.__slots__[1:])

    def __len__(self) -> int:
        return len(self._kinds)

    def _event_at(self, j: int) -> StepEvent:
        return StepEvent(
            clock_s=self._ev_clock[j], batch=self._ev_batch[j],
            cycles=self._ev_cycles[j], admitted=self._ev_admitted[j],
            preempted=self._ev_preempted[j],
            retired=self._ev_retired[j])

    def _window_at(self, j: int) -> StepWindow:
        last = j + 1 == len(self._win_cycle_off)
        off = self._win_cycle_off[j]
        end = len(self._cycles) if last else self._win_cycle_off[j + 1]
        # Copy the slice out so the materialized window owns its array
        # (appends may still grow — and reallocate — the flat column).
        cycles = np.frombuffer(self._cycles, dtype=np.float64,
                               count=end - off, offset=off * 8).copy() \
            if end > off else np.empty(0, dtype=np.float64)
        seg = range(self._win_seg_off[j],
                    len(self._seg_counts) if last
                    else self._win_seg_off[j + 1])
        return StepWindow(
            freq_hz=self.freq_hz, count=end - off, cycles=cycles,
            segments=tuple((self._seg_counts[k], self._seg_batches[k],
                            self._seg_admitted[k], self._seg_retired[k])
                           for k in seg),
            starts=tuple(self._seg_starts[k] for k in seg))

    def __iter__(self):
        ev = win = 0
        for kind in self._kinds:
            if kind:
                yield self._window_at(win)
                win += 1
            else:
                yield self._event_at(ev)
                ev += 1

    def __getitem__(self, index: int) -> StepEvent | StepWindow:
        n = len(self._kinds)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        kind = self._kinds[index]
        # Rank of this record among its kind = #same-kind records
        # before it.  Columns are append-ordered, so that is a prefix
        # sum over the kind flags.
        before = sum(self._kinds[:index]) if index else 0
        return self._window_at(before) if kind \
            else self._event_at(index - before)

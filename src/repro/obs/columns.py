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

    The window chains piecewise-static segments separated by predicted
    retirements: ``segments`` holds one ``(count, batch, retired)``
    triple per segment (``retired`` members leave at the end of that
    segment's last step), with ``sum(counts) == count`` and ``batch``
    the first segment's batch.  Nothing is admitted or preempted inside
    a window, so the only per-step facts are the cycle counts — one
    float64 array over the whole window — and the clocks, which
    :meth:`expand` re-derives through the same sequential ``cumsum``
    the scheduler used to advance its clock, reproducing the eager
    :class:`StepEvent` stream bit for bit.
    """

    clock0_s: float  # engine clock before the window's first step
    freq_hz: float
    batch: int
    count: int
    cycles: np.ndarray
    segments: tuple[tuple[int, int, int], ...]

    def latencies(self) -> np.ndarray:
        """Per-step seconds — the identical floats ``full`` telemetry
        records into every member's ``decode_step_s``."""
        return self.cycles / self.freq_hz

    def expand(self) -> list[StepEvent]:
        clocks = np.cumsum(np.concatenate(([self.clock0_s],
                                           self.latencies())))
        clock_list = clocks[1:].tolist()
        cycle_list = self.cycles.tolist()
        events: list[StepEvent] = []
        pos = 0
        for count, batch, retired in self.segments:
            for j in range(count):
                events.append(StepEvent(
                    clock_s=clock_list[pos], batch=batch,
                    cycles=cycle_list[pos], admitted=0, preempted=0,
                    retired=retired if j == count - 1 else 0))
                pos += 1
        return events


class ColumnarRecords:
    """A ``list[StepEvent | StepWindow]`` stored as typed columns.

    Append-only during a run; reads iterate (or index) and materialize
    record objects on the fly, bit-identical to what was appended —
    cycle arrays and segment triples round-trip through the columns
    unchanged.  Supports ``len``, iteration, and indexing, so
    code written against the list representation keeps working.
    """

    __slots__ = ("freq_hz", "_kinds", "_ev_clock", "_ev_batch",
                 "_ev_cycles", "_ev_admitted", "_ev_preempted",
                 "_ev_retired", "_win_clock0", "_win_batch", "_win_count",
                 "_win_cycle_off", "_cycles", "_win_seg_off", "_win_seg_n",
                 "_seg_counts", "_seg_batches", "_seg_retired")

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
        # StepWindow columns; all windows' per-step cycles are packed
        # into one flat column with per-window offsets, and the segment
        # triples likewise.
        self._win_clock0 = array("d")
        self._win_batch = array("q")
        self._win_count = array("q")
        self._win_cycle_off = array("q")
        self._cycles = array("d")
        self._win_seg_off = array("q")
        self._win_seg_n = array("q")
        self._seg_counts = array("q")
        self._seg_batches = array("q")
        self._seg_retired = array("q")

    # -- appends -----------------------------------------------------

    def append(self, event: StepEvent) -> None:
        self._kinds.append(0)
        self._ev_clock.append(event.clock_s)
        self._ev_batch.append(event.batch)
        self._ev_cycles.append(event.cycles)
        self._ev_admitted.append(event.admitted)
        self._ev_preempted.append(event.preempted)
        self._ev_retired.append(event.retired)

    def append_window(
            self, clock0_s: float, batch: int, cycles: np.ndarray,
            segments: tuple[tuple[int, int, int], ...]) -> None:
        self._kinds.append(1)
        self._win_clock0.append(clock0_s)
        self._win_batch.append(batch)
        self._win_count.append(len(cycles))
        self._win_cycle_off.append(len(self._cycles))
        if len(cycles):
            self._cycles.frombytes(np.ascontiguousarray(
                cycles, dtype=np.float64).tobytes())
        self._win_seg_off.append(len(self._seg_counts))
        self._win_seg_n.append(len(segments))
        for seg_count, seg_batch, seg_retired in segments:
            self._seg_counts.append(seg_count)
            self._seg_batches.append(seg_batch)
            self._seg_retired.append(seg_retired)

    # -- reads -------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self._ev_clock)

    @property
    def n_windows(self) -> int:
        return len(self._win_clock0)

    @property
    def n_bytes(self) -> int:
        """Approximate storage footprint (column payloads only)."""
        return sum(len(col) * col.itemsize for col in (
            self._kinds, self._ev_clock, self._ev_batch, self._ev_cycles,
            self._ev_admitted, self._ev_preempted, self._ev_retired,
            self._win_clock0, self._win_batch, self._win_count,
            self._win_cycle_off, self._cycles, self._win_seg_off,
            self._win_seg_n, self._seg_counts, self._seg_batches,
            self._seg_retired))

    def __len__(self) -> int:
        return len(self._kinds)

    def _event_at(self, j: int) -> StepEvent:
        return StepEvent(
            clock_s=self._ev_clock[j], batch=self._ev_batch[j],
            cycles=self._ev_cycles[j], admitted=self._ev_admitted[j],
            preempted=self._ev_preempted[j],
            retired=self._ev_retired[j])

    def _window_at(self, j: int) -> StepWindow:
        count = self._win_count[j]
        off = self._win_cycle_off[j]
        # Copy the slice out so the materialized window owns its array
        # (appends may still grow — and reallocate — the flat column).
        cycles = np.frombuffer(self._cycles, dtype=np.float64,
                               count=count, offset=off * 8).copy() \
            if count else np.empty(0, dtype=np.float64)
        seg0 = self._win_seg_off[j]
        segments = tuple(
            (self._seg_counts[k], self._seg_batches[k],
             self._seg_retired[k])
            for k in range(seg0, seg0 + self._win_seg_n[j]))
        return StepWindow(clock0_s=self._win_clock0[j],
                          freq_hz=self.freq_hz,
                          batch=self._win_batch[j], count=count,
                          cycles=cycles, segments=segments)

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

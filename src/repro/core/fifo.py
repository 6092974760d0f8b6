"""FIFO primitives of the accelerator (Fig. 5: szFIFO, kvFIFO, operand FIFO).

A simple bounded FIFO with occupancy statistics: overflow and underflow
fail loudly, and the occupancy high-water mark is what would size the
on-chip buffer.  Standalone: neither the cycle model nor the functional
model instantiates it (Fig. 4's scale/zero FIFO is modelled by
``repro.packing.kv_layout.KVScaleZeroFifo``).
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError


class HardwareFifo:
    """Bounded FIFO with push/pop accounting."""

    def __init__(self, name: str, depth: int) -> None:
        if depth <= 0:
            raise SimulationError(f"FIFO {name!r} needs positive depth")
        self.name = name
        self.depth = depth
        self._queue: deque = deque()
        self.pushes = 0
        self.pops = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._queue

    def push(self, item) -> None:
        if self.full:
            raise SimulationError(
                f"FIFO {self.name!r} overflow at depth {self.depth}"
            )
        self._queue.append(item)
        self.pushes += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._queue))

    def pop(self):
        if self.empty:
            raise SimulationError(f"FIFO {self.name!r} underflow")
        self.pops += 1
        return self._queue.popleft()

    def drain(self) -> list:
        """Pop everything (end-of-op cleanup)."""
        out = list(self._queue)
        self.pops += len(self._queue)
        self._queue.clear()
        return out

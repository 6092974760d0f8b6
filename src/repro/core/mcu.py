"""Memory Control Unit (Fig. 5A).

The MCU makes the full DDR bandwidth visible to the PL: the PS sends the
token index over AXI-Lite, the command generator turns the current op into
MM2S/S2MM descriptors, the command splitter fans each descriptor out to
four 128-bit AXI HP ports, and the data synchronizer re-assembles four
streams into one 512-bit stream for the demultiplexer.

For the cycle model the MCU answers one question per op: *how many PL
cycles does this transfer occupy?* — the maximum of the AXI-side streaming
time (bytes / 64 per cycle) and the DDR-side time from the burst-
efficiency model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..memory.axi import AxiPortGroup
from ..memory.ddr import DdrModel, DdrTimingParams, Transaction

DEFAULT_BURST_BYTES = 1 << 20  # the datamover's maximal descriptor chunk


@dataclass(frozen=True)
class TransferReport:
    """Timing of one MCU-managed transfer."""

    n_bytes: float
    axi_cycles: float
    ddr_cycles: float

    @property
    def cycles(self) -> float:
        """The stream stalls on whichever side is slower."""
        return max(self.axi_cycles, self.ddr_cycles)

    @property
    def ddr_bound(self) -> bool:
        return self.ddr_cycles > self.axi_cycles


class Mcu:
    """Command generation + transfer timing."""

    def __init__(self, axi: AxiPortGroup | None = None,
                 ddr_params: DdrTimingParams | None = None) -> None:
        self.axi = axi if axi is not None else AxiPortGroup()
        self.ddr_params = ddr_params if ddr_params is not None \
            else DdrTimingParams()
        self.bytes_moved = 0.0
        # A stream's timing is a pure function of its arguments (axi and
        # ddr_params are fixed at construction), so each distinct stream
        # — one per weight-slice shape and KV fetch length — runs the DDR
        # burst loop once.
        self._streams: dict[tuple, TransferReport] = {}

    def _cycles_from_ns(self, ns: float) -> float:
        return ns * 1e-9 * self.axi.freq_hz

    def stream_transfer(self, n_bytes: float, contiguous: bool = True,
                        is_write: bool = False,
                        burst_bytes: int = DEFAULT_BURST_BYTES,
                        ) -> TransferReport:
        """Timing of one large streaming transfer (weights, KV history).

        ``contiguous=False`` models a stream whose bursts land at
        scattered addresses (each burst pays the row-miss latency).
        """
        if n_bytes <= 0:
            raise SimulationError(f"transfer size must be positive: {n_bytes}")
        key = (n_bytes, contiguous, is_write, burst_bytes)
        report = self._streams.get(key)
        if report is None:
            report = self._stream_report(*key)
            self._streams[key] = report
        self.bytes_moved += n_bytes
        return report

    def _stream_report(self, n_bytes: float, contiguous: bool,
                       is_write: bool, burst_bytes: int) -> TransferReport:
        ddr = DdrModel(self.ddr_params)
        address = 0
        remaining = int(n_bytes)
        while remaining > 0:
            size = min(burst_bytes, remaining)
            ddr.access(Transaction(address=address, size=size,
                                   is_write=is_write))
            address += size if contiguous else size + self.ddr_params.row_bytes
            remaining -= size
        return TransferReport(
            n_bytes=n_bytes,
            axi_cycles=self.axi.transfer_cycles(n_bytes),
            ddr_cycles=self._cycles_from_ns(ddr.total_ns),
        )

    def scattered_transfer(self, n_transactions: int, bytes_each: int,
                           is_write: bool = False) -> TransferReport:
        """Timing of many small discontinuous transactions (the naive
        layouts the paper's formats eliminate)."""
        if n_transactions <= 0 or bytes_each <= 0:
            raise SimulationError("transaction count and size must be positive")
        ddr = DdrModel(self.ddr_params)
        stride = max(self.ddr_params.row_bytes, bytes_each)
        for i in range(n_transactions):
            ddr.access(Transaction(address=i * stride, size=bytes_each,
                                   is_write=is_write))
        total = n_transactions * bytes_each
        self.bytes_moved += total
        return TransferReport(
            n_bytes=total,
            axi_cycles=self.axi.transfer_cycles(total),
            ddr_cycles=self._cycles_from_ns(ddr.total_ns),
        )

    def streaming_efficiency(self) -> float:
        """DDR efficiency of an ideal maximal-burst stream — the ceiling
        the data arrangement format is designed to reach."""
        moved = self.bytes_moved
        report = self.stream_transfer(64 * DEFAULT_BURST_BYTES)
        self.bytes_moved = moved  # probe, not real traffic
        return report.axi_cycles / report.ddr_cycles

"""512-bit bus-word primitives.

The concatenated AXI stream delivers 512 bits (64 bytes) per PL cycle;
every DDR-resident structure in the design is sized and aligned in units
of this bus word ("beat").
"""

from __future__ import annotations

BUS_BITS = 512
BUS_BYTES = BUS_BITS // 8


def pad_to_beat(data: bytes, bus_bytes: int = BUS_BYTES) -> bytes:
    """Zero-pad a byte string to a whole number of bus beats."""
    remainder = len(data) % bus_bytes
    if remainder == 0:
        return data
    return data + b"\x00" * (bus_bytes - remainder)

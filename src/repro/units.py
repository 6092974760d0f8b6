"""Unit conventions used throughout the library.

The paper mixes decimal and binary units in the way the storage industry
does: *bandwidth* is decimal (19.2 GB/s means 19.2e9 bytes per second,
because 64 bit x 2400 MT/s = 19.2e9 B/s exactly) while *capacity* is binary
(the "4GB" KV260 DRAM is 4096 MiB, and the paper's 3556 MB weight figure is
MiB).  These constants name each unit so no module multiplies by the
wrong one.
"""

from __future__ import annotations

MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

GB_DEC = 1_000_000_000

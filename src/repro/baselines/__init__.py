"""Comparison baselines: every row of the paper's Tables II and III.

Each entry carries the platform's bandwidth, the model's weight bytes per
token, and the decoding speed reported in the cited source; utilization is
recomputed from those, reproducing the tables' arithmetic.
"""

from .entries import (
    BaselineEntry,
    OUR_ENTRY,
    TABLE_II_ENTRIES,
    TABLE_III_ENTRIES,
)

__all__ = [
    "BaselineEntry",
    "OUR_ENTRY",
    "TABLE_II_ENTRIES",
    "TABLE_III_ENTRIES",
]

"""Exhaustive sweeps of the FP16 rounding primitives (not collected by
pytest: together they take a few minutes of CPU).

* ``f32``   — :func:`repro.numerics.fp16.fp16_round_f32` against
  ``astype(float16).astype(float32)`` on every non-NaN float32 bit
  pattern (2^32 minus the NaNs);
* ``pairs`` — the adder-tree/accumulator rounding ``_round_sum_f32(a, b)``
  against the half cast of ``a + b`` over every pair of finite FP16
  values (63,488^2 = 4,030,726,144 pairs).

Usage::

    PYTHONPATH=src python tests/exhaustive_fp16.py [f32] [pairs]

Prints one line per sweep and exits 1 on the first mismatch.  Tier-1
pins the same identities on the edge cases (``test_fp16_primitives.py``).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.numerics.fp16 import _round_sum_f32, fp16_round_f32

CHUNK = 1 << 22


def _half_cast(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(np.float32)


def _first_mismatch(got, want) -> int | None:
    bad = got.view(np.uint32) != want.view(np.uint32)
    return int(np.argmax(bad)) if bad.any() else None


def sweep_f32() -> str | None:
    """Every float32 bit pattern, NaNs excluded."""
    for start in range(0, 1 << 32, CHUNK):
        bits = np.arange(start, start + CHUNK, dtype=np.uint64) \
            .astype(np.uint32)
        x = bits.view(np.float32)
        x = x[~np.isnan(x)]
        got, want = fp16_round_f32(x), _half_cast(x)
        i = _first_mismatch(got, want)
        if i is not None:
            return (f"x={x[i]!r} (bits {x.view(np.uint32)[i]:#010x}): "
                    f"got {got[i]!r}, want {want[i]!r}")
    return None


def finite_halves() -> np.ndarray:
    """All 63,488 finite FP16 values as float32 (both zeros included)."""
    halves = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16) \
        .view(np.float16)
    return halves[np.isfinite(halves)].astype(np.float32)


def sweep_pairs() -> str | None:
    """``_round_sum_f32(a, b)`` for every finite FP16 pair."""
    values = finite_halves()
    rows = max(1, CHUNK // values.size)
    for start in range(0, values.size, rows):
        a = np.repeat(values[start : start + rows], values.size)
        b = np.tile(values, a.size // values.size)
        with np.errstate(over="ignore"):
            got = _round_sum_f32(a, b)
        want = _half_cast(a + b)
        i = _first_mismatch(got, want)
        if i is not None:
            return (f"a={a[i]!r} + b={b[i]!r}: got {got[i]!r}, "
                    f"want {want[i]!r}")
    return None


SWEEPS = {"f32": sweep_f32, "pairs": sweep_pairs}


def main(argv: list[str]) -> int:
    names = argv or list(SWEEPS)
    for name in names:
        t0 = time.perf_counter()
        err = SWEEPS[name]()
        took = time.perf_counter() - t0
        if err:
            print(f"FAIL {name} ({took:.0f} s): {err}")
            return 1
        print(f"ok {name} ({took:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

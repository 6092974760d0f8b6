"""Small shared statistics helpers and percentile sketches."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import SimulationError


def percentile_nearest_rank(values: Sequence[float],
                            percentile: float) -> float:
    """Nearest-rank percentile over ``values`` (no interpolation).

    The convention both perf reports use: rank ``round(p/100 * (n-1))``
    of the sorted sample, clamped to the last element.
    """
    if not values:
        raise SimulationError("no samples recorded")
    return percentile_of_sorted(sorted(values), percentile)


def percentile_of_sorted(ordered: Sequence[float],
                         percentile: float) -> float:
    """:func:`percentile_nearest_rank` over an already-sorted sample.

    Callers that query several percentiles of one sample sort once and
    index repeatedly instead of re-sorting per query.
    """
    if not 0 <= percentile <= 100:
        raise SimulationError(
            f"percentile must be in [0, 100], got {percentile}")
    if len(ordered) == 0:
        raise SimulationError("no samples recorded")
    index = min(len(ordered) - 1,
                int(round(percentile / 100 * (len(ordered) - 1))))
    return ordered[index]


def percentile_of_runs(values: Sequence[float], counts: Sequence[int],
                       percentile: float) -> float:
    """Nearest-rank percentile over a run-length-encoded sample.

    ``values[i]`` occurs ``counts[i]`` times; ``values`` must be sorted
    ascending.  Returns exactly what :func:`percentile_of_sorted` would
    return over the expanded multiset — selection only indexes, so the
    run-length form changes memory, never the answer.
    """
    if not 0 <= percentile <= 100:
        raise SimulationError(
            f"percentile must be in [0, 100], got {percentile}")
    if len(values) != len(counts):
        raise SimulationError(
            f"{len(values)} run values for {len(counts)} counts")
    if len(values) == 0:
        raise SimulationError("no samples recorded")
    import numpy as np

    cnt = np.asarray(counts, dtype=np.int64)
    if (cnt <= 0).any():
        raise SimulationError("run counts must be positive")
    cum = np.cumsum(cnt)
    total = int(cum[-1])
    rank = min(total - 1, int(round(percentile / 100 * (total - 1))))
    return float(values[int(np.searchsorted(cum, rank, side="right"))])


class TDigest:
    """Mergeable percentile sketch (a merging t-digest, k1 scale).

    Bounded-memory alternative to keeping the full latency sample: the
    ingested multiset is summarised by at most ~``compression`` weighted
    centroids, compacted so that no centroid spans more than one unit of
    the arcsine scale function ``k1(q) = compression/(2*pi) * asin(2q-1)``
    (Dunning & Ertl).  Centroids are narrow near the tails and wide in
    the middle, so extreme percentiles stay sharp.

    **Documented rank-error bound** — the contract the hypothesis tests
    pin: for any percentile ``p``, the returned value ``v`` sits within
    ``rank_error_bound`` (a fraction of the total weight, default
    ``4*pi/compression``) of rank ``p/100``::

        |true_rank(v) / n  -  p / 100|  <=  rank_error_bound

    where ``true_rank(v)`` is any rank position consistent with ``v`` in
    the sorted multiset (between ``#values < v`` and ``#values <= v``).
    One unit of k1-span never covers more than ``2*pi/compression`` of
    the cumulative distribution; interpolation across two neighbouring
    centroids doubles that, giving the factor 4.  The bound is preserved
    by :meth:`merge` (digests re-compact on merge), which is what lets
    cluster reports combine per-replica sketches.  ``percentile(0)`` and
    ``percentile(100)`` return the exact min/max, which are tracked
    outside the centroid list.
    """

    __slots__ = ("compression", "_means", "_weights", "_buf_vals",
                 "_buf_wts", "_buf_limit", "_n", "_min", "_max")

    def __init__(self, compression: int = 1000) -> None:
        if compression < 20:
            raise SimulationError(
                f"t-digest compression must be >= 20, got {compression}")
        self.compression = int(compression)
        self._means: list[float] = []
        self._weights: list[float] = []
        self._buf_vals: list[float] = []
        self._buf_wts: list[float] = []
        self._buf_limit = 4 * self.compression
        self._n = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- ingestion ---------------------------------------------------

    def add(self, value: float, weight: float = 1.0) -> None:
        """Add ``value`` with multiplicity ``weight``."""
        if weight <= 0:
            raise SimulationError(
                f"t-digest weight must be positive, got {weight}")
        self._buf_vals.append(float(value))
        self._buf_wts.append(float(weight))
        self._n += weight
        if value < self._min:
            self._min = float(value)
        if value > self._max:
            self._max = float(value)
        if len(self._buf_vals) >= self._buf_limit:
            self._flush()

    def add_run(self, values: Iterable[float],
                counts: Iterable[float]) -> None:
        """Add a run-length-encoded sample (``values[i]`` x ``counts[i]``)."""
        for value, count in zip(values, counts):
            self.add(value, count)

    def add_array(self, values, weight: float = 1.0) -> None:
        """Add every entry of ``values`` with multiplicity ``weight`` —
        the bulk path for a fast-forwarded window's latency array."""
        if weight <= 0:
            raise SimulationError(
                f"t-digest weight must be positive, got {weight}")
        n = len(values)
        if not n:
            return
        import numpy as np

        vals = np.asarray(values, dtype=np.float64)
        self._buf_vals.extend(vals.tolist())
        self._buf_wts.extend([float(weight)] * n)
        self._n += float(weight) * n
        lo = float(vals.min())
        hi = float(vals.max())
        if lo < self._min:
            self._min = lo
        if hi > self._max:
            self._max = hi
        if len(self._buf_vals) >= self._buf_limit:
            self._flush()

    def merge(self, other: "TDigest") -> None:
        """Absorb ``other`` into this digest (associative up to the bound).

        Merging keeps the documented rank-error bound, not bitwise
        equality: ``(a+b)+c`` and ``a+(b+c)`` may hold different
        centroids, but both answer every percentile query within
        ``rank_error_bound`` of the combined multiset.
        """
        if other._n == 0:
            return
        other._flush()
        self._buf_vals.extend(other._means)
        self._buf_wts.extend(other._weights)
        self._n += other._n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._flush()

    # -- queries -----------------------------------------------------

    @property
    def n(self) -> float:
        """Total ingested weight."""
        return self._n

    @property
    def rank_error_bound(self) -> float:
        """Documented worst-case rank error, as a fraction of ``n``."""
        return 4.0 * math.pi / self.compression

    @property
    def n_centroids(self) -> int:
        self._flush()
        return len(self._means)

    def percentile(self, percentile: float) -> float:
        """Approximate nearest-rank percentile (see class docstring)."""
        if not 0 <= percentile <= 100:
            raise SimulationError(
                f"percentile must be in [0, 100], got {percentile}")
        if self._n == 0:
            raise SimulationError("no samples recorded")
        if percentile == 0:
            return self._min
        if percentile == 100:
            return self._max
        self._flush()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        target = percentile / 100.0 * self._n
        # Centroid i's mass occupies ranks (C_i, C_i + w_i].  Its core —
        # everything at least half a unit sample from either edge — is
        # answered by the mean itself (a heavy centroid built from a
        # weighted run is a point mass; interpolating across it would
        # smear rank error proportional to its weight).  Only the gaps
        # between neighbouring cores interpolate, clamping the ends to
        # the exact min/max.
        cum = 0.0
        prev_core_end = 0.0
        prev_mean = self._min
        for mean, weight in zip(means, weights):
            margin = min(weight / 2.0, 0.5)
            core_start = cum + margin
            core_end = cum + weight - margin
            if target < core_start:
                span = core_start - prev_core_end
                frac = (target - prev_core_end) / span if span > 0 else 1.0
                return prev_mean + frac * (mean - prev_mean)
            if target <= core_end:
                return mean
            cum += weight
            prev_core_end = core_end
            prev_mean = mean
        span = self._n - prev_core_end
        frac = (target - prev_core_end) / span if span > 0 else 1.0
        return prev_mean + min(frac, 1.0) * (self._max - prev_mean)

    # -- internals ---------------------------------------------------

    def _k(self, q: float) -> float:
        return self.compression / (2.0 * math.pi) \
            * math.asin(2.0 * min(max(q, 0.0), 1.0) - 1.0)

    def _flush(self) -> None:
        """Compact buffered points + centroids under the k1 constraint."""
        if not self._buf_vals:
            return
        import numpy as np

        vals = np.concatenate([
            np.asarray(self._means, dtype=np.float64),
            np.asarray(self._buf_vals, dtype=np.float64)])
        wts = np.concatenate([
            np.asarray(self._weights, dtype=np.float64),
            np.asarray(self._buf_wts, dtype=np.float64)])
        self._buf_vals.clear()
        self._buf_wts.clear()
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        wts = wts[order]
        total = float(wts.sum())
        means: list[float] = []
        weights: list[float] = []
        cum = 0.0              # weight closed out into `means` so far
        cur_w = float(wts[0])
        cur_sum = float(vals[0]) * cur_w
        k_floor = self._k(0.0)
        for value, weight in zip(vals[1:].tolist(), wts[1:].tolist()):
            if self._k((cum + cur_w + weight) / total) - k_floor <= 1.0:
                cur_w += weight
                cur_sum += value * weight
            else:
                means.append(cur_sum / cur_w)
                weights.append(cur_w)
                cum += cur_w
                cur_w = weight
                cur_sum = value * weight
                k_floor = self._k(cum / total)
        means.append(cur_sum / cur_w)
        weights.append(cur_w)
        self._means = means
        self._weights = weights

"""Rotary position embedding: exact reference and hardware rotator model.

The rotator (Fig. 5C1) caches half of the query/key vector and forms
rotation pairs ``(x[i], x[i + d/2])`` — the "rotate-half" convention of
LLaMA.  The hardware version multiplies each pair by ROM-sourced FP16
sin/cos values; the reference version uses exact float64 trigonometry.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .fp16 import fp16, fp16_round_f32
from .lut import RopeAngleGenerator


def rotate_half_pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a head vector into its (first-half, second-half) rotation pairs."""
    x = np.asarray(x)
    d = x.shape[-1]
    if d % 2:
        raise ConfigError(f"RoPE input length must be even, got {d}")
    return x[..., : d // 2], x[..., d // 2 :]


def reference_rope(x: np.ndarray, position: int,
                   theta: float = 10000.0) -> np.ndarray:
    """Exact float64 RoPE for one head vector (or a batch of them).

    ``x`` has shape ``(..., head_dim)``; the same position applies to all
    leading dimensions.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = rotate_half_pairs(x)
    d = x.shape[-1]
    inv_freq = theta ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    angle = position * inv_freq
    cos, sin = np.cos(angle), np.sin(angle)
    out = np.empty_like(x)
    out[..., : d // 2] = lo * cos - hi * sin
    out[..., d // 2 :] = lo * sin + hi * cos
    return out


class HardwareRope:
    """FP16 rotator fed by the quarter-sine and inverse-frequency ROMs."""

    def __init__(self, head_dim: int, theta: float = 10000.0,
                 rom_depth: int = 4096) -> None:
        from .lut import QuarterSineRom

        self.head_dim = head_dim
        self.angles = RopeAngleGenerator(head_dim, theta,
                                         rom=QuarterSineRom(rom_depth))
        #: memoized ROM fetches — the generator is a pure function of
        #: the position, and decode touches the same position once per
        #: layer and head group.
        self._sin_cos_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _sin_cos(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        pair = self._sin_cos_cache.get(position)
        if pair is None:
            sin, cos = self.angles.sin_cos(position)
            pair = (sin.astype(np.float32), cos.astype(np.float32))
            self._sin_cos_cache[position] = pair
        return pair

    def apply(self, x: np.ndarray, position: int) -> np.ndarray:
        """Rotate one head vector (shape ``(..., head_dim)``) in FP16."""
        x16 = x if isinstance(x, np.ndarray) and x.dtype == np.float16 \
            else fp16(x)
        if x16.shape[-1] != self.head_dim:
            raise ConfigError(
                f"expected head_dim {self.head_dim}, got {x16.shape[-1]}"
            )
        lo, hi = rotate_half_pairs(x16.astype(np.float32))
        sin, cos = self._sin_cos(position)
        return self._rotate(lo, hi, sin, cos)

    def _rotate(self, lo: np.ndarray, hi: np.ndarray, sin: np.ndarray,
                cos: np.ndarray) -> np.ndarray:
        """Two FP16 multiplies and one FP16 add per output element, with
        rounding after each stage as in the RTL pipeline (the stages run
        in float32 carrying FP16-grid values — same per-op rounding,
        one half cast at the end; each stage's elementwise roundings
        share one call)."""
        lo_cos, hi_sin, lo_sin, hi_cos = fp16_round_f32(
            np.stack([lo * cos, hi * sin, lo * sin, hi * cos]))
        return fp16_round_f32(np.concatenate(
            [lo_cos - hi_sin, lo_sin + hi_cos], axis=-1)).astype(np.float16)

    def apply_many(self, x: np.ndarray, positions) -> np.ndarray:
        """Rotate a stack of head groups, one position per leading row.

        ``x`` has shape ``(n, ..., head_dim)`` and ``positions`` one
        entry per leading row; row ``i`` is bit-identical to
        ``apply(x[i], positions[i])`` — the sin/cos ROM values are
        fetched per position and the rotation multiplies vectorize
        elementwise across the stack.
        """
        x16 = x if isinstance(x, np.ndarray) and x.dtype == np.float16 \
            else fp16(x)
        if x16.shape[-1] != self.head_dim:
            raise ConfigError(
                f"expected head_dim {self.head_dim}, got {x16.shape[-1]}"
            )
        positions = list(positions)
        if len(positions) != x16.shape[0]:
            raise ConfigError(
                f"{len(positions)} positions for {x16.shape[0]} rows")
        pairs = [self._sin_cos(p) for p in positions]
        bshape = (len(positions),) + (1,) * (x16.ndim - 2) \
            + (self.head_dim // 2,)
        sin = np.stack([s for s, _ in pairs]).reshape(bshape)
        cos = np.stack([c for _, c in pairs]).reshape(bshape)
        lo, hi = rotate_half_pairs(x16.astype(np.float32))
        return self._rotate(lo, hi, sin, cos)

    def max_error(self, position: int, trials: int = 64,
                  seed: int = 0) -> float:
        """Worst observed |hardware - reference| on random unit-scale inputs."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            x = rng.standard_normal(self.head_dim)
            hw = self.apply(x, position).astype(np.float64)
            ref = reference_rope(x, position, self.angles.inv_freq_rom.theta)
            worst = max(worst, float(np.max(np.abs(hw - ref))))
        return worst

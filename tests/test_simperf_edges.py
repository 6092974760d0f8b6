"""Edge cases of the vectorized-kernel and fast-forward plumbing."""

import numpy as np
import pytest

from repro.config import TINY_MODEL, QuantConfig
from repro.engine import CycleModelBackend
from repro.errors import ConfigError, SimulationError
from repro.numerics.fp16 import (as_fp16_grid, fp16_matmul, fp16_matmul_t,
                                 fp16_matvec, fp16_tiled_reduce)
from repro.numerics.rope import HardwareRope
from repro.stats import percentile_nearest_rank, percentile_of_sorted


@pytest.fixture(scope="module")
def quant32():
    return QuantConfig(weight_group_size=32)


class TestKernelValidation:
    def test_matvec_shape_mismatch(self):
        with pytest.raises(ValueError, match="matvec shape"):
            fp16_matvec(np.zeros((3, 4)), np.zeros(5))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError, match="matmul shape"):
            fp16_matmul(np.zeros((3, 4)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="matmul_t shape"):
            fp16_matmul_t(np.zeros((4, 3)), np.zeros((5, 2)))

    def test_tiled_reduce_axis_mismatch(self):
        with pytest.raises(ValueError, match="reduction axis"):
            fp16_tiled_reduce(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_grid_marker_passthrough(self):
        w = as_fp16_grid(np.ones((4, 3), dtype=np.float16))
        x = np.ones((3, 2), dtype=np.float16)
        assert np.array_equal(fp16_matmul(w, x),
                              fp16_matmul(np.ones((4, 3)), x))

    def test_rope_apply_many_arity(self):
        rope = HardwareRope(4)
        with pytest.raises(ConfigError, match="positions for"):
            rope.apply_many(np.zeros((3, 2, 4)), [0, 1])


class TestStepCycleValidation:
    def test_batch_validations(self, quant32):
        backend = CycleModelBackend(TINY_MODEL, quant32)
        with pytest.raises(SimulationError):
            backend.step_cycles([])
        with pytest.raises(SimulationError):
            backend.step_cycles([4, -1])
        with pytest.raises(SimulationError):
            backend.step_cycles([4, 4], fetched=[1])
        with pytest.raises(SimulationError):
            backend.step_cycles([4], fetched=[5])
        with pytest.raises(SimulationError):
            backend.prefill_cycles(0)
        with pytest.raises(SimulationError):
            backend.prefill_cycles(4, start=4)


class TestPercentiles:
    def test_sorted_variant_matches(self):
        vals = [5.0, 1.0, 3.0, 2.0, 4.0]
        for p in (0, 37, 50, 95, 100):
            assert percentile_of_sorted(sorted(vals), p) \
                == percentile_nearest_rank(vals, p)

    def test_errors(self):
        with pytest.raises(SimulationError):
            percentile_of_sorted([1.0], 101)
        with pytest.raises(SimulationError):
            percentile_of_sorted([], 50)
        with pytest.raises(SimulationError):
            percentile_nearest_rank([], 50)

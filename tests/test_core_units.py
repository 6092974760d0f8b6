"""Core hardware units: dequantizer, VPU, SPU, MCU."""

import numpy as np
import pytest

from repro.core.dequant import Dequantizer
from repro.core.mcu import Mcu
from repro.core.spu import SpuModel
from repro.core.vpu import DotEngine, VpuSpec
from repro.errors import ConfigError, LayoutError, SimulationError
from repro.quant.groupquant import pack_codes


class TestDequantizer:
    def test_word_to_128_fp16(self, rng):
        dq = Dequantizer()
        codes = rng.integers(0, 16, 128).astype(np.uint8)
        word = pack_codes(codes, 4)
        out = dq.dequantize_word(word, scale=0.5, zero=8)
        assert out.shape == (128,)
        assert out.dtype == np.float16
        expected = (codes.astype(np.float64) - 8) * np.float16(0.5)
        assert np.allclose(out.astype(np.float64), expected, atol=1e-3)

    def test_wrong_word_size_rejected(self):
        with pytest.raises(LayoutError):
            Dequantizer().dequantize_word(b"\x00" * 32, 1.0, 0)

    def test_lane_width_must_fill_bus(self):
        with pytest.raises(LayoutError):
            Dequantizer(lanes=64, weight_bits=4)

    def test_8bit_variant(self, rng):
        dq = Dequantizer(lanes=64, weight_bits=8)
        codes = rng.integers(0, 256, 64).astype(np.uint8)
        out = dq.dequantize_word(pack_codes(codes, 8), 1.0, 128)
        assert out.shape == (64,)

    def test_counts_words(self, rng):
        dq = Dequantizer()
        word = pack_codes(np.zeros(128, dtype=np.uint8), 4)
        dq.dequantize_word(word, 1.0, 0)
        dq.dequantize_word(word, 1.0, 0)
        assert dq.words_processed == 2


class TestDotEngine:
    def test_matvec_cycles(self):
        eng = DotEngine()
        # 4096x4096 GEMV: 4096 rows x 32 tiles.
        assert eng.matvec_cycles(4096, 4096) == 4096 * 32

    def test_dot_cycles(self):
        eng = DotEngine()
        assert eng.dot_cycles(128) == 1
        assert eng.dot_cycles(129) == 2
        assert eng.dot_cycles(1) == 1

    def test_functional_matches_fp16_matvec(self, rng):
        from repro.numerics.fp16 import fp16_matvec

        eng = DotEngine()
        w = rng.standard_normal((8, 256))
        x = rng.standard_normal(256)
        assert np.array_equal(eng.matvec(w, x), fp16_matvec(w, x, 128))

    def test_bandwidth_matched_consumption(self):
        # 128 lanes x 4-bit weights = 64 bytes/cycle = the bus rate.
        spec = VpuSpec()
        assert spec.stream_bytes_per_cycle(4) == 64

    def test_rejects_non_power_of_two_lanes(self):
        with pytest.raises(ConfigError):
            VpuSpec(lanes=100)

    def test_rejects_bad_matvec_dims(self):
        with pytest.raises(ConfigError):
            DotEngine().matvec_cycles(0, 128)


class TestSpuModel:
    def test_softmax_is_three_passes(self):
        spu = SpuModel()
        assert spu.softmax_cycles(100) == 3 * 100 + spu.params.softmax_depth

    def test_rmsnorm_pass_count(self):
        spu = SpuModel()
        free = spu.rmsnorm_cycles(4096, square_sum_free=True)
        full = spu.rmsnorm_cycles(4096, square_sum_free=False)
        assert full - free == 4096

    def test_rope_covers_half_pairs(self):
        spu = SpuModel()
        assert spu.rope_cycles(128) == 64 + spu.params.rope_depth

    def test_quant_two_passes(self):
        spu = SpuModel()
        assert spu.quant_cycles(128) == 256 + spu.params.quant_depth

    def test_silu_single_pass(self):
        spu = SpuModel()
        assert spu.silu_cycles(11008) == 11008 + spu.params.silu_depth

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ConfigError):
            SpuModel().softmax_cycles(0)


class TestMcu:
    def test_large_stream_near_axi_rate(self):
        mcu = Mcu()
        report = mcu.stream_transfer(64 << 20)
        assert report.cycles / report.axi_cycles < 1.06

    def test_ddr_bound_for_big_contiguous(self):
        report = Mcu().stream_transfer(1 << 20)
        assert report.ddr_bound  # DDR overhead always exceeds raw AXI time

    def test_scattered_much_slower(self):
        mcu = Mcu()
        stream = mcu.stream_transfer(1 << 16).cycles
        scattered = mcu.scattered_transfer(1 << 10, 64).cycles
        assert scattered > 5 * stream

    def test_streaming_efficiency_in_range(self):
        eff = Mcu().streaming_efficiency()
        assert 0.9 < eff < 1.0

    def test_zero_bytes_rejected(self):
        with pytest.raises(SimulationError):
            Mcu().stream_transfer(0)

    def test_bytes_moved_accumulates(self):
        mcu = Mcu()
        mcu.stream_transfer(1000)
        mcu.stream_transfer(2000)
        assert mcu.bytes_moved == 3000

    # -- stream memo: each distinct stream runs the DDR burst loop once --

    SIZES = (1, 63, 64, 1000, 4097.5, 1 << 20, (1 << 20) + 1, (3 << 20) + 17)

    def test_memo_hits_equal_fresh_mcu(self):
        mcu = Mcu()
        for _ in range(2):
            for n in self.SIZES:
                assert mcu.stream_transfer(n) == Mcu().stream_transfer(n)

    def test_variants_keyed_apart(self):
        mcu = Mcu()
        misses = []
        build = mcu._stream_report

        def counting(*key):
            misses.append(key)
            return build(*key)

        mcu._stream_report = counting
        n = (3 << 20) + 17
        variants = (dict(), dict(contiguous=False), dict(is_write=True),
                    dict(burst_bytes=4096))
        for _ in range(2):
            for kw in variants:
                assert mcu.stream_transfer(n, **kw) \
                    == Mcu().stream_transfer(n, **kw)
        assert len(misses) == len(variants)

    def test_nonpositive_rejected_after_cached_call(self):
        mcu = Mcu()
        mcu.stream_transfer(1000)
        for bad in (0, -1000, -1.5):
            with pytest.raises(SimulationError):
                mcu.stream_transfer(bad)

    def test_bytes_moved_counts_hits(self):
        mcu = Mcu()
        for _ in range(3):
            mcu.stream_transfer(1000)
        assert mcu.bytes_moved == 3000

    def test_streaming_efficiency_leaves_bytes_moved(self):
        mcu = Mcu()
        mcu.stream_transfer(1000.1)
        before = mcu.bytes_moved
        for _ in range(2):
            mcu.streaming_efficiency()
            assert mcu.bytes_moved == before

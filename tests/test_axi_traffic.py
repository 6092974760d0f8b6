"""AXI port group and per-token traffic accounting."""

import pytest

from repro.config import KV260, LLAMA2_7B, TINYLLAMA_1_1B, W4A16_KV8
from repro.errors import ConfigError
from repro.memory.axi import AxiPortGroup
from repro.memory.traffic import decode_traffic


class TestAxiPortGroup:
    def test_paper_design_point(self):
        axi = AxiPortGroup(n_ports=4, port_bits=128, freq_hz=300e6)
        assert axi.bus_bits == 512
        assert axi.bytes_per_cycle == 64
        assert axi.bandwidth_bytes_per_s == pytest.approx(19.2e9)

    def test_four_ports_match_ddr(self):
        axi = AxiPortGroup(4, 128, 300e6)
        assert axi.is_bandwidth_matched(19.2e9)

    def test_two_ports_do_not_match(self):
        axi = AxiPortGroup(2, 128, 300e6)
        assert not axi.is_bandwidth_matched(19.2e9)

    def test_transfer_cycles(self):
        axi = AxiPortGroup(4, 128, 300e6)
        assert axi.transfer_cycles(6400) == 100

    def test_split_command_interleaves(self):
        axi = AxiPortGroup(4, 128, 300e6)
        subs = axi.split_command(0x1000, 256)
        assert [a for a, _ in subs] == [0x1000, 0x1010, 0x1020, 0x1030]
        assert all(size == 64 for _, size in subs)

    def test_split_rejects_unaligned(self):
        axi = AxiPortGroup(4, 128, 300e6)
        with pytest.raises(ConfigError):
            axi.split_command(0, 100)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            AxiPortGroup(n_ports=0)
        with pytest.raises(ConfigError):
            AxiPortGroup(port_bits=100)


class TestDecodeTraffic:
    def test_weight_bytes_dominate(self):
        t = decode_traffic(LLAMA2_7B, W4A16_KV8, context=512)
        assert t.weight_bytes > 0.9 * t.total_bytes

    def test_weight_code_bytes_are_3_3_gb(self):
        t = decode_traffic(LLAMA2_7B, W4A16_KV8, context=0)
        assert t.weight_code_bytes == pytest.approx(3.3e9, rel=0.01)

    def test_metadata_fraction(self):
        t = decode_traffic(LLAMA2_7B, W4A16_KV8, context=0)
        # (16+8)/128 bits over 4 bits = 4.69%.
        assert t.weight_meta_bytes / t.weight_code_bytes == pytest.approx(
            0.0469, abs=0.001)

    def test_kv_traffic_grows_linearly(self):
        t1 = decode_traffic(LLAMA2_7B, W4A16_KV8, context=256)
        t2 = decode_traffic(LLAMA2_7B, W4A16_KV8, context=512)
        assert t2.kv_read_bytes == pytest.approx(2 * t1.kv_read_bytes)

    def test_kv_write_independent_of_context(self):
        t1 = decode_traffic(LLAMA2_7B, W4A16_KV8, context=1)
        t2 = decode_traffic(LLAMA2_7B, W4A16_KV8, context=1000)
        assert t1.kv_write_bytes == t2.kv_write_bytes

    def test_reads_plus_writes_is_total(self):
        t = decode_traffic(LLAMA2_7B, W4A16_KV8, context=100)
        assert t.read_bytes + t.write_bytes == pytest.approx(t.total_bytes)

    def test_gqa_reduces_kv_traffic(self):
        full = decode_traffic(LLAMA2_7B, W4A16_KV8, context=512)
        gqa = decode_traffic(TINYLLAMA_1_1B, W4A16_KV8, context=512)
        # TinyLlama caches 4 of 32 heads: per-layer KV read is 8x smaller
        # than an MHA model of the same hidden size would need.
        per_layer_full = full.kv_read_bytes / LLAMA2_7B.num_layers
        per_layer_gqa = gqa.kv_read_bytes / TINYLLAMA_1_1B.num_layers
        assert per_layer_gqa < per_layer_full / 4

    def test_per_token_bytes_at_1024_context(self):
        # The quantity behind the 4.9 token/s: ~3.74 GB must move per token.
        t = decode_traffic(LLAMA2_7B, W4A16_KV8, context=1023)
        assert t.total_bytes == pytest.approx(3.74e9, rel=0.02)

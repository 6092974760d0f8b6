"""Unit-convention constants."""

from repro import units
from repro.config import KV260


def test_binary_capacity_constants():
    assert units.MIB == 1024 * 1024
    assert units.GIB == 1024 * units.MIB


def test_mib_of_4gib_is_4096():
    # The KV260's "4GB" DRAM is binary: 4096 of the paper's MB.
    assert KV260.dram_bytes == 4 * units.GIB
    assert KV260.dram_bytes // units.MIB == 4096


def test_gb_per_s_is_decimal():
    assert units.GB_DEC == 10**9
    assert KV260.bandwidth_bytes_per_s == 19.2 * units.GB_DEC


def test_kv260_ddr_peak_is_exact():
    # 64-bit x 2400 MT/s = 19.2e9 B/s exactly: bandwidth is decimal.
    assert 64 / 8 * 2400e6 == 19.2 * units.GB_DEC

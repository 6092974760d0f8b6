"""Baseline entries and table/figure renderers."""

import pytest

from repro.baselines.entries import (
    OUR_ENTRY,
    TABLE_II_ENTRIES,
    TABLE_III_ENTRIES,
)
from repro.report.figures import (
    ddr_burst_curve,
    fig1_memory_breakdown,
    fig2_phase_breakdown,
    fig3_pipeline_comparison,
    fig4_arrangement_comparison,
    fig5_component_throughput,
)
from repro.report.tables import (
    format_table,
    table1_resources,
    table2_fpga,
    table3_edge,
)


class TestBaselineEntries:
    def test_recomputed_theoretical_matches_paper(self):
        for e in TABLE_II_ENTRIES + TABLE_III_ENTRIES + (OUR_ENTRY,):
            if e.reported_theoretical is not None:
                assert e.theoretical_tokens_per_s == pytest.approx(
                    e.reported_theoretical, rel=0.05), e.name

    def test_recomputed_utilization_matches_paper(self):
        for e in TABLE_II_ENTRIES + TABLE_III_ENTRIES + (OUR_ENTRY,):
            if e.reported_utilization is not None:
                assert e.utilization == pytest.approx(
                    e.reported_utilization, abs=0.02), e.name

    def test_ours_has_best_utilization(self):
        """The paper's central comparison claim."""
        best_other = max(e.utilization
                         for e in TABLE_II_ENTRIES + TABLE_III_ENTRIES)
        assert OUR_ENTRY.utilization > best_other

    def test_utilization_ordering_table3(self):
        """NanoLLM Nano > NanoLLM AGX > TinyChat > llama.cpp > Pi."""
        by_name = {e.name: e.utilization for e in TABLE_III_ENTRIES}
        order = ["NanoLLM (Orin Nano)", "NanoLLM (AGX Orin)",
                 "TinyChat (AGX Orin)", "llama.cpp (AGX Orin)",
                 "llama.cpp (Pi)"]
        utils = [by_name[n] for n in order]
        assert all(a > b for a, b in zip(utils, utils[1:]))


class TestTables:
    def test_table1_rows(self):
        rows, text = table1_resources()
        assert [r["component"] for r in rows] == ["MemCtrl", "VPU", "SPU",
                                                  "Total"]
        assert "6.57" in text  # paper power in the footer

    def test_table2_ours_wins(self):
        rows, text = table2_fpga()
        ours = rows[-1]
        assert ours["utilization"] > max(r["utilization"] for r in rows[:-1])
        assert "KV260" in text

    def test_table2_simulated_close_to_paper(self):
        rows, _ = table2_fpga()
        ours = rows[-1]
        assert ours["tokens_per_s"] == pytest.approx(4.9, abs=0.15)
        assert ours["utilization"] == pytest.approx(0.845, abs=0.02)

    def test_table3_ours_beats_nanollm(self):
        rows, _ = table3_edge()
        nano = next(r for r in rows if r["name"] == "NanoLLM (Orin Nano)")
        assert rows[-1]["utilization"] > nano["utilization"]

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")


class TestFigures:
    def test_fig1_capacity(self):
        fig = fig1_memory_breakdown()
        assert fig["utilization"] == pytest.approx(fig["paper_utilization"],
                                                   abs=0.005)
        assert fig["weights_mib"] == pytest.approx(fig["paper_weights_mib"],
                                                   rel=0.01)
        assert fig["kv_mib"] == pytest.approx(fig["paper_kv_mib"], rel=0.002)

    def test_fig2_phases(self):
        fig = fig2_phase_breakdown(prompt_len=8, new_tokens=4)
        # Prefill restreams weights per token: TTFT >> TOPT.
        assert fig["ttft_s"] > fig["topt_s"] * 4
        assert fig["prefill_ops_per_weight"] > fig["decode_ops_per_weight"]

    def test_fig3_fusion(self):
        fig = fig3_pipeline_comparison(context=512)
        assert fig["fused_all_hidden"]
        assert fig["fused_exposed_misc"] == 0
        assert fig["coarse_penalty"] > 0.03

    def test_fig4_arrangement(self):
        fig = fig4_arrangement_comparison(out_features=512, in_features=4096)
        assert fig["interleaved_efficiency"] > 0.9
        assert fig["efficiency_gain"] > 2
        assert fig["write_reduction"] == pytest.approx(16.0, rel=0.05)

    def test_fig5_rate_matching(self):
        fig = fig5_component_throughput()
        assert fig["rate_matched"]
        assert fig["mcu_bytes_per_cycle"] == 64

    def test_ddr_burst_curve_monotone(self):
        curves = ddr_burst_curve(burst_sizes=(64, 1024, 16384, 262144))
        scattered = list(curves["scattered"].values())
        assert all(a <= b for a, b in zip(scattered, scattered[1:]))
        assert max(curves["sequential"].values()) > 0.9

"""CLI coverage for the multi-accelerator serving flags."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_serve_sim_prints_ttft_percentiles(capsys):
    code, out = run(capsys, "serve-sim", "--model", "tiny-test",
                    "--requests", "6")
    assert code == 0
    for token in ("TTFT p50", "TTFT p95", "TTFT p99", "token lat p50"):
        assert token in out


def test_serve_sim_tp_cycle(capsys):
    code, out = run(capsys, "serve-sim", "--model", "tiny-test",
                    "--requests", "6", "--tp", "2",
                    "--interconnect", "Aurora-x4")
    assert code == 0
    assert "tp 2 x 1 replicas over Aurora-x4" in out


def test_serve_sim_replicated_functional_paged(capsys):
    code, out = run(capsys, "serve-sim", "--model", "tiny-test",
                    "--backend", "functional", "--requests", "8",
                    "--tp", "2", "--replicas", "2",
                    "--router", "prefix_affinity",
                    "--kv", "paged", "--shared-prefix", "16")
    assert code == 0
    assert "replica" in out        # per-replica table
    assert "prefix reuse" in out


def test_serve_sim_unknown_interconnect_exits():
    with pytest.raises(SystemExit):
        main(["serve-sim", "--model", "tiny-test", "--tp", "2",
              "--interconnect", "carrier-pigeon"])


def test_serve_sim_tp_must_divide_model():
    with pytest.raises(SystemExit):
        main(["serve-sim", "--model", "tiny-test", "--tp", "3"])


def test_serve_sim_drain_migrates_without_losing_work(capsys):
    code, out = run(capsys, "serve-sim", "--model", "tiny-test",
                    "--requests", "48", "--replicas", "3", "--drain",
                    "--telemetry", "full")
    assert code == 0
    assert "drains 1: migrated" in out
    assert "lost 0" in out
    assert "recompute 0 tokens" in out


def test_serve_sim_chaos_domains(capsys):
    code, out = run(capsys, "serve-sim", "--model", "tiny-test",
                    "--requests", "48", "--replicas", "4", "--chaos",
                    "--domains", "2", "--telemetry", "full")
    assert code == 0
    assert "chaos" in out
    assert "lost 0" in out


def test_serve_sim_hedge_rides_drain(capsys):
    code, out = run(capsys, "serve-sim", "--model", "tiny-test",
                    "--requests", "48", "--replicas", "3", "--chaos",
                    "--drain", "--hedge", "0.002",
                    "--telemetry", "full")
    assert code == 0
    assert "hedged" in out


def test_serve_sim_drain_needs_replicas():
    with pytest.raises(SystemExit):
        main(["serve-sim", "--model", "tiny-test", "--requests", "4",
              "--drain"])


def test_serve_sim_domains_need_chaos():
    with pytest.raises(SystemExit):
        main(["serve-sim", "--model", "tiny-test", "--requests", "4",
              "--replicas", "2", "--domains", "2"])


def test_bench_serve_scaling_sweep(capsys):
    """The TP x DP grid on the bandwidth-bound model must scale."""
    code, out = run(capsys, "bench-serve", "--scaling-sweep",
                    "--requests", "6", "--max-batch", "4")
    assert code == 0
    assert "TP x DP scaling" in out
    assert "tensor-parallel scaling HOLDS" in out
    # All six grid points rendered.
    assert out.count("tok") >= 6

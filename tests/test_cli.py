"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_info_headline(capsys):
    code, out = run(capsys, "info", "--context", "1023")
    assert code == 0
    assert "5.8" in out          # theoretical ceiling
    assert "84" in out           # utilization percent
    assert "6.5" in out or "6.6" in out  # watts


def test_info_unknown_model_exits():
    with pytest.raises(SystemExit):
        main(["info", "--model", "GPT-9000"])


def test_tables(capsys):
    code, out = run(capsys, "tables", "--context", "512")
    assert code == 0
    for token in ("Table I", "Table II", "Table III", "FlightLLM",
                  "NanoLLM", "KV260"):
        assert token in out


def test_capacity_fits(capsys):
    code, out = run(capsys, "capacity", "--model", "LLaMA2-7B",
                    "--context", "1024")
    assert code == 0
    assert "FITS" in out
    assert "93" in out


def test_capacity_w8_fails(capsys):
    code, out = run(capsys, "capacity", "--model", "LLaMA2-7B",
                    "--weight-bits", "8")
    assert code == 1
    assert "DOES NOT FIT" in out


def test_sweep(capsys):
    code, out = run(capsys, "sweep", "--context", "256", "--steps", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isspace() is False]
    assert any("token/s" in l for l in out.splitlines())


def test_sweep_coarse_mode(capsys):
    code, out = run(capsys, "sweep", "--context", "128", "--steps", "2",
                    "--mode", "coarse")
    assert code == 0
    assert "coarse" in out


def test_explore(capsys):
    code, out = run(capsys, "explore", "--context", "128")
    assert code == 0
    assert "pareto" in out
    assert "128" in out


def test_generate(capsys):
    code, out = run(capsys, "generate", "--tokens", "4")
    assert code == 0
    assert "completion" in out
    assert "token/s" in out


def test_generate_sampled(capsys):
    code, out = run(capsys, "generate", "--tokens", "4",
                    "--temperature", "0.9")
    assert code == 0


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_summary_holds(capsys):
    code, out = run(capsys, "summary")
    assert code == 0
    assert "HOLDS" in out
    assert out.count("True") >= 10
    assert "False" not in out


def test_serve_sim_cycle_backend(capsys):
    code, out = run(capsys, "serve-sim", "--requests", "10",
                    "--max-batch", "8", "--per-request")
    assert code == 0
    assert "aggregate rate" in out
    assert "token lat p99" in out
    assert out.count("length") == 10  # every request retires


def test_serve_sim_functional_backend(capsys):
    code, out = run(capsys, "serve-sim", "--backend", "functional",
                    "--requests", "4", "--max-batch", "4",
                    "--decode-max", "8")
    assert code == 0
    assert "functional backend" in out


def test_serve_sim_analytical_7b(capsys):
    code, out = run(capsys, "serve-sim", "--model", "LLaMA2-7B",
                    "--backend", "analytical", "--requests", "3",
                    "--arrival-rate", "0.5", "--decode-max", "8")
    assert code == 0
    assert "LLaMA2-7B" in out


def test_serve_sim_kv_budget_forces_preemption(capsys):
    code, out = run(capsys, "serve-sim", "--requests", "8",
                    "--max-batch", "4", "--kv-budget", "60",
                    "--decode-min", "20", "--decode-max", "30",
                    "--prompt-min", "10", "--prompt-max", "14")
    assert code == 0
    assert "KV budget 60 tokens" in out
    preemptions = int(out.split("preemptions")[1].split()[0])
    assert preemptions > 0


@pytest.mark.parametrize("replicas", ("1", "2"))
def test_serve_sim_all_rejected_reports_zero_served(capsys, replicas):
    """A one-token quota rejects every request on arrival: the run
    covers no simulated time, and the report says so instead of
    failing on its throughput."""
    code, out = run(capsys, "serve-sim", "--tenants",
                    "a:interactive,b:batch", "--quota", "1",
                    "--requests", "50", "--replicas", replicas)
    assert code == 0
    assert "aggregate rate :      0.000 token/s (0 tokens)" in out
    assert "0 served       : all 50 requests rejected or failed" in out


def test_serve_sim_functional_rejects_big_models():
    with pytest.raises(SystemExit):
        main(["serve-sim", "--model", "LLaMA2-7B",
              "--backend", "functional"])


def test_bench_serve_amortization_visible(capsys):
    code, out = run(capsys, "bench-serve", "--max-batch", "8")
    assert code == 0
    assert "VISIBLE" in out
    lines = [l for l in out.splitlines() if l.strip()
             and l.strip()[0].isdigit()]
    rates = [float(l.split()[1]) for l in lines]
    assert len(rates) == 4  # batch 1, 2, 4, 8
    assert all(r > rates[0] for r in rates[1:])


def test_bench_serve_rejects_batch_below_two():
    with pytest.raises(SystemExit):
        main(["bench-serve", "--max-batch", "1"])


def test_bench_serve_wider_engine(capsys):
    code, out = run(capsys, "bench-serve", "--max-batch", "4",
                    "--lanes", "512")
    assert code == 0
    assert "512 lanes" in out


def test_serve_sim_paged_kv_reports_reuse(capsys):
    code, out = run(capsys, "serve-sim", "--kv", "paged",
                    "--block-size", "8", "--requests", "8",
                    "--shared-prefix", "24", "--decode-max", "8")
    assert code == 0
    assert "paged KV" in out
    assert "prefix reuse" in out
    reused = int(out.split("prefix reuse   :")[1].split()[0])
    assert reused > 0


def test_serve_sim_paged_functional_backend(capsys):
    code, out = run(capsys, "serve-sim", "--kv", "paged",
                    "--backend", "functional", "--requests", "4",
                    "--max-batch", "4", "--shared-prefix", "16",
                    "--decode-min", "4", "--decode-max", "6")
    assert code == 0
    assert "paged KV" in out


def test_serve_sim_paged_kv_budget_sizes_pool(capsys):
    code, out = run(capsys, "serve-sim", "--kv", "paged",
                    "--block-size", "8", "--kv-budget", "128",
                    "--requests", "6", "--decode-max", "8")
    assert code == 0
    assert "16 blocks x 8 tokens" in out


def test_bench_serve_kv_compare_paged_wins(capsys):
    code, out = run(capsys, "bench-serve", "--model", "tiny-test",
                    "--group-size", "32", "--max-batch", "8",
                    "--kv-compare", "--kv-budget", "192",
                    "--shared-prefix", "32", "--requests", "12",
                    "--block-size", "16", "--context", "48")
    assert code == 0
    assert "paged KV WINS" in out


def test_convert_roundtrip(capsys, tmp_path):
    out = str(tmp_path / "tiny.ckpt")
    code = main(["convert", "--out", out])
    text = capsys.readouterr().out
    assert code == 0
    assert "CRCs OK" in text
    import os

    assert os.path.getsize(out) > 1000

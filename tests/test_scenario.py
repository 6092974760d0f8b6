"""The serving scenario spec: one fail-fast check, one builder.

Every serving run (``serve-sim``, ``bench-serve --kv-compare``, the
scaling sweep, the serving benchmarks) is a :class:`Scenario`, so a bad
combination is rejected at construction, before any backend is built,
and the run store records every field of the run.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import FaultEvent, FaultSchedule
from repro.config import LLAMA2_7B, TINY_MODEL
from repro.engine import TELEMETRY_LEVELS, TenantSpec, build_backend
from repro.errors import ConfigError, ReproError, SimulationError
from repro.kv import blocks_for_budget
from repro.obs import RunStore
from repro.scenario import Scenario

CRASH = FaultSchedule([FaultEvent("crash", 1, 0.001, 0.001)])


def _tenants(quota):
    return ((TenantSpec("fg", "interactive", kv_quota_tokens=quota), 1.0),)


#: (scenario fields, error match) — every check construction makes.  A
#: callable builds its fields inside the check (a bad TenantSpec raises
#: on construction).
REJECTED = {
    "tp": (dict(tp=0), "tp and replicas"),
    "replicas": (dict(replicas=0), "tp and replicas"),
    "kv mode": (dict(kv="ring"), "unknown kv"),
    "router": (dict(router="random"), "unknown router"),
    "telemetry": (dict(telemetry="verbose"), "unknown telemetry"),
    "negative kv budget": (dict(kv_budget=-1), "kv_budget and kv_blocks"),
    "negative kv blocks": (dict(kv="paged", kv_blocks=-2),
                           "kv_budget and kv_blocks"),
    "kv blocks on slotted": (dict(kv_blocks=32), "slotted KV would ignore"),
    "negative quota": (lambda: dict(tenant_mix=_tenants(-5)),
                       "kv_quota_tokens must be positive"),
    "zero quota": (lambda: dict(tenant_mix=_tenants(0)),
                   "kv_quota_tokens must be positive"),
    "chaos on one replica": (dict(chaos=True), "replicas >= 2"),
    "drain on one replica": (dict(drain=True), "replicas >= 2"),
    "schedule on one replica": (dict(faults=CRASH), "replicas >= 2"),
    "schedule and chaos": (dict(faults=CRASH, chaos=True, replicas=2),
                           "not both"),
    "domains without chaos": (dict(replicas=3, domains=2), "needs chaos"),
    "one domain": (dict(replicas=3, chaos=True, domains=1),
                   "between 2 and replicas"),
    "domains past replicas": (dict(replicas=3, chaos=True, domains=4),
                              "between 2 and replicas"),
    "negative hedge": (dict(replicas=2, drain=True, hedge=-0.1),
                       "hedge must be >= 0"),
    "hedge without faults": (dict(replicas=2, hedge=0.002),
                             "fault-tolerant path"),
    "functional 7B": (dict(model=LLAMA2_7B, backend="functional"),
                      "too large for the functional"),
    "analytical backend": (dict(backend="analytical"),
                           r"choose from \('cycle', 'functional'\)"),
    "trace checked eagerly": (dict(requests=0), "n_requests"),
    "nan share": (dict(tenant_mix=((TenantSpec("fg"), float("nan")),)),
                  "share must be positive"),
}


@pytest.mark.parametrize("fields,match", REJECTED.values(),
                         ids=REJECTED.keys())
def test_scenario_rejects(fields, match):
    with pytest.raises(ReproError, match=match):
        Scenario(**(fields() if callable(fields) else fields))


def _error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(["serve-sim", "--requests", "4", *argv])
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv,match", [
    (("--tenants", "fg:interactive,bg:best_effort",
      "--priority-mix", "a,b"), "bad --priority-mix 'a,b'"),
    (("--tenants", "fg:interactive", "--quota", "-5"),
     "--quota must be >= 0"),
    (("--tenants", "fg:interactive:-5"),
     "bad --tenants entry 'fg:interactive:-5'"),
    (("--tenants", "fg:interactive:lots"),
     "bad --tenants entry 'fg:interactive:lots'"),
    (("--kv-blocks", "8"), "slotted KV would ignore"),
])
def test_serve_sim_flag_errors(capsys, argv, match):
    assert match in _error(capsys, *argv)


@pytest.mark.parametrize("block_size", [0, -4])
def test_nonpositive_block_size_rejected_everywhere(capsys, block_size):
    """Paged KV is sized in one place, so every caller — the CLI, the
    backend builder with a derived or an explicit pool, the budget rule
    — reports the same error instead of dividing by zero."""
    message = f"block size must be positive, got {block_size}"
    assert message in _error(capsys, "--kv", "paged",
                             "--block-size", str(block_size))
    with pytest.raises(ReproError, match=message):
        blocks_for_budget(256, block_size)
    for n_kv_blocks in (None, 8):
        with pytest.raises(ReproError, match=message):
            build_backend("cycle", TINY_MODEL, Scenario().quant,
                          kv_mode="paged", block_size=block_size,
                          n_kv_blocks=n_kv_blocks)


def test_serve_sim_has_no_context_flag(capsys):
    with pytest.raises(SystemExit):
        main(["serve-sim", "--requests", "4", "--context", "64"])
    assert "unrecognized arguments: --context" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["summary", "full"])
def test_retired_telemetry_level_is_gone(capsys, level):
    """Every entry point rejects the retired ``summary`` and ``full``
    levels and names the remaining choices."""
    assert TELEMETRY_LEVELS == ("windows", "sketch")
    choices = "'windows', 'sketch'"
    with pytest.raises(ConfigError, match=choices):
        Scenario(telemetry=level)
    scenario = Scenario(requests=2)
    with pytest.raises(SimulationError, match=choices):
        scenario.build().engines[0].run(scenario.trace(), telemetry=level)
    with pytest.raises(SystemExit) as exc:
        main(["serve-sim", "--telemetry", level])
    assert exc.value.code == 2
    assert f"choose from {choices}" in capsys.readouterr().err


def test_serve_sim_hedges_at_sketch_telemetry(capsys):
    """Hedging reads first-token times off report rows, which every
    telemetry level keeps."""
    assert main(["serve-sim", "--model", "tiny-test", "--requests", "48",
                 "--replicas", "3", "--chaos", "--drain", "--hedge",
                 "0.002", "--telemetry", "sketch"]) == 0
    assert "hedged" in capsys.readouterr().out


def test_record_config_covers_the_scenario(tmp_path, capsys):
    """The run store records every scenario field, JSON-serializable,
    next to the historical serve-sim keys; runs that differ only in
    arrival rate record different configs."""
    runs = str(tmp_path)
    for rate in ("1e6", "2e6"):
        assert main(["serve-sim", "--requests", "8", "--replicas", "2",
                     "--drain", "--arrival-rate", rate,
                     "--tenants", "fg:interactive:64,bg:best_effort",
                     "--record", "cfg", "--runs-dir", runs]) == 0
    capsys.readouterr()
    first, second = RunStore(runs).load_window("cfg", 2)
    config = first.config
    assert set(Scenario.__dataclass_fields__) <= set(config)
    json.dumps(config)
    assert {k: config[k] for k in (
        "command", "model", "platform", "backend", "requests",
        "max_batch", "kv", "telemetry", "tp", "replicas", "router",
        "seed", "chaos", "fault_seed", "drain", "domains", "hedge")} == {
        "command": "serve-sim", "model": "tiny-test",
        "platform": Scenario().platform.name, "backend": "cycle",
        "requests": 8, "max_batch": 8, "kv": "slotted",
        "telemetry": "windows", "tp": 1, "replicas": 2,
        "router": "round_robin", "seed": 0, "chaos": False,
        "fault_seed": 0, "drain": True, "domains": 0, "hedge": 0.0}
    assert config["arrival_rate"] == 1e6
    assert config["tenant_mix"][0][0]["kv_quota_tokens"] == 64
    assert config["interconnect"]["name"] == "10GbE"
    assert first.config != second.config
    assert {k for k in config if config[k] != second.config[k]} \
        == {"arrival_rate"}


def test_explicit_schedule_serves_and_records():
    scenario = Scenario(replicas=2, faults=CRASH, requests=24,
                        arrival_rate=2e4, router="least_loaded")
    report = scenario.serve()
    assert report.resilience["n_crashes"] == 1
    assert report.resilience["n_lost"] == 0
    events = scenario.config()["faults"]["events"]
    assert events == [dict(kind="crash", replica=1, start_s=0.001,
                           duration_s=0.001, factor=1.0, warmup_s=0.0,
                           warmup_factor=2.0)]
    json.dumps(scenario.config())

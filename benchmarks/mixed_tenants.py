"""The mixed-tenant serving scenario bench_slo, bench_resilience and
bench_migration share, and their timed serve.

Every engine is tiny-test on one KV260 at batch 8 with a 256-token KV
budget, and every trace has the same shape and seed.  Three tenant
classes: 25% interactive (5 ms TTFT target, no quota), 50% batch capped
at 160 cached KV tokens, 25% best-effort capped at 96 — the quota
classes exercise quota admission and same-tenant eviction under decode
growth, and best-effort is the class degraded mode sheds first.
"""

from __future__ import annotations

import pathlib
import time

from repro.config import TINY_MODEL, QuantConfig
from repro.engine import TenantSpec
from repro.scenario import Scenario

MIX = ((TenantSpec("fg", "interactive", ttft_slo_s=0.005), 0.25),
       (TenantSpec("bulk", "batch", kv_quota_tokens=160), 0.5),
       (TenantSpec("bg", "best_effort", kv_quota_tokens=96), 0.25))

BASE = Scenario(model=TINY_MODEL, quant=QuantConfig(weight_group_size=32),
                max_batch=8, kv_budget=256, prompt_len=(3, 10),
                decode_len=(6, 28), seed=23, tenant_mix=MIX)


#: Where a bench run at its CI smoke budget writes its record, texts
#: and run store (gitignored): the committed ones hold the full budget.
SMOKE_DIR = pathlib.Path(__file__).parent / "results" / "smoke"


def timed_serve(scenario: Scenario, trace=None) -> tuple:
    """(report, harness wall seconds) of one serve."""
    start = time.perf_counter()
    report = scenario.serve(trace)
    return report, round(time.perf_counter() - start, 2)

"""Tensor-parallel group pricing, pinned bit for bit.

A TP group's step, prompt and window prices are the per-shard cycle
model (or roofline) plus the interconnect collectives, and its KV
capacity is what one board's DRAM holds after its shard of the
weights.  The golden hashes every such price as ``float.hex`` over the
grid of models x TP degrees x links x timing kinds x KV disciplines, so
any change to how a group is priced or sized changes the digest.
"""

import hashlib

import pytest

from repro.cluster import INTERCONNECT_PRESETS, validate_tp
from repro.config import LLAMA2_7B, TINY_MODEL, W4A16_KV8, QuantConfig
from repro.engine import (
    AnalyticalBackend,
    ContinuousBatchScheduler,
    CycleModelBackend,
    Request,
    build_backend,
)
from repro.engine.request import RequestState
from repro.errors import ConfigError

MODELS = ((LLAMA2_7B, W4A16_KV8),
          (TINY_MODEL, QuantConfig(weight_group_size=32)))
LINKS = ("10GbE", "1GbE", "Aurora-x4")
MEMBERS = (1, 3, 8)
PREFILLS = ((1, 0), (5, 0), (9, 4), (17, 16), (33, 8))
WINDOWS = (1, 7, 40)
MAX_BATCH = 8
#: wide enough that DRAM, not ``max_batch * max_context``, caps LLaMA2-7B
WIDE_BATCH = 4096

PRICING_GOLDEN = \
    "634849815d4cfbbcc387e492e5c897be8f3ee41c8c5383b535a17f3576d8edf4"


def scheduler_budget(backend, max_batch: int) -> int:
    return ContinuousBatchScheduler(backend,
                                    max_batch=max_batch).kv_token_budget


def group_prices(kind: str, kv_mode: str, model, quant, tp: int,
                 link: str) -> str:
    """Every price and capacity of one TP group, as one string."""
    def build(n_slots):
        return build_backend(kind, model, quant, tp=tp,
                             interconnect=INTERCONNECT_PRESETS[link],
                             n_slots=n_slots, kv_mode=kv_mode)

    backend = build(MAX_BATCH)
    parts = [f"budget={scheduler_budget(backend, MAX_BATCH)}",
             f"wide={scheduler_budget(build(WIDE_BATCH), WIDE_BATCH)}"]
    if kv_mode == "paged":
        parts.append(f"blocks={backend.paged_kv.n_total_blocks}")
    for n in MEMBERS:
        parts.append(backend.step_cycles(
            [17 * i + 3 for i in range(n)]).hex())
    for n, start in PREFILLS:
        parts.append(backend.prefill_cycles(n, start).hex())
    states = []
    for i in range(MAX_BATCH):
        state = RequestState(Request(
            i, tuple(range(11 * i + 1, 11 * i + 4 + i)),
            max_new_tokens=48))
        backend.admit(state)
        parts.append(backend.prefill(state).hex())
        states.append(state)
    for n_steps in WINDOWS:
        parts.extend(c.hex()
                     for c in backend.fast_forward_cycles(states, n_steps))
    return ";".join(parts)


def grid():
    for model, quant in MODELS:
        for tp in (2, 4):
            try:
                validate_tp(model, tp)
            except ConfigError:
                continue
            for link in LINKS:
                for kind in ("cycle", "analytical"):
                    for kv_mode in ("slotted", "paged"):
                        yield kind, kv_mode, model, quant, tp, link


def test_tp_group_pricing_golden():
    digest = hashlib.sha256()
    for kind, kv_mode, model, quant, tp, link in grid():
        digest.update(f"{model.name}/{tp}/{link}/{kind}/{kv_mode}:".encode())
        digest.update(group_prices(kind, kv_mode, model, quant, tp,
                                   link).encode())
    assert digest.hexdigest() == PRICING_GOLDEN


@pytest.mark.parametrize("cls, kind", [(CycleModelBackend, "cycle"),
                                       (AnalyticalBackend, "analytical")])
def test_constructor_prices_the_whole_group(cls, kind):
    """A backend constructed with ``tp=2`` is the whole TP group: the
    all-reduce is in every step and the KV budget is one board's share
    of DRAM after its shard of the weights — never half a group."""
    direct = cls(LLAMA2_7B, W4A16_KV8, tp=2)
    built = build_backend(kind, LLAMA2_7B, W4A16_KV8, tp=2)
    assert direct.step_cycles([100, 200]) == built.step_cycles([100, 200])
    assert direct.prefill_cycles(9, 2) == built.prefill_cycles(9, 2)
    assert scheduler_budget(direct, 8) == scheduler_budget(built, 8) == 8192
    paged = cls(LLAMA2_7B, W4A16_KV8, tp=2, kv_mode="paged")
    assert paged.paged_kv.n_total_blocks == 512
    if kind == "cycle":
        assert direct.step_cycles([100, 200]) == 52971994.48870469

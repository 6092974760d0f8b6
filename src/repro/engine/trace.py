"""Synthetic request traces for serving simulation.

A trace is a stream of :class:`repro.engine.request.Request` with
Poisson arrivals and randomized prompt/decode lengths — enough to
exercise admission, continuous batching, and preemption without real
user data.  Generation is fully deterministic from the seed.

:func:`iter_synthetic_trace` is the generator form: requests come out
one by one in arrival order with nothing materialized up front, so a
million-request sweep feeds :meth:`ContinuousBatchScheduler.run`
incrementally at O(in-flight) memory.  :func:`synthetic_trace` is the
same stream collected into a list — the two are element-for-element
identical for equal parameters.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..config import ModelConfig
from ..errors import SimulationError
from .request import Request
from .tenancy import TenantSpec


def iter_synthetic_trace(model: ModelConfig, n_requests: int,
                         arrival_rate_rps: float = 1.0,
                         prompt_len: tuple[int, int] = (4, 16),
                         decode_len: tuple[int, int] = (8, 32),
                         seed: int = 0,
                         eos_id: int | None = None,
                         shared_prefix_len: int = 0,
                         tenant_mix: Sequence[tuple[TenantSpec, float]]
                         | None = None) -> Iterator[Request]:
    """Generate ``n_requests`` synthetic requests against ``model``.

    Arrivals are exponential inter-arrival times at ``arrival_rate_rps``
    requests per second of *simulated* time; prompt and decode lengths
    are uniform over the given inclusive ranges, clamped so every
    request fits the model's context window.

    ``shared_prefix_len > 0`` prepends one fixed "system prompt" of that
    many tokens (drawn once from the seed) to every request — the
    workload shape that paged KV with prefix reuse is built for.  The
    per-request prompt tail still follows ``prompt_len``, so a prompt is
    never shorter than the shared prefix.  A prefix that leaves no room
    for the minimum tail plus one generated token raises; a prefix that
    only squeezes the *top* of the tail range clamps that range once, up
    front (and every draw uses the clamped range), rather than silently
    collapsing out-of-range samples onto the cap.

    ``tenant_mix`` is a sequence of ``(TenantSpec, share)`` pairs: each
    request draws its tenant from the given specs with probabilities
    proportional to the shares (normalized; they need not sum to 1).
    The tenant draw is one extra RNG call per block *after* the
    existing draws, so ``tenant_mix=None`` leaves the default stream —
    arrivals, lengths, and tokens — bit-identical to before.
    """
    if n_requests <= 0:
        raise SimulationError(f"n_requests must be positive: {n_requests}")
    if arrival_rate_rps <= 0:
        raise SimulationError(
            f"arrival rate must be positive: {arrival_rate_rps}")
    if shared_prefix_len < 0:
        raise SimulationError(
            f"shared prefix length must be >= 0: {shared_prefix_len}")
    lo_p, hi_p = prompt_len
    lo_d, hi_d = decode_len
    if not 1 <= lo_p <= hi_p or not 1 <= lo_d <= hi_d:
        raise SimulationError(
            f"bad length ranges prompt={prompt_len} decode={decode_len}")
    if shared_prefix_len + lo_p + 1 >= model.max_context:
        raise SimulationError(
            f"shared prefix of {shared_prefix_len} tokens leaves no room "
            f"for a >= {lo_p}-token prompt tail plus one generated token "
            f"in {model.name}'s {model.max_context}-token context")
    # Longest tail that fits beside the shared prefix, one sampled token
    # and the final forward; clamping the range ONCE keeps the draw
    # uniform instead of piling every oversized sample onto the cap.
    tail_cap = model.max_context - 2 - shared_prefix_len
    hi_p = min(hi_p, tail_cap)
    specs: tuple[TenantSpec, ...] | None = None
    thresholds: np.ndarray | None = None
    if tenant_mix is not None:
        if not tenant_mix:
            raise SimulationError("tenant_mix must not be empty")
        specs = tuple(spec for spec, _ in tenant_mix)
        shares = np.asarray([share for _, share in tenant_mix],
                            dtype=np.float64)
        for spec, share in tenant_mix:
            if not isinstance(spec, TenantSpec):
                raise SimulationError(
                    f"tenant_mix entries need a TenantSpec: {spec!r}")
            if not 0 < share < float("inf"):
                raise SimulationError(
                    f"tenant {spec.name!r}: mix share must be positive "
                    f"and finite: "
                    f"{share}")
        thresholds = np.cumsum(shares / shares.sum())

    # Validation stays eager (above); only the draws are deferred, so a
    # bad parameter set fails at the call, not at the first next().
    def generate() -> Iterator[Request]:
        rng = np.random.default_rng(seed)
        system_prompt = tuple(int(t) for t in rng.integers(
            0, model.vocab_size, size=shared_prefix_len))
        decode_cap = model.max_context - shared_prefix_len
        clock = 0.0
        rid = 0
        # Draws come in blocks (4 RNG calls per up-to-1024 requests
        # instead of 4 per request); the stream itself stays lazy, so
        # peak memory is one block, not the trace.
        while rid < n_requests:
            block = min(1024, n_requests - rid)
            gaps = rng.exponential(1.0 / arrival_rate_rps, size=block)
            n_prompts = rng.integers(lo_p, hi_p + 1, size=block)
            n_decodes = rng.integers(lo_d, hi_d + 1, size=block)
            tokens = rng.integers(0, model.vocab_size,
                                  size=int(n_prompts.sum()))
            if specs is not None:
                # Drawn after the base block so the default stream
                # (tenant_mix=None) consumes the RNG identically.
                picks = np.minimum(
                    np.searchsorted(thresholds, rng.random(size=block),
                                    side="right"),
                    len(specs) - 1)
            offset = 0
            for i in range(block):
                clock += float(gaps[i])
                n_prompt = int(n_prompts[i])
                prompt = system_prompt + tuple(
                    tokens[offset:offset + n_prompt].tolist())
                offset += n_prompt
                kwargs = {} if specs is None \
                    else {"tenant": specs[int(picks[i])]}
                yield Request(
                    request_id=rid,
                    prompt=prompt,
                    max_new_tokens=min(int(n_decodes[i]),
                                       decode_cap - n_prompt),
                    arrival_s=clock,
                    eos_id=eos_id,
                    **kwargs,
                )
                rid += 1

    return generate()


def synthetic_trace(model: ModelConfig, n_requests: int,
                    arrival_rate_rps: float = 1.0,
                    prompt_len: tuple[int, int] = (4, 16),
                    decode_len: tuple[int, int] = (8, 32),
                    seed: int = 0,
                    eos_id: int | None = None,
                    shared_prefix_len: int = 0,
                    tenant_mix: Sequence[tuple[TenantSpec, float]]
                    | None = None) -> list[Request]:
    """:func:`iter_synthetic_trace`, materialized into a list."""
    return list(iter_synthetic_trace(
        model, n_requests, arrival_rate_rps=arrival_rate_rps,
        prompt_len=prompt_len, decode_len=decode_len, seed=seed,
        eos_id=eos_id, shared_prefix_len=shared_prefix_len,
        tenant_mix=tenant_mix))

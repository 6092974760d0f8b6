"""The benchmark's workloads: what each one builds, and how it serves.

A workload is a fixed serving scenario.  ``--seed`` only draws its
request trace (and, for the functional board, its random weights); the
program under test receives the generated trace and nothing else.  All
four are open-loop: ``iter_synthetic_trace`` draws Poisson arrivals in
*simulated* time, so the generator can never run late — its lateness is
zero by construction.

Set-up (:func:`build`) mirrors ``repro serve-sim`` flag for flag, so a
workload's simulated results equal what ``serve-sim`` prints for the
same flags and seed (``selftest.py`` pins this on ``knee-tenants``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``serve-sim --tenants fg:interactive,bulk:batch,bg:best_effort``:
#: three classes, equal shares, no quotas.
TENANTS = (("fg", "interactive"), ("bulk", "batch"), ("bg", "best_effort"))
#: serve-sim's defaults, shared by every workload
MAX_BATCH = 8
ROUTER = "round_robin"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    backend: str
    n_requests: int
    arrival_rps: float
    prompt_len: tuple[int, int]
    decode_len: tuple[int, int]
    replicas: int = 1
    kv: str = "slotted"
    shared_prefix: int = 0
    #: draw each request's tenant from :data:`TENANTS`
    tenants: bool = False
    #: ``chaos-drain``: the scripted crash / slowdown / drain schedule.
    faults: bool = False

    @property
    def span_s(self) -> float:
        """Nominal arrival span (requests / rate).  The fault script is
        placed at fixed fractions of it, so it never depends on the
        seed's actual arrivals."""
        return self.n_requests / self.arrival_rps


# Why each workload (cProfile self time, bucketed by module, put most
# host time in a different layer for each):

# The ROADMAP baseline scenario: per-iteration Python bookkeeping in the
# scheduler and backends dominates (every window break is an admission);
# the cycle model and the router do almost nothing.
KNEE = Workload(
    name="knee-tenants", model="tiny-test", backend="cycle", replicas=3,
    n_requests=12_000, arrival_rps=36_000.0, prompt_len=(4, 16),
    decode_len=(8, 32), tenants=True)

WORKLOADS = {w.name: w for w in (
    KNEE,
    # The same trace and cluster under the scripted fault schedule: the
    # router's fixed-point replays re-run every replica's engine.
    Workload(
        name="chaos-drain", model="tiny-test", backend="cycle", replicas=3,
        n_requests=12_000, arrival_rps=36_000.0, prompt_len=(4, 16),
        decode_len=(8, 32), tenants=True, faults=True),
    # The paper's deployment, below the single-board knee: cycle-model
    # schedule builds (one per distinct prompt position and context),
    # paged-KV block frontiers and prefix-cache traffic; the scheduler
    # idles.
    Workload(
        name="paper-7b", model="LLaMA2-7B", backend="cycle", kv="paged",
        shared_prefix=16, n_requests=1000, arrival_rps=0.01,
        prompt_len=(8, 24), decode_len=(32, 224)),
    # The only workload where numerics/model/quant do the work: the
    # bit-exact quantized numpy forward.  The requests arrive as one
    # burst, so decode steps run at the full batch of 8 (at lower load
    # each forward call carries fewer rows and a run costs minutes).
    Workload(
        name="functional-tiny", model="tiny-test", backend="functional",
        n_requests=200, arrival_rps=1e6, prompt_len=(3, 6),
        decode_len=(2, 6)),
)}


def make_trace(w: Workload, seed: int) -> list:
    """The seeded request trace, materialized before anything is timed."""
    from repro.config import MODEL_PRESETS
    from repro.engine import TenantSpec, iter_synthetic_trace

    mix = [(TenantSpec(name=name, priority=cls), 1.0)
           for name, cls in TENANTS] if w.tenants else None
    return list(iter_synthetic_trace(
        MODEL_PRESETS[w.model], n_requests=w.n_requests,
        arrival_rate_rps=w.arrival_rps, prompt_len=w.prompt_len,
        decode_len=w.decode_len, seed=seed,
        shared_prefix_len=w.shared_prefix, tenant_mix=mix))


def fault_script(w: Workload):
    """``chaos-drain``'s schedule: one crash with warm-up (kill ->
    retry) on replica 1, one slowdown on replica 2, and a drain of
    replica 0 whose window is far shorter than a decode, so in-flight
    work checkpoints with KV bytes (drain -> migrate with resume)."""
    from repro.cluster import FaultEvent, FaultSchedule

    span = w.span_s
    return FaultSchedule((
        FaultEvent("crash", 1, 0.2 * span, 0.1 * span,
                   warmup_s=0.05 * span),
        FaultEvent("slowdown", 2, 0.45 * span, 0.15 * span, factor=2.0),
        FaultEvent("drain", 0, 0.7 * span, 0.0001),
    ))


@dataclass
class Program:
    """One freshly constructed serving stack (nothing memoized yet)."""

    workload: Workload
    backends: list
    engines: list
    router: object | None


def build(w: Workload, seed: int) -> Program:
    """Construct model, backends, engines and router, as serve-sim does."""
    from repro.cluster import INTERCONNECT_PRESETS
    from repro.config import KV260, MODEL_PRESETS, QuantConfig
    from repro.engine import (ContinuousBatchScheduler, build_backend,
                              kv_discipline_kwargs)

    model = MODEL_PRESETS[w.model]
    quant = QuantConfig(weight_bits=4, kv_bits=8, weight_group_size=128)
    qweights = None
    if w.backend == "functional":
        from repro.model.weights import quantize_model, random_weights

        qweights = quantize_model(
            random_weights(model, seed=seed),
            QuantConfig(weight_bits=4, kv_bits=8,
                        weight_group_size=min(128, model.hidden_size)))
    kv, scheduler_kv = kv_discipline_kwargs(w.kv)
    backends = [build_backend(w.backend, model, quant, KV260, mode="fused",
                              n_slots=MAX_BATCH,
                              interconnect=INTERCONNECT_PRESETS["10GbE"],
                              qweights=qweights, **kv)
                for _ in range(w.replicas)]
    engines = [ContinuousBatchScheduler(b, max_batch=MAX_BATCH,
                                        **scheduler_kv) for b in backends]
    router = None
    if w.replicas > 1:
        from repro.cluster import (DegradedModeConfig, ReplicaRouter,
                                   RetryPolicy)

        chaos = {}
        if w.faults:
            chaos = dict(faults=fault_script(w), retry=RetryPolicy(),
                         degraded=DegradedModeConfig())
        router = ReplicaRouter(engines, policy=ROUTER, **chaos)
    return Program(w, backends, engines, router)


def serve(program: Program, trace: list):
    """Serve the trace; returns the report.  This call is ``run_s``."""
    w = program.workload
    max_steps = max(1_000_000, 64 * w.n_requests)
    if program.router is not None:
        return program.router.run(lambda: iter(trace), telemetry="windows",
                                  max_steps=max_steps)
    return program.engines[0].run(iter(trace), max_steps=max_steps,
                                  telemetry="windows")

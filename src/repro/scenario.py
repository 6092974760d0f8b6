"""One serving scenario: a frozen spec that checks, builds and serves a run.

A :class:`Scenario` names everything that varies between serving runs;
what does not vary (degraded-mode thresholds, the migration cost model,
the detection delay, the prefix-affinity window) stays the library
default in :meth:`Scenario.build`.  Construction is the one fail-fast
check: a bad combination raises :class:`ConfigError` before a backend
is built.  ``serve-sim``, ``bench-serve --kv-compare``,
:func:`repro.cluster.scaling_sweep` and the serving benchmarks all
build their runs from it::

    from repro import LLAMA2_7B
    from repro.scenario import Scenario

    report = Scenario(model=LLAMA2_7B, requests=32, arrival_rate=0.5,
                      tp=2, replicas=2, router="prefix_affinity").serve()
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator

from .cluster.faults import (DegradedModeConfig, FailureDomain, FaultEvent,
                             FaultSchedule, RetryPolicy)
from .cluster.interconnect import TEN_GIG_ETHERNET, LinkSpec
from .cluster.migration import HedgePolicy
from .cluster.router import POLICIES, ReplicaRouter
from .config import KV260, TINY_MODEL, ModelConfig, PlatformConfig, QuantConfig
from .engine import (ContinuousBatchScheduler, EngineBackend, Request,
                     ServeReport, TenantSpec, build_backend,
                     iter_synthetic_trace, kv_discipline_kwargs)
from .engine.backends import KV_MODES
from .engine.telemetry import TELEMETRY_LEVELS
from .errors import ConfigError


@dataclass(frozen=True)
class Scenario:
    """Everything that varies between serving runs (defaults are
    ``serve-sim``'s; 0 means "derive" for the KV sizes)."""

    model: ModelConfig = TINY_MODEL
    quant: QuantConfig = QuantConfig()
    platform: PlatformConfig = KV260
    backend: str = "cycle"
    mode: str = "fused"
    max_batch: int = 8
    kv: str = "slotted"
    #: caps the scheduler (slotted) or sizes the block pool (paged)
    kv_budget: int = 0
    block_size: int = 16
    kv_blocks: int = 0
    tp: int = 1
    interconnect: LinkSpec = TEN_GIG_ETHERNET
    replicas: int = 1
    router: str = "round_robin"
    requests: int = 16
    arrival_rate: float = 1e6
    prompt_len: tuple[int, int] = (4, 16)
    decode_len: tuple[int, int] = (8, 32)
    seed: int = 0
    shared_prefix: int = 0
    tenant_mix: tuple[tuple[TenantSpec, float], ...] | None = None
    #: an explicit fault schedule, or one generated from the next four
    faults: FaultSchedule | None = None
    chaos: bool = False
    fault_seed: int = 0
    drain: bool = False
    domains: int = 0
    retry_budget: int = 3
    #: hedge delay in seconds (0 disables)
    hedge: float = 0.0
    telemetry: str = "full"

    def __post_init__(self) -> None:
        for name, choices in (("kv", KV_MODES), ("router", POLICIES),
                              ("telemetry", TELEMETRY_LEVELS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"choose from {choices}")
        if self.tp < 1 or self.replicas < 1:
            raise ConfigError("tp and replicas must be >= 1: "
                              f"{self.tp}, {self.replicas}")
        if self.kv_budget < 0 or self.kv_blocks < 0:
            raise ConfigError("kv_budget and kv_blocks must be >= 0 "
                              f"(0 = derive): {self.kv_budget}, "
                              f"{self.kv_blocks}")
        if self.kv_blocks and self.kv != "paged":
            raise ConfigError("kv_blocks sizes the paged block pool; "
                              f"{self.kv} KV would ignore it")
        generated = self.chaos or self.drain
        if self.faults is not None and generated:
            raise ConfigError("give an explicit fault schedule or "
                              "chaos/drain, not both")
        faulty = generated or self.faults is not None
        if faulty and self.replicas < 2:
            raise ConfigError(
                "faults need replicas >= 2: fault tolerance means "
                "surviving replicas pick up the killed or drained work")
        if self.domains and not self.chaos:
            raise ConfigError("domains correlates the generated fault "
                              "schedule; it needs chaos")
        if self.domains and not 2 <= self.domains <= self.replicas:
            raise ConfigError(f"domains must be between 2 and replicas "
                              f"({self.replicas}): {self.domains}")
        if self.hedge < 0:
            raise ConfigError(f"hedge must be >= 0: {self.hedge}")
        if self.hedge and not faulty:
            raise ConfigError("hedge rides the fault-tolerant path; "
                              "combine it with chaos, drain or faults")
        if self.backend == "functional" \
                and self.model.total_params() > 50_000_000:
            raise ConfigError(
                f"{self.model.name} is too large for the functional "
                "backend (numpy forward pass); use the cycle or "
                "analytical backend")
        self.trace()  # checks the trace parameters eagerly

    def trace(self) -> Iterator[Request]:
        """A fresh iterator over the seeded request trace (pure in the
        seed: every call yields the same requests)."""
        return iter_synthetic_trace(
            self.model, n_requests=self.requests,
            arrival_rate_rps=self.arrival_rate,
            prompt_len=self.prompt_len, decode_len=self.decode_len,
            seed=self.seed, shared_prefix_len=self.shared_prefix,
            tenant_mix=self.tenant_mix)

    def fault_schedule(self) -> FaultSchedule | None:
        """The explicit schedule, or the generated one: fault times
        scale with the arrival span so it lands while traffic is in
        flight at any rate, and ``domains`` splits the replicas into
        contiguous racks whose members fail together."""
        if not (self.chaos or self.drain):
            return self.faults
        span = self.requests / self.arrival_rate
        base, extra = divmod(self.replicas, self.domains or 1)
        topology = tuple(FailureDomain(f"rack{i}", tuple(range(
            i * base + min(i, extra), (i + 1) * base + min(i + 1, extra))))
            for i in range(self.domains))
        events: list[FaultEvent] = []
        if self.chaos:
            events = list(FaultSchedule.generate(
                self.replicas, horizon_s=span, seed=self.fault_seed,
                mean_gap_s=span / 2, downtime_s=(0.1 * span, 0.3 * span),
                hang_s=(0.05 * span, 0.15 * span),
                slow_s=(0.1 * span, 0.3 * span), warmup_s=0.05 * span,
                topology=topology or None).events)
        if self.drain:
            # An operator drains a node instead of letting it crash:
            # generated chaos on replica 0 yields to the drain.
            events = [e for e in events if e.replica != 0]
            events.append(FaultEvent("drain", 0, 0.3 * span, 0.2 * span))
        return FaultSchedule(events, topology=topology)

    def build(self) -> "Deployment":
        """Backends, then engines, then the router (replicas > 1)."""
        backend_kv, scheduler_kv = kv_discipline_kwargs(
            self.kv, budget_tokens=self.kv_budget or None,
            block_size=self.block_size, n_kv_blocks=self.kv_blocks or None)
        qweights = None
        if self.backend == "functional":
            from .model.weights import quantize_model, random_weights

            quant = replace(self.quant, weight_group_size=min(
                self.quant.weight_group_size, self.model.hidden_size))
            qweights = quantize_model(
                random_weights(self.model, seed=self.seed), quant)
        backends = [build_backend(self.backend, self.model, self.quant,
                                  self.platform, mode=self.mode,
                                  n_slots=self.max_batch, tp=self.tp,
                                  interconnect=self.interconnect,
                                  qweights=qweights, **backend_kv)
                    for _ in range(self.replicas)]
        engines = [ContinuousBatchScheduler(b, max_batch=self.max_batch,
                                            **scheduler_kv)
                   for b in backends]
        router = None
        if self.replicas > 1:
            faults = self.fault_schedule()
            resilience: dict = {}
            if faults is not None:
                resilience = dict(
                    faults=faults, retry=RetryPolicy(budget=self.retry_budget),
                    degraded=DegradedModeConfig(),
                    hedge=HedgePolicy(self.hedge) if self.hedge else None)
            router = ReplicaRouter(engines, policy=self.router, **resilience)
        return Deployment(self, backends, engines, router)

    def serve(self, trace: Iterable[Request] | None = None) -> ServeReport:
        """Serve ``trace`` (default: the scenario's) on a fresh build."""
        return self.build().serve(trace)

    def config(self) -> dict:
        """Every field, JSON-serializable (model and platform by name):
        the run store's record of how a run was launched."""
        out = asdict(self)
        out.update(model=self.model.name, platform=self.platform.name)
        if self.faults is not None:
            out["faults"] = {
                "events": [asdict(e) for e in self.faults.events],
                "topology": [asdict(d) for d in self.faults.topology]}
        return out


@dataclass
class Deployment:
    """One built serving stack: a backend and an engine per replica, and
    the router in front of them when there is more than one."""

    scenario: Scenario
    backends: list[EngineBackend]
    engines: list[ContinuousBatchScheduler]
    router: ReplicaRouter | None

    def serve(self, trace: Iterable[Request] | None = None,
              max_steps: int | None = None) -> ServeReport:
        """Replay ``trace`` (default: the scenario's) at the scenario's
        telemetry level.  The default trace streams at O(in-flight)
        memory, except into a full-telemetry cluster: that keeps
        O(trace) state anyway, so it gets a list instead of re-routing
        the generator once per replica.  ``max_steps`` (the engines'
        non-convergence guard) grows with the trace by default."""
        scenario = self.scenario
        steps = max_steps or max(1_000_000, 64 * scenario.requests)
        if self.router is None:
            return self.engines[0].run(
                scenario.trace() if trace is None else trace,
                max_steps=steps, telemetry=scenario.telemetry)
        if trace is None:
            trace = list(scenario.trace()) \
                if scenario.telemetry == "full" else scenario.trace
        return self.router.run(trace, telemetry=scenario.telemetry,
                               max_steps=steps)

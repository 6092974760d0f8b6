"""Inter-accelerator link model: collective cost for tensor parallelism.

The analogue of :mod:`repro.memory.traffic` for the wires *between*
boards: given a link (bandwidth, per-hop latency, topology), charge the
bytes and seconds of the collectives a tensor-parallel decode step
needs — one all-reduce after attention and one after the MLP in every
layer (the two row-parallel partial sums), plus one all-gather of the
vocabulary-sharded logits per sampled token.

Two topologies, both modelling the standard algorithms:

* ``ring`` — reduce-scatter + all-gather around a ring: ``2 (n-1)``
  steps of ``payload / n`` bytes per link.  Cheap boards with two
  transceivers; latency scales with ``n``.
* ``all_to_all`` — every pair directly linked: one reduce-scatter and
  one all-gather phase, each moving ``payload / n`` per link in
  parallel.  Latency is two hops regardless of ``n``.

Costs are returned in seconds and converted to PL cycles by the caller
(:class:`TPCommModel` takes the shard's clock), so the engine can add
interconnect time to per-shard compute cycles in one unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ModelConfig, QuantConfig
from ..errors import SimulationError

TOPOLOGIES = ("ring", "all_to_all")


@dataclass(frozen=True)
class LinkSpec:
    """One board-to-board link class."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float
    topology: str = "ring"

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise SimulationError(
                f"{self.name}: link bandwidth must be positive")
        if self.latency_s < 0:
            raise SimulationError(
                f"{self.name}: link latency must be >= 0")
        if self.topology not in TOPOLOGIES:
            raise SimulationError(
                f"{self.name}: unknown topology {self.topology!r}; "
                f"choose from {TOPOLOGIES}")


#: KV260-class boards talk over their PS Ethernet or PL transceivers.
GIG_ETHERNET = LinkSpec("1GbE", 125e6, 50e-6, "ring")
TEN_GIG_ETHERNET = LinkSpec("10GbE", 1.25e9, 10e-6, "ring")
#: 4-lane GTH Aurora-style board-to-board mesh (point-to-point).
AURORA_MESH = LinkSpec("Aurora-x4", 1.6e9, 1e-6, "all_to_all")

INTERCONNECT_PRESETS = {
    link.name: link
    for link in (GIG_ETHERNET, TEN_GIG_ETHERNET, AURORA_MESH)
}


@dataclass(frozen=True)
class CollectiveCost:
    """Time and wire traffic of one collective on one device."""

    payload_bytes: float   # logical vector size being reduced/gathered
    wire_bytes: float      # bytes this device actually sends
    time_s: float
    steps: int


def _check(n_devices: int, payload_bytes: float) -> None:
    if n_devices < 1:
        raise SimulationError(
            f"collective needs at least one device: {n_devices}")
    if payload_bytes < 0:
        raise SimulationError(
            f"collective payload must be >= 0: {payload_bytes}")


def all_reduce_cost(link: LinkSpec, n_devices: int,
                    payload_bytes: float) -> CollectiveCost:
    """Sum a ``payload_bytes`` vector across ``n_devices``."""
    _check(n_devices, payload_bytes)
    if n_devices == 1 or payload_bytes == 0:
        return CollectiveCost(payload_bytes, 0.0, 0.0, 0)
    chunk = payload_bytes / n_devices
    wire = 2 * (n_devices - 1) * chunk
    if link.topology == "ring":
        steps = 2 * (n_devices - 1)
        time = steps * (chunk / link.bandwidth_bytes_per_s + link.latency_s)
    else:  # all_to_all: reduce-scatter + all-gather, links in parallel
        steps = 2
        time = steps * (chunk / link.bandwidth_bytes_per_s + link.latency_s)
    return CollectiveCost(payload_bytes, wire, time, steps)


def all_gather_cost(link: LinkSpec, n_devices: int,
                    payload_bytes: float) -> CollectiveCost:
    """Gather a vector of total ``payload_bytes`` (``1/n`` per device)."""
    _check(n_devices, payload_bytes)
    if n_devices == 1 or payload_bytes == 0:
        return CollectiveCost(payload_bytes, 0.0, 0.0, 0)
    chunk = payload_bytes / n_devices
    wire = (n_devices - 1) * chunk
    if link.topology == "ring":
        steps = n_devices - 1
        time = steps * (chunk / link.bandwidth_bytes_per_s + link.latency_s)
    else:
        steps = 1
        time = chunk / link.bandwidth_bytes_per_s + link.latency_s
    return CollectiveCost(payload_bytes, wire, time, steps)


class TPCommModel:
    """Per-step collective accounting of one tensor-parallel group.

    Every forwarded token crosses the interconnect ``2 * num_layers``
    times (the attention-output and MLP-down all-reduces over the
    FP16 hidden vector) plus one logits all-gather per sampled token.
    A batched decode step reduces all members' vectors in one
    collective per layer, so latency amortizes across the batch exactly
    like the weight stream does across DRAM.
    """

    def __init__(self, model: ModelConfig, quant: QuantConfig,
                 link: LinkSpec, tp: int, freq_hz: float) -> None:
        if tp < 1:
            raise SimulationError(
                f"tensor-parallel degree must be >= 1: {tp}")
        if freq_hz <= 0:
            raise SimulationError(f"freq_hz must be positive: {freq_hz}")
        self.model = model
        self.quant = quant
        self.link = link
        self.tp = tp
        self.freq_hz = freq_hz
        self.hidden_bytes = model.hidden_size * quant.activation_bits / 8
        self.logits_bytes = model.vocab_size * quant.activation_bits / 8
        self._step_cycles: dict[int, float] = {}

    def decode_step_cost(self, batch: int) -> CollectiveCost:
        """Interconnect cost of one batched decode step."""
        if batch < 1:
            raise SimulationError(f"batch must be positive: {batch}")
        reduce = all_reduce_cost(self.link, self.tp,
                                 batch * self.hidden_bytes)
        gather = all_gather_cost(self.link, self.tp,
                                 batch * self.logits_bytes)
        n_reduces = 2 * self.model.num_layers
        return CollectiveCost(
            payload_bytes=n_reduces * reduce.payload_bytes
            + gather.payload_bytes,
            wire_bytes=n_reduces * reduce.wire_bytes + gather.wire_bytes,
            time_s=n_reduces * reduce.time_s + gather.time_s,
            steps=n_reduces * reduce.steps + gather.steps,
        )

    def decode_step_cycles(self, batch: int) -> float:
        """Memoized: a deterministic function of the batch size, queried
        once per segment by the multi-segment fast-forward path, so the
        collective model runs once per distinct batch."""
        cycles = self._step_cycles.get(batch)
        if cycles is None:
            cycles = self._step_cycles[batch] = \
                self.decode_step_cost(batch).time_s * self.freq_hz
        return cycles

    def prefill_cost(self, n_tokens: int) -> CollectiveCost:
        """Interconnect cost of prefilling ``n_tokens`` prompt positions.

        Each position pays the per-layer all-reduces; only the final
        position's logits (the first sample's input) are gathered.
        """
        if n_tokens < 0:
            raise SimulationError(
                f"prefill token count must be >= 0: {n_tokens}")
        if n_tokens == 0:
            return CollectiveCost(0.0, 0.0, 0.0, 0)
        reduce = all_reduce_cost(self.link, self.tp, self.hidden_bytes)
        gather = all_gather_cost(self.link, self.tp, self.logits_bytes)
        n_reduces = 2 * self.model.num_layers * n_tokens
        return CollectiveCost(
            payload_bytes=n_reduces * reduce.payload_bytes
            + gather.payload_bytes,
            wire_bytes=n_reduces * reduce.wire_bytes + gather.wire_bytes,
            time_s=n_reduces * reduce.time_s + gather.time_s,
            steps=n_reduces * reduce.steps + gather.steps,
        )

    def prefill_cycles(self, n_tokens: int) -> float:
        return self.prefill_cost(n_tokens).time_s * self.freq_hz

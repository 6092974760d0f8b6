"""Baseline data for Tables II and III.

Reported token/s figures are literature values cited by the paper (DFX,
FlightLLM, EdgeLLM, SECDA-LLM, LlamaF, llama.cpp, TinyChat, NanoLLM);
theoretical rates and utilizations are *recomputed* here from bandwidth
and weight bytes per token, which reproduces the tables' own arithmetic.

Weight-byte conventions follow the paper: LLaMA2-7B rows use the
non-embedding parameter count (~6.61e9) at the effective bit-width, while
TinyLlama/GPT-2/ChatGLM rows use the nominal total parameter count the
sources quote — matching every theoretical figure in the tables to the
digit the paper prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LLAMA2_7B
from ..errors import ConfigError


@dataclass(frozen=True)
class BaselineEntry:
    """One comparison row."""

    name: str
    device: str
    category: str             # "cloud-fpga" | "edge-fpga" | "cpu" | "gpu" | "ours"
    bandwidth_gbps: float     # decimal GB/s
    model_name: str
    weight_bytes_per_token: float
    reported_tokens_per_s: float
    framework: str = ""
    effective_weight_bits: float = 4.0
    reported_theoretical: float | None = None
    reported_utilization: float | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0 or self.weight_bytes_per_token <= 0:
            raise ConfigError(f"{self.name}: bandwidth/bytes must be positive")

    @property
    def theoretical_tokens_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9 / self.weight_bytes_per_token

    @property
    def utilization(self) -> float:
        return self.reported_tokens_per_s / self.theoretical_tokens_per_s


def _llama2_7b_bytes(bits: float = 4.0) -> float:
    """Paper convention for 7B rows: non-embedding params x bit-width."""
    return LLAMA2_7B.decode_stream_params() * bits / 8


# -- Table II: FPGA research --------------------------------------------------

TABLE_II_ENTRIES = (
    BaselineEntry(
        name="DFX", device="Alveo U280", category="cloud-fpga",
        bandwidth_gbps=460.0, model_name="GPT2-1.5B",
        weight_bytes_per_token=1.5e9 * 2,  # W16
        effective_weight_bits=16,
        reported_tokens_per_s=21.0, reported_theoretical=153.0,
        reported_utilization=0.137,
        notes="Single-FPGA 1.5B performance extrapolated by the paper "
              "from the reported 345M result.",
    ),
    BaselineEntry(
        name="FlightLLM", device="Alveo U280", category="cloud-fpga",
        bandwidth_gbps=460.0, model_name="LLaMA2-7B",
        # SparseGPT reaches ~3.5 effective bits, but the paper's note 5
        # counts it as 4-bit "in terms of capacity and bandwidth".
        weight_bytes_per_token=7.0e9 * 4 / 8,
        effective_weight_bits=4.0,
        reported_tokens_per_s=55.0, reported_theoretical=131.0,
        reported_utilization=0.42,
        notes="Paper lists both 42% (recomputed) and the 65.9% the "
              "FlightLLM authors claim.",
    ),
    BaselineEntry(
        name="EdgeLLM", device="Alveo U280", category="cloud-fpga",
        bandwidth_gbps=460.0, model_name="ChatGLM-6B",
        weight_bytes_per_token=6.0e9 * 4 / 8,
        reported_tokens_per_s=75.0, reported_theoretical=153.0,
        reported_utilization=0.49,
        notes="Paper lists both 49% (recomputed) and the 73.8% claimed.",
    ),
    BaselineEntry(
        name="SECDA-LLM", device="PYNQ-Z2", category="edge-fpga",
        bandwidth_gbps=2.1, model_name="TinyLlama-1.1B",
        weight_bytes_per_token=1.1e9 * 4 / 8,
        reported_tokens_per_s=0.58, reported_theoretical=3.8,
        reported_utilization=0.152,
    ),
    BaselineEntry(
        name="LlamaF", device="ZCU102", category="edge-fpga",
        bandwidth_gbps=21.3, model_name="TinyLlama-1.1B",
        weight_bytes_per_token=1.1e9 * 8 / 8,  # W8
        effective_weight_bits=8,
        reported_tokens_per_s=1.5, reported_theoretical=19.3,
        reported_utilization=0.077,
    ),
)

# -- Table III: embedded CPU / GPU ---------------------------------------------

TABLE_III_ENTRIES = (
    BaselineEntry(
        name="llama.cpp (Pi)", device="Pi-4B 8GB", category="cpu",
        bandwidth_gbps=12.8, model_name="LLaMA2-7B",
        weight_bytes_per_token=_llama2_7b_bytes(),
        framework="llama.cpp",
        reported_tokens_per_s=0.11, reported_theoretical=3.9,
        reported_utilization=0.028,
    ),
    BaselineEntry(
        name="llama.cpp (AGX Orin)", device="Jetson AGX Orin", category="gpu",
        bandwidth_gbps=204.8, model_name="LLaMA2-7B",
        weight_bytes_per_token=_llama2_7b_bytes(),
        framework="llama.cpp",
        reported_tokens_per_s=4.49, reported_theoretical=62.5,
        reported_utilization=0.072,
    ),
    BaselineEntry(
        name="TinyChat (AGX Orin)", device="Jetson AGX Orin", category="gpu",
        bandwidth_gbps=204.8, model_name="LLaMA2-7B",
        weight_bytes_per_token=_llama2_7b_bytes(),
        framework="TinyChat",
        reported_tokens_per_s=33.0, reported_theoretical=62.5,
        reported_utilization=0.528,
    ),
    BaselineEntry(
        name="NanoLLM (AGX Orin)", device="Jetson AGX Orin", category="gpu",
        bandwidth_gbps=204.8, model_name="LLaMA2-7B",
        weight_bytes_per_token=_llama2_7b_bytes(),
        framework="NanoLLM",
        reported_tokens_per_s=47.1, reported_theoretical=62.5,
        reported_utilization=0.754,
    ),
    BaselineEntry(
        name="NanoLLM (Orin Nano)", device="Jetson Orin Nano", category="gpu",
        bandwidth_gbps=68.0, model_name="LLaMA2-7B",
        weight_bytes_per_token=_llama2_7b_bytes(),
        framework="NanoLLM",
        reported_tokens_per_s=16.4, reported_theoretical=20.7,
        reported_utilization=0.792,
    ),
)

# -- Ours ------------------------------------------------------------------------

OUR_ENTRY = BaselineEntry(
    name="Ours", device="KV260", category="ours",
    bandwidth_gbps=19.2, model_name="LLaMA2-7B",
    weight_bytes_per_token=_llama2_7b_bytes(),
    framework="this work",
    reported_tokens_per_s=4.9, reported_theoretical=5.8,
    reported_utilization=0.845,
)

"""repro — reproduction of "Pushing up to the Limit of Memory Bandwidth and
Capacity Utilization for Efficient LLM Decoding on Embedded FPGA"
(Li et al., DATE 2025).

The package models the paper's KV260 LLM-decode accelerator end to end:

* quantization (AWQ-style W4A16 + KV8) — :mod:`repro.quant`
* the LLaMA-like model and a hardware-equivalent FP16 functional pipeline
  — :mod:`repro.model`, :mod:`repro.numerics`
* the bus-aligned data arrangement formats of Fig. 4 — :mod:`repro.packing`
* the DDR4/AXI memory system — :mod:`repro.memory`
* the accelerator itself: fused dataflow, cycle model, resources, power
  — :mod:`repro.core`
* the bare-metal runtime and end-to-end sessions — :mod:`repro.runtime`
* the execution engine: requests, backends, continuous batching
  — :mod:`repro.engine`
* every comparison row of Tables II/III — :mod:`repro.baselines`
* table/figure regeneration — :mod:`repro.report`

Quickstart::

    from repro import Accelerator, LLAMA2_7B, W4A16_KV8
    acc = Accelerator.analytical(LLAMA2_7B, W4A16_KV8)
    perf = acc.decode_perf(context=1023)
    print(perf.tokens_per_s, perf.utilization)
"""

from .config import (
    ALVEO_U280,
    CHATGLM_6B,
    GPT2_1_5B,
    KV260,
    LLAMA2_7B,
    MODEL_PRESETS,
    PLATFORM_PRESETS,
    SMALL_MODEL,
    TINY_MODEL,
    TINYLLAMA_1_1B,
    ModelConfig,
    PlatformConfig,
    QuantConfig,
    W4A16_KV8,
    W8A16_KV8,
    W16,
)
from .core.accelerator import Accelerator, DecodePerf
from .core.analytical import theoretical_tokens_per_s, utilization
from .core.cyclemodel import BatchCycles, CycleModel
from .engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    FunctionalBackend,
    Request,
    ServeReport,
    synthetic_trace,
)
from .core.resources import estimate_resources
from .core.power import estimate_power
from .errors import (
    CapacityError,
    ConfigError,
    LayoutError,
    QuantizationError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from .model.quantized import QuantizedModel
from .model.llama import ReferenceModel
from .model.sampler import Sampler
from .model.tokenizer import ByteTokenizer
from .model.weights import quantize_model, random_weights
from .packing.memimage import build_memory_image
from .runtime.baremetal import BareMetalSystem
from .runtime.session import ChatSession, InferenceSession

__version__ = "1.0.0"

__all__ = [
    "ALVEO_U280",
    "CHATGLM_6B",
    "GPT2_1_5B",
    "KV260",
    "LLAMA2_7B",
    "MODEL_PRESETS",
    "PLATFORM_PRESETS",
    "SMALL_MODEL",
    "TINY_MODEL",
    "TINYLLAMA_1_1B",
    "ModelConfig",
    "PlatformConfig",
    "QuantConfig",
    "W4A16_KV8",
    "W8A16_KV8",
    "W16",
    "Accelerator",
    "BatchCycles",
    "ContinuousBatchScheduler",
    "CycleModelBackend",
    "DecodePerf",
    "FunctionalBackend",
    "Request",
    "ServeReport",
    "synthetic_trace",
    "theoretical_tokens_per_s",
    "utilization",
    "CycleModel",
    "estimate_resources",
    "estimate_power",
    "CapacityError",
    "ConfigError",
    "LayoutError",
    "QuantizationError",
    "ReproError",
    "ScheduleError",
    "SimulationError",
    "QuantizedModel",
    "ReferenceModel",
    "Sampler",
    "ByteTokenizer",
    "quantize_model",
    "random_weights",
    "build_memory_image",
    "BareMetalSystem",
    "ChatSession",
    "InferenceSession",
]

"""The paper's contribution: the KV260 LLM decode accelerator model.

Functional units (Fig. 5):

* :mod:`repro.core.mcu` — Memory Control Unit: command generation, 4-way
  AXI split, stream demultiplexing.
* :mod:`repro.core.vpu` — Vector Processing Unit: the 128-lane FP16 DOT
  engine with dequantizer.
* :mod:`repro.core.spu` — Scalar Processing Unit: RoPE / RMSNorm /
  Softmax / SiLU / Quantization submodule latency + functional models.

System models:

* :mod:`repro.core.pipeline` — the fused head-wise attention dataflow
  (Fig. 3) and the coarse-grained baseline.
* :mod:`repro.core.scheduler` — the full per-token op schedule.
* :mod:`repro.core.cyclemodel` — per-token cycle counts, token/s, and
  bandwidth utilization.
* :mod:`repro.core.analytical` — bandwidth-bound theoretical ceilings.
* :mod:`repro.core.resources` — FPGA resource model (Table I).
* :mod:`repro.core.power` — power estimate (Sec. VII-B).
* :mod:`repro.core.accelerator` — ties the functional pipeline and the
  cycle model into one simulated device.
"""

from .accelerator import Accelerator, DecodePerf
from .analytical import (
    batched_decode_rate,
    theoretical_tokens_per_s,
    utilization,
)
from .commands import CommandGenerator, Descriptor
from .cyclemodel import CycleModel, TokenCycles
from .eventsim import BeatSimulator, EventQueue
from .explore import evaluate_design, pareto_frontier, sweep_design_space
from .pipeline import AttentionPipeline
from .prefill import compare_prefill_engines
from .resources import ResourceReport, estimate_resources
from .scheduler import build_token_schedule
from .stream import StreamingMatvec, WeightStreamReader

__all__ = [
    "Accelerator",
    "DecodePerf",
    "batched_decode_rate",
    "theoretical_tokens_per_s",
    "utilization",
    "CommandGenerator",
    "Descriptor",
    "CycleModel",
    "TokenCycles",
    "BeatSimulator",
    "EventQueue",
    "evaluate_design",
    "pareto_frontier",
    "sweep_design_space",
    "AttentionPipeline",
    "compare_prefill_engines",
    "ResourceReport",
    "estimate_resources",
    "build_token_schedule",
    "StreamingMatvec",
    "WeightStreamReader",
]

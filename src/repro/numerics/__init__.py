"""Hardware-style numerics: FP16 datapath emulation and SPU algorithms.

Every submodule provides a float64 *reference* implementation and a
*hardware* implementation that follows the exact algorithm of the paper's
SPU submodules (Sec. VI-C): per-operation FP16 rounding, ROM-based RoPE,
two-pass RMSNorm, three-pass numerically stable softmax, and the SiLU
pipeline.

The hardware kernels come in scalar form (the reference oracles) and in
batched form — matmul, all-head attention scores/values, row-stacked
softmax/RMSNorm — that is bit-identical per row because the tile/tree
rounding schedule depends only on the reduction length.
"""

from .fp16 import (
    FP16_MAX,
    FP16GridArray,
    as_fp16_grid,
    fp16,
    fp16_batched_scores,
    fp16_batched_weighted_values,
    fp16_dot,
    fp16_matmul,
    fp16_matmul_t,
    fp16_matvec,
    fp16_mul,
    fp16_round_f32,
    fp16_tiled_reduce,
    fp16_tree_combine,
    fp16_tree_sum,
)
from .lut import InvFreqRom, QuarterSineRom, RopeAngleGenerator
from .rmsnorm import (batched_two_pass_rmsnorm, reference_rmsnorm,
                      two_pass_rmsnorm)
from .rope import HardwareRope, reference_rope, rotate_half_pairs
from .silu import hardware_silu, reference_silu
from .softmax import (batched_three_pass_softmax, online_softmax,
                      reference_softmax, three_pass_softmax)

__all__ = [
    "FP16_MAX",
    "FP16GridArray",
    "as_fp16_grid",
    "fp16",
    "fp16_batched_scores",
    "fp16_batched_weighted_values",
    "fp16_dot",
    "fp16_matmul",
    "fp16_matmul_t",
    "fp16_matvec",
    "fp16_mul",
    "fp16_round_f32",
    "fp16_tiled_reduce",
    "fp16_tree_combine",
    "fp16_tree_sum",
    "InvFreqRom",
    "QuarterSineRom",
    "RopeAngleGenerator",
    "batched_two_pass_rmsnorm",
    "reference_rmsnorm",
    "two_pass_rmsnorm",
    "HardwareRope",
    "reference_rope",
    "rotate_half_pairs",
    "hardware_silu",
    "reference_silu",
    "batched_three_pass_softmax",
    "online_softmax",
    "reference_softmax",
    "three_pass_softmax",
]

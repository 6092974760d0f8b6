"""Bus-width-aligned data arrangement formats (paper Sec. V-B, Fig. 4).

* :mod:`repro.packing.busformat` — 512-bit bus-word primitives.
* :mod:`repro.packing.weight_layout` — the interleaved zero/scale/weight
  model-weight format (Fig. 4A), bit-exact encode/decode, plus the naive
  split layout used as the efficiency baseline.
* :mod:`repro.packing.kv_layout` — the KV scale-zero FIFO packing
  (Fig. 4B).
* :mod:`repro.packing.memimage` — whole-DDR memory image construction and
  capacity reporting (Fig. 1's 93.3%).
"""

from .busformat import BUS_BITS, BUS_BYTES, pad_to_beat
from .kv_layout import KVScaleZeroFifo, decode_pack_word, encode_pack
from .memimage import MemoryImage, build_memory_image
from .weight_layout import (
    WeightLayoutSpec,
    decode_weight_stream,
    encode_weight_stream,
    interleaved_read_transactions,
    naive_read_transactions,
)

__all__ = [
    "BUS_BITS",
    "BUS_BYTES",
    "pad_to_beat",
    "KVScaleZeroFifo",
    "decode_pack_word",
    "encode_pack",
    "MemoryImage",
    "build_memory_image",
    "WeightLayoutSpec",
    "decode_weight_stream",
    "encode_weight_stream",
    "interleaved_read_transactions",
    "naive_read_transactions",
]

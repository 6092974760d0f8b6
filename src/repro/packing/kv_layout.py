"""KV-cache scale-zero FIFO packing (paper Fig. 4B, Sec. V-B2).

Every freshly quantized key/value head vector produces one 32-bit
scale-zero pack (16-bit FP16 scale, 8-bit signed zero point, 8-bit pad).
Writing 4 bytes to DDR at a time would wreck bandwidth, so the hardware
keeps a FIFO with one element per (K/V, layer, head) stream; each element
is a 512-bit bus word accumulating the packs of 16 consecutive tokens.
Generation order is head-wise then layer-wise, so the FIFO is popped,
appended, and pushed back in strict round-robin — and once the 16th
token's packs start arriving, full words retire to DDR as whole-beat
writes.

:class:`KVScaleZeroFifo` reproduces the mechanism and reports both the
write transactions (for the DDR model) and the peak FIFO occupancy (for
the resource model).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import LayoutError
from ..quant.kv8 import KVQuantParams
from .busformat import BUS_BYTES

PACK_BYTES = 4


def encode_pack(params: KVQuantParams) -> bytes:
    """One 32-bit pack: FP16 scale | 8-bit zero magnitude | 8-bit pad.

    KV8 zero points live in ``[-255, 0]`` (the quantization range always
    includes zero), so the byte stores ``-zero``.
    """
    if not -255 <= params.zero <= 0:
        raise LayoutError(f"zero point {params.zero} outside [-255, 0]")
    scale_bits = np.float16(params.scale).tobytes()  # 2 bytes LE
    return scale_bits + struct.pack("<B", -params.zero) + b"\x00"


def decode_pack(data: bytes) -> KVQuantParams:
    """Inverse of :func:`encode_pack`."""
    if len(data) != PACK_BYTES:
        raise LayoutError(f"pack must be {PACK_BYTES} bytes, got {len(data)}")
    scale = np.frombuffer(data[:2], dtype=np.float16)[0]
    (neg_zero,) = struct.unpack("<B", data[2:3])
    return KVQuantParams(scale=scale, zero=-int(neg_zero))


def decode_pack_word(word: bytes, count: int | None = None,
                     ) -> list[KVQuantParams]:
    """Split one bus word into its (up to 16) scale-zero packs."""
    if len(word) % PACK_BYTES:
        raise LayoutError(f"word length {len(word)} not a multiple of 4")
    n = len(word) // PACK_BYTES if count is None else count
    return [decode_pack(word[i * PACK_BYTES : (i + 1) * PACK_BYTES])
            for i in range(n)]


@dataclass
class _FifoElement:
    stream_key: tuple  # (is_value, layer, head)
    packs: list[bytes] = field(default_factory=list)


class KVScaleZeroFifo:
    """Round-robin pack accumulator with whole-beat DDR writeback."""

    def __init__(self, num_layers: int, num_kv_heads: int,
                 bus_bytes: int = BUS_BYTES) -> None:
        if num_layers <= 0 or num_kv_heads <= 0:
            raise LayoutError("layers and heads must be positive")
        self.bus_bytes = bus_bytes
        self.packs_per_word = bus_bytes // PACK_BYTES
        self.num_layers = num_layers
        self.num_kv_heads = num_kv_heads
        # One element per (K/V, layer, head) stream, in generation order:
        # for each layer, for each head, first the key pack then the value
        # pack (quantization happens as K then V are produced, Fig. 3).
        self._elements: list[_FifoElement] = []
        for layer in range(num_layers):
            for head in range(num_kv_heads):
                self._elements.append(_FifoElement((False, layer, head)))
                self._elements.append(_FifoElement((True, layer, head)))
        self._cursor = 0
        self.flushed_words: list[tuple[tuple, bytes]] = []
        #: packs held across all elements, kept in step with every push,
        #: retirement and flush instead of re-summed per push
        self._buffered = 0
        self.peak_buffered_packs = 0

    @property
    def n_streams(self) -> int:
        return len(self._elements)

    def _expected_key(self) -> tuple:
        return self._elements[self._cursor].stream_key

    def push(self, layer: int, head: int, is_value: bool,
             params: KVQuantParams) -> bytes | None:
        """Insert one pack in generation order; returns a retired bus word
        when the target element was already full (the 17th token's pack
        evicts the word holding tokens 1-16)."""
        key = (is_value, layer, head)
        if key != self._expected_key():
            raise LayoutError(
                f"pack for stream {key} arrived out of order; expected "
                f"{self._expected_key()}"
            )
        element = self._elements[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._elements)

        retired: bytes | None = None
        if len(element.packs) == self.packs_per_word:
            word = b"".join(element.packs)
            self.flushed_words.append((element.stream_key, word))
            element.packs = []
            self._buffered -= self.packs_per_word
            retired = word
        element.packs.append(encode_pack(params))

        self._buffered += 1
        self.peak_buffered_packs = max(self.peak_buffered_packs,
                                       self._buffered)
        return retired

    def flush_all(self) -> list[tuple[tuple, bytes]]:
        """Drain every element at end of generation (padding to a beat)."""
        drained = []
        for element in self._elements:
            if element.packs:
                word = b"".join(element.packs)
                word += b"\x00" * (self.bus_bytes - len(word))
                drained.append((element.stream_key, word))
                element.packs = []
        self._buffered = 0
        self.flushed_words.extend(drained)
        return drained

    # -- reporting for the Fig. 4B benchmark --------------------------------

    def buffer_bytes(self) -> int:
        """On-chip buffer footprint: one bus word per stream."""
        return self.n_streams * self.bus_bytes

    @staticmethod
    def naive_write_count(num_layers: int, num_kv_heads: int,
                          n_tokens: int) -> int:
        """DDR writes without the FIFO: one 4-byte write per pack."""
        return 2 * num_layers * num_kv_heads * n_tokens

    def fifo_write_count(self) -> int:
        """DDR writes with the FIFO: whole bus words only."""
        return len(self.flushed_words)

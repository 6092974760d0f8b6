"""KV caches: float reference, the KV8 cache of the paper, and slots.

The quantized cache mirrors the hardware behaviour: each key/value head
vector is quantized with :func:`repro.quant.kv8.kv_quantize` the moment it
is generated (per head, per token), stored as 8-bit codes plus a scale-zero
pack, and dequantized to FP16 when fetched for the attention dot products.
The quantization is per head vector, so the batched model paths quantize
a whole layer's rows in one pass (:func:`store_kv_rows`) and hand each
cache its row through ``store`` — the write method every KV8 cache
(this module's and :class:`repro.kv.paged.PagedSequenceView`) provides.

:class:`SlottedKVCache` extends this to multiple concurrent sequences: a
fixed pool of per-sequence slots with explicit allocate/free, the storage
substrate of the batched-serving engine (:mod:`repro.engine`).  Each slot
exposes the exact :class:`QuantizedKVCache` interface, so the functional
pipeline works unchanged against a slot view.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..errors import SimulationError
from ..quant.kv8 import kv_dequantize_batch, kv_quantize_batch


class FloatKVCache:
    """Exact float64 KV cache for the reference model."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        shape = (config.num_layers, config.max_context,
                 config.kv_heads, config.head_dim)
        self._keys = np.zeros(shape, dtype=np.float64)
        self._values = np.zeros(shape, dtype=np.float64)
        self.length = 0

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray,
               position: int) -> None:
        """Store the (kv_heads, head_dim) K and V of one token at one layer."""
        if position >= self.config.max_context:
            raise SimulationError(
                f"position {position} exceeds context {self.config.max_context}"
            )
        self._keys[layer, position] = keys
        self._values[layer, position] = values
        if layer == self.config.num_layers - 1:
            self.length = max(self.length, position + 1)

    def keys(self, layer: int, length: int) -> np.ndarray:
        """Keys of the first ``length`` positions: (length, kv_heads, head_dim)."""
        return self._keys[layer, :length]

    def values(self, layer: int, length: int) -> np.ndarray:
        return self._values[layer, :length]


def store_kv_rows(caches, layer: int, keys: np.ndarray, values: np.ndarray,
                  positions) -> None:
    """KV8-quantize row ``i`` of ``keys``/``values`` (each ``(n, kv_heads,
    head_dim)``) into ``caches[i]`` at ``positions[i]``.

    One quantization pass covers every row and both K and V: each head
    vector's scale, zero point and codes depend on that vector alone, so
    the stacked pass is bit-identical to quantizing row by row.
    """
    codes, scales, zeros = kv_quantize_batch(
        np.stack((keys, values), axis=1), caches[0].kv_bits)
    for i, (cache, position) in enumerate(zip(caches, positions)):
        cache.store(layer, position, codes[i], scales[i], zeros[i])


def write_kv8(dst, layer: int, slot: int, codes: np.ndarray,
              scales: np.ndarray, zeros: np.ndarray) -> None:
    """Write one token's quantized K/V (``codes`` ``(2, kv_heads,
    head_dim)``: K then V, with their ``(2, kv_heads)`` scales and
    zeros) into ``dst``'s per-layer arrays at ``slot`` — the storage
    layout a :class:`QuantizedKVCache` and a paged block share."""
    dst.k_codes[layer, slot], dst.v_codes[layer, slot] = codes
    dst.k_scales[layer, slot], dst.v_scales[layer, slot] = scales
    dst.k_zeros[layer, slot], dst.v_zeros[layer, slot] = zeros
    dst.written[layer, slot] = True


class KV8Append:
    """The per-token write path of a KV8 cache: ``append`` quantizes one
    token's K/V head vectors (on-chip quant) and hands them to the
    cache's ``store``."""

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray,
               position: int) -> None:
        """Quantize and store one token's ``(kv_heads, head_dim)`` K/V."""
        store_kv_rows([self], layer, np.asarray(keys)[None],
                      np.asarray(values)[None], [position])


class QuantizedKVCache(KV8Append):
    """KV8 cache: uint8 codes + per-(token, head) scale-zero packs.

    Codes, scales, and zero points live in dense arrays so whole-history
    reads (:meth:`keys_batch` / :meth:`values_batch`) dequantize every
    head and position in one vectorized pass — the gather the batched
    attention kernels ride — while the per-head :meth:`keys` /
    :meth:`values` views stay available for the scalar reference path.
    """

    def __init__(self, config: ModelConfig, kv_bits: int = 8) -> None:
        self.config = config
        self.kv_bits = kv_bits
        shape = (config.num_layers, config.max_context,
                 config.kv_heads, config.head_dim)
        params = shape[:-1]
        self.k_codes = np.zeros(shape, dtype=np.uint8)
        self.v_codes = np.zeros(shape, dtype=np.uint8)
        self.k_scales = np.zeros(params, dtype=np.float16)
        self.v_scales = np.zeros(params, dtype=np.float16)
        self.k_zeros = np.zeros(params, dtype=np.int64)
        self.v_zeros = np.zeros(params, dtype=np.int64)
        self.written = np.zeros(params, dtype=bool)
        self.length = 0
        self._released = False

    def release(self) -> None:
        """Permanently revoke this cache: every later access raises.

        :class:`SlottedKVCache` releases a slot's cache on ``free`` so a
        stale view held across the free cannot silently read (or corrupt)
        the storage of whichever sequence claims the slot next.
        """
        self._released = True

    def _guard(self) -> None:
        if self._released:
            raise SimulationError(
                "KV cache used after its slot was freed")

    def store(self, layer: int, position: int, codes: np.ndarray,
              scales: np.ndarray, zeros: np.ndarray) -> None:
        """Store one token's KV8-quantized K/V (see :func:`write_kv8`)."""
        self._guard()
        if position >= self.config.max_context:
            raise SimulationError(
                f"position {position} exceeds context {self.config.max_context}"
            )
        write_kv8(self, layer, position, codes, scales, zeros)
        if layer == self.config.num_layers - 1:
            self.length = max(self.length, position + 1)

    def _check_written(self, layer: int, length: int,
                       head: int | None = None) -> None:
        self._guard()
        written = self.written[layer, :length]
        if head is not None:
            written = written[:, head]
        if not written.all():
            pos = int(np.argmin(written.reshape(length, -1).all(axis=1)))
            raise SimulationError(
                f"KV cache read of unwritten slot layer={layer} "
                f"pos={pos} head={head if head is not None else 0}"
            )

    def keys(self, layer: int, head: int, length: int) -> np.ndarray:
        """Dequantized FP16 keys: (length, head_dim) for one head."""
        self._check_written(layer, length, head)
        return kv_dequantize_batch(self.k_codes[layer, :length, head],
                                   self.k_scales[layer, :length, head],
                                   self.k_zeros[layer, :length, head])

    def values(self, layer: int, head: int, length: int) -> np.ndarray:
        self._check_written(layer, length, head)
        return kv_dequantize_batch(self.v_codes[layer, :length, head],
                                   self.v_scales[layer, :length, head],
                                   self.v_zeros[layer, :length, head])

    def keys_reference(self, layer: int, head: int,
                       length: int) -> np.ndarray:
        """The pre-vectorization gather: one scalar dequantization per
        position — kept as the oracle the batched gathers are pinned
        against."""
        from ..quant.kv8 import KVQuantParams, kv_dequantize

        self._check_written(layer, length, head)
        out = np.zeros((length, self.config.head_dim), dtype=np.float16)
        for pos in range(length):
            params = KVQuantParams(
                scale=self.k_scales[layer, pos, head],
                zero=int(self.k_zeros[layer, pos, head]))
            out[pos] = kv_dequantize(self.k_codes[layer, pos, head],
                                     params)
        return out

    def values_reference(self, layer: int, head: int,
                         length: int) -> np.ndarray:
        """Per-position scalar gather of values (see
        :meth:`keys_reference`)."""
        from ..quant.kv8 import KVQuantParams, kv_dequantize

        self._check_written(layer, length, head)
        out = np.zeros((length, self.config.head_dim), dtype=np.float16)
        for pos in range(length):
            params = KVQuantParams(
                scale=self.v_scales[layer, pos, head],
                zero=int(self.v_zeros[layer, pos, head]))
            out[pos] = kv_dequantize(self.v_codes[layer, pos, head],
                                     params)
        return out

    def keys_batch(self, layer: int, length: int,
                   dtype=np.float16) -> np.ndarray:
        """Dequantized FP16 keys of every head: (kv_heads, length, head_dim).

        Row ``h`` is bit-identical to ``keys(layer, h, length)`` — the
        dequantization is elementwise, so gathering all heads at once is
        pure layout.  ``dtype=np.float32`` keeps the FP16-grid values in
        float32 (the attention kernels' native representation).
        """
        self._check_written(layer, length)
        out = kv_dequantize_batch(self.k_codes[layer, :length],
                                  self.k_scales[layer, :length],
                                  self.k_zeros[layer, :length],
                                  dtype=dtype)
        return out.transpose(1, 0, 2)

    def values_batch(self, layer: int, length: int,
                     dtype=np.float16) -> np.ndarray:
        self._check_written(layer, length)
        out = kv_dequantize_batch(self.v_codes[layer, :length],
                                  self.v_scales[layer, :length],
                                  self.v_zeros[layer, :length],
                                  dtype=dtype)
        return out.transpose(1, 0, 2)

    def payload_bytes(self) -> int:
        """Stored code bytes for the current length (excludes packs)."""
        return (2 * self.config.num_layers * self.length
                * self.config.kv_dim * self.kv_bits // 8)

    def pack_bytes(self, pack_bits: int = 32) -> int:
        """Scale-zero pack bytes for the current length (Fig. 4B)."""
        return (2 * self.config.num_layers * self.length
                * self.config.kv_heads * pack_bits // 8)


class SlottedKVCache:
    """A pool of per-sequence KV8 caches with explicit allocate/free.

    This is the multi-sequence generalization the batched engine needs:
    ``n_slots`` independent sequences share one reservation, each slot
    holding up to ``max_context`` tokens.  :meth:`view` returns the slot's
    cache, which has the same interface as :class:`QuantizedKVCache` and
    can be handed directly to ``QuantizedModel.prefill/decode_step``.

    Freeing a slot *revokes* its cache object: any stale view held across
    the free raises :class:`SimulationError` instead of silently reading
    (or clobbering) whichever sequence claims the slot next.  The next
    allocation of the slot builds a fresh cache.
    """

    def __init__(self, config: ModelConfig, n_slots: int,
                 kv_bits: int = 8) -> None:
        if n_slots <= 0:
            raise SimulationError(
                f"slot pool needs at least one slot, got {n_slots}")
        self.config = config
        self.kv_bits = kv_bits
        self.n_slots = n_slots
        self._slots: list[QuantizedKVCache | None] = [None] * n_slots
        self._allocated: list[bool] = [False] * n_slots

    @property
    def n_allocated(self) -> int:
        return sum(self._allocated)

    @property
    def n_free(self) -> int:
        return self.n_slots - self.n_allocated

    def allocate(self) -> int:
        """Claim a free slot; raises :class:`SimulationError` when full.

        Each allocation builds a fresh cache — capacity-proportional,
        which is cheap for the tiny functional models this pool serves
        and what lets :meth:`free` revoke stale views outright.
        """
        for slot, used in enumerate(self._allocated):
            if not used:
                self._slots[slot] = QuantizedKVCache(self.config,
                                                     self.kv_bits)
                self._allocated[slot] = True
                return slot
        raise SimulationError(
            f"all {self.n_slots} KV slots are allocated")

    def free(self, slot: int) -> None:
        """Release a slot, revoking every outstanding view of it."""
        self._check(slot)
        cache = self._slots[slot]
        assert cache is not None
        cache.release()
        self._slots[slot] = None
        self._allocated[slot] = False

    def view(self, slot: int) -> QuantizedKVCache:
        """The slot's cache, usable wherever a QuantizedKVCache is."""
        self._check(slot)
        cache = self._slots[slot]
        assert cache is not None
        return cache

    def length(self, slot: int) -> int:
        return self.view(slot).length

    def total_tokens(self) -> int:
        """Cached tokens across all live slots (the capacity pressure)."""
        return sum(self._slots[s].length  # type: ignore[union-attr]
                   for s in range(self.n_slots) if self._allocated[s])

    def payload_bytes(self) -> int:
        """Stored KV code bytes across all live slots."""
        return (2 * self.config.num_layers * self.total_tokens()
                * self.config.kv_dim * self.kv_bits // 8)

    def _check(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise SimulationError(
                f"slot {slot} outside pool of {self.n_slots}")
        if not self._allocated[slot]:
            raise SimulationError(f"slot {slot} is not allocated")

"""KV scale-zero FIFO packing (Fig. 4B)."""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.packing.kv_layout import (
    KVScaleZeroFifo,
    decode_pack,
    decode_pack_word,
    encode_pack,
)
from repro.quant.kv8 import KVQuantParams, kv_quantize


def _pack(scale=0.5, zero=-3):
    return KVQuantParams(scale=np.float16(scale), zero=zero)


class TestPackEncoding:
    def test_pack_is_4_bytes(self):
        assert len(encode_pack(_pack())) == 4

    def test_roundtrip(self):
        p = _pack(0.123, -77)
        q = decode_pack(encode_pack(p))
        assert q.zero == -77
        assert float(q.scale) == float(np.float16(0.123))

    def test_real_quantization_pack_roundtrips(self, rng):
        _, p = kv_quantize(rng.standard_normal(64))
        q = decode_pack(encode_pack(p))
        assert q.zero == p.zero
        assert float(q.scale) == float(p.scale)

    def test_zero_out_of_range_rejected(self):
        with pytest.raises(LayoutError):
            encode_pack(_pack(zero=1))
        with pytest.raises(LayoutError):
            encode_pack(_pack(zero=-256))

    def test_pad_byte_is_zero(self):
        assert encode_pack(_pack())[3] == 0

    def test_decode_word(self):
        word = b"".join(encode_pack(_pack(zero=-i)) for i in range(16))
        packs = decode_pack_word(word)
        assert len(packs) == 16
        assert [p.zero for p in packs] == [-i for i in range(16)]

    def test_decode_bad_length(self):
        with pytest.raises(LayoutError):
            decode_pack(b"\x00" * 3)


class TestFifo:
    def _feed(self, fifo, layers, heads, tokens):
        for _ in range(tokens):
            for layer in range(layers):
                for head in range(heads):
                    for is_value in (False, True):
                        fifo.push(layer, head, is_value, _pack())

    def test_stream_count(self):
        fifo = KVScaleZeroFifo(4, 2)
        assert fifo.n_streams == 16

    def test_no_writes_before_16_tokens(self):
        fifo = KVScaleZeroFifo(2, 2)
        self._feed(fifo, 2, 2, 16)
        assert fifo.fifo_write_count() == 0

    def test_writes_start_at_token_17(self):
        fifo = KVScaleZeroFifo(2, 2)
        self._feed(fifo, 2, 2, 17)
        # Token 17's packs evict every stream's full word.
        assert fifo.fifo_write_count() == fifo.n_streams

    def test_flushed_words_are_bus_sized(self):
        fifo = KVScaleZeroFifo(2, 2)
        self._feed(fifo, 2, 2, 17)
        for _, word in fifo.flushed_words:
            assert len(word) == 64

    def test_out_of_order_push_rejected(self):
        fifo = KVScaleZeroFifo(2, 2)
        fifo.push(0, 0, False, _pack())
        with pytest.raises(LayoutError):
            fifo.push(1, 1, True, _pack())

    def test_flush_all_pads(self):
        fifo = KVScaleZeroFifo(1, 1)
        self._feed(fifo, 1, 1, 3)
        drained = fifo.flush_all()
        assert len(drained) == 2  # K stream and V stream
        assert all(len(word) == 64 for _, word in drained)

    def test_flushed_word_content_roundtrips(self):
        fifo = KVScaleZeroFifo(1, 1)
        for token in range(17):
            fifo.push(0, 0, False, _pack(zero=-(token % 16)))
            fifo.push(0, 0, True, _pack())
        key, word = fifo.flushed_words[0]
        assert key == (False, 0, 0)
        packs = decode_pack_word(word)
        assert [p.zero for p in packs] == [-(i % 16) for i in range(16)]

    def test_write_reduction_factor(self):
        # 16 packs per word -> 16x fewer (and 16x larger) writes.
        fifo = KVScaleZeroFifo(4, 4)
        self._feed(fifo, 4, 4, 32)
        naive = KVScaleZeroFifo.naive_write_count(4, 4, 32)
        fifo.flush_all()
        assert naive / fifo.fifo_write_count() == pytest.approx(16.0)

    def test_buffer_footprint(self):
        # Paper's design point: 32 layers x 32 heads x 2 = 2048 streams,
        # one bus word each = 128 KiB of on-chip buffer.
        fifo = KVScaleZeroFifo(32, 32)
        assert fifo.buffer_bytes() == 2048 * 64

    @pytest.mark.parametrize("flush_after", [None, 20])
    def test_peak_occupancy_bounded(self, flush_after):
        """The running peak equals a brute-force recount of every
        element after every push, also across a mid-stream flush."""
        fifo = KVScaleZeroFifo(2, 2)
        peak = 0
        for token in range(40):
            if token == flush_after:
                fifo.flush_all()
            for layer in range(2):
                for head in range(2):
                    for is_value in (False, True):
                        fifo.push(layer, head, is_value, _pack())
                        peak = max(peak, sum(len(e.packs)
                                             for e in fifo._elements))
        assert fifo.peak_buffered_packs == peak
        assert fifo.peak_buffered_packs <= fifo.n_streams * 16

    def test_rejects_bad_geometry(self):
        with pytest.raises(LayoutError):
            KVScaleZeroFifo(0, 4)

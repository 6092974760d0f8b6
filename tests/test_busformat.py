"""512-bit bus-word primitives."""

from repro.packing.busformat import BUS_BYTES, pad_to_beat


def test_bus_is_64_bytes():
    assert BUS_BYTES == 64


def test_pad_to_beat_idempotent():
    data = b"x" * 64
    assert pad_to_beat(data) == data


def test_pad_to_beat_follows_bus_width():
    assert pad_to_beat(b"") == b""
    assert pad_to_beat(b"x" * 65) == b"x" * 65 + b"\x00" * 63
    assert pad_to_beat(b"abc", bus_bytes=4) == b"abc\x00"


def test_pad_to_beat_pads_with_zeros():
    padded = pad_to_beat(b"abc")
    assert len(padded) == 64
    assert padded[:3] == b"abc"
    assert padded[3:] == b"\x00" * 61

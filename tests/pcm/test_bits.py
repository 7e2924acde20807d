"""Unit tests for bit-level helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm import bits_to_bytes, bytes_to_bits


def test_bit_order_is_little_endian_within_bytes():
    bits = bytes_to_bits(b"\x01" + bytes(63))
    assert bits[0] == 1
    assert np.count_nonzero(bits) == 1

    bits = bytes_to_bits(b"\x80" + bytes(63))
    assert bits[7] == 1


def test_byte_offset_maps_to_bit_offset():
    # Byte k occupies bits [8k, 8k+8): the property the byte-granular
    # compression window relies on.
    data = bytearray(64)
    data[5] = 0xFF
    bits = bytes_to_bits(bytes(data))
    assert np.count_nonzero(bits[40:48]) == 8
    assert np.count_nonzero(bits) == 8


def test_flip_mask_counts_differences():
    # The differential write's flip mask: cells where the lines differ.
    mask = bytes_to_bits(bytes(64)) != bytes_to_bits(b"\x03" + bytes(63))
    assert np.count_nonzero(mask) == 2
    assert mask[0] and mask[1]


def test_roundtrip_fixed():
    data = bytes(range(64))
    assert bits_to_bytes(bytes_to_bits(data)) == data


def test_bits_to_bytes_rejects_ragged_lengths():
    with pytest.raises(ValueError):
        bits_to_bytes(np.ones(13, dtype=np.uint8))


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=128))
def test_roundtrip_random(data):
    assert bits_to_bytes(bytes_to_bits(data)) == data


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=64, max_size=64), st.binary(min_size=64, max_size=64))
def test_flip_count_matches_xor_popcount(a, b):
    mask = bytes_to_bits(a) != bytes_to_bits(b)
    expected = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert int(np.count_nonzero(mask)) == expected

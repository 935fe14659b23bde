"""Varint/delta posting compression."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.compression import (
    compression_ratio,
    decode_postings,
    decode_varint,
    encode_postings,
    encode_varint,
)


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def test_varint_known_values():
    assert encode_varint(0) == b"\x00"
    assert encode_varint(127) == b"\x7f"
    assert encode_varint(128) == b"\x80\x01"
    assert encode_varint(300) == b"\xac\x02"


def test_varint_roundtrip_boundaries():
    for value in (0, 1, 127, 128, 16383, 16384, 2**31, 2**63):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        encode_varint(-1)


def test_varint_truncated():
    with pytest.raises(ValueError):
        decode_varint(b"\x80")  # continuation bit set, nothing follows


@given(st.integers(0, 2**40))
def test_varint_roundtrip_property(value):
    decoded, _ = decode_varint(encode_varint(value))
    assert decoded == value


# ----------------------------------------------------------------------
# posting lists
# ----------------------------------------------------------------------
def test_postings_roundtrip():
    ids = [0, 1, 5, 100, 10_000]
    assert decode_postings(encode_postings(ids)) == ids


def test_postings_reject_unsorted():
    with pytest.raises(ValueError):
        encode_postings([3, 2])
    with pytest.raises(ValueError):
        encode_postings([3, 3])


def test_postings_empty():
    assert decode_postings(encode_postings([])) == []


@given(st.sets(st.integers(0, 100_000), max_size=200))
def test_postings_roundtrip_property(id_set):
    ids = sorted(id_set)
    assert decode_postings(encode_postings(ids)) == ids


def test_dense_lists_compress_well():
    ids = list(range(1000))
    assert compression_ratio(ids) > 7.0  # 1 byte per gap vs 8 fixed


def test_compression_ratio_empty():
    assert compression_ratio([]) == 1.0


# ----------------------------------------------------------------------
# a posting's id list in the codec
# ----------------------------------------------------------------------
def test_compressed_posting_rejects_regression():
    with pytest.raises(ValueError):
        encode_postings([10, 5])


def test_compressed_posting_smaller_than_raw():
    ids = list(range(0, 5000, 3))
    data = encode_postings(ids)
    assert len(data) < len(ids) * 8
    assert decode_postings(data) == ids

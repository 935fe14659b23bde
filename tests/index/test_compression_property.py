"""Property tests for the varint/d-gap posting codec.

The binary index persists every posting through
``encode_postings``/``decode_postings``; these Hypothesis suites pin
the codec contract the format depends on: exact round trip for every
strictly increasing id sequence (including empty and single-element),
ids up to well past the 2^28 dense-id scale of paper-sized corpora,
and a hard error — never silent corruption — on non-increasing input.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.compression import (
    decode_postings,
    decode_varint,
    encode_postings,
    encode_varint,
)

#: Dense ids at paper scale fit comfortably in 2^28; test past it.
MAX_ID = 2**28

increasing_ids = st.lists(
    st.integers(min_value=0, max_value=MAX_ID), unique=True, max_size=200
).map(sorted)


@given(increasing_ids)
def test_postings_round_trip(ids):
    assert decode_postings(encode_postings(ids)) == ids


@given(st.integers(min_value=0, max_value=MAX_ID))
def test_single_element_round_trip(doc_id):
    assert decode_postings(encode_postings([doc_id])) == [doc_id]


def test_empty_round_trip():
    assert encode_postings([]) == b""
    assert decode_postings(b"") == []


@given(increasing_ids)
def test_encoding_is_deterministic(ids):
    assert encode_postings(ids) == encode_postings(ids)


@given(st.lists(st.integers(min_value=0, max_value=MAX_ID), min_size=2, unique=True))
def test_non_increasing_raises(ids):
    """Any ordering other than strictly-increasing must be rejected —
    the binary writer relies on this as its canonicalization check."""
    descending = sorted(ids, reverse=True)
    with pytest.raises(ValueError):
        encode_postings(descending)


@given(st.lists(st.integers(min_value=0, max_value=MAX_ID), min_size=1))
def test_duplicate_ids_raise(ids):
    with pytest.raises(ValueError):
        encode_postings(sorted(ids) + [max(ids)])


@given(increasing_ids)
def test_gap_encoding_is_dense(ids):
    """Consecutive ids cost exactly one byte each — the size win the
    bench artifact's raw-vs-varint comparison measures."""
    consecutive = list(range(len(ids)))
    assert len(encode_postings(consecutive)) == len(consecutive)


@given(st.integers(min_value=0, max_value=2**63))
def test_varint_round_trip_wide(value):
    data = encode_varint(value)
    decoded, consumed = decode_varint(data)
    assert decoded == value
    assert consumed == len(data)


@given(st.binary(max_size=32), st.integers(min_value=0, max_value=2**40))
def test_varint_decode_ignores_trailing_bytes(suffix, value):
    data = encode_varint(value)
    decoded, consumed = decode_varint(data + suffix)
    assert decoded == value
    assert consumed == len(data)

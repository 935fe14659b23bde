"""Compressed posting storage: delta + varint encoding.

At the paper's scale (236K objects, millions of cliques) raw posting
lists dominate index memory.  This module provides the classic
inverted-index remedy: store each posting as gap-encoded,
variable-byte-encoded integer doc ids — the form the binary index's
``postings`` section stores, over dense ids (ranks in the sorted
object-id table).

Varint layout: little-endian base-128, high bit = continuation — the
same scheme classic IR systems and protocol buffers use.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


def encode_varint(value: int) -> bytes:
    """Encode one non-negative integer."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.  Raises ``ValueError`` on a
    truncated sequence.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_postings(doc_ids: Sequence[int]) -> bytes:
    """Gap + varint encode a strictly increasing id sequence."""
    out = bytearray()
    previous = -1
    for doc_id in doc_ids:
        if doc_id <= previous:
            raise ValueError("doc ids must be strictly increasing")
        out.extend(encode_varint(doc_id - previous - 1))
        previous = doc_id
    return bytes(out)


def decode_postings(data: bytes) -> list[int]:
    """Inverse of :func:`encode_postings`."""
    ids: list[int] = []
    offset = 0
    previous = -1
    while offset < len(data):
        gap, offset = decode_varint(data, offset)
        previous = previous + gap + 1
        ids.append(previous)
    return ids


def decode_posting_spans(data: bytes, counts: np.ndarray) -> np.ndarray:
    """Batch-decode the concatenated streams of consecutive postings.

    ``data`` holds the byte-contiguous gap+varint streams of
    ``len(counts)`` postings with ``counts[i]`` entries each (the exact
    layout :func:`encode_postings` writes back to back, which is how
    the ``postings`` section stores slot-ordered postings).  Returns
    one int64 array of all decoded ids, with the gap accumulator reset
    at each posting boundary — element-for-element equal to
    ``decode_postings`` run per stream, but vectorized over the whole
    span (the streaming segment merge decodes entire key ranges at
    once; a per-posting Python loop would dominate the merge).
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_values = int(counts.sum())
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0:
        if n_values:
            raise ValueError("truncated varint span (no bytes for entries)")
        return np.zeros(0, dtype=np.int64)
    terminal = (raw & 0x80) == 0
    if int(terminal.sum()) != n_values:
        raise ValueError(
            f"varint span decodes to {int(terminal.sum())} values, "
            f"posting counts promise {n_values}"
        )
    if not terminal[-1]:
        raise ValueError("truncated varint at end of span")
    term_idx = np.nonzero(terminal)[0]
    starts = np.empty(n_values, dtype=np.int64)
    starts[0] = 0
    starts[1:] = term_idx[:-1] + 1
    lengths = term_idx - starts + 1
    if int(lengths.max()) > 9:
        raise ValueError("varint longer than 9 bytes")
    byte_pos = np.arange(raw.size, dtype=np.int64) - np.repeat(starts, lengths)
    contrib = (raw & 0x7F).astype(np.int64) << (7 * byte_pos)
    gaps = np.add.reduceat(contrib, starts)
    running = np.cumsum(gaps + 1)
    entry_start = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=entry_start[1:])
    bases = np.concatenate(([0], running))[entry_start[:-1]]
    return running - 1 - np.repeat(bases, counts)


def encode_posting_spans(
    ids: np.ndarray, posting_starts: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Batch gap+varint encode consecutive postings.

    ``ids`` concatenates the strictly-increasing id runs of several
    postings; ``posting_starts`` marks each posting's first entry.
    Returns ``(stream bytes, per-entry encoded byte counts)`` —
    byte-identical to :func:`encode_postings` run per posting and
    concatenated.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    gaps = ids.copy()
    gaps[1:] -= ids[:-1] + 1
    gaps[posting_starts] = ids[posting_starts]
    if bool(np.any(gaps < 0)):
        raise ValueError("doc ids must be strictly increasing within each posting")
    nbytes = np.ones(ids.size, dtype=np.int64)
    threshold = 1 << 7
    while True:
        over = gaps >= threshold
        if not bool(over.any()):
            break
        nbytes[over] += 1
        threshold <<= 7
    out_offsets = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=out_offsets[1:])
    out = np.zeros(int(out_offsets[-1]), dtype=np.uint8)
    for byte_index in range(int(nbytes.max())):
        emit = nbytes > byte_index
        target = out_offsets[:-1][emit] + byte_index
        continuation = (nbytes[emit] > byte_index + 1).astype(np.uint8) << 7
        out[target] = ((gaps[emit] >> (7 * byte_index)) & 0x7F).astype(
            np.uint8
        ) | continuation
    return out.tobytes(), nbytes


def compression_ratio(doc_ids: Iterable[int], reference_bytes_per_id: int = 8) -> float:
    """How much smaller the varint form is than fixed-width ids."""
    ids = list(doc_ids)
    if not ids:
        return 1.0
    compressed = len(encode_postings(ids))
    assert compressed > 0, "varint encoding emits at least one byte per id"
    return (len(ids) * reference_bytes_per_id) / compressed

"""The vectorized slot encoder writes the bytes the per-entry writer did.

``write_index_file`` and ``encode_image`` encode every posting in
whole-array passes through :func:`repro.index.binfmt.encode_slot_run`,
the encoder the segment merge shares.  :func:`_reference_bytes` below
is the per-entry writer that produced format v4 before it — a Python
loop over each posting's entries, one ``struct`` record per slot —
transcribed whole (layout included) so the property compares against
code the encoder does not share.  Random postings (empty and
single-entry ones, unicode keys and ids, entries added out of id
order) and both tiny corpora must encode to the same bytes, as a file
and as an image.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retrieval import RetrievalEngine, correlation_model_for_corpus
from repro.index.binfmt import BinaryFormatError, encode_image, write_index_file
from repro.index.compression import encode_postings
from repro.index.inverted import CliqueInvertedIndex
from repro.index.postings import Posting
from repro.storage.store import save_index


def _string_table(strings: list[str]) -> bytes:
    blob = bytearray()
    offsets = [0]
    for s in strings:
        blob.extend(s.encode("utf-8"))
        offsets.append(len(blob))
    return (
        struct.pack("<I", len(strings))
        + np.asarray(offsets, dtype="<u4").tobytes()
        + bytes(blob)
    )


def _reference_bytes(postings: list[Posting], n_objects: int, max_clique_size: int) -> bytes:
    """The per-entry format v4 writer."""
    keys = [p.key for p in postings]
    object_ids = sorted({oid for posting in postings for oid in posting.object_ids})
    rank = {oid: i for i, oid in enumerate(object_ids)}
    slot_order = sorted(range(len(postings)), key=lambda i: keys[i])
    postmeta = bytearray()
    streams = bytearray()
    freq_parts = bytearray()
    smooth_parts = bytearray()
    total_entries = 0
    for posting_index in slot_order:
        posting = postings[posting_index]
        entries = []
        for i, oid in enumerate(posting.object_ids):
            f, s = posting.components(i)
            entries.append((rank[oid], f, s))
        entries.sort(key=lambda e: e[0])
        stream = encode_postings([e[0] for e in entries])
        postmeta.extend(
            struct.pack(
                "<QIIQd", len(streams), len(stream), len(entries), total_entries,
                float(posting.cors),
            )
        )
        streams.extend(stream)
        freq_parts.extend(np.asarray([e[1] for e in entries], dtype="<f8").tobytes())
        smooth_parts.extend(np.asarray([e[2] for e in entries], dtype="<f8").tobytes())
        total_entries += len(entries)
    sections = [
        ("objids", _string_table(object_ids)),
        ("keys", _string_table([keys[i] for i in slot_order])),
        ("postmeta", bytes(postmeta)),
        ("postings", bytes(streams)),
        ("freq", bytes(freq_parts)),
        ("smooth", bytes(smooth_parts)),
    ]

    payload_start = 48 + 4 + len(sections) * 32 + 4
    offset = payload_start + (-payload_start) % 8
    table = bytearray()
    for name, payload in sections:
        table.extend(
            struct.pack("<8sQQI4x", name.encode("ascii"), offset, len(payload),
                        zlib.crc32(payload))
        )
        offset += len(payload) + (-len(payload)) % 8
    header = struct.pack(
        "<8sIIIIQQQ", b"RPROIDX4", 4, 0, max_clique_size, len(sections),
        n_objects, len(postings), total_entries,
    )
    out = bytearray(header)
    out.extend(struct.pack("<I", zlib.crc32(header)))
    out.extend(table)
    out.extend(struct.pack("<I", zlib.crc32(bytes(table))))
    out.extend(b"\x00" * ((-payload_start) % 8))
    for _, payload in sections:
        out.extend(payload)
        out.extend(b"\x00" * ((-len(payload)) % 8))
    return bytes(out)


def _encoded(postings: list[Posting], n_objects: int, max_clique_size: int, tmp_path):
    """What the shared encoder writes: the file's and the image's bytes."""
    path = write_index_file(
        tmp_path / "index.bin", postings, n_objects=n_objects,
        max_clique_size=max_clique_size,
    )
    with encode_image(
        postings, n_objects=n_objects, max_clique_size=max_clique_size
    ) as reader:
        image = reader._mm[:]
    return path.read_bytes(), image


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
COMPONENT = st.floats(allow_nan=False, allow_infinity=False, width=64)

postings_strategy = st.dictionaries(
    TEXT,
    st.tuples(
        COMPONENT,
        st.dictionaries(TEXT, st.tuples(COMPONENT, COMPONENT), max_size=6),
    ),
    max_size=8,
)


@settings(deadline=None, max_examples=200)
@given(raw=postings_strategy, n_objects=st.integers(0, 2**40), max_clique=st.integers(1, 5))
def test_encoder_matches_per_entry_writer(raw, n_objects, max_clique, tmp_path_factory):
    postings = []
    for key, (cors, entries) in raw.items():
        posting = Posting(key, cors=cors)
        for oid, (freq, smooth) in entries.items():  # insertion, not id, order
            posting.add(oid, freq, smooth)
        postings.append(posting)
    expected = _reference_bytes(postings, n_objects, max_clique)
    file_bytes, image = _encoded(postings, n_objects, max_clique, tmp_path_factory.mktemp("enc"))
    assert file_bytes == expected
    assert image == expected


@pytest.mark.parametrize("name", ["tiny_corpus", "rec_corpus"])
def test_encoder_matches_per_entry_writer_on_tiny_corpora(name, request, tmp_path):
    """Also: the image an engine serves for a builder it adopts is
    ``save_index`` of that builder."""
    corpus = request.getfixturevalue(name)
    model = correlation_model_for_corpus(corpus)
    index = CliqueInvertedIndex(model, max_clique_size=3).build(corpus)
    postings = list(index.iter_postings())
    assert any(len(p) == 1 for p in postings) and any(len(p) > 1 for p in postings)
    expected = _reference_bytes(postings, index.n_objects, 3)
    assert _encoded(postings, index.n_objects, 3, tmp_path) == (expected, expected)
    served = RetrievalEngine(corpus, correlations=model, index=index).index.main.reader
    assert served._mm[:] == save_index(index, tmp_path / "saved.bin").read_bytes()


def test_duplicate_key_raises(tmp_path):
    postings = [Posting("tag:a", cors=1.0), Posting("tag:a", cors=0.5)]
    with pytest.raises(BinaryFormatError, match="duplicate posting keys"):
        write_index_file(tmp_path / "index.bin", postings, n_objects=0, max_clique_size=2)
    with pytest.raises(BinaryFormatError, match="duplicate posting keys"):
        encode_image(postings, n_objects=0, max_clique_size=2)


def test_repeated_id_inside_a_posting_raises(tmp_path, contracts_off):
    posting = Posting.from_arrays("tag:a", 1.0, ["o1", "o1"], [0.5, 0.5], [0.1, 0.1])
    with pytest.raises(BinaryFormatError, match="repeats inside a posting"):
        write_index_file(tmp_path / "index.bin", [posting], n_objects=1, max_clique_size=2)

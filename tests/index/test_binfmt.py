"""Binary index format: layout, round trip, corruption detection.

Satellite coverage for the binary store: every corruption mode must
raise :class:`BinaryFormatError` naming the failing section (and byte
offset where known) — truncation, bit flips in each section, bad
magic/version/flags, CRC mismatches — and a write/read round trip must
be exact, including key-ordered slots and unicode keys.
"""

from __future__ import annotations

import math
import struct
import zlib

import pytest

from repro.index.binfmt import (
    BINARY_FORMAT_VERSION,
    MAGIC,
    SECTION_NAMES,
    BinaryFormatError,
    BinaryIndexReader,
    read_section_table,
    write_index_file,
)
from repro.index.postings import Posting


def _sample_postings() -> list[Posting]:
    """Three postings exercising the interesting cases: unicode key,
    empty posting, out-of-order entry adds."""
    a = Posting("tag:ünïcode|tag:zebra", cors=0.75)
    a.add("obj009", 0.5, 0.25)
    a.add("obj001", 0.125, 0.0625)  # out of id order: writer canonicalizes
    a.add("obj005", 1.0, 2.0)
    b = Posting("tag:alpha", cors=1.0)
    b.add("obj001", 3.0, 4.0)
    empty = Posting("tag:empty", cors=0.0)
    return [a, b, empty]


def _read(reader, slot):
    """Slot ``slot`` as ``(object_ids, freq, smooth, cors)`` lists."""
    ids = [reader.object_id_at(dense) for dense in reader.posting_dense_ids(slot).tolist()]
    freq, smooth = reader.posting_components(slot)
    return ids, freq.tolist(), smooth.tolist(), reader.posting_cors(slot)


@pytest.fixture()
def artifact(tmp_path):
    return write_index_file(
        tmp_path / "index.bin", _sample_postings(), n_objects=12, max_clique_size=2
    )


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
def test_header_fields_round_trip(artifact):
    with BinaryIndexReader(artifact) as reader:
        assert reader.version == BINARY_FORMAT_VERSION
        assert reader.n_objects == 12
        assert reader.max_clique_size == 2
        assert reader.n_cliques == 3
        assert reader.total_entries == 4
        assert reader.object_count == 3  # distinct ids actually posted


def test_postings_round_trip_canonicalized(artifact):
    with BinaryIndexReader(artifact) as reader:
        slot = reader.find_slot("tag:ünïcode|tag:zebra")
        assert slot is not None
        ids, freq, smooth, cors = _read(reader, slot)
        # entries come back ascending by id, components permuted in parallel
        assert ids == ["obj001", "obj005", "obj009"]
        assert freq == [0.125, 1.0, 0.5]
        assert smooth == [0.0625, 2.0, 0.25]
        assert cors == 0.75


def test_empty_posting_round_trips(artifact):
    with BinaryIndexReader(artifact) as reader:
        slot = reader.find_slot("tag:empty")
        assert reader.posting_lengths()[slot] == 0
        ids, freq, smooth, cors = _read(reader, slot)
        assert ids == [] and freq == [] and smooth == []
        assert cors == 0.0


def test_find_slot_miss(artifact):
    with BinaryIndexReader(artifact) as reader:
        assert reader.find_slot("tag:absent") is None
        assert reader.find_slot("") is None
        assert reader.find_slot("tag:zzzz") is None  # past the last key


def test_empty_index_round_trips(tmp_path):
    path = write_index_file(tmp_path / "empty.bin", [], n_objects=0, max_clique_size=3)
    with BinaryIndexReader(path) as reader:
        assert reader.n_cliques == 0
        assert reader.total_entries == 0
        assert reader.find_slot("anything") is None


def test_writer_rejects_duplicate_keys(tmp_path):
    postings = [Posting("tag:a", cors=1.0), Posting("tag:a", cors=1.0)]
    with pytest.raises(BinaryFormatError, match="duplicate"):
        write_index_file(tmp_path / "dup.bin", postings, n_objects=1, max_clique_size=2)


def test_writer_is_atomic(artifact):
    assert not artifact.with_name(artifact.name + ".tmp").exists()


def test_header_layout_matches_documented_offsets(artifact):
    """Six section records after the 52-byte header, ``table_crc`` at
    244 and the first payload at 248 (DESIGN.md §8)."""
    data = artifact.read_bytes()
    assert struct.unpack_from("<I", data, 20) == (len(SECTION_NAMES),) == (6,)
    assert struct.unpack_from("<I", data, 244) == (zlib.crc32(data[52:244]),)
    table = read_section_table(artifact)
    assert list(table) == list(SECTION_NAMES)
    assert table["objids"][0] == 248


def test_slots_are_key_ordered_whatever_the_input_order(tmp_path, artifact):
    """The file is a pure function of the postings' contents: slots
    follow key order, so reversing the input changes no byte."""
    reversed_path = write_index_file(
        tmp_path / "reversed.bin",
        _sample_postings()[::-1],
        n_objects=12,
        max_clique_size=2,
    )
    assert reversed_path.read_bytes() == artifact.read_bytes()
    with BinaryIndexReader(artifact) as reader:
        keys = [reader.key_at(slot) for slot in range(reader.n_cliques)]
    assert keys == sorted(p.key for p in _sample_postings())


# ----------------------------------------------------------------------
# corruption: header and section table
# ----------------------------------------------------------------------
def test_bad_magic(artifact):
    _flip_byte(artifact, 0)
    with pytest.raises(BinaryFormatError, match="magic") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "header"


def test_unsupported_version(artifact):
    data = bytearray(artifact.read_bytes())
    struct.pack_into("<I", data, 8, 99)
    # re-seal the header CRC so the version check (not the CRC) fires
    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    artifact.write_bytes(bytes(data))
    with pytest.raises(BinaryFormatError, match="version 99"):
        BinaryIndexReader(artifact)


def test_nonzero_flags(artifact):
    data = bytearray(artifact.read_bytes())
    struct.pack_into("<I", data, 12, 0x4)
    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    artifact.write_bytes(bytes(data))
    with pytest.raises(BinaryFormatError, match="flags"):
        BinaryIndexReader(artifact)


def test_header_crc_detects_flip(artifact):
    _flip_byte(artifact, 16)  # max_clique_size field
    with pytest.raises(BinaryFormatError, match="header CRC") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "header"


def test_section_table_crc_detects_flip(artifact):
    _flip_byte(artifact, 52 + 3)  # inside the first section record
    with pytest.raises(BinaryFormatError, match="section table CRC") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "section-table"


def test_truncated_to_nothing(artifact):
    artifact.write_bytes(artifact.read_bytes()[:20])
    with pytest.raises(BinaryFormatError, match="too small") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "header"


def test_truncated_inside_table(artifact):
    artifact.write_bytes(artifact.read_bytes()[:60])
    with pytest.raises(BinaryFormatError, match="truncated"):
        BinaryIndexReader(artifact)


def test_truncated_payload_names_section(artifact):
    """Cutting the file short makes some section extend past EOF; the
    error says which one and suggests truncation."""
    full = artifact.read_bytes()
    artifact.write_bytes(full[: len(full) - 16])
    with pytest.raises(BinaryFormatError, match="truncated artifact") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section in SECTION_NAMES


# ----------------------------------------------------------------------
# corruption: per-section bit flips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("section", SECTION_NAMES)
def test_bit_flip_in_each_section_is_named(tmp_path, section):
    path = write_index_file(
        tmp_path / "index.bin", _sample_postings(), n_objects=12, max_clique_size=2
    )
    offset, length = read_section_table(path)[section]
    assert length > 0, f"sample index leaves section {section!r} empty"
    _flip_byte(path, offset + length // 2)
    with pytest.raises(BinaryFormatError) as exc_info:
        BinaryIndexReader(path)
    # CRC localizes the flip to the exact section, and the offset in the
    # message points at it
    assert exc_info.value.section == section
    assert exc_info.value.offset == offset
    assert f"section={section!r}" in str(exc_info.value)
    assert f"offset={offset}" in str(exc_info.value)


def test_payload_flip_skips_lazy_check_but_verify_catches(tmp_path):
    """``verify_payload=False`` defers payload CRCs — the open succeeds,
    the explicit :meth:`verify` sweep still reports the bad section."""
    path = write_index_file(
        tmp_path / "index.bin", _sample_postings(), n_objects=12, max_clique_size=2
    )
    offset, length = read_section_table(path)["freq"]
    _flip_byte(path, offset + 1)
    with pytest.raises(BinaryFormatError):
        BinaryIndexReader(path)  # default verifies payloads eagerly
    with BinaryIndexReader(path, verify_payload=False) as reader:
        with pytest.raises(BinaryFormatError) as exc_info:
            reader.verify()
        assert exc_info.value.section == "freq"


def test_undecodable_posting_stream(tmp_path):
    """A postings-section flip that survives to decode time (payload
    verification off) is caught structurally: stream length mismatch,
    truncated varint, or an id outside the object table."""
    path = write_index_file(
        tmp_path / "index.bin", _sample_postings(), n_objects=12, max_clique_size=2
    )
    offset, _length = read_section_table(path)["postings"]
    data = bytearray(path.read_bytes())
    data[offset] = 0x80  # continuation bit with nothing sane after
    path.write_bytes(bytes(data))
    with BinaryIndexReader(path, verify_payload=False) as reader:
        with pytest.raises(BinaryFormatError) as exc_info:
            for slot in range(reader.n_cliques):
                reader.posting_dense_ids(slot)
        assert exc_info.value.section == "postings"


def test_nan_cors_is_postmeta_corruption(artifact):
    """Every writer stores a real CorS, so a NaN one (CRC re-sealed, so
    only the value check can fire) is rejected at open."""
    offset, length = read_section_table(artifact)["postmeta"]
    data = bytearray(artifact.read_bytes())
    struct.pack_into("<d", data, offset + 24, math.nan)  # slot 0's cors field
    crc_at = 52 + 32 * SECTION_NAMES.index("postmeta") + 24
    struct.pack_into("<I", data, crc_at, zlib.crc32(bytes(data[offset:offset + length])))
    table_end = 52 + 32 * len(SECTION_NAMES)
    struct.pack_into("<I", data, table_end, zlib.crc32(bytes(data[52:table_end])))
    artifact.write_bytes(bytes(data))
    with pytest.raises(BinaryFormatError, match="NaN CorS") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "postmeta"


def test_close_is_idempotent(artifact):
    reader = BinaryIndexReader(artifact)
    reader.close()
    reader.close()


def test_missing_file():
    with pytest.raises(BinaryFormatError, match="missing"):
        BinaryIndexReader("/nonexistent/index.bin")


def test_magic_is_stable():
    """The magic is the on-disk contract — changing it orphans every
    existing artifact."""
    assert MAGIC == b"RPROIDX4"
    assert BINARY_FORMAT_VERSION == 4

"""Binary index persistence through the storage layer.

Covers the store-level contract on top of ``repro.index.binfmt``: the
lazily-decoding load path (a main-only :class:`SegmentedCliqueIndex`
over the mapped file), save/load/save byte
identity, refusal of an older format version, and corruption surfacing
through the ``StorageError`` taxonomy with the failing section named.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.index.binfmt import BINARY_FORMAT_VERSION, MAGIC, read_section_table
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segmented import SegmentedCliqueIndex
from repro.index.vectorized import MmapVectorView
from repro.storage.store import StorageError, load_index, save_index


@pytest.fixture(scope="module")
def built(tiny_corpus, correlations):
    return CliqueInvertedIndex(correlations, max_clique_size=2).build(tiny_corpus)


@pytest.fixture()
def binary_artifact(built, tmp_path):
    return save_index(built, tmp_path / "index.bin")


def _keep_sections(path, keep):
    """Cut the section table to its first ``keep`` records, re-sealing
    the header and table CRCs so only the section-count check can fire.
    Payload offsets are absolute, so the payloads stay where they are."""
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 20, keep)
    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    table = 52
    end = table + 32 * keep
    struct.pack_into("<I", data, end, zlib.crc32(bytes(data[table:end])))
    path.write_bytes(bytes(data))


def _assert_equivalent(a: CliqueInvertedIndex, b: CliqueInvertedIndex) -> None:
    """Same postings with bit-identical per-object components.

    Entry *order* within a posting may differ (the binary format
    canonicalizes to ascending id), so compare per-id — order
    differences cannot affect rankings (every consumer sorts).
    """
    assert len(a) == len(b)
    assert a.n_objects == b.n_objects
    for posting in a.iter_postings():
        other = b.lookup(posting.key)
        assert other is not None
        assert sorted(other.object_ids) == sorted(posting.object_ids)
        assert other.cors == posting.cors
        mine = {
            oid: posting.components(i) for i, oid in enumerate(posting.object_ids)
        }
        theirs = {
            oid: other.components(i) for i, oid in enumerate(other.object_ids)
        }
        assert mine == theirs


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------
def _assert_mapped_main_only(loaded, path):
    assert isinstance(loaded, SegmentedCliqueIndex)
    assert not loaded.deltas
    assert isinstance(loaded.main, MmapVectorView)
    assert loaded.main.path == path


def test_binary_round_trip_bit_identical(built, binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations)
    _assert_mapped_main_only(loaded, binary_artifact)
    _assert_equivalent(built, loaded)
    loaded.close()


def test_suffix_does_not_pick_format(built, binary_artifact, tmp_path, correlations):
    """Every save writes the binary format and every load detects it by
    content, so the file name carries no meaning."""
    odd = save_index(built, tmp_path / "index.jsonl")
    assert odd.read_bytes() == binary_artifact.read_bytes()
    loaded = load_index(odd, correlations)
    _assert_mapped_main_only(loaded, odd)
    loaded.close()


def test_save_load_save_is_byte_identical(binary_artifact, tmp_path, correlations):
    """Re-serializing a loaded index reproduces the file byte for byte:
    the loaded segment iterates its slots in key order, the writer's
    own order."""
    loaded = load_index(binary_artifact, correlations)
    keys = [posting.key for posting in loaded.iter_postings()]
    assert keys == sorted(keys)
    back = save_index(loaded, tmp_path / "back.bin")
    loaded.close()
    assert back.read_bytes() == binary_artifact.read_bytes()


def test_loaded_segment_is_lazy(binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations)
    assert loaded.stats()["decoded_slots"] == 0  # nothing decoded at load time
    some_key = next(loaded.main.keys())
    posting = loaded.lookup(some_key)
    assert posting is not None
    assert loaded.stats()["decoded_slots"] == 1  # exactly one decoded
    loaded.close()


def test_segment_stats_match_built(built, binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations)
    stats = loaded.stats()
    # The mapped segment also reports its lazy cache: empty after open.
    assert stats.pop("decoded_slots") == 0
    assert stats == built.stats()
    loaded.close()


def test_segment_is_read_only(binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations)
    assert not hasattr(loaded, "add_object")
    assert not hasattr(loaded, "build")
    loaded.close()


def test_verify_payload_flag(binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations, verify_payload=False)
    _ = loaded.lookup(next(loaded.main.keys()))
    loaded.close()


# ----------------------------------------------------------------------
# corruption -> StorageError naming the section
# ----------------------------------------------------------------------
def test_corrupt_binary_is_storage_error_naming_section(binary_artifact, correlations):
    offset, length = read_section_table(binary_artifact)["postmeta"]
    data = bytearray(binary_artifact.read_bytes())
    data[offset + length // 2] ^= 0xFF
    binary_artifact.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="section='postmeta'"):
        load_index(binary_artifact, correlations)


def test_truncated_binary_is_storage_error(binary_artifact, correlations):
    data = binary_artifact.read_bytes()
    binary_artifact.write_bytes(data[: len(data) // 2])
    with pytest.raises(StorageError, match="corrupt binary index"):
        load_index(binary_artifact, correlations)


def test_binary_garbage_under_jsonl_name_is_storage_error(tmp_path, correlations):
    """Random binary bytes (wrong magic) fail as a storage error naming
    the file, whatever it is called."""
    path = tmp_path / "index.jsonl"
    path.write_bytes(b"\x00\xff\xfe garbage \x80" * 10)
    with pytest.raises(
        StorageError, match=f"not a v{BINARY_FORMAT_VERSION} binary index"
    ) as exc_info:
        load_index(path, correlations)
    assert str(path) in str(exc_info.value)


def test_older_format_version_names_the_rebuild(binary_artifact, correlations):
    """A file from format v3 (magic ``RPROIDX3``) is refused with a
    message naming its version and the command that rebuilds it."""
    data = bytearray(binary_artifact.read_bytes())
    data[: len(MAGIC)] = b"RPROIDX3"
    binary_artifact.write_bytes(bytes(data))
    with pytest.raises(StorageError) as exc_info:
        load_index(binary_artifact, correlations)
    message = str(exc_info.value)
    assert "format v3" in message
    assert f"only v{BINARY_FORMAT_VERSION}" in message
    assert "repro index build" in message
    assert str(binary_artifact) in message


def test_newer_format_version_gets_no_rebuild_advice(binary_artifact, correlations):
    """A file from a later format version is refused as not this
    version's index; rebuilding with this reader would downgrade it, so
    the message does not suggest it."""
    data = bytearray(binary_artifact.read_bytes())
    data[: len(MAGIC)] = MAGIC[:-1] + str(BINARY_FORMAT_VERSION + 1).encode()
    binary_artifact.write_bytes(bytes(data))
    with pytest.raises(
        StorageError, match=f"not a v{BINARY_FORMAT_VERSION} binary index"
    ) as exc_info:
        load_index(binary_artifact, correlations)
    assert "repro index build" not in str(exc_info.value)


def test_missing_required_section_is_storage_error(binary_artifact, correlations):
    """Every section is required: a table without ``smooth`` (the last
    record) fails."""
    _keep_sections(binary_artifact, keep=5)
    with pytest.raises(StorageError, match="expected 6 sections, header says 5"):
        load_index(binary_artifact, correlations)


def test_missing_artifact_is_storage_error(tmp_path, correlations):
    with pytest.raises(StorageError, match="missing"):
        load_index(tmp_path / "absent.bin", correlations)


# ----------------------------------------------------------------------
# ranking equivalence through the serving-facing engine API
# ----------------------------------------------------------------------
def test_search_identical_binary_vs_built(tiny_corpus, tmp_path):
    from repro.core.retrieval import RetrievalEngine

    fresh = RetrievalEngine(tiny_corpus)  # builds at the default clique bound
    bin_path = save_index(fresh.index, tmp_path / "index.bin")
    from_bin = RetrievalEngine(tiny_corpus, build_index=False)
    from_bin.adopt_index(load_index(bin_path, from_bin.correlations))
    for query in list(tiny_corpus)[:8]:
        assert from_bin.search(query, k=10) == fresh.search(query, k=10)

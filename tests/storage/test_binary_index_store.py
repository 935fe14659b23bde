"""Binary (v3) index persistence through the storage layer.

Covers the store-level contract on top of ``repro.index.binfmt``: the
lazily-decoding :class:`MmapCliqueIndex` load path, save/load/save byte
identity, files without the optional ``blockmax`` section, and
corruption surfacing through the ``StorageError`` taxonomy with the
failing section named.
"""

from __future__ import annotations

import struct
import zlib
from collections import Counter

import pytest

from repro.core.objects import Feature, MediaObject
from repro.core.retrieval import correlation_model_for_corpus
from repro.index.binfmt import BLOCK_SIZE, BinaryIndexReader, read_section_table
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segment import MmapCliqueIndex
from repro.social.corpus import Corpus
from repro.social.users import SocialGraph
from repro.storage.store import StorageError, load_index, save_index


@pytest.fixture(scope="module")
def built(tiny_corpus, correlations):
    return CliqueInvertedIndex(correlations, max_clique_size=2).build(tiny_corpus)


@pytest.fixture()
def binary_artifact(built, tmp_path):
    return save_index(built, tmp_path / "index.bin")


@pytest.fixture(scope="module")
def multi_block():
    """An index whose ``shared`` posting spans three
    :data:`~repro.index.binfmt.BLOCK_SIZE` blocks, so its file stores
    per-block bounds — ``tiny_corpus`` has no posting longer than one
    block and leaves the ``blockmax`` section empty."""
    objects = [
        MediaObject(
            object_id=f"o{i:05d}",
            features=Counter(
                {
                    Feature.text("shared"): 1 + i % 3,
                    Feature.text(f"rare{i % 32}"): 1,
                    Feature.user(f"u{i % 16}"): 1,
                }
            ),
            timestamp=i % 6,
        )
        for i in range(3 * BLOCK_SIZE)
    ]
    corpus = Corpus(
        objects=objects,
        social=SocialGraph({f"u{i}": [] for i in range(16)}),
        n_months=6,
    )
    model = correlation_model_for_corpus(corpus)
    return CliqueInvertedIndex(model, max_clique_size=2).build(corpus)


def _keep_sections(path, keep, rename=None):
    """Cut the section table to its first ``keep`` records (renaming
    some), re-sealing the header and table CRCs so only the section-set
    checks can fire.  Payload offsets are absolute, so the payloads
    stay where they are."""
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 20, keep)
    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    table = 52
    for i in range(keep):
        record = table + 32 * i
        name = bytes(data[record:record + 8]).rstrip(b"\0").decode()
        if rename and name in rename:
            data[record:record + 8] = rename[name].encode().ljust(8, b"\0")
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
def test_binary_round_trip_bit_identical(built, binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations)
    assert isinstance(loaded, MmapCliqueIndex)
    _assert_equivalent(built, loaded)
    loaded.close()


def test_suffix_does_not_pick_format(built, binary_artifact, tmp_path, correlations):
    """Every save writes v3 and every load detects it by content, so
    the file name carries no meaning."""
    odd = save_index(built, tmp_path / "index.jsonl")
    assert odd.read_bytes() == binary_artifact.read_bytes()
    loaded = load_index(odd, correlations)
    assert isinstance(loaded, MmapCliqueIndex)
    loaded.close()


def test_save_load_save_carries_blockmax(multi_block, tmp_path, correlations):
    """Re-serializing a loaded multi-block index reproduces the file
    byte for byte: iteration order (the ``order`` section), canonical
    entry order and the stored ``blockmax`` bounds all survive."""
    src = save_index(multi_block, tmp_path / "big.bin")
    assert read_section_table(src)["blockmax"][1] > 0
    loaded = load_index(src, correlations)
    back = save_index(loaded, tmp_path / "back.bin")
    loaded.close()
    assert back.read_bytes() == src.read_bytes()
    with BinaryIndexReader(back) as reader:
        assert reader.has_blockmax
        slot = reader.find_slot(Feature.text("shared").key)
        assert slot is not None
        stored = reader.posting_block_max(slot)
        assert stored is not None and len(stored[0]) == 3


def test_pre_blockmax_file_still_loads(multi_block, tmp_path, correlations):
    """A v3 file written before the optional ``blockmax`` section
    existed loads, and the vector view serves the same posting arrays
    (no query path reads the section)."""
    path = save_index(multi_block, tmp_path / "old.bin")
    key = Feature.text("shared").key
    with_section = load_index(path, correlations)
    full = with_section.vector_view().vectors(key)
    expected = [full.ids.tolist(), full.freq.tolist(), full.smooth.tolist(), full.cors]
    with_section.close()
    _keep_sections(path, keep=7)  # blockmax is the last record
    loaded = load_index(path, correlations)
    assert not loaded.reader.has_blockmax
    vectors = loaded.vector_view().vectors(key)
    got = [vectors.ids.tolist(), vectors.freq.tolist(), vectors.smooth.tolist(), vectors.cors]
    assert got == expected
    loaded.close()


def test_loaded_segment_is_lazy(binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations)
    assert not loaded._postings  # nothing materialized at load time
    some_key = loaded.reader.key_at(0)
    posting = loaded.lookup(some_key)
    assert posting is not None
    assert list(loaded._postings) == [some_key]  # exactly one decoded
    loaded.close()


def test_segment_stats_match_built(built, binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations)
    stats = loaded.stats()
    # The mapped segment also reports its lazy caches: empty after open.
    assert stats.pop("materialized_postings") == 0
    assert stats.pop("decoded_slots") == 0
    assert stats == built.stats()
    loaded.close()


def test_segment_is_read_only(binary_artifact, correlations, tiny_corpus):
    loaded = load_index(binary_artifact, correlations)
    with pytest.raises(TypeError, match="read-only"):
        loaded.add_object(tiny_corpus[0])
    with pytest.raises(TypeError, match="read-only"):
        loaded.build(tiny_corpus)
    loaded.close()


def test_verify_payload_flag(binary_artifact, correlations):
    loaded = load_index(binary_artifact, correlations, verify_payload=False)
    _ = loaded.lookup(loaded.reader.key_at(0))
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
    with pytest.raises(StorageError, match="not a v3 binary index") as exc_info:
        load_index(path, correlations)
    assert str(path) in str(exc_info.value)


def test_missing_required_section_is_storage_error(binary_artifact, correlations):
    """Only ``blockmax`` is optional: a table without ``smooth`` fails."""
    _keep_sections(binary_artifact, keep=7, rename={"smooth": "blockmax"})
    with pytest.raises(StorageError, match="missing sections"):
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

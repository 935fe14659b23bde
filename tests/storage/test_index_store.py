"""Load/save errors of the clique index artifact (``index.bin``).

Whatever is wrong with the file — missing, empty, not an index at all,
a corrupt or inconsistent header — ``load_index`` raises
:class:`StorageError` naming the file, never ``KeyError`` /
``ValueError`` / ``UnicodeDecodeError``.  The byte-level corruption
matrix of the format itself lives in ``tests/index/test_binfmt.py``.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.index.binfmt import (
    BINARY_FORMAT_VERSION,
    SECTION_NAMES,
    BinaryIndexReader,
    read_section_table,
)
from repro.index.inverted import CliqueInvertedIndex
from repro.index.postings import Posting
from repro.storage.store import StorageError, load_index, save_index


@pytest.fixture(scope="module")
def built(tiny_corpus, correlations):
    return CliqueInvertedIndex(correlations, max_clique_size=2).build(tiny_corpus)


@pytest.fixture()
def artifact(built, tmp_path):
    return save_index(built, tmp_path / "index.bin")


def test_meta_records_format_and_counts(artifact, built):
    with BinaryIndexReader(artifact) as reader:
        assert reader.version == BINARY_FORMAT_VERSION
        assert reader.max_clique_size == built.max_clique_size
        assert reader.n_cliques == len(built)
        assert reader.n_objects == built.n_objects


def test_missing_file_is_storage_error(tmp_path, correlations):
    with pytest.raises(StorageError, match="missing index artifact"):
        load_index(tmp_path / "nope.bin", correlations)


def test_empty_file_is_storage_error(tmp_path, correlations):
    path = tmp_path / "index.bin"
    path.write_bytes(b"")
    with pytest.raises(StorageError, match=f"not a v{BINARY_FORMAT_VERSION} binary index"):
        load_index(path, correlations)


def test_corrupt_meta_is_storage_error(artifact, correlations):
    data = bytearray(artifact.read_bytes())
    data[24] ^= 0xFF  # n_objects, under the header CRC
    artifact.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="header CRC"):
        load_index(artifact, correlations)


def test_wrong_kind_is_storage_error(tmp_path, correlations):
    """A text artifact (here: corpus metadata) is not an index."""
    path = tmp_path / "index.bin"
    path.write_text(json.dumps({"kind": "corpus", "format_version": 1}) + "\n")
    with pytest.raises(StorageError, match=f"not a v{BINARY_FORMAT_VERSION} binary index"):
        load_index(path, correlations)


def test_unsupported_version_is_storage_error(artifact, correlations):
    data = bytearray(artifact.read_bytes())
    struct.pack_into("<I", data, 8, BINARY_FORMAT_VERSION + 1)
    artifact.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="unsupported binary index version"):
        load_index(artifact, correlations)


def test_missing_postings_vs_meta_is_storage_error(artifact, built, correlations):
    """The posting counts in ``postmeta`` must add up to the header's
    ``total_entries`` (header CRC re-sealed, so only that check fires)."""
    data = bytearray(artifact.read_bytes())
    struct.pack_into("<Q", data, 40, int(built.stats()["total_postings"]) + 1)
    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    artifact.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="section='postmeta'"):
        load_index(artifact, correlations)


def test_component_length_mismatch_is_storage_error(artifact, correlations):
    """A ``freq`` array shorter than the entry count is caught
    structurally even with payload CRCs off."""
    _offset, length = read_section_table(artifact)["freq"]
    data = bytearray(artifact.read_bytes())
    record = 52 + 32 * SECTION_NAMES.index("freq")  # writers emit this order
    table_end = 52 + 32 * len(SECTION_NAMES)
    struct.pack_into("<Q", data, record + 16, length - 8)
    struct.pack_into("<I", data, table_end, zlib.crc32(bytes(data[52:table_end])))
    artifact.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="section='freq'"):
        load_index(artifact, correlations, verify_payload=False)


def test_duplicate_posting_key_is_storage_error(tmp_path):
    class TwinIndex:
        n_objects = 1
        max_clique_size = 2

        def iter_postings(self):
            return iter([Posting("T:a", cors=0.5), Posting("T:a", cors=0.5)])

    with pytest.raises(StorageError, match="duplicate"):
        save_index(TwinIndex(), tmp_path / "index.bin")

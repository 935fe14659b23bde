"""Snapshot lifecycle: load, hot-reload, generation monotonicity."""

from __future__ import annotations

import pytest

from repro.core.mrf import MRFParameters
from repro.serving.snapshot import SnapshotManager, build_snapshot
from repro.storage.store import StorageError, save_params


def test_current_before_load_raises(rec_corpus_dir):
    manager = SnapshotManager(rec_corpus_dir)
    with pytest.raises(RuntimeError):
        manager.current
    assert manager.generation == 0


def test_load_produces_generation_one(rec_corpus_dir, rec_corpus):
    manager = SnapshotManager(rec_corpus_dir, clock=lambda: 123.0)
    snapshot = manager.load()
    assert snapshot.generation == 1
    assert snapshot.loaded_at == 123.0
    assert snapshot.n_objects == len(rec_corpus)
    assert snapshot.recommender is not None
    assert manager.current is snapshot


def test_retrieval_only_corpus_has_no_recommender(tiny_corpus_dir):
    snapshot = SnapshotManager(tiny_corpus_dir).load()
    assert snapshot.recommender is None


def test_reload_bumps_generation_and_swaps_reference(rec_corpus_dir):
    manager = SnapshotManager(rec_corpus_dir)
    first = manager.load()
    second = manager.reload()
    assert second.generation == first.generation + 1
    assert manager.current is second
    assert second.engine is not first.engine
    # the drained snapshot keeps answering queries for in-flight requests
    hits = first.engine.search(first.corpus[0], k=3)
    assert len(hits) == 3


def test_failed_reload_leaves_current_snapshot(rec_corpus_dir, tmp_path):
    manager = SnapshotManager(rec_corpus_dir)
    snapshot = manager.load()
    manager._corpus_dir = tmp_path / "nope"  # simulate the directory vanishing
    with pytest.raises(StorageError):
        manager.reload()
    assert manager.current is snapshot
    assert manager.generation == snapshot.generation


def test_params_json_next_to_corpus_is_picked_up(rec_corpus_dir, tmp_path, rec_corpus):
    from repro.storage.store import save_corpus

    corpus_dir = tmp_path / "with-params"
    save_corpus(rec_corpus, corpus_dir)
    save_params(MRFParameters(alpha=0.25, delta=0.5), corpus_dir / "params.json")
    snapshot = build_snapshot(corpus_dir, generation=1, loaded_at=0.0)
    assert snapshot.engine.params.alpha == 0.25
    assert snapshot.recommender is not None
    assert snapshot.recommender.params.delta == 0.5


def test_explicit_params_win_over_disk(rec_corpus_dir):
    params = MRFParameters(alpha=0.75)
    snapshot = build_snapshot(rec_corpus_dir, generation=1, params=params, loaded_at=0.0)
    assert snapshot.engine.params is params


def test_snapshot_results_match_fresh_engine(rec_corpus_dir, rec_corpus):
    """The warm engine answers exactly like a cold batch-CLI engine."""
    from repro.core.retrieval import RetrievalEngine
    from repro.storage.store import load_corpus

    snapshot = build_snapshot(rec_corpus_dir, generation=1, loaded_at=0.0)
    cold = RetrievalEngine(load_corpus(rec_corpus_dir))
    query = snapshot.corpus[0]
    assert snapshot.engine.search(query, k=5) == cold.search(cold.corpus.get(query.object_id), k=5)


# ----------------------------------------------------------------------
# index provenance: built vs loaded-from-artifact
# ----------------------------------------------------------------------
def _corpus_on_disk(tmp_path, corpus):
    from repro.storage.store import save_corpus

    path = tmp_path / "corpus"
    save_corpus(corpus, path)
    return path


def test_fresh_corpus_builds_index(tmp_path, tiny_corpus):
    snapshot = build_snapshot(_corpus_on_disk(tmp_path, tiny_corpus), generation=1)
    prov = snapshot.index_provenance
    assert prov is not None
    assert prov.origin == "built"
    assert prov.build_seconds >= 0.0
    assert prov.n_cliques == len(snapshot.engine.index)
    assert prov.total_postings > 0


def test_stale_index_artifact_falls_back_to_build(tmp_path, tiny_corpus):
    import struct
    import zlib

    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    built = build_snapshot(path, generation=1)
    artifact = save_index(built.engine.index, path / "index.bin")
    # tamper the object count (re-sealing the header CRC): the snapshot
    # loader must treat the artifact as stale and rebuild rather than
    # serve a partial index
    data = bytearray(artifact.read_bytes())
    struct.pack_into("<Q", data, 24, 1)
    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    artifact.write_bytes(bytes(data))

    snapshot = build_snapshot(path, generation=2)
    assert snapshot.index_provenance.origin == "built"
    assert snapshot.engine.index.n_objects == len(tiny_corpus)


def test_corrupt_index_artifact_falls_back_to_build(tmp_path, tiny_corpus):
    from repro.index.binfmt import MAGIC

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    (path / "index.bin").write_bytes(MAGIC + b" but then garbage")
    snapshot = build_snapshot(path, generation=1)
    assert snapshot.index_provenance.origin == "built"


def test_format_v3_artifact_falls_back_to_build(tmp_path, tiny_corpus, mark_as_format_v3):
    """An ``index.bin`` from format v3 is refused by the loader, so the
    snapshot builds its index and ranks exactly like a fresh build."""
    from repro.core.retrieval import RetrievalEngine
    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    fresh = RetrievalEngine(tiny_corpus)
    mark_as_format_v3(save_index(fresh.index, path / "index.bin"))

    snapshot = build_snapshot(path, generation=1)
    assert snapshot.index_provenance.origin == "built"
    for query in list(tiny_corpus)[:5]:
        assert snapshot.engine.search(query, k=10) == fresh.search(query, k=10)
    snapshot.close()


def test_binary_artifact_next_to_corpus_is_picked_up(tmp_path, tiny_corpus):
    from repro.index.binfmt import BINARY_FORMAT_VERSION
    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    built = build_snapshot(path, generation=1)
    save_index(built.engine.index, path / "index.bin")

    loaded = build_snapshot(path, generation=2)
    prov = loaded.index_provenance
    assert prov.origin == "loaded"
    assert prov.format_version == BINARY_FORMAT_VERSION
    assert prov.n_cliques == len(built.engine.index)
    query = loaded.corpus[0]
    assert loaded.engine.search(query, k=5) == built.engine.search(query, k=5)


def test_binary_artifact_preferred_over_jsonl(tmp_path, tiny_corpus):
    from repro.index.binfmt import BINARY_FORMAT_VERSION
    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    built = build_snapshot(path, generation=1)
    save_index(built.engine.index, path / "index.bin")
    (path / "index.jsonl").write_text('{"kind": "clique-index", "format_version": 2}\n')

    loaded = build_snapshot(path, generation=2)
    assert loaded.index_provenance.origin == "loaded"
    assert loaded.index_provenance.format_version == BINARY_FORMAT_VERSION


def test_text_index_jsonl_is_ignored(tmp_path, tiny_corpus):
    """A text ``index.jsonl`` (the retired format) beside the corpus is
    not an index: the snapshot builds, and loading it directly is a
    storage error."""
    from repro.index.binfmt import BINARY_FORMAT_VERSION
    from repro.storage.store import load_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    artifact = path / "index.jsonl"
    artifact.write_text('{"kind": "clique-index", "format_version": 2}\n')

    snapshot = build_snapshot(path, generation=1)
    assert snapshot.index_provenance.origin == "built"
    with pytest.raises(
        StorageError, match=f"not a v{BINARY_FORMAT_VERSION} binary index"
    ):
        load_index(artifact, snapshot.engine.correlations)


def test_stale_binary_falls_back_to_build(tmp_path, tiny_corpus):
    """A binary artifact for a different corpus size is stale: the
    loader builds instead."""
    from repro.index.inverted import CliqueInvertedIndex
    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    built = build_snapshot(path, generation=1)
    stale = CliqueInvertedIndex(
        built.engine.correlations, max_clique_size=built.engine.params.max_clique_size
    ).build(list(tiny_corpus)[: len(tiny_corpus) // 2])
    save_index(stale, path / "index.bin")

    snapshot = build_snapshot(path, generation=2)
    assert snapshot.index_provenance.origin == "built"
    assert snapshot.engine.index.n_objects == len(tiny_corpus)


def test_no_index_no_provenance(tmp_path, tiny_corpus):
    snapshot = build_snapshot(
        _corpus_on_disk(tmp_path, tiny_corpus), generation=1, build_index=False
    )
    assert snapshot.index_provenance is None
    assert snapshot.engine.index is None


def test_payload_verification_choice_recorded(tmp_path, tiny_corpus):
    """``verify_payload=False`` is the ``--no-verify-payload`` fast
    open: the binary artifact is still picked up (structural checks
    run), and the provenance records the skipped sweep."""
    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    built = build_snapshot(path, generation=1)
    save_index(built.engine.index, path / "index.bin")

    fast = build_snapshot(path, generation=2, verify_payload=False)
    assert fast.index_provenance.origin == "loaded"
    assert fast.index_provenance.payload_verified is False

    checked = build_snapshot(path, generation=3)
    assert checked.index_provenance.payload_verified is True
    # both snapshots answer identically — the flag only skips checksums
    query = fast.corpus[0]
    assert fast.engine.search(query, k=5) == checked.engine.search(query, k=5)


def test_manager_forwards_verify_payload(tmp_path, tiny_corpus):
    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    built = build_snapshot(path, generation=1)
    save_index(built.engine.index, path / "index.bin")
    manager = SnapshotManager(path, verify_payload=False)
    snapshot = manager.load()
    assert snapshot.index_provenance.payload_verified is False


# ----------------------------------------------------------------------
# leases and deterministic disposal (the reload fd-leak fix)
# ----------------------------------------------------------------------
def _binary_corpus_dir(tmp_path, tiny_corpus):
    """Corpus dir with an index artifact, so snapshots hold a real fd+mmap."""
    from repro.storage.store import save_index

    path = _corpus_on_disk(tmp_path, tiny_corpus)
    built = build_snapshot(path, generation=1)
    save_index(built.engine.index, path / "index.bin")
    return path


def test_lease_before_load_raises(rec_corpus_dir):
    with pytest.raises(RuntimeError):
        SnapshotManager(rec_corpus_dir).lease()


def test_reload_closes_unleased_previous_snapshot(tmp_path, tiny_corpus):
    manager = SnapshotManager(_binary_corpus_dir(tmp_path, tiny_corpus))
    first = manager.load()
    assert first.engine.index.closed is False
    second = manager.reload()
    # no lease was open: the retired mapping is closed on the swap
    assert first.engine.index.closed is True
    assert second.engine.index.closed is False


def test_open_lease_defers_disposal_until_release(tmp_path, tiny_corpus):
    manager = SnapshotManager(_binary_corpus_dir(tmp_path, tiny_corpus))
    first = manager.load()
    lease = manager.lease()
    assert manager.leases(first.generation) == 1
    manager.reload()
    # the in-flight request still reads generation 1: not closed yet
    assert lease.snapshot is first
    assert first.engine.index.closed is False
    lease.release()
    assert first.engine.index.closed is True
    assert manager.leases(first.generation) == 0
    # release is idempotent — a double release must not double-close
    lease.release()


def test_lease_context_manager_releases(tmp_path, tiny_corpus):
    manager = SnapshotManager(_binary_corpus_dir(tmp_path, tiny_corpus))
    first = manager.load()
    with manager.lease() as snapshot:
        assert snapshot is first
        manager.reload()
        assert first.engine.index.closed is False
    assert first.engine.index.closed is True


def test_current_snapshot_never_closed_by_release(tmp_path, tiny_corpus):
    manager = SnapshotManager(_binary_corpus_dir(tmp_path, tiny_corpus))
    current = manager.load()
    with manager.lease():
        pass
    assert current.engine.index.closed is False


def test_reload_churn_does_not_leak_fds(tmp_path, tiny_corpus):
    """Regression for the reload fd/mmap leak: before refcounted
    disposal, every reload left the old artifact's fd open until GC."""
    import os

    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("requires /proc fd introspection")
    manager = SnapshotManager(_binary_corpus_dir(tmp_path, tiny_corpus))
    manager.load()
    baseline = len(os.listdir("/proc/self/fd"))
    for _ in range(8):
        manager.reload()
    assert len(os.listdir("/proc/self/fd")) <= baseline

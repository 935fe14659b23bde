"""Opening a snapshot reads no posting.

An ``index.bin`` opens in O(metadata): no scalar posting is built and
no posting id stream is decoded until a query touches a clique.  A
snapshot opened that way must rank exactly like one whose postings were
all built and warmed up front — at load, after an ingest publish and
after the compaction reload.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core.objects import MediaObject
from repro.index.binfmt import BinaryIndexReader
from repro.index.postings import Posting
from repro.index.vectorized import MmapVectorView
from repro.serving.cache import ResultCache
from repro.serving.service import QueryService
from repro.serving.snapshot import SnapshotManager, build_snapshot
from repro.storage.store import save_corpus, save_index

MODES = ("auto", "index")
PHASES = ("load", "ingest", "compact")


@pytest.fixture(scope="module")
def indexed_dir(tmp_path_factory, rec_corpus):
    """The recommendation corpus on disk beside its ``index.bin``;
    tests that ingest or compact work on a copy."""
    path = tmp_path_factory.mktemp("lazy-open") / "rec"
    save_corpus(rec_corpus, path)
    snapshot = build_snapshot(path, generation=1)
    save_index(snapshot.engine.index, path / "index.bin")
    return path


@pytest.fixture(scope="module")
def ingest_batch(rec_corpus):
    """Fresh ids carrying existing objects' features, so the delta
    shares cliques with the main segment."""
    return [
        MediaObject(f"ing{i:03d}", features=dict(obj.features), timestamp=obj.timestamp)
        for i, obj in enumerate(rec_corpus.objects[:6])
    ]


def _manager_at(phase, indexed_dir, target, batch) -> SnapshotManager:
    """A manager over a private copy, driven through ``phase``."""
    shutil.copytree(indexed_dir, target)
    manager = SnapshotManager(str(target), clock=lambda: 1000.0)
    manager.load()
    if phase in ("ingest", "compact"):
        manager.ingest(batch)
    if phase == "compact":
        _, folded = manager.compact()
        assert folded == len(batch)
    return manager


def _decoded_slots(index) -> int:
    return int(index.stats()["decoded_slots"])


def _warm(snapshot) -> None:
    """Build every posting and decode its arrays into the vector view."""
    index = snapshot.engine.index
    view = index.vector_view()
    for posting in index.iter_postings():
        assert view.vectors(posting.key) is not None


def _rankings(snapshot, queries, users) -> dict:
    engine, recommender = snapshot.engine, snapshot.recommender
    out = {}
    for mode in MODES:
        for query in queries:
            hits = engine.search(engine.corpus.get(query), k=10, mode=mode)
            out["search", mode, query] = [(h.object_id, h.score) for h in hits]
        for user in users:
            hits = recommender.recommend(user, k=10, mode=mode)
            out["recommend", mode, user] = [(h.object_id, h.score) for h in hits]
    return out


def test_build_snapshot_builds_no_posting_and_decodes_no_slot(indexed_dir, monkeypatch):
    built: list[str] = []
    decoded: list[int] = []
    from_arrays = Posting.from_arrays.__func__
    dense_ids = BinaryIndexReader.posting_dense_ids

    def spy_from_arrays(cls, key, *args, **kwargs):
        built.append(key)
        return from_arrays(cls, key, *args, **kwargs)

    def spy_dense_ids(self, slot, **kwargs):
        decoded.append(slot)
        return dense_ids(self, slot, **kwargs)

    monkeypatch.setattr(Posting, "from_arrays", classmethod(spy_from_arrays))
    monkeypatch.setattr(BinaryIndexReader, "posting_dense_ids", spy_dense_ids)
    snapshot = build_snapshot(indexed_dir, generation=1)
    try:
        index = snapshot.engine.index
        assert not index.deltas
        assert isinstance(index.main, MmapVectorView)
        assert index.main.path == indexed_dir / "index.bin"
        assert snapshot.index_provenance.origin == "loaded"
        assert snapshot.recommender is not None and snapshot.recommender.index is index
        assert built == [] and decoded == []
        assert _decoded_slots(index) == 0
    finally:
        snapshot.close()


@pytest.mark.parametrize("phase", PHASES)
def test_lazy_rankings_equal_warmed_rankings(
    phase, indexed_dir, ingest_batch, rec_corpus, tmp_path
):
    lazy = _manager_at(phase, indexed_dir, tmp_path / "lazy", ingest_batch)
    warm = _manager_at(phase, indexed_dir, tmp_path / "warm", ingest_batch)
    assert _decoded_slots(lazy.current.engine.index) == 0
    _warm(warm.current)
    queries = [obj.object_id for obj in rec_corpus.objects[:8]]
    if phase != "load":
        queries += [obj.object_id for obj in ingest_batch]
    users = list(rec_corpus.favorite_users())
    expected = _rankings(warm.current, queries, users)
    assert any(hits for hits in expected.values())
    assert _rankings(lazy.current, queries, users) == expected


@pytest.mark.parametrize("ingested", [False, True], ids=["mmap", "segmented"])
def test_stats_expose_lazy_caches(ingested, indexed_dir, ingest_batch, tmp_path):
    """``/stats`` reports 0 decoded slots after load (and after an
    ingest publish).  A scalar ``mode="index"`` query decodes the slots
    of its own cliques only."""
    manager = _manager_at(
        "ingest" if ingested else "load", indexed_dir, tmp_path / "corpus", ingest_batch
    )
    service = QueryService(manager, cache=ResultCache(8))
    index = manager.current.engine.index
    assert bool(index.deltas) is ingested
    opened = service.stats()["index"]
    assert opened["decoded_slots"] == 0
    service.search(query=manager.current.corpus.objects[0].object_id, k=5, mode="index")
    touched = service.stats()["index"]
    assert touched["decoded_slots"] > 0
    # Only the query's own cliques were touched.
    assert touched["decoded_slots"] < touched["cliques"]

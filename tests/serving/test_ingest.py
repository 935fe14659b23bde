"""Serving-layer ingest and compaction: O(delta) publish, durability,
and the validation/error taxonomy of ``POST /ingest``.

These tests own their snapshot managers (ingest mutates the corpus
directory), so each builds over a private tmp copy instead of the
shared session fixtures.
"""

from __future__ import annotations

import builtins
import json
from pathlib import Path

import pytest

from repro.core.objects import Feature, MediaObject
from repro.index.inverted import CliqueInvertedIndex
from repro.index.vectorized import MmapVectorView
from repro.serving.cache import ResultCache
from repro.serving.service import QueryService, ServiceError, parse_ingest_records
from repro.serving.snapshot import SnapshotManager, build_snapshot
from repro.storage.store import load_corpus, save_corpus, save_index


def _record(object_id: str, month: int = 0) -> dict:
    return {
        "id": object_id,
        "t": month,
        "features": {"T:brandnew": 2, f"T:tail{object_id[-1]}": 1, "U:u0": 1},
    }


@pytest.fixture()
def own_dir(tmp_path, tiny_corpus):
    path = tmp_path / "corpus"
    save_corpus(tiny_corpus, path)
    return path


@pytest.fixture()
def own_service(own_dir):
    manager = SnapshotManager(str(own_dir), clock=lambda: 1000.0)
    manager.load()
    return QueryService(manager, cache=ResultCache(64))


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "records, fragment",
    [
        (None, "non-empty list"),
        ([], "non-empty list"),
        (["nope"], "must be a JSON object"),
        ([{"t": 0, "features": {"T:a": 1}}], "'id' must be"),
        ([_record("dup"), _record("dup")], "duplicate id"),
        ([{"id": "x", "t": 0}], "'features' must be"),
        ([{"id": "x", "t": 0, "features": {"nokey": 1}}], "bad feature"),
        ([{"id": "x", "t": 0, "features": {"T:a": 0}}], "count must be >= 1"),
        ([{"id": "x", "t": "june", "features": {"T:a": 1}}], "integer month"),
    ],
)
def test_parse_ingest_records_rejects(records, fragment):
    with pytest.raises(ServiceError, match=fragment) as excinfo:
        parse_ingest_records(records)
    assert excinfo.value.status == 400


def test_parse_ingest_records_builds_objects():
    objects = parse_ingest_records([_record("n1", month=3)])
    assert len(objects) == 1
    obj = objects[0]
    assert obj.object_id == "n1"
    assert obj.timestamp == 3
    assert obj.features[Feature.text("brandnew")] == 2


# ----------------------------------------------------------------------
# ingest publish
# ----------------------------------------------------------------------
def test_ingest_publishes_delta_and_persists(own_service, own_dir):
    before = own_service.stats()
    reply = own_service.ingest([_record("new-a"), _record("new-b")])
    assert reply["status"] == "ingested"
    assert reply["ingested"] == 2
    assert reply["objects"] == before["snapshot"]["objects"] + 2
    assert reply["generation"] == before["snapshot"]["generation"] + 1
    assert reply["segments"]["n_segments"] == 2
    assert reply["segments"]["delta_objects"] == [2]
    # New object answers queries with no restart.
    served = own_service.search(query="new-a", k=5)
    assert served["results"], "ingested object must be searchable"
    # And survives a restart: the corpus directory grew.
    corpus = load_corpus(own_dir)
    ids = {obj.object_id for obj in corpus}
    assert {"new-a", "new-b"} <= ids


def test_ingest_without_persist_leaves_disk_untouched(own_service, own_dir):
    """The prefork worker path: the supervisor persisted already."""
    n_lines = len((own_dir / "objects.jsonl").read_text().splitlines())
    reply = own_service.ingest(
        [_record("volatile-a"), _record("volatile-b")], persist=False
    )
    assert reply["status"] == "ingested"
    assert len((own_dir / "objects.jsonl").read_text().splitlines()) == n_lines
    results = own_service.search(query="volatile-a", k=3)["results"]
    assert "volatile-b" in {r["object_id"] for r in results}


def test_ingest_duplicate_corpus_id_conflicts(own_service):
    existing = next(iter(load_ids(own_service)))
    with pytest.raises(ServiceError) as excinfo:
        own_service.ingest([_record("fresh"), {**_record("x"), "id": existing}])
    assert excinfo.value.status == 409


def load_ids(service):
    snapshot = service._manager.current
    return [obj.object_id for obj in snapshot.engine.corpus]


def test_repeated_ingest_stacks_deltas(own_service):
    own_service.ingest([_record("s1")])
    own_service.ingest([_record("s2")])
    reply = own_service.ingest([_record("s3")])
    assert reply["segments"]["n_segments"] == 4
    assert reply["segments"]["delta_objects"] == [1, 1, 1]
    stats = own_service.stats()
    assert stats["index"]["segments"]["n_segments"] == 4


def test_ingest_drops_stale_cache_entries(own_service):
    query = load_ids(own_service)[0]
    own_service.search(query=query, k=5)
    reply = own_service.ingest([_record("cachebuster")])
    assert reply["cache_entries_dropped"] >= 1
    assert own_service.search(query=query, k=5)["cached"] is False


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
def test_compact_folds_deltas_and_reloads(own_service, own_dir):
    own_service.ingest([_record("c1"), _record("c2")])
    own_service.ingest([_record("c3")])
    before_generation = own_service.stats()["snapshot"]["generation"]
    reply = own_service.compact()
    assert reply["status"] == "compacted"
    assert reply["folded_objects"] == 3
    assert reply["segments"]["n_segments"] == 1
    assert reply["generation"] == before_generation + 1
    snapshot = own_service._manager.current
    assert not snapshot.engine.index.deltas
    # The fold produced a loadable on-disk artifact.
    assert (own_dir / "index.bin").exists()
    assert own_service.search(query="c3", k=3)["results"]


def test_compact_without_deltas_is_noop(own_service):
    generation = own_service.stats()["snapshot"]["generation"]
    reply = own_service.compact()
    assert reply["status"] == "noop"
    assert reply["folded_objects"] == 0
    assert reply["generation"] == generation


@pytest.mark.parametrize("origin", ["loaded", "built"])
def test_compaction_writes_the_monolithic_artifact(
    origin, tmp_path, tiny_corpus, monkeypatch
):
    """Whether the main segment is the mapped ``index.bin`` or a built
    index's image, compaction merges the stack's open segments into an
    artifact byte-identical to saving a from-scratch build of the
    extended corpus under the frozen model — writing no intermediate
    segment file."""
    path = tmp_path / "corpus"
    save_corpus(tiny_corpus, path)
    if origin == "loaded":
        save_index(build_snapshot(path, generation=1).engine.index, path / "index.bin")
    manager = SnapshotManager(str(path), clock=lambda: 1000.0)
    engine = manager.load().engine
    assert manager.current.index_provenance.origin == origin
    # Fresh ids carrying existing objects' features: the deltas share
    # cliques with the main segment and with each other.
    batches = [
        [
            MediaObject(f"cmp{i:03d}", features=dict(obj.features), timestamp=obj.timestamp)
            for i, obj in enumerate(tiny_corpus.objects[lo:hi], start=lo)
        ]
        for lo, hi in ((0, 3), (3, 7))
    ]
    for batch in batches:
        manager.ingest(batch)
    written: list[str] = []
    real_open = builtins.open

    def spy_open(file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in "wax+"):
            written.append(Path(file).name)
        return real_open(file, mode, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", spy_open)
        _, folded = manager.compact()
    assert folded == 7
    # The merge reads the stack's own readers: it writes its three spill
    # sections and the artifact, and no segment file.
    assert sorted(written) == ["freq", "index.bin.tmp", "postings", "smooth"]
    mono = CliqueInvertedIndex(
        engine.correlations, max_clique_size=engine.params.max_clique_size
    ).build([*tiny_corpus.objects, *batches[0], *batches[1]])
    expected = save_index(mono, tmp_path / "mono.bin")
    assert (path / "index.bin").read_bytes() == expected.read_bytes()
    assert not list(path.glob("*.tmp.bin"))
    manager.current.close()


def test_objects_jsonl_append_is_replayable(own_service, own_dir):
    """Every persisted ingest line parses as one canonical record —
    the store's crash-consistency contract (meta.json count is rewritten
    atomically after the append)."""
    own_service.ingest([_record("r1"), _record("r2")])
    lines = (own_dir / "objects.jsonl").read_text().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[-1]["id"] == "r2"
    meta = json.loads((own_dir / "meta.json").read_text())
    assert meta["n_objects"] == len(lines)


# ----------------------------------------------------------------------
# the recommender shares the snapshot's index across generations
# ----------------------------------------------------------------------
def test_recommender_index_survives_ingest_and_compaction(tmp_path, rec_corpus):
    """Generation 2 (an ingest) keeps answering /recommend from
    generation 1's recommender over the pinned main segment; compaction
    gives a fresh recommender over the new ``index.bin``; closing the
    last snapshot leaves no pin on either mapping."""
    path = tmp_path / "rec"
    save_corpus(rec_corpus, path)
    save_index(build_snapshot(path, generation=1).engine.index, path / "index.bin")
    manager = SnapshotManager(str(path), clock=lambda: 1000.0)
    service = QueryService(manager, cache=ResultCache(64))
    first = manager.load()
    index = first.engine.index
    assert not index.deltas
    main = index.main
    assert isinstance(main, MmapVectorView)
    assert main.path == path / "index.bin"
    assert first.recommender.index is index
    user = rec_corpus.favorite_users()[0]
    before = service.recommend(user=user, k=5)
    assert before["generation"] == 1

    second = manager.ingest(parse_ingest_records([_record("rec-a"), _record("rec-b")]))
    # Generation 1 was retired with no open lease, so it is closed; the
    # stack's pin keeps the shared main segment mapped.
    assert manager.leases(first.generation) == 0
    assert second.recommender is first.recommender
    assert not main.closed
    after_ingest = service.recommend(user=user, k=5)
    assert after_ingest["generation"] == 2
    assert after_ingest["results"] == before["results"]

    third, folded = manager.compact()
    assert folded == 2
    assert main.closed  # generation 2's stack released the last pin
    fresh = third.recommender
    assert fresh is not first.recommender
    assert fresh.index is third.engine.index
    after_compact = service.recommend(user=user, k=5)
    assert after_compact["generation"] == 3
    expected = fresh.recommend(user, k=5)
    assert after_compact["results"] == [
        {"object_id": r.object_id, "score": r.score} for r in expected
    ]
    third.close()
    assert third.engine.index.closed

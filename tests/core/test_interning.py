"""Feature interning: one ``Feature`` per ``(type, name)`` per process.

Every construction path must hand back the interned instance, because
the hot dicts of the build and query paths compare features by
identity and the correlation memo keys pairs by the interned ids.  Ids
are process-local, so they must never cross a pickle boundary.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import objects
from repro.core.cliques import Clique
from repro.core.objects import Feature, FeatureType, MediaObject
from repro.serving.service import QueryService, ServiceError, parse_ingest_records
from repro.serving.snapshot import SnapshotManager
from repro.social.generator import GeneratorConfig, SyntheticFlickr
from repro.storage.store import load_corpus, save_corpus

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _assert_interned(features):
    features = list(features)
    assert features
    for feature in features:
        assert Feature.from_key(feature.key) is feature
        assert Feature(feature.ftype, feature.name) is feature
        assert Feature.from_id(feature.id) is feature


def test_constructors_return_one_instance():
    a = Feature.text("interning-sunset")
    assert Feature.text("interning-sunset") is a
    assert Feature(FeatureType.TEXT, "interning-sunset") is a
    assert Feature.from_key("T:interning-sunset") is a
    assert Feature.user("interning-sunset") is not a
    assert Feature.user("interning-sunset").id != a.id


def test_load_corpus_features_are_interned(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus")
    _assert_interned(f for obj in loaded for f in obj.features)
    for original, again in zip(tiny_corpus, loaded):
        assert all(a is b for a, b in zip(original.features, again.features))


def test_build_and_generator_features_are_interned():
    built = MediaObject.build("o", tags=["beach"], visual_words=["vw7"], users=["u1"])
    _assert_interned(built.features)
    assert Feature.text("beach") in built.features
    corpus = SyntheticFlickr(GeneratorConfig(n_objects=30), seed=5).generate_retrieval_corpus()
    _assert_interned(f for obj in corpus for f in obj.features)


def test_clique_from_key_features_are_interned():
    a, b = Feature.text("interning-a"), Feature.user("interning-b")
    clique = Clique.from_key(Clique((a, b)).key)
    assert clique.features[0] is a and clique.features[1] is b


def test_ingest_record_features_are_interned():
    (obj,) = parse_ingest_records(
        [{"id": "new", "t": 1, "features": {"T:interning-new-tag": 2, "U:interning-u": 1}}]
    )
    _assert_interned(obj.features)
    assert obj.frequency(Feature.text("interning-new-tag")) == 2


def test_rejected_ingest_batch_interns_nothing(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path / "corpus")
    manager = SnapshotManager(str(tmp_path / "corpus"), clock=lambda: 1000.0)
    manager.load()
    service = QueryService(manager)
    before = len(objects._BY_KEY)
    batches = [
        # the second record is bad after the first one's unseen features
        [
            {"id": "ok", "features": {"T:interning-never-a": 1}},
            {"id": "bad", "features": {"T:interning-never-b": 0}},
        ],
        [
            {"id": "ok", "features": {"T:interning-never-c": 1}},
            {"id": "bad", "features": {"X:interning-never-d": 1}},
        ],
        [
            {"id": "ok", "features": {"V:interning-never-e": 1}},
            {"id": "ok", "features": {"U:interning-never-f": 1}},
        ],
        [{"id": "ok", "features": {"T:interning-never-g": 1}, "t": "soon"}],
    ]
    for records in batches:
        for ingest in (parse_ingest_records, service.ingest):
            with pytest.raises(ServiceError) as excinfo:
                ingest(records)
            assert excinfo.value.status == 400
    assert len(objects._BY_KEY) == before
    assert not any("interning-never" in key for key in objects._BY_KEY)


def test_concurrent_first_constructions_agree():
    """Threads racing to intern the same new keys all get one instance
    per key, and the id table maps each id to that instance."""
    keys = [f"T:interning-race-{i}" for i in range(400)]
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results: list[list[Feature]] = [[] for _ in range(n_threads)]

    def work(slot: int) -> None:
        barrier.wait(timeout=10)
        order = keys if slot % 2 else keys[::-1]
        results[slot] = [Feature.from_key(key) for key in order]

    before = len(objects._BY_KEY)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(objects._BY_KEY) == before + len(keys)
    winners = {f.key: f for f in results[0]}
    for slot, got in enumerate(results):
        assert len(got) == len(keys)
        assert all(winners[f.key] is f for f in got), slot
    for feature in winners.values():
        assert Feature.from_id(feature.id) is feature
    assert len({f.id for f in winners.values()}) == len(keys)


def test_pickled_state_holds_only_type_and_name():
    feature = Feature.visual("vw-interning")
    assert feature.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (
        Feature,
        (FeatureType.VISUAL, "vw-interning"),
    )
    data = pickle.dumps(feature)
    assert b"_hash" not in data
    assert pickle.loads(data) is feature


def test_features_are_immutable():
    feature = Feature.text("interning-frozen")
    with pytest.raises(AttributeError):
        feature.name = "other"
    with pytest.raises(AttributeError):
        feature.id = 0
    with pytest.raises(AttributeError):
        feature.extra = 1


def test_constructor_rejects_an_empty_name():
    with pytest.raises(ValueError):
        Feature.text("")
    with pytest.raises(ValueError):
        Feature.from_key("T:")


#: Run in a fresh interpreter: interns features in a different order
#: than the parent did, then unpickles the parent's features and model.
_CHILD = """
import json, pickle, sys
from repro.core.objects import Feature
from repro.core.correlation import pair_key
shift = [Feature.user(f"child-only-{i}") for i in range(7)]
features, model = pickle.loads(sys.stdin.buffer.read())
for f in features:
    assert f is Feature.from_key(f.key), f
    assert f is Feature.from_id(f.id), f
child_ids = {f.key: f.id for f in features}
values = {}
for a in features:
    for b in features:
        if a.key < b.key:
            value = model._cache.get(pair_key(a, b))
            if value is not None:
                values[f"{a.key}|{b.key}"] = value.hex()
print(json.dumps([child_ids, model.cache_size(), values]))
"""


def test_pickle_round_trip_reinterns_in_a_fresh_process(correlations, tiny_corpus):
    features = sorted({f for obj in list(tiny_corpus)[:10] for f in obj.features})
    model = pickle.loads(pickle.dumps(correlations))
    model.pair_rows(features)
    parent_values = {
        f"{a.key}|{b.key}": model.cor(a, b).hex()
        for i, a in enumerate(features)
        for b in features[i + 1 :]
    }
    payload = pickle.dumps((features, model))
    assert b"_hash" not in payload
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=payload,
        capture_output=True,
        check=True,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "random"},
    )
    child_ids, child_pairs, child_values = json.loads(out.stdout)
    # The child interned other features first, so its ids differ ...
    assert child_ids != {f.key: f.id for f in features}
    # ... yet every memoized pair arrived under the child's own keys.
    assert child_pairs == model.cache_size()
    assert child_values == parent_values

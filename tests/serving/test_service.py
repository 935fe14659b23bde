"""Transport-independent handlers: parity with the batch engines,
cache semantics, reload, validation errors."""

from __future__ import annotations

import pytest

from repro.core.mrf import MRFParameters
from repro.core.recommendation import Recommender
from repro.core.retrieval import RetrievalEngine
from repro.serving.cache import ResultCache
from repro.serving.service import QueryService, ServiceError
from repro.serving.snapshot import SnapshotManager
from repro.storage.store import load_corpus


# ----------------------------------------------------------------------
# parity with the batch path
# ----------------------------------------------------------------------
def test_search_matches_batch_engine_bit_for_bit(service, rec_corpus_dir):
    """Served rankings must equal what `repro search` computes from the
    same corpus directory: identical ids AND identical float scores."""
    corpus = load_corpus(rec_corpus_dir)
    batch = RetrievalEngine(corpus)
    for query_id in [corpus[0].object_id, corpus[7].object_id]:
        served = service.search(query=query_id, k=5)
        expected = batch.search(corpus.get(query_id), k=5)
        assert served["results"] == [
            {"object_id": r.object_id, "score": r.score} for r in expected
        ]


def test_search_scan_mode_matches_batch_scan(service, rec_corpus_dir):
    corpus = load_corpus(rec_corpus_dir)
    batch = RetrievalEngine(corpus, build_index=False)
    query_id = corpus[3].object_id
    served = service.search(query=query_id, k=4, mode="scan")
    expected = batch.search(corpus.get(query_id), k=4, mode="scan")
    assert served["results"] == [
        {"object_id": r.object_id, "score": r.score} for r in expected
    ]


def test_recommend_matches_batch_recommender(service, rec_corpus_dir):
    corpus = load_corpus(rec_corpus_dir)
    user = corpus.favorite_users()[0]
    batch = Recommender(corpus, params=MRFParameters(delta=1.0))
    served = service.recommend(user=user, k=5)
    expected = batch.recommend(user, k=5)
    assert served["results"] == [
        {"object_id": r.object_id, "score": r.score} for r in expected
    ]


def test_recommend_with_delta_matches_fig_t(service, rec_corpus_dir):
    corpus = load_corpus(rec_corpus_dir)
    user = corpus.favorite_users()[1]
    batch = Recommender(corpus, params=MRFParameters(delta=0.5))
    served = service.recommend(user=user, k=5, delta=0.5)
    expected = batch.recommend(user, k=5)
    assert served["delta"] == 0.5
    assert served["results"] == [
        {"object_id": r.object_id, "score": r.score} for r in expected
    ]


def test_similar_free_form_bag(service, loaded_manager):
    """An ad-hoc bag not stored in the corpus searches without error and
    matches a direct engine query on the same synthetic object."""
    from repro.core.objects import FeatureType, MediaObject

    snapshot = loaded_manager.current
    donor = snapshot.corpus[0]
    tags = [f.name for f in donor.features_of_type(FeatureType.TEXT)][:3]
    served = service.similar(tags=tags, k=5)
    query = MediaObject.build("query:ad-hoc", tags=sorted(tags))
    expected = snapshot.engine.search(query, k=5, exclude_query=False)
    assert served["results"] == [
        {"object_id": r.object_id, "score": r.score} for r in expected
    ]


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------
def test_repeated_search_is_served_from_cache(service, loaded_manager):
    query_id = loaded_manager.current.corpus[0].object_id
    first = service.search(query=query_id, k=3)
    second = service.search(query=query_id, k=3)
    assert first["cached"] is False
    assert second["cached"] is True
    assert first["results"] == second["results"]
    stats = service.cache.stats()
    assert stats.hits == 1


def test_different_k_or_mode_is_a_different_entry(service, loaded_manager):
    query_id = loaded_manager.current.corpus[0].object_id
    service.search(query=query_id, k=3)
    assert service.search(query=query_id, k=4)["cached"] is False
    assert service.search(query=query_id, k=3, mode="scan")["cached"] is False
    assert service.search(query=query_id, k=3)["cached"] is True


def test_cache_hit_counter_visible_in_metrics(service, loaded_manager):
    query_id = loaded_manager.current.corpus[0].object_id
    service.search(query=query_id, k=3)
    service.search(query=query_id, k=3)
    text = service.metrics_text()
    assert "repro_result_cache_hits_total 1" in text
    assert "# TYPE repro_result_cache_hits_total counter" in text


# ----------------------------------------------------------------------
# reload
# ----------------------------------------------------------------------
def test_reload_bumps_generation_and_empties_cache(rec_corpus_dir):
    manager = SnapshotManager(rec_corpus_dir)
    manager.load()
    service = QueryService(manager, cache=ResultCache(64))
    query_id = manager.current.corpus[0].object_id
    before = service.search(query=query_id, k=3)
    assert len(service.cache) == 1
    outcome = service.reload()
    assert outcome["generation"] == before["generation"] + 1
    assert outcome["cache_entries_dropped"] == 1
    assert len(service.cache) == 0
    after = service.search(query=query_id, k=3)
    assert after["cached"] is False
    assert after["generation"] == outcome["generation"]
    # same corpus on disk -> same ranking across generations
    assert after["results"] == before["results"]


# ----------------------------------------------------------------------
# validation and error mapping
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, status",
    [
        ({"query": ""}, 400),
        ({"query": None}, 400),
        ({"query": "obj000000", "k": 0}, 400),
        ({"query": "obj000000", "k": "many"}, 400),
        ({"query": "obj000000", "k": 10_000}, 400),
        ({"query": "obj000000", "mode": "warp"}, 400),
        ({"query": "ghost"}, 404),
    ],
)
def test_search_error_statuses(service, kwargs, status):
    with pytest.raises(ServiceError) as err:
        service.search(**kwargs)
    assert err.value.status == status


def test_recommend_unknown_user_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.recommend(user="nobody")
    assert err.value.status == 404


def test_recommend_bad_delta_is_400(service, rec_corpus_dir):
    corpus = load_corpus(rec_corpus_dir)
    user = corpus.favorite_users()[0]
    with pytest.raises(ServiceError) as err:
        service.recommend(user=user, delta=2.5)
    assert err.value.status == 400


def test_recommend_without_favorites_is_409(tiny_corpus_dir):
    manager = SnapshotManager(tiny_corpus_dir)
    manager.load()
    service = QueryService(manager)
    with pytest.raises(ServiceError) as err:
        service.recommend(user="u0")
    assert err.value.status == 409


def test_similar_requires_some_bag(service):
    with pytest.raises(ServiceError) as err:
        service.similar()
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        service.similar(tags="notalist")
    assert err.value.status == 400


def test_unloaded_manager_maps_to_503(rec_corpus_dir):
    service = QueryService(SnapshotManager(rec_corpus_dir))
    with pytest.raises(ServiceError) as err:
        service.search(query="obj000000")
    assert err.value.status == 503


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------
def test_healthz_and_stats(service, loaded_manager):
    health = service.healthz()
    assert health["status"] == "ok"
    assert health["generation"] == loaded_manager.generation
    assert health["recommendation"] is True
    stats = service.stats()
    assert stats["snapshot"]["objects"] == loaded_manager.current.n_objects
    assert stats["cache"]["capacity"] == 128


def test_stats_reports_index_provenance(service, loaded_manager):
    from repro.index.binfmt import BINARY_FORMAT_VERSION

    index_stats = service.stats()["index"]
    prov = loaded_manager.current.index_provenance
    assert index_stats["origin"] == prov.origin == "built"
    assert index_stats["build_seconds"] == prov.build_seconds
    assert index_stats["cliques"] == prov.n_cliques
    assert index_stats["postings"] == prov.total_postings
    # a built snapshot reports the one on-disk format
    assert index_stats["format_version"] == BINARY_FORMAT_VERSION


def test_stats_index_provenance_loaded_artifact(tmp_path, tiny_corpus):
    """A snapshot that picked up ``index.bin`` reports itself as
    loaded-from-artifact through the stats endpoint."""
    from repro.serving.snapshot import build_snapshot
    from repro.index.binfmt import BINARY_FORMAT_VERSION
    from repro.storage.store import save_corpus, save_index

    path = tmp_path / "corpus"
    save_corpus(tiny_corpus, path)
    built = build_snapshot(path, generation=1)
    save_index(built.engine.index, path / "index.bin")

    manager = SnapshotManager(path)
    manager.load()
    service = QueryService(manager, cache=ResultCache(8))
    index_stats = service.stats()["index"]
    assert index_stats["origin"] == "loaded"
    assert index_stats["postings"] > 0
    assert index_stats["format_version"] == BINARY_FORMAT_VERSION


def test_stats_no_index_reports_none(tmp_path, tiny_corpus):
    from repro.storage.store import save_corpus

    path = tmp_path / "corpus"
    save_corpus(tiny_corpus, path)
    manager = SnapshotManager(path, build_index=False)
    manager.load()
    service = QueryService(manager, cache=ResultCache(8))
    assert service.stats()["index"] is None


def test_metrics_text_reports_snapshot_age(service):
    text = service.metrics_text(now=1060.0)  # manager clock stamped 1000.0
    assert "repro_snapshot_age_seconds 60" in text
    assert "repro_snapshot_generation 1" in text


def test_stats_reports_payload_verified(service):
    assert service.stats()["index"]["payload_verified"] is True


def test_search_vectorized_mode_matches_index_mode(service, rec_corpus_dir):
    corpus = load_corpus(rec_corpus_dir)
    batch = RetrievalEngine(corpus)
    query_id = corpus[5].object_id
    served = service.search(query=query_id, k=4, mode="auto")
    expected = batch.search(corpus.get(query_id), k=4, mode="index")
    assert served["results"] == [
        {"object_id": r.object_id, "score": r.score} for r in expected
    ]


# ----------------------------------------------------------------------
# mode resolution (the stale "index" default regression class)
# ----------------------------------------------------------------------
def test_default_mode_resolves_to_vectorized(service, loaded_manager):
    """With no mode argument the service must run the vectorized engine
    — ``auto``, the engine's default, which the payload reports."""
    query_id = loaded_manager.current.corpus[0].object_id
    assert service.search(query=query_id, k=3)["mode"] == "auto"
    assert service.similar(tags=["tag1"], k=3)["mode"] == "auto"


def test_auto_and_vectorized_share_one_cache_entry(service, loaded_manager):
    """An explicit ``auto`` and a modeless request are one computation
    and share one cache entry."""
    query_id = loaded_manager.current.corpus[0].object_id
    first = service.search(query=query_id, k=3, mode="auto")
    assert first["cached"] is False
    assert service.search(query=query_id, k=3)["cached"] is True
    assert len(service.cache) == 1
    # the scalar walk is a genuinely different computation: its own entry
    assert service.search(query=query_id, k=3, mode="index")["cached"] is False
    assert len(service.cache) == 2


def test_similar_auto_and_vectorized_share_one_cache_entry(service):
    assert service.similar(tags=["tag1"], k=3, mode="auto")["cached"] is False
    assert service.similar(tags=["tag1"], k=3)["cached"] is True
    assert len(service.cache) == 1


def test_repeated_recommend_is_served_from_cache(service, rec_corpus_dir):
    corpus = load_corpus(rec_corpus_dir)
    user = corpus.favorite_users()[0]
    assert service.recommend(user=user, k=3)["cached"] is False
    assert service.recommend(user=user, k=3)["cached"] is True
    # a different delta is a different computation -> its own entry
    assert service.recommend(user=user, k=3, delta=0.5)["cached"] is False

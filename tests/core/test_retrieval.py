"""Retrieval engine: Algorithm 1 mechanics and end-to-end sanity."""

import pytest

from repro.core.mrf import MRFParameters
from repro.core.retrieval import RankedResult, RetrievalEngine
from repro.eval.oracle import TopicOracle


def test_search_returns_k_results(engine, tiny_corpus):
    hits = engine.search(tiny_corpus[0], k=5)
    assert len(hits) == 5
    assert all(isinstance(h, RankedResult) for h in hits)


def test_results_sorted_descending(engine, tiny_corpus):
    hits = engine.search(tiny_corpus[0], k=10)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_query_excluded_by_default(engine, tiny_corpus):
    query = tiny_corpus[0]
    hits = engine.search(query, k=20)
    assert query.object_id not in {h.object_id for h in hits}


def test_query_included_when_requested(engine, tiny_corpus):
    query = tiny_corpus[0]
    hits = engine.search(query, k=5, exclude_query=False)
    # the query contains all its own cliques: it must rank first
    assert hits[0].object_id == query.object_id


def test_results_are_corpus_objects(engine, tiny_corpus):
    hits = engine.search(tiny_corpus[3], k=10)
    for h in hits:
        assert h.object_id in tiny_corpus


def test_no_duplicate_results(engine, tiny_corpus):
    hits = engine.search(tiny_corpus[1], k=20)
    ids = [h.object_id for h in hits]
    assert len(ids) == len(set(ids))


def test_scan_mode_matches_index_mode_topically(engine, tiny_corpus):
    """Index mode approximates the scan (it skips smoothing-only
    candidates), but the two top lists must substantially agree."""
    query = tiny_corpus[0]
    idx = {h.object_id for h in engine.search(query, k=10)}
    scan = {h.object_id for h in engine.search(query, k=10, mode="scan")}
    assert len(idx & scan) >= 5


def test_retrieval_finds_same_topic_objects(engine, tiny_corpus):
    """End-to-end planted-signal check: top hits share the query topic
    far above chance."""
    oracle = TopicOracle(tiny_corpus)
    hits_rel = 0
    n = 0
    for query in list(tiny_corpus)[:8]:
        for h in engine.search(query, k=5):
            n += 1
            hits_rel += oracle.relevant(query.object_id, h.object_id)
    # chance level is roughly 2/6 topics; demand well above it
    assert hits_rel / n > 0.5


def test_invalid_mode_rejected(engine, tiny_corpus):
    for mode in ("turbo", "index-rescore"):
        with pytest.raises(ValueError):
            engine.search(tiny_corpus[0], k=3, mode=mode)


def test_scan_only_engine_refuses_index_mode(tiny_corpus):
    engine = RetrievalEngine(tiny_corpus, build_index=False)
    assert engine.index is None
    with pytest.raises(ValueError):
        engine.search(tiny_corpus[0], k=3, mode="index")
    hits = engine.search(tiny_corpus[0], k=3, mode="scan")
    assert len(hits) == 3


def test_with_params_shares_index(engine):
    clone = engine.with_params(MRFParameters(alpha=0.9))
    assert clone.index is engine.index
    assert clone.params.alpha == 0.9
    assert engine.params.alpha == 0.5  # original untouched


def test_with_params_rejects_larger_cliques(engine):
    with pytest.raises(ValueError):
        engine.with_params(MRFParameters(lambdas={1: 0.5, 4: 0.5}))


def test_with_params_changes_ranking_inputs(engine, tiny_corpus):
    """Different α weightings may reorder results but always return
    valid rankings (scores finite, sorted)."""
    clone = engine.with_params(MRFParameters(alpha=0.05))
    hits = clone.search(tiny_corpus[0], k=5)
    assert all(h.score >= 0 for h in hits)


def test_query_cliques_nonempty(engine, tiny_corpus):
    cliques = engine.query_cliques(tiny_corpus[0])
    assert cliques
    assert all(c.size <= engine.params.max_clique_size for c in cliques)


def test_foreign_query_object(engine, tiny_corpus):
    """A query that is not in the corpus (e.g. a new upload) works."""
    from repro.core.objects import MediaObject

    donor = tiny_corpus[0]
    query = MediaObject(
        object_id="external-query", features=dict(donor.features), timestamp=0
    )
    hits = engine.search(query, k=5)
    assert len(hits) == 5
    # the donor object shares every feature: it must rank first
    assert hits[0].object_id == donor.object_id


def test_ranked_sort_orders_desc_score_then_id():
    from repro.core.retrieval import ranked_sort

    results = [
        RankedResult(object_id="b", score=1.0),
        RankedResult(object_id="a", score=1.0),
        RankedResult(object_id="z", score=3.0),
        RankedResult(object_id="c", score=2.0),
    ]
    assert [r.object_id for r in ranked_sort(results)] == ["z", "c", "a", "b"]


def test_ranked_result_is_not_orderable():
    """The ascending dataclass ordering was a footgun; it must be gone."""
    with pytest.raises(TypeError):
        RankedResult("a", 1.0) < RankedResult("b", 2.0)  # noqa: B015


def test_auto_mode_resolves_to_vectorized(engine, tiny_corpus):
    """The default mode runs the vectorized path, which is asserted
    bit-identical to the scalar reference."""
    query = tiny_corpus[2]
    default = engine.search(query, k=5)
    assert default == engine.search(query, k=5, mode="auto")
    assert default == engine.search(query, k=5, mode="index")


def test_query_cliques_cached_per_feature_set(tiny_corpus):
    engine = RetrievalEngine(tiny_corpus)
    query = tiny_corpus[0]
    first = engine.query_cliques(query)
    assert len(engine._clique_cache) == 1
    second = engine.query_cliques(query)
    assert second == first
    assert second is not first  # callers get their own list
    # an id-only twin with the same features hits the same cache entry
    import dataclasses

    twin = dataclasses.replace(query, object_id="cache-twin")
    engine.query_cliques(twin)
    assert len(engine._clique_cache) == 1


def test_with_params_clone_gets_fresh_clique_cache(engine, tiny_corpus):
    engine.query_cliques(tiny_corpus[0])
    clone = engine.with_params(MRFParameters(alpha=0.9))
    assert clone._clique_cache == {}
    assert clone.search(tiny_corpus[0], k=3)  # caches independently

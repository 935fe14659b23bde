"""Clique inverted index: correctness of postings against FIGs."""

from dataclasses import replace

import pytest

from repro.core.cliques import Clique
from repro.core.fig import FeatureInteractionGraph
from repro.core.objects import Feature
from repro.core.retrieval import RetrievalEngine
from repro.index.inverted import CliqueInvertedIndex

T = Feature.text


@pytest.fixture(scope="module")
def built(tiny_corpus, correlations):
    index = CliqueInvertedIndex(correlations, max_clique_size=3)
    index.build(tiny_corpus)
    return index


def test_counts(built, tiny_corpus):
    assert built.n_objects == len(tiny_corpus)
    assert len(built) > 0


def test_every_object_clique_indexed(built, tiny_corpus, correlations):
    """Cross-check a few objects: each of their cliques' postings must
    contain the object."""
    for obj in list(tiny_corpus)[:5]:
        fig = FeatureInteractionGraph.from_object(obj, correlations)
        for clique in fig.cliques(max_size=3):
            posting = built.lookup(clique)
            assert posting is not None
            assert obj.object_id in posting


def test_lookup_unknown_clique(built):
    assert built.lookup(Clique((T("never-seen"),))) is None
    assert Clique((T("never-seen"),)) not in built


def test_lookup_carries_build_time_cors(built, tiny_corpus, correlations):
    fig = FeatureInteractionGraph.from_object(tiny_corpus[0], correlations)
    clique = fig.cliques(max_size=1)[0]
    posting = built.lookup(clique)
    assert posting.cors == pytest.approx(correlations.cors(clique.features))


def test_lookup_by_key_string(built, tiny_corpus, correlations):
    fig = FeatureInteractionGraph.from_object(tiny_corpus[0], correlations)
    clique = fig.cliques(max_size=1)[0]
    assert built.lookup(clique.key) is built.lookup(clique)


def test_postings_have_no_duplicates(built):
    for posting in built.iter_postings():
        ids = posting.object_ids
        assert len(ids) == len(set(ids))


def test_stats_consistent(built):
    stats = built.stats()
    assert stats["n_objects"] == built.n_objects
    assert stats["n_cliques"] == len(built)
    assert stats["total_postings"] >= stats["n_cliques"]
    assert stats["max_posting_length"] >= stats["avg_posting_length"]


def test_incremental_add(tiny_corpus, correlations):
    index = CliqueInvertedIndex(correlations, max_clique_size=2)
    n1 = index.add_object(tiny_corpus[0])
    assert n1 > 0
    assert index.n_objects == 1
    index.add_object(tiny_corpus[1])
    assert index.n_objects == 2


def test_max_clique_size_respected(tiny_corpus, correlations):
    index = CliqueInvertedIndex(correlations, max_clique_size=1)
    index.build(list(tiny_corpus)[:10])
    for posting in index.iter_postings():
        assert "|" not in posting.key  # singletons only


# ----------------------------------------------------------------------
# build-time scoring and the shard-parallel build
# ----------------------------------------------------------------------
def _assert_identical(a: CliqueInvertedIndex, b: CliqueInvertedIndex) -> None:
    assert len(a) == len(b)
    assert a.n_objects == b.n_objects
    for posting in a.iter_postings():
        other = b.lookup(posting.key)
        assert other is not None
        assert other.object_ids == posting.object_ids
        assert other.cors == posting.cors
        for i in range(len(posting)):
            assert other.components(i) == posting.components(i)


def test_build_scores_postings_eagerly(built):
    for posting in built.iter_postings():
        assert posting.cors is not None
        # at least one entry of every posting carries a positive
        # frequency part — the objects *contain* the clique
        parts = [posting.components(i) for i in range(len(posting))]
        assert any(f > 0.0 for f, _ in parts)


def test_parallel_build_bit_identical_to_serial(tiny_corpus, correlations):
    serial = CliqueInvertedIndex(correlations, max_clique_size=2).build(tiny_corpus)
    sharded = CliqueInvertedIndex(correlations, max_clique_size=2).build(
        tiny_corpus, n_workers=2
    )
    _assert_identical(serial, sharded)


def test_parallel_build_small_corpus_runs_inline(tiny_corpus, correlations):
    # fewer objects than 2*workers: the pool must be skipped
    few = list(tiny_corpus)[:3]
    index = CliqueInvertedIndex(correlations, max_clique_size=2).build(few, n_workers=64)
    assert index.n_objects == 3


def test_build_invalid_workers(tiny_corpus, correlations):
    with pytest.raises(ValueError):
        CliqueInvertedIndex(correlations, max_clique_size=2).build(tiny_corpus, n_workers=0)


def test_scalar_search_fills_views_only_for_looked_up_postings(tiny_corpus, correlations):
    """Nothing is converted ahead of the first query; a scalar search
    fills the vector view's per-key cache with exactly the postings of
    the cliques it used, and a search at another α reuses them."""
    index = CliqueInvertedIndex(correlations, max_clique_size=3).build(tiny_corpus)
    engine = RetrievalEngine(tiny_corpus, correlations=correlations, index=index)
    view = engine.index.vector_view()
    assert not view._cache
    query = tiny_corpus.objects[0]
    assert engine.search(query, k=10, mode="index")
    looked_up = {clique.key for clique in engine.query_cliques(query)}
    warmed = set(view._cache)
    assert warmed and warmed <= looked_up
    assert len(warmed) < len(index)
    other = engine.with_params(replace(engine.params, alpha=1.0 - engine.params.alpha))
    assert other.search(query, k=10, mode="index")
    assert set(view._cache) == warmed

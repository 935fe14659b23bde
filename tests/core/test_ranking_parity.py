"""Property-style ranking parity across every query path.

The impact-ordering change rebuilt ``mode="index"`` on postings scored
at build time; these tests pin the contract that made that safe: every
path ranks with ``ranked_sort`` semantics and agrees **bit-identically**
(ids AND float scores, ties broken by ascending id) with its reference:

* every entry a query's index terms score, ``outer·(inner·P)``, is
  ``outer`` times the live :meth:`CliqueScorer.potential` at every
  α/λ mix and temporal weight (the per-entry oracle, applied to the
  query's own postings) — λ and CorS multiply outside the stored
  components, and α only re-mixes them;
* ``mode="index"`` (the Threshold Algorithm) == ``mode="auto"`` (the
  summed arrays) over those entries;
* at α=1 the scan's smoothing-only contributions vanish exactly, so
  every path coincides;
* all of the above survive an index persistence round trip.

The corpus carries an exact feature-duplicate ("twin") object so score
ties are guaranteed, not incidental.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cliques import Clique
from repro.core.mrf import CliqueScorer, MRFParameters, mix_components, scale_impacts
from repro.core.retrieval import RetrievalEngine
from repro.social.corpus import Corpus
from repro.storage.store import load_index, save_index

#: α values swept by the property tests (the trainer's grid shape).
ALPHAS = (0.0, 0.3, 0.7, 1.0)
N_QUERIES = 12


@pytest.fixture(scope="module")
def tie_corpus(tiny_corpus):
    """The tiny corpus plus an exact duplicate of object 0 under an id
    sorting last — every query matching object 0 produces a hard tie."""
    objects = list(tiny_corpus)
    twin = dataclasses.replace(objects[0], object_id="zzz-twin")
    return Corpus(
        [*objects, twin],
        social=tiny_corpus.social,
        taxonomy=tiny_corpus.taxonomy,
        codebook=tiny_corpus.codebook,
        n_months=tiny_corpus.n_months,
    )


@pytest.fixture(scope="module")
def base_engine(tie_corpus):
    return RetrievalEngine(tie_corpus, params=MRFParameters())


@pytest.fixture(scope="module")
def engines(base_engine):
    """One engine per α, all sharing the single built index — the
    ``with_params`` sweep the impact ordering had to keep valid."""
    return {
        alpha: base_engine.with_params(MRFParameters(alpha=alpha)) for alpha in ALPHAS
    }


def _pairs(results):
    return [(r.object_id, r.score) for r in results]


def _assert_terms_match_model(terms, view, corpus, correlations, params):
    """The per-entry oracle over one query's ``(posting, inner, outer)``
    terms: every entry's ``scale_impacts(mix_components(freq, smooth,
    α), inner, outer)`` — the value both index modes score — is
    ``outer`` times the live potential of its (clique, object) pair,
    bit for bit."""
    scorer = CliqueScorer(correlations, params)
    for vectors, inner, outer in terms:
        clique = Clique.from_key(vectors.key)
        values = scale_impacts(
            mix_components(vectors.freq, vectors.smooth, params.alpha), inner, outer
        )
        for dense, value in zip(vectors.ids.tolist(), values.tolist()):
            obj = corpus.get(view.object_id(dense))
            live = outer * scorer.potential(clique, obj)
            assert value.hex() == live.hex(), (vectors.key, obj.object_id)


def _assert_search_matches_model(engine, query, k, exclude_query=True):
    """Oracle over the query's own postings, then TA == summed arrays."""
    exclude = {query.object_id} if exclude_query else set()
    terms, _ = engine._index_terms(engine.query_cliques(query), exclude)
    _assert_terms_match_model(
        terms, engine.index.vector_view(), engine.corpus, engine.correlations, engine.params
    )
    ranked = _pairs(engine.search(query, k=k, mode="index", exclude_query=exclude_query))
    assert ranked == _pairs(
        engine.search(query, k=k, mode="auto", exclude_query=exclude_query)
    )


@settings(deadline=None, max_examples=30)
@given(q=st.integers(0, N_QUERIES - 1), alpha=st.sampled_from(ALPHAS))
def test_index_matches_prechange_rescore_bitwise(engines, tie_corpus, q, alpha):
    """What the per-query rescoring reference computed for each posting
    entry — the live potential — is what the index modes score."""
    _assert_search_matches_model(engines[alpha], tie_corpus[q], k=10)


def test_alpha1_all_four_paths_coincide(engines, tie_corpus):
    """At α=1: the scalar TA, the summed arrays and the exact scan."""
    engine = engines[1.0]
    for q in range(6):
        query = tie_corpus[q]
        fast = _pairs(engine.search(query, k=10, mode="index"))
        assert fast == _pairs(engine.search(query, k=10, mode="auto"))
        assert fast == _pairs(engine.search(query, k=10, mode="scan"))


def test_twin_tie_broken_by_ascending_id(engines, tie_corpus):
    """Query object 0 without excluding it: the query and its twin tie
    bit-exactly and must order by ascending id in every path."""
    query = tie_corpus[0]
    for alpha in ALPHAS:
        engine = engines[alpha]
        for mode in ("index", "auto"):
            top = engine.search(query, k=5, exclude_query=False, mode=mode)
            assert [r.object_id for r in top[:2]] == [query.object_id, "zzz-twin"]
            assert top[0].score == top[1].score, (alpha, mode)
    scan_top = engines[1.0].search(query, k=5, exclude_query=False, mode="scan")
    assert [r.object_id for r in scan_top[:2]] == [query.object_id, "zzz-twin"]
    assert scan_top[0].score == scan_top[1].score


@pytest.mark.parametrize("format", ["binary"])
def test_parity_survives_persistence_round_trip(base_engine, tie_corpus, tmp_path, format):
    path = save_index(base_engine.index, tmp_path / "index.bin")
    reloaded = RetrievalEngine(tie_corpus, params=MRFParameters(), build_index=False)
    reloaded.adopt_index(load_index(path, reloaded.correlations))
    for q in range(N_QUERIES):
        query = tie_corpus[q]
        before = _pairs(base_engine.search(query, k=10, mode="index"))
        assert before == _pairs(reloaded.search(query, k=10, mode="index"))
        assert before == _pairs(reloaded.search(query, k=10, mode="auto"))
    # parameter sweeps over the loaded index stay bit-identical too
    swept = reloaded.with_params(MRFParameters(alpha=1.0))
    ref = base_engine.with_params(MRFParameters(alpha=1.0))
    query = tie_corpus[1]
    assert _pairs(swept.search(query, k=10, mode="index")) == _pairs(
        ref.search(query, k=10, mode="scan")
    )


def test_search_with_stats_matches_search_and_terminates_early(base_engine, tie_corpus):
    query = tie_corpus[2]
    results, stats = base_engine.search_with_stats(query, k=5)
    assert _pairs(results) == _pairs(base_engine.search(query, k=5, mode="index"))
    assert stats.sorted_accesses < stats.total_posting_entries
    assert stats.rounds >= 1 and stats.n_sources >= 1


@settings(deadline=None, max_examples=25)
@given(
    q=st.integers(0, 10_000),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    lambda2=st.floats(0.0, 1.0),
    exclude_query=st.booleans(),
    k=st.integers(1, 15),
)
def test_scalar_ta_matches_rescore_at_any_alpha(
    base_engine, tie_corpus, q, alpha, lambda2, exclude_query, k
):
    """Scalar ``mode="index"`` walks impact sources built per query from
    the stored arrays.  At any α, λ, k and exclusion every entry it
    reads equals the live potential, and it ranks as the summed
    arrays do."""
    params = MRFParameters(alpha=alpha, lambdas={1: 1.0, 2: lambda2, 3: 0.1})
    engine = base_engine.with_params(params)
    query = tie_corpus[q % len(tie_corpus)]
    _assert_search_matches_model(engine, query, k=k, exclude_query=exclude_query)


@settings(deadline=None, max_examples=15)
@given(
    u=st.integers(0, 1000),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    delta=st.floats(0.05, 1.0),
    k=st.integers(1, 15),
)
def test_scalar_ta_recommendations_match_rescore(recommender, rec_corpus, u, alpha, delta, k):
    """Every entry a profile's terms score — the Eq. 10 temporal weight
    as ``outer`` — equals ``outer`` times the live potential, and the
    scalar TA ranks as the summed arrays do."""
    users = rec_corpus.favorite_users()
    user = users[u % len(users)]
    params = MRFParameters(alpha=alpha, delta=delta)
    rec = recommender.with_params(params)
    terms = rec._index_terms(rec.profile_for(user), rec.split.evaluation.start)
    _assert_terms_match_model(
        terms, rec.index.vector_view(), rec_corpus, rec._correlations, params
    )
    assert _pairs(rec.recommend(user, k=k, mode="index")) == _pairs(
        rec.recommend(user, k=k, mode="auto")
    )

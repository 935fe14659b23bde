"""Property test: vectorized rankings are bit-identical to scalar.

Contract for the vectorized default path: at **any**
parameter point (α anywhere in [0, 1], arbitrary non-negative λ per
clique size, any δ) and over **both** index flavours — the in-memory
build and an mmap'd ``index.bin`` — ``mode="auto"`` returns the
same ids *and* the same float scores as ``mode="index"``, ties broken
identically.  The corpus carries an exact feature twin of object 0 so
tie-handling is exercised, not left to chance.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mrf import MRFParameters
from repro.core.retrieval import RetrievalEngine
from repro.social.corpus import Corpus
from repro.storage.store import load_index, save_index

N_QUERIES = 10


@pytest.fixture(scope="module")
def twin_corpus(tiny_corpus):
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
def memory_engine(twin_corpus):
    """Engine over the freshly built in-memory index."""
    return RetrievalEngine(twin_corpus, params=MRFParameters())


@pytest.fixture(scope="module")
def mmap_engine(memory_engine, twin_corpus, tmp_path_factory):
    """Engine over the same index persisted to a binary segment —
    the zero-copy mmap path."""
    path = tmp_path_factory.mktemp("parity") / "index.bin"
    save_index(memory_engine.index, path)
    engine = RetrievalEngine(twin_corpus, params=MRFParameters(), build_index=False)
    engine.adopt_index(load_index(path, engine.correlations))
    return engine


def _pairs(results):
    return [(r.object_id, r.score) for r in results]


params_strategy = st.builds(
    MRFParameters,
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    lambdas=st.fixed_dictionaries(
        {1: st.floats(0.05, 1.0)},
        optional={2: st.floats(0.0, 1.0)},
    ),
    delta=st.floats(0.05, 1.0, exclude_min=False),
)


@settings(deadline=None, max_examples=40)
@given(
    q=st.integers(0, N_QUERIES - 1),
    params=params_strategy,
    exclude_query=st.booleans(),
)
def test_vectorized_bitwise_parity_both_flavours(
    memory_engine, mmap_engine, twin_corpus, q, params, exclude_query
):
    query = twin_corpus[q]
    for base in (memory_engine, mmap_engine):
        engine = base.with_params(params)
        scalar = _pairs(
            engine.search(query, k=10, mode="index", exclude_query=exclude_query)
        )
        fast = _pairs(
            engine.search(
                query, k=10, mode="auto", exclude_query=exclude_query
            )
        )
        assert fast == scalar


def test_twin_tie_ordering_vectorized(memory_engine, mmap_engine, twin_corpus):
    """Querying object 0 without exclusion forces an exact score tie
    with its twin; the vectorized path must break it by ascending id
    on both flavours."""
    query = twin_corpus[0]
    for engine in (memory_engine, mmap_engine):
        top = engine.search(query, k=5, exclude_query=False, mode="auto")
        assert [r.object_id for r in top[:2]] == [query.object_id, "zzz-twin"]
        assert top[0].score == top[1].score


def test_vectorized_stats_match_and_count_blocks(memory_engine, twin_corpus):
    query = twin_corpus[3]
    results, stats = memory_engine.search_with_stats(
        query, k=5, mode="auto"
    )
    assert _pairs(results) == _pairs(memory_engine.search(query, k=5, mode="index"))
    assert stats.blocks_total >= stats.blocks_skipped >= 0
    scalar_stats = memory_engine.search_with_stats(query, k=5, mode="index")[1]
    assert scalar_stats.blocks_total == 0  # the scalar path has no blocks

"""Fagin's Threshold Algorithm: exactness vs brute force + early stop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index.threshold import (
    AccessStats,
    ImpactSortedSource,
    impact_sources,
    threshold_algorithm,
)
from repro.index.vectorized import PostingVectors


def _sorted_source(entries):
    """A TA source over ``(dense_id, score)`` pairs in any order:
    sorted by descending score, ties by ascending id."""
    return ImpactSortedSource(sorted(entries, key=lambda e: (-e[1], e[0])))


def _brute_force_topk(sources, k):
    ids = set()
    for s in sources:
        ids.update(oid for oid, _ in (s.entry(i) for i in range(len(s))))
    totals = {oid: sum(s.score(oid) for s in sources) for oid in ids}
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def test_single_source():
    src = _sorted_source([(0, 3.0), (1, 1.0), (2, 2.0)])
    assert threshold_algorithm([src], k=2) == [(0, 3.0), (2, 2.0)]


def test_missing_scores_zero():
    s1 = _sorted_source([(0, 1.0), (1, 0.5)])
    s2 = _sorted_source([(1, 1.0)])
    result = threshold_algorithm([s1, s2], k=2)
    assert result[0] == (1, 1.5)
    assert result[1] == (0, 1.0)


def test_k_larger_than_universe():
    src = _sorted_source([(0, 1.0)])
    assert threshold_algorithm([src], k=10) == [(0, 1.0)]


def test_empty_sources():
    assert threshold_algorithm([], k=3) == []
    assert threshold_algorithm([ImpactSortedSource([])], k=3) == []


def test_invalid_k():
    with pytest.raises(ValueError):
        threshold_algorithm([ImpactSortedSource([])], k=0)


def test_duplicate_ids_in_source_rejected():
    with pytest.raises(ValueError):
        ImpactSortedSource([(0, 2.0), (0, 1.0)])


def test_source_sorted_access():
    src = ImpactSortedSource([(1, 3.0), (2, 2.0), (0, 1.0)])
    assert src.entry(0) == (1, 3.0)
    assert src.entry(1) == (2, 2.0)
    assert src.score(0) == 1.0
    assert src.score(99) == 0.0


def test_early_termination_depth():
    """One dominant object lets TA stop far before exhausting lists."""
    n = 100
    s1 = _sorted_source([(0, 100.0)] + [(i + 1, 1.0 - i * 1e-4) for i in range(n)])
    s2 = _sorted_source([(0, 100.0)] + [(i + 1, 1.0 - i * 1e-4) for i in range(n)])
    stats = AccessStats()
    threshold_algorithm([s1, s2], k=1, stats=stats)
    assert stats.rounds <= 3


def test_results_sorted_and_unique():
    sources = [
        _sorted_source([(i, float(i % 7)) for i in range(20)]),
        _sorted_source([(i, float((i * 3) % 5)) for i in range(0, 20, 2)]),
    ]
    result = threshold_algorithm(sources, k=10)
    ids = [oid for oid, _ in result]
    scores = [s for _, s in result]
    assert len(ids) == len(set(ids))
    assert scores == sorted(scores, reverse=True)


# ----------------------------------------------------------------------
# impact-ordered sources over posting arrays
# ----------------------------------------------------------------------
def _vectors(entries):
    """A posting over dense ids: ``entries`` maps id -> (freq, smooth)."""
    ids = sorted(entries)
    return PostingVectors(
        "T:a",
        1.0,
        np.array(ids, dtype=np.int64),
        np.array([entries[i][0] for i in ids], dtype=np.float64),
        np.array([entries[i][1] for i in ids], dtype=np.float64),
    )


def _impact_source(pairs, inner=1.0, outer=1.0, exclude=None, candidates=None):
    """The one source of a posting whose impacts are exactly ``pairs``'
    scores (α = 1 mixes in nothing of the zero smoothing parts)."""
    vectors = _vectors({oid: (p, 0.0) for oid, p in pairs})
    (source,) = impact_sources([(vectors, inner, outer)], 1.0, exclude, candidates)
    return source


def _source(vectors, alpha):
    (source,) = impact_sources([(vectors, 1.0, 1.0)], alpha)
    return source


def _scored_vectors():
    return _vectors(
        {
            1: (0.2, 0.8),  # P(α=0.5) = 0.5
            2: (0.9, 0.1),  # P(α=0.5) = 0.5 (tie with 1)
            3: (0.0, 0.0),  # P = 0 at every α — dropped
            4: (0.8, 0.8),  # P(α=0.5) = 0.8
        }
    )


def _entries(source):
    return [source.entry(rank) for rank in range(len(source))]


def test_impact_source_sorted_descending_with_id_tiebreak():
    source = _source(_scored_vectors(), 0.5)
    assert [oid for oid, _ in _entries(source)] == [4, 1, 2]
    scores = [s for _, s in _entries(source)]
    assert scores == sorted(scores, reverse=True)
    # tie between 1 and 2 broken by ascending id (ranked_sort order)
    assert source.score(1) == source.score(2)


def test_impact_source_drops_nonpositive_entries():
    source = _source(_scored_vectors(), 0.5)
    assert len(source) == 3
    assert source.score(3) == 0.0
    assert all(s > 0.0 for _, s in _entries(source))
    # A posting with no positive impact is no source at all.
    assert impact_sources([(_vectors({7: (0.0, 0.0)}), 1.0, 1.0)], 0.5) == []
    terms = [(_vectors({7: (0.0, 0.0)}), 1.0, 1.0), (_scored_vectors(), 1.0, 1.0)]
    assert [len(s) for s in impact_sources(terms, 0.5)] == [3]
    assert impact_sources([], 0.5) == []


def test_impact_source_alpha_remixes_stored_components():
    # α=1 ranks by freq part alone; α=0 by smoothing part alone.
    for alpha, expected in ((1.0, [2, 4, 1]), (0.0, [1, 4, 2])):
        source = _source(_scored_vectors(), alpha)
        assert [oid for oid, _ in _entries(source)] == expected


def test_impact_source_exact_mix():
    alpha = 0.3
    source = _source(_scored_vectors(), alpha)
    assert source.score(1) == alpha * 0.2 + (1.0 - alpha) * 0.8


def test_impact_source_scales_sorted_and_random_access():
    src = _impact_source([(0, 0.5), (1, 0.25)], inner=2.0, outer=3.0)
    assert src.entry(0) == (0, 3.0 * (2.0 * 0.5))
    assert src.score(1) == 3.0 * (2.0 * 0.25)
    assert src.score(99) == 0.0


def test_impact_source_excludes_query_id():
    src = _impact_source([(0, 0.5), (9, 0.9)], exclude=9)
    assert len(src) == 1
    assert src.entry(0) == (0, 0.5)
    assert src.score(9) == 0.0
    # Excluding its only positive entry still leaves an (empty) source.
    assert len(_impact_source([(9, 0.9)], exclude=9)) == 0


def test_impact_source_eligible_filters_both_accesses():
    """The candidate mask: ids it marks ``False`` are skipped on sorted
    access, score 0 on random access and do not count towards the
    length."""
    pairs = [(0, 0.5), (1, 0.25), (2, 0.9), (3, 0.4)]
    mask = np.array([True, True, False, False])
    src = _impact_source(pairs, candidates=mask)
    assert len(src) == 2
    assert _entries(src) == [(0, 0.5), (1, 0.25)]
    assert src.score(2) == 0.0 and src.score(0) == 0.5
    # Masking out every entry still leaves an (empty) source.
    assert len(_impact_source(pairs, candidates=np.zeros(4, dtype=bool))) == 0


def test_impact_source_exclude_absent_id_keeps_length():
    src = _impact_source([(0, 0.5)], exclude=42)
    assert len(src) == 1


def test_impact_source_interchangeable_with_eager_source():
    pairs = [(0, 3.0), (2, 2.0), (1, 1.0)]
    eager = ImpactSortedSource(list(pairs))
    impact = _impact_source(pairs)
    assert threshold_algorithm([eager], k=3) == threshold_algorithm([impact], k=3)


def test_impact_source_early_termination_skips_tail():
    n = 200
    pairs = [(0, 100.0)] + [(i + 1, 1.0 - i * 1e-4) for i in range(n)]
    s1, s2 = _impact_source(pairs), _impact_source(pairs)
    stats = AccessStats()
    threshold_algorithm([s1, s2], k=1, stats=stats)
    assert stats.rounds <= 3
    # The walk stopped after the head: the tail was never read.
    assert stats.sorted_accesses <= 2 * stats.rounds < 2 * len(pairs)


# ----------------------------------------------------------------------
# access accounting
# ----------------------------------------------------------------------
def test_access_stats_counts_full_walk():
    src = ImpactSortedSource([(0, 3.0), (1, 2.0), (2, 1.0)])
    stats = AccessStats()
    threshold_algorithm([src], k=3, stats=stats)
    assert stats.sorted_accesses == 3
    assert stats.random_accesses == 3  # one probe per newly-seen object
    assert stats.rounds == 3


def test_access_stats_merge_accumulates():
    a = AccessStats(sorted_accesses=2, random_accesses=4, rounds=1)
    a.merge(AccessStats(sorted_accesses=3, random_accesses=1, rounds=2))
    assert (a.sorted_accesses, a.random_accesses, a.rounds) == (5, 5, 3)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_matches_brute_force(data):
    """TA returns exactly the brute-force top-k (scores always; ids up
    to ties at the k-th score)."""
    n_sources = data.draw(st.integers(1, 4))
    universe = list(range(data.draw(st.integers(1, 15))))
    sources = []
    for _ in range(n_sources):
        members = data.draw(st.lists(st.sampled_from(universe), unique=True, min_size=0))
        entries = [
            (m, data.draw(st.floats(0.0, 10.0, allow_nan=False, width=32))) for m in members
        ]
        sources.append(_sorted_source(entries))
    k = data.draw(st.integers(1, 10))
    got = threshold_algorithm(sources, k=k)
    expected = _brute_force_topk(sources, k)
    assert [s for _, s in got] == pytest.approx([s for _, s in expected])
    # ids must agree wherever scores are strictly distinct
    exp_scores = [s for _, s in expected]
    for i, (oid, score) in enumerate(got):
        if exp_scores.count(score) == 1:
            assert oid == expected[i][0]


@settings(deadline=None, max_examples=300)
# Unseen "c" ties the k-th score (2.0) with a smaller id than "h".
@example(lists=[{"h": 0}, {"e": 1, "d": 2, "c": 2, "b": 2, "h": 2}], k=2)
@given(
    lists=st.lists(
        st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 3), min_size=1),
        min_size=1,
        max_size=4,
    ),
    k=st.integers(1, 9),
)
def test_ties_at_kth_place_match_brute_force(lists, k):
    """Small-integer scores make exact ties common: TA's output must be
    the brute-force ``(-score, id)`` top-k exactly, including which of
    several objects tied at the ``k``-th score it keeps."""
    lists = [{"abcdefgh".index(oid): s for oid, s in d.items()} for d in lists]
    sources = [_sorted_source([(oid, float(s)) for oid, s in d.items()]) for d in lists]
    universe = set().union(*lists)
    totals = {oid: sum(float(d.get(oid, 0)) for d in lists) for oid in universe}
    expected = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    assert threshold_algorithm(sources, k=k) == expected

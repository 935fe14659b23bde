"""Posting list semantics."""

from repro.index.postings import MAX_IMPACT_VIEWS, Posting


def test_add_and_iterate_in_order():
    p = Posting("T:a", cors=1.0)
    p.add("o1")
    p.add("o2")
    assert list(p) == ["o1", "o2"]
    assert p.object_ids == ("o1", "o2")


def test_tail_dedup():
    p = Posting("T:a", cors=1.0)
    p.add("o1")
    p.add("o1")  # repeated tail add must not duplicate
    assert len(p) == 1


def test_contains():
    p = Posting("T:a", cors=1.0)
    p.add("o1")
    assert "o1" in p
    assert "o2" not in p


def test_cors_eager():
    assert Posting("T:a", cors=0.5).cors == 0.5


def test_key():
    assert Posting("T:a|U:u", cors=1.0).key == "T:a|U:u"


# ----------------------------------------------------------------------
# impact-ordered views
# ----------------------------------------------------------------------
def _scored_posting():
    p = Posting("T:a", cors=0.5)
    p.add("o1", 0.2, 0.8)  # P(α=0.5) = 0.5
    p.add("o2", 0.9, 0.1)  # P(α=0.5) = 0.5 (tie with o1)
    p.add("o3", 0.0, 0.0)  # P = 0 at every α — dropped from views
    p.add("o4", 0.8, 0.8)  # P(α=0.5) = 0.8
    return p


def test_impact_view_sorted_descending_with_id_tiebreak():
    view = _scored_posting().impact_view(0.5)
    assert [oid for oid, _ in view.pairs] == ["o4", "o1", "o2"]
    scores = [s for _, s in view.pairs]
    assert scores == sorted(scores, reverse=True)
    # tie between o1 and o2 broken by ascending id (ranked_sort order)
    assert view.scores["o1"] == view.scores["o2"]


def test_impact_view_drops_nonpositive_entries():
    view = _scored_posting().impact_view(0.5)
    assert "o3" not in view.scores
    assert all(s > 0.0 for s in view.scores.values())


def test_impact_view_alpha_remixes_stored_components():
    p = _scored_posting()
    # α=1 ranks by freq part alone; α=0 by smoothing part alone.
    assert [oid for oid, _ in p.impact_view(1.0).pairs] == ["o2", "o4", "o1"]
    assert [oid for oid, _ in p.impact_view(0.0).pairs] == ["o1", "o4", "o2"]


def test_impact_view_exact_mix():
    p = _scored_posting()
    alpha = 0.3
    view = p.impact_view(alpha)
    assert view.scores["o1"] == alpha * 0.2 + (1.0 - alpha) * 0.8


def test_impact_view_cached_and_invalidated_by_add():
    p = _scored_posting()
    view = p.impact_view(0.5)
    assert p.impact_view(0.5) is view  # cached
    p.add("o5", 1.0, 1.0)
    fresh = p.impact_view(0.5)
    assert fresh is not view
    assert "o5" in fresh.scores


def test_impact_view_cache_bounded():
    p = _scored_posting()
    alphas = [i / (MAX_IMPACT_VIEWS + 4) for i in range(MAX_IMPACT_VIEWS + 4)]
    for alpha in alphas:
        p.impact_view(alpha)
    assert len(p._views) <= MAX_IMPACT_VIEWS


def test_components_by_entry_index():
    p = _scored_posting()
    assert p.components(0) == (0.2, 0.8)
    assert p.components(3) == (0.8, 0.8)
    assert p.component_arrays() == ([0.2, 0.9, 0.0, 0.8], [0.8, 0.1, 0.0, 0.8])


def test_extend_scored_bulk_append_dedups_tail():
    p = Posting("T:a", cors=1.0)
    p.extend_scored([("o1", 0.1, 0.2), ("o1", 0.1, 0.2), ("o2", 0.3, 0.4)])
    assert p.object_ids == ("o1", "o2")
    assert p.components(1) == (0.3, 0.4)


def test_legacy_add_defaults_to_zero_components():
    p = Posting("T:a", cors=1.0)
    p.add("o1")
    assert p.components(0) == (0.0, 0.0)
    assert p.impact_view(0.5).pairs == []

"""Posting list semantics."""

from repro.index.postings import Posting


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
# stored components
# ----------------------------------------------------------------------
def _scored_posting():
    p = Posting("T:a", cors=0.5)
    p.add("o1", 0.2, 0.8)
    p.add("o2", 0.9, 0.1)
    p.add("o3", 0.0, 0.0)
    p.add("o4", 0.8, 0.8)
    return p


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
    assert p.component_arrays() == ([0.0], [0.0])

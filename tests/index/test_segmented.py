"""Multi-segment index stack: bit parity with a monolithic rebuild.

The delta-segment design (ingest appends small tail segments; queries
run over the stack) is only sound if a query cannot tell the stack from
a from-scratch build over the same objects and the same frozen
correlation model.  The Hypothesis property here drives that across
random α, λ weights, δ, segment splits and both index engines (scalar
TA and vectorized), with *twin* objects (identical feature bags —
exact score ties) planted across the main/delta boundary so the
tie-break ordering is exercised, not just scores.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mrf import MRFParameters
from repro.core.objects import Feature, MediaObject
from repro.core.retrieval import RetrievalEngine, correlation_model_for_corpus
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segmented import SegmentedCliqueIndex, image_segment
from repro.social.corpus import Corpus
from repro.social.users import SocialGraph

MAX_CLIQUE = 2
N_BASE = 48
N_EXTRA = 16


def _bag(i: int) -> Counter:
    return Counter(
        {
            Feature.text(f"tag{i % 6}"): 1 + i % 3,
            Feature.text("shared"): 1,
            Feature.user(f"u{i % 4}"): 1,
        }
    )


def _objects() -> tuple[list[MediaObject], list[MediaObject]]:
    base = [
        MediaObject(object_id=f"b{i:04d}", features=_bag(i), timestamp=i % 6)
        for i in range(N_BASE)
    ]
    # Twin pair inside main: identical bags, distinct ids.
    base.append(MediaObject(object_id="twin-a1", features=_bag(7), timestamp=1))
    base.append(MediaObject(object_id="twin-a2", features=_bag(7), timestamp=1))
    extra = [
        MediaObject(object_id=f"x{i:04d}", features=_bag(i + 3), timestamp=i % 6)
        for i in range(N_EXTRA)
    ]
    # Cross-boundary twin: the delta object ties a main object exactly.
    extra.append(MediaObject(object_id="twin-b-delta", features=_bag(7), timestamp=1))
    return base, extra


@pytest.fixture(scope="module")
def fixture_state():
    base, extra = _objects()
    social = SocialGraph({f"u{i}": [] for i in range(4)})
    full = Corpus(objects=base + extra, social=social, n_months=6)
    model = correlation_model_for_corpus(
        Corpus(objects=base, social=social, n_months=6)
    )  # the *frozen* snapshot model, computed before the extras existed
    mono = CliqueInvertedIndex(model, max_clique_size=MAX_CLIQUE).build(base + extra)
    main = CliqueInvertedIndex(model, max_clique_size=MAX_CLIQUE).build(base)
    return full, model, mono, main, extra


params_strategy = st.builds(
    MRFParameters,
    lambdas=st.fixed_dictionaries(
        {
            1: st.floats(0.1, 2.0, allow_nan=False),
            2: st.floats(0.0, 2.0, allow_nan=False),
        }
    ),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    delta=st.floats(0.05, 1.0, allow_nan=False, exclude_min=True),
)

cuts_strategy = st.lists(
    st.integers(min_value=1, max_value=N_EXTRA), unique=True, min_size=0, max_size=2
).map(sorted)


def _stack(main, extra, cuts, model):
    """``main`` (a builder, or the view of a mapped segment) stacked
    with one delta image per slice of ``extra`` between ``cuts``."""
    bounds = [0, *cuts, len(extra)]
    deltas = [
        image_segment(
            CliqueInvertedIndex(model, max_clique_size=MAX_CLIQUE).build(extra[lo:hi])
        )
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    main_view = image_segment(main) if isinstance(main, CliqueInvertedIndex) else main
    return SegmentedCliqueIndex(main_view, deltas)


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(params=params_strategy, cuts=cuts_strategy, data=st.data())
def test_segmented_rankings_bit_identical_to_monolithic(fixture_state, params, cuts, data):
    full, model, mono, main, extra = fixture_state
    stack = _stack(main, extra, cuts, model)
    mono_engine = RetrievalEngine(full, params=params, correlations=model, index=mono)
    seg_engine = RetrievalEngine(full, params=params, correlations=model, index=stack)
    queries = ["twin-a1", "twin-b-delta", "b0007", "x0003"]
    queries.append(data.draw(st.sampled_from([o.object_id for o in full])))
    for qid in queries:
        query = full.get(qid)
        for mode in ("index", "auto"):
            expect = mono_engine.search(query, k=10, mode=mode)
            got = seg_engine.search(query, k=10, mode=mode)
            assert [(r.object_id, r.score) for r in got] == [
                (r.object_id, r.score) for r in expect
            ], (qid, mode, params.alpha, cuts)


def test_twin_tie_ordering_across_boundary(fixture_state):
    """Exact ties between a main object and a delta object order by id
    exactly as in the monolithic build (the ``>=`` twin rule)."""
    full, model, mono, main, extra = fixture_state
    stack = _stack(main, extra, [8], model)
    params = MRFParameters(lambdas={1: 1.0, 2: 0.5})
    mono_engine = RetrievalEngine(full, params=params, correlations=model, index=mono)
    seg_engine = RetrievalEngine(full, params=params, correlations=model, index=stack)
    query = full.get("twin-a2")
    for mode in ("index", "auto"):
        expect = mono_engine.search(query, k=20, mode=mode)
        got = seg_engine.search(query, k=20, mode=mode)
        assert [(r.object_id, r.score) for r in got] == [
            (r.object_id, r.score) for r in expect
        ]
        twins = [r.object_id for r in got if r.object_id.startswith("twin")]
        assert "twin-a1" in twins and "twin-b-delta" in twins


# ----------------------------------------------------------------------
# stack mechanics
# ----------------------------------------------------------------------
def test_with_delta_shares_main_and_prior_deltas(fixture_state):
    _full, model, _mono, main, extra = fixture_state
    stack = _stack(main, extra[:8], [], model)
    tail = CliqueInvertedIndex(model, max_clique_size=MAX_CLIQUE).build(extra[8:])
    delta = image_segment(tail)
    grown = stack.with_delta(delta)
    assert grown.main is stack.main
    assert grown.deltas[: len(stack.deltas)] == stack.deltas
    assert grown.deltas[-1] is delta
    assert grown.n_objects == stack.n_objects + tail.n_objects


def test_segment_stats_shape(fixture_state):
    _full, model, _mono, main, extra = fixture_state
    stack = _stack(main, extra, [8], model)
    stats = stack.segment_stats()
    assert stats["n_segments"] == 3
    assert stats["main_objects"] == main.n_objects
    assert stats["delta_objects"] == [8, len(extra) - 8]
    assert len(stats["delta_cliques"]) == 2


def test_stack_is_read_only(fixture_state):
    _full, model, _mono, main, extra = fixture_state
    stack = _stack(main, extra, [], model)
    assert not hasattr(stack, "add_object")
    assert not hasattr(stack, "build")


def test_serializing_stack_matches_monolithic_bytes(fixture_state, tmp_path):
    """``save_index`` over the stack equals the monolithic artifact —
    first-encounter iteration order is the build's insertion order."""
    from repro.storage.store import save_index

    _full, model, mono, main, extra = fixture_state
    stack = _stack(main, extra, [5, 11], model)
    a = save_index(mono, tmp_path / "mono.bin")
    b = save_index(stack, tmp_path / "stack.bin")
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# the stack's read API equals the monolithic build's
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["memory", "mmap"])
def main_segment(request, fixture_state, tmp_path_factory):
    """The main segment as a stack reads it: the builder's image in
    memory, or the same segment written to a file and mapped."""
    from repro.storage.store import load_index, save_index

    _full, model, _mono, main, _extra = fixture_state
    if request.param == "memory":
        yield image_segment(main)
        return
    path = save_index(main, tmp_path_factory.mktemp("segmented") / "main.bin")
    loaded = load_index(path, model)
    assert not loaded.deltas and loaded.main.path == path
    yield loaded.main
    loaded.close()


STAT_FIELDS = (
    "n_objects",
    "n_cliques",
    "total_postings",
    "avg_posting_length",
    "max_posting_length",
)


@pytest.mark.parametrize("cuts", [[], [1], [8], [3, 11], [N_EXTRA]])
def test_stack_stats_equal_monolithic(fixture_state, main_segment, cuts):
    """Every size field, ``max_posting_length`` included: a clique in
    several segments counts its merged length, not a segment's."""
    _full, model, mono, _main, extra = fixture_state
    stats = _stack(main_segment, extra, cuts, model).stats()
    expected = mono.stats()
    assert {name: stats[name] for name in STAT_FIELDS} == expected


def _entries(posting):
    freq, smooth = posting.component_arrays()
    return sorted(zip(posting.object_ids, freq, smooth))


@pytest.mark.parametrize("cuts", [[], [5, 11]])
def test_stack_lookup_equals_monolithic(fixture_state, main_segment, cuts):
    _full, model, mono, _main, extra = fixture_state
    stack = _stack(main_segment, extra, cuts, model)
    held = Counter(key for segment in (main_segment, *stack.deltas) for key in segment.keys())
    assert any(n >= 2 for n in held.values())
    assert len(stack) == len(mono) == len(held)
    for posting in mono.iter_postings():
        key = posting.key
        assert key in stack
        merged = stack.lookup(key)
        assert merged is not None
        assert merged.cors == posting.cors == stack.cors_for_key(key)
        assert _entries(merged) == _entries(posting), (key, held[key])
    assert stack.lookup("no-such-clique") is None
    assert stack.cors_for_key("no-such-clique") is None


@pytest.mark.parametrize("layout", ["memory", "mmap", "mmap+deltas"])
def test_full_scan_keeps_nothing_decoded(fixture_state, tmp_path, layout):
    """``iter_postings`` (``save_index``'s input) reads every posting
    but leaves each segment's decoded arrays as it found them: a
    query-touched clique stays decoded, no other one is pinned."""
    from repro.storage.store import load_index, save_index

    _full, model, mono, main, extra = fixture_state
    if layout == "memory":
        stack = SegmentedCliqueIndex(image_segment(main))
    else:
        stack = load_index(save_index(main, tmp_path / "main.bin"), model)
        if layout == "mmap+deltas":
            stack = _stack(stack.main, extra, [5, 11], model)
    assert stack.lookup(next(iter(mono.iter_postings())).key) is not None
    before = stack.stats()
    assert before["decoded_slots"] >= 1
    assert sum(1 for _ in stack.iter_postings()) == len(mono)
    after = stack.stats()
    assert after["decoded_slots"] == before["decoded_slots"]
    segments = (stack.main, *stack.deltas)
    assert sum(segment.decoded_slots for segment in segments) <= len(segments)

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
from repro.index.segmented import SegmentedCliqueIndex
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
    bounds = [0, *cuts, len(extra)]
    deltas = [
        CliqueInvertedIndex(model, max_clique_size=MAX_CLIQUE).build(
            extra[lo:hi]
        )
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    return SegmentedCliqueIndex(main, deltas, correlations=model)


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
    grown = stack.with_delta(tail)
    assert grown.main is stack.main
    assert grown.deltas[: len(stack.deltas)] == stack.deltas
    assert grown.deltas[-1] is tail
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
    with pytest.raises(TypeError, match="read-only"):
        stack.add_object(extra[0])
    with pytest.raises(TypeError, match="read-only"):
        stack.build(extra)


def test_serializing_stack_matches_monolithic_bytes(fixture_state, tmp_path):
    """``save_index`` over the stack equals the monolithic artifact —
    first-encounter iteration order is the build's insertion order."""
    from repro.storage.store import save_index

    _full, model, mono, main, extra = fixture_state
    stack = _stack(main, extra, [5, 11], model)
    a = save_index(mono, tmp_path / "mono.bin")
    b = save_index(stack, tmp_path / "stack.bin")
    assert a.read_bytes() == b.read_bytes()

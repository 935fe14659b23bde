"""The accumulate-and-select kernel: scores, order, views, parity.

Unit coverage for :mod:`repro.index.vectorized`.  The kernel's scores
must equal the source-order sum of the scaled impacts, computed in
Python floats, bit for bit (compared as ``float.hex``), and its ranking
must equal brute force and the scalar Threshold Algorithm's over the
same terms — through every vector view flavour (an image of the
postings, a mapped file, and a segment stack holding one key in
several segments) and through the recommender's candidate mask.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mrf import MRFParameters
from repro.core.recommendation import Recommender
from repro.core.retrieval import RetrievalEngine
from repro.index.binfmt import BinaryIndexReader, encode_image, write_index_file
from repro.index.postings import Posting
from repro.index.threshold import AccessStats, impact_sources, threshold_algorithm
from repro.index.vectorized import (
    MmapVectorView,
    PostingVectors,
    SegmentedVectorView,
    accumulate_top_k,
)
from repro.storage.store import load_index, save_index

N_ENTRIES = 401


def _synthetic_vectors(seed: int = 0) -> PostingVectors:
    """A long posting with deliberate ties and zero impacts."""
    rng = np.random.default_rng(seed)
    ids = np.arange(N_ENTRIES, dtype=np.int64)
    freq = rng.uniform(0.0, 1.0, N_ENTRIES)
    freq[rng.integers(0, N_ENTRIES, 40)] = 0.5  # cross-block ties
    freq[rng.integers(0, N_ENTRIES, 25)] = 0.0  # dropped: zero impact
    smooth = rng.uniform(0.0, 0.5, N_ENTRIES)
    smooth[freq == 0.0] = 0.0
    return PostingVectors("tag:test", 0.8, ids, freq, smooth)


def _expected_entries(vectors, alpha, inner, outer, exclude=()):
    """The scalar reference: every positive entry, scaled with Python
    floats, in ``(-impact, id)`` order."""
    impacts = alpha * vectors.freq + (1.0 - alpha) * vectors.smooth
    entries = [
        (int(i), outer * (inner * float(p)))
        for i, p in zip(vectors.ids, impacts)
        if p > 0.0 and int(i) not in exclude
    ]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


# ----------------------------------------------------------------------
# the kernel on synthetic postings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [0.0, 0.37, 0.5, 1.0])
def test_emission_matches_scalar_order_bitwise(alpha):
    """One source, every entry selected: the ranking is the scalar
    source's ``(-impact, id)`` emission order, scores bit for bit."""
    vectors = _synthetic_vectors()
    expected = _expected_entries(vectors, alpha, 0.3, 2.0)
    top = accumulate_top_k([(vectors, 0.3, 2.0)], alpha, k=N_ENTRIES)
    assert top.ranking == expected  # ids AND float scores, ties by ascending id
    assert top.n_sources == 1
    assert top.n_entries == top.n_candidates == len(expected)


def test_exclusion_drops_entries_everywhere():
    vectors = _synthetic_vectors()
    alpha, inner = 0.5, 0.7
    impacts = alpha * vectors.freq + (1.0 - alpha) * vectors.smooth
    positive = int(np.argmax(impacts > 0.0))
    expected = _expected_entries(vectors, alpha, inner, 1.0, exclude={positive})
    top = accumulate_top_k([(vectors, inner, 1.0)], alpha, k=N_ENTRIES, exclude=positive)
    assert top.ranking == expected
    assert positive not in {dense for dense, _ in top.ranking}
    # An excluded id absent from every posting changes nothing.
    absent = accumulate_top_k(
        [(vectors, inner, 1.0)], alpha, k=N_ENTRIES, exclude=N_ENTRIES + 100
    )
    assert absent.ranking == _expected_entries(vectors, alpha, inner, 1.0)


def test_accumulate_matches_per_id_score_sum():
    terms = [(_synthetic_vectors(seed), 0.2 * (seed + 1), 1.0) for seed in range(3)]
    top = accumulate_top_k(terms, 0.5, k=N_ENTRIES)
    scores = dict(top.ranking)
    for dense in range(N_ENTRIES):
        total = 0.0
        for vectors, inner, outer in terms:
            p = 0.5 * float(vectors.freq[dense]) + 0.5 * float(vectors.smooth[dense])
            total += outer * (inner * p) if p > 0.0 else 0.0
        if total > 0.0:
            assert scores[dense].hex() == total.hex()  # source order preserved
        else:
            assert dense not in scores


def test_no_terms_and_bad_k():
    assert accumulate_top_k([], 0.5, k=3).ranking == []
    with pytest.raises(ValueError):
        accumulate_top_k([(_synthetic_vectors(), 1.0, 1.0)], 0.5, k=0)


def test_candidate_mask_restricts_ranking():
    vectors = _synthetic_vectors()
    mask = np.zeros(N_ENTRIES, dtype=bool)
    mask[::3] = True
    top = accumulate_top_k([(vectors, 1.0, 1.0)], 0.5, k=N_ENTRIES, candidates=mask)
    expected = [e for e in _expected_entries(vectors, 0.5, 1.0, 1.0) if mask[e[0]]]
    assert top.ranking == expected


# ----------------------------------------------------------------------
# property: kernel == scalar TA through every view flavour
# ----------------------------------------------------------------------
N_IDS = 12
#: Few distinct component values, so exact score ties are common.
COMPONENTS = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5, 1.0])
WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.01, 3.0)

postings_strategy = st.lists(
    st.dictionaries(
        st.integers(0, N_IDS - 1), st.tuples(COMPONENTS, COMPONENTS), min_size=1
    ),
    min_size=1,
    max_size=5,
)


def _oid(i: int) -> str:
    return f"o{i:03d}"


def _image(postings: list[Posting]) -> MmapVectorView:
    """The postings' image, counting the objects they hold."""
    n_objects = len({oid for p in postings for oid in p})
    return MmapVectorView(encode_image(postings, n_objects=n_objects, max_clique_size=3))


def _posting(key: str, entries: dict[int, tuple[float, float]]) -> Posting:
    posting = Posting(key, cors=1.0)
    for i in sorted(entries):
        posting.add(_oid(i), *entries[i])
    return posting


def _brute_force(postings, weights, alpha, exclude=None, candidates=None):
    """The exact reference over the postings' Python floats: per-id full
    scores (the term-order sum of ``outer·(inner·P)`` over positive
    ``P``), the number of postings with a positive ``P`` (counted
    before exclusion) and the number of entries that survive."""
    full: dict[str, float] = {}
    n_sources = n_entries = 0
    for posting, (inner, outer) in zip(postings, weights):
        freq, smooth = posting.component_arrays()
        positive = False
        for oid, f, sm in zip(posting, freq, smooth):
            p = alpha * f + (1.0 - alpha) * sm
            if p <= 0.0:
                continue
            positive = True
            if oid == exclude or (candidates is not None and oid not in candidates):
                continue
            full[oid] = full.get(oid, 0.0) + outer * (inner * p)
            n_entries += 1
        n_sources += positive
    return full, n_sources, n_entries


def _top_k(full, k):
    return sorted(full.items(), key=lambda e: (-e[1], e[0]))[:k]


@contextmanager
def _every_view(raw, split):
    """The postings of ``raw`` behind every vector-view flavour: their
    image, one mmap'd file, and a segment stack (an mmap'd main plus
    two images) over which each posting's entries are dealt
    by object — an object lives in one segment, as ingest appends new
    objects — so most keys sit in several segments."""
    postings = [_posting(f"c{i}", entries) for i, entries in enumerate(raw)]
    segment_of = {i: (split >> (2 * (i % 8))) % 3 for i in range(N_IDS)}
    parts = [
        [
            _posting(f"c{i}", {o: e for o, e in entries.items() if segment_of[o] == seg})
            for i, entries in enumerate(raw)
        ]
        for seg in range(3)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_index_file(
            Path(tmp) / "index.bin", postings, n_objects=N_IDS, max_clique_size=3
        )
        main_parts = [p for p in parts[0] if len(p)]
        main_path = None
        if main_parts:
            main_path = write_index_file(
                Path(tmp) / "main.bin", main_parts, n_objects=N_IDS, max_clique_size=3
            )
        with BinaryIndexReader(path) as reader:
            readers = [BinaryIndexReader(main_path)] if main_path else []
            try:
                segments: list = [MmapVectorView(r) for r in readers]
                segments += [
                    _image([p for p in part if len(p)]) for part in parts[1:]
                ]
                yield postings, {
                    "image": _image(postings),
                    "mmap": MmapVectorView(reader),
                    "segmented": SegmentedVectorView(segments),
                }
            finally:
                for r in readers:
                    r.close()


def _dense_exclude(view, exclude):
    return view.dense_id(_oid(exclude)) if exclude is not None else None


@settings(deadline=None, max_examples=60)
@given(
    raw=postings_strategy,
    weights=st.lists(st.tuples(WEIGHTS, WEIGHTS), min_size=5, max_size=5),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    k=st.integers(1, N_IDS + 1),
    exclude=st.none() | st.integers(0, N_IDS + 2),
    split=st.integers(0, 2**16),
)
def test_kernel_equals_scalar_ta_on_every_view(raw, weights, alpha, k, exclude, split):
    with _every_view(raw, split) as (postings, views):
        weights = weights[: len(postings)]
        excluded = _oid(exclude) if exclude is not None else None
        full, n_sources, n_entries = _brute_force(postings, weights, alpha, excluded)
        expected = _top_k(full, k)
        for name, view in views.items():
            terms = [
                (view.vectors(p.key), inner, outer)
                for p, (inner, outer) in zip(postings, weights)
            ]
            top = accumulate_top_k(terms, alpha, k, exclude=_dense_exclude(view, exclude))
            got = [(view.object_id(d), s) for d, s in top.ranking]
            assert got == expected, name
            for oid, score in got:
                assert score.hex() == full[oid].hex(), (name, oid)
            # Every object with a positive impact is a candidate.
            assert top.n_candidates == len(full)
            assert top.n_sources == n_sources
            assert top.n_entries == n_entries
            sources = impact_sources(terms, alpha, exclude=_dense_exclude(view, exclude))
            scalar = threshold_algorithm(sources, k=k)
            assert scalar == top.ranking, name


@settings(deadline=None, max_examples=60)
@given(
    raw=postings_strategy,
    weights=st.lists(st.tuples(WEIGHTS, WEIGHTS), min_size=5, max_size=5),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    k=st.integers(1, N_IDS + 1),
    exclude=st.none() | st.integers(0, N_IDS + 2),
    candidates=st.none() | st.sets(st.integers(0, N_IDS - 1)),
    split=st.integers(0, 2**16),
)
def test_scalar_ta_equals_brute_force_on_every_view(
    raw, weights, alpha, k, exclude, candidates, split
):
    """Scalar ``mode="index"``'s walk — :func:`impact_sources` and the
    Threshold Algorithm over the view's arrays — ranks exactly like
    brute force over the same entries, scores bit for bit, with any α,
    exclusion and candidate mask."""
    with _every_view(raw, split) as (postings, views):
        weights = weights[: len(postings)]
        excluded = _oid(exclude) if exclude is not None else None
        allowed = {_oid(i) for i in candidates} if candidates is not None else None
        full, n_sources, n_entries = _brute_force(
            postings, weights, alpha, excluded, allowed
        )
        expected = _top_k(full, k)
        for name, view in views.items():
            mask = None
            if allowed is not None:
                mask = np.zeros(view.n_objects, dtype=bool)
                for oid in allowed:
                    dense = view.dense_id(oid)
                    if dense is not None:
                        mask[dense] = True
            terms = [
                (view.vectors(p.key), inner, outer)
                for p, (inner, outer) in zip(postings, weights)
            ]
            sources = impact_sources(
                terms, alpha, exclude=_dense_exclude(view, exclude), candidates=mask
            )
            stats = AccessStats()
            ranking = threshold_algorithm(sources, k=k, stats=stats)
            got = [(view.object_id(d), s.hex()) for d, s in ranking]
            assert got == [(oid, s.hex()) for oid, s in expected], name
            assert len(sources) == n_sources
            assert sum(len(s) for s in sources) == n_entries
            assert stats.sorted_accesses <= n_entries


# ----------------------------------------------------------------------
# property: the recommender's masked kernel == its scalar TA
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_recommenders(rec_corpus, tmp_path_factory):
    """Recommenders over the engine's corpus-wide index (so the
    candidate mask is a strict subset), built and as an index file."""
    engine = RetrievalEngine(rec_corpus)
    path = tmp_path_factory.mktemp("kernel-rec") / "index.bin"
    save_index(engine.index, path)
    mmapped = load_index(path, engine.correlations)
    recs = {
        name: Recommender(rec_corpus, index=index, correlations=engine.correlations)
        for name, index in (("built", engine.index), ("mmap", mmapped))
    }
    yield recs
    mmapped.close()


@settings(deadline=None, max_examples=25)
@given(
    user_index=st.integers(0, 1000),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    lambdas=st.fixed_dictionaries(
        {1: st.floats(0.05, 1.0)}, optional={2: st.floats(0.0, 1.0)}
    ),
    delta=st.floats(0.05, 1.0),
    k=st.integers(1, 15),
)
def test_recommender_kernel_matches_scalar_index(
    shared_recommenders, rec_corpus, user_index, alpha, lambdas, delta, k
):
    users = rec_corpus.favorite_users()
    user = users[user_index % len(users)]
    params = MRFParameters(alpha=alpha, lambdas=lambdas, delta=delta)
    for name, base in shared_recommenders.items():
        rec = base.with_params(params)
        fast = rec.recommend(user, k=k)
        scalar = rec.recommend(user, k=k, mode="index")
        assert [(h.object_id, h.score.hex()) for h in fast] == [
            (h.object_id, h.score.hex()) for h in scalar
        ], name

"""The per-object scoring kernel (``mrf.score_object``) against the
clique-by-clique reference path.

The index build scores every object through the kernel; the scan
scorer and the query path still go through ``Clique`` objects and
``joint_components``.  Both must give the same floats bit for bit, in
the same order, or ``index.bin`` and the served rankings drift from
the model.  The reference here is built without the kernel's pair
rows: edges come from ``CorrelationModel.correlated`` pair by pair.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.correlation import CorrelationModel, OccurrenceStats
from repro.core.fig import FeatureInteractionGraph
from repro.core.mrf import joint_components, object_rows, score_object
from repro.core.objects import Feature, MediaObject
from repro.core.retrieval import correlation_model_for_corpus

MAX_SIZE = 3

#: Tags and users no corpus object holds: Eq. 1 and Eq. 8 see an empty
#: posting for them.
UNSEEN = (Feature.text("zz-unseen-a"), Feature.text("zz-unseen-b"), Feature.user("nobody"))


def _unit(*parts: str) -> float:
    digest = hashlib.sha256("|".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FixedCorrelations(CorrelationModel):
    """Pair values and CorS fixed by a hash of the features — a model
    that overrides both ``_compute_cor`` and ``cors``."""

    def __init__(self) -> None:
        super().__init__(stats=OccurrenceStats([]), default_threshold=0.5)

    def _compute_cor(self, a, b):
        lo, hi = sorted((a.key, b.key))
        return _unit(lo, hi)

    def cors(self, features):
        return _unit(*(f.key for f in features))


def _reference(obj: MediaObject, model: CorrelationModel) -> list[tuple[str, float, float, float]]:
    nodes = obj.distinct_features()
    edges = [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if model.correlated(a, b)
    ]
    fig = FeatureInteractionGraph(nodes=nodes, edges=edges, source_id=obj.object_id)
    row_sums: dict = {}
    rows = []
    for clique in fig.cliques(max_size=MAX_SIZE):
        freq_part, smooth_part = joint_components(clique, obj, model, row_sums)
        rows.append((clique.key, model.cors(clique.features), freq_part, smooth_part))
    return rows


def _bits(rows):
    """Rows with every float as its exact hex form, so ``==`` is a
    bit-for-bit comparison (and NaN would not compare equal to itself
    silently)."""
    return [(key, cors.hex(), freq.hex(), smooth.hex()) for key, cors, freq, smooth in rows]


@pytest.fixture(scope="module")
def vocabulary(tiny_corpus):
    return sorted({f for obj in tiny_corpus for f in obj.features}) + list(UNSEEN)


def _objects(vocabulary):
    bag = st.dictionaries(
        st.sampled_from(vocabulary), st.integers(min_value=1, max_value=4), max_size=24
    )
    return st.builds(lambda b: MediaObject("gen", features=b), bag)


MODELS = {
    "corpus": lambda corpus: correlation_model_for_corpus(corpus),
    "fixed": lambda corpus: FixedCorrelations(),
}


@pytest.mark.parametrize("contracts", ["contracts_on", "contracts_off"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_kernel_rows_equal_reference_bit_for_bit(
    request, tiny_corpus, vocabulary, model_name, contracts
):
    request.getfixturevalue(contracts)
    make = MODELS[model_name]

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(objs=st.lists(_objects(vocabulary), min_size=1, max_size=3))
    def check(objs):
        kernel_model, reference_model = make(tiny_corpus), make(tiny_corpus)
        for obj in objs:
            assert _bits(score_object(obj, kernel_model, MAX_SIZE)) == _bits(
                _reference(obj, reference_model)
            )
        # The kernel reads each pair once but computes exactly the pairs
        # the pair-by-pair path computes.
        assert kernel_model.cache_size() == reference_model.cache_size()

    check()


def test_kernel_over_corpus_objects(tiny_corpus, correlations):
    for obj in list(tiny_corpus)[:30]:
        assert _bits(score_object(obj, correlations, MAX_SIZE)) == _bits(
            _reference(obj, correlations)
        )


def test_fig_edges_are_the_correlated_pairs(tiny_corpus, correlations):
    for obj in list(tiny_corpus)[:30]:
        fig = FeatureInteractionGraph.from_object(obj, correlations)
        nodes = obj.distinct_features()
        expected = {
            frozenset((a, b))
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
            if correlations.correlated(a, b)
        }
        got = {frozenset((a, b)) for a in fig.nodes for b in fig.neighbours(a)}
        assert got == expected


def test_cors_lookup_supplies_known_values(tiny_corpus, correlations):
    obj = tiny_corpus[0]
    rows = score_object(obj, correlations, MAX_SIZE, cors_lookup=lambda key: -1.0)
    assert rows and all(cors == -1.0 for _, cors, _, _ in rows)
    # ``None`` from the lookup falls back to Eq. 8.
    fallback = score_object(obj, correlations, MAX_SIZE, cors_lookup=lambda key: None)
    assert _bits(fallback) == _bits(score_object(obj, correlations, MAX_SIZE))


def test_empty_and_single_feature_objects(correlations):
    assert score_object(MediaObject("empty"), correlations, MAX_SIZE) == []
    single = MediaObject("one", features={Feature.text("x"): 3})
    assert score_object(single, correlations, MAX_SIZE) == [("T:x", 1.0, 1.0, 0.0)]


def test_object_rows_are_symmetric_with_unit_diagonal(tiny_corpus, correlations):
    rows = object_rows(tiny_corpus[1], correlations)
    nodes, matrix = rows.nodes, rows.rows
    assert nodes == tiny_corpus[1].distinct_features()
    for i, a in enumerate(nodes):
        assert matrix[i][i] == 1.0
        for j, b in enumerate(nodes):
            assert matrix[i][j] == matrix[j][i] == correlations.cor(a, b)

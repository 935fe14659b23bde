"""The int-keyed ``Cor`` pair memo against the ``(Feature, Feature)``
memo it replaced.

``CorrelationModel`` keys its one pair memo by the two features'
interned ids and fills cold pairs in ``pair_rows`` with a direct
``_compute_cor`` call.  The reference below is the earlier memo, kept
verbatim in this test: keyed by feature tuples over fresh value-equal
instances (no interning), with ``pair_rows`` re-entering ``cor``.  Both
must return the same floats bit for bit, hold the same number of
memoized pairs and compute the same pairs in the same order.  Eq. 1's
dot product now runs over the shared keys of the two postings; it sums
integers, so it is exact in any order and no cosine moves.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    DEFAULT_TABLE_THRESHOLDS,
    CorrelationModel,
    OccurrenceStats,
)
from repro.core.objects import Feature, FeatureType, MediaObject
from repro.text.wup import WuPalmerSimilarity


@dataclass(frozen=True, order=True)
class PlainFeature:
    """A feature as a plain value object: equal features are distinct
    instances, compared and hashed field by field."""

    ftype: FeatureType
    name: str


class ReferenceMemo:
    """The ``(Feature, Feature)``-keyed memo, ``cor`` and ``pair_rows``
    as they were before interning, computing through ``model``."""

    def __init__(self, model: CorrelationModel) -> None:
        self.model = model
        self.cache: dict[tuple[PlainFeature, PlainFeature], float] = {}

    def _compute(self, a: PlainFeature, b: PlainFeature) -> float:
        return self.model._compute_cor(Feature(a.ftype, a.name), Feature(b.ftype, b.name))

    def cor(self, a: PlainFeature, b: PlainFeature) -> float:
        if a == b:
            return 1.0
        key = (a, b) if (a.ftype.value, a.name) <= (b.ftype.value, b.name) else (b, a)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        value = self._compute(a, b)
        self.cache[key] = value
        return value

    def pair_rows(self, nodes: list[PlainFeature]) -> list[list[float]]:
        cache = self.cache
        rows = [[1.0] * len(nodes) for _ in nodes]
        for i, a in enumerate(nodes):
            row = rows[i]
            for j in range(i + 1, len(nodes)):
                b = nodes[j]
                value = cache.get((a, b))
                if value is None:
                    value = self.cor(a, b)
                row[j] = value
                rows[j][i] = value
        return rows


def _plain(feature: Feature) -> PlainFeature:
    return PlainFeature(feature.ftype, feature.name)


def _corpus_args(corpus) -> dict:
    return dict(
        stats=OccurrenceStats(corpus),
        text_similarity=WuPalmerSimilarity(corpus.taxonomy),
        codebook=corpus.codebook,
        social=corpus.social,
        thresholds=dict(DEFAULT_TABLE_THRESHOLDS),
    )


class LoggedCorpusModel(CorrelationModel):
    """The corpus measures, logging each computation on its way into
    the real (contract-wrapped) ``_compute_cor``."""

    def __init__(self, corpus, log: list) -> None:
        super().__init__(**_corpus_args(corpus))
        self.log = log

    def _compute_cor(self, a, b):
        self.log.append((a.key, b.key))
        return super()._compute_cor(a, b)


class LoggedFixedModel(CorrelationModel):
    """A measure that replaces ``_compute_cor`` outright (no contract
    wrappers), asymmetric in its operands so the call order shows."""

    def __init__(self, corpus, log: list) -> None:
        super().__init__(stats=OccurrenceStats([]), default_threshold=0.5)
        self.log = log

    def _compute_cor(self, a, b):
        self.log.append((a.key, b.key))
        return (len(a.key) * 7 + len(b.key) * 3 + ord(a.name[0]) - ord(b.name[-1])) % 101 / 101


MODELS = {
    "corpus": lambda corpus, log: CorrelationModel(**_corpus_args(corpus)),
    "corpus-logged": LoggedCorpusModel,
    "fixed-logged": LoggedFixedModel,
}


@pytest.fixture(scope="module")
def vocabulary(tiny_corpus):
    seen = sorted({f for obj in tiny_corpus for f in obj.features})
    # Features no object holds: Eq. 1 sees an empty posting for them.
    return seen[::7] + [Feature.text("zz-memo-unseen"), Feature.user("memo-nobody")]


def _operations(vocabulary):
    rows = st.tuples(
        st.just("rows"), st.lists(st.sampled_from(vocabulary), unique=True, max_size=10)
    )
    pair = st.tuples(st.just("cor"), st.sampled_from(vocabulary), st.sampled_from(vocabulary))
    return st.lists(st.one_of(rows, pair, st.tuples(st.just("pickle"))), max_size=12)


def _hex_rows(rows):
    return [[value.hex() for value in row] for row in rows]


@pytest.mark.parametrize("contracts", ["contracts_on", "contracts_off"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_int_keyed_memo_equals_feature_keyed_reference(
    request, tiny_corpus, vocabulary, model_name, contracts
):
    request.getfixturevalue(contracts)
    make = MODELS[model_name]

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=_operations(vocabulary))
    def check(ops):
        log: list = []
        reference_log: list = []
        model = make(tiny_corpus, log)
        reference = ReferenceMemo(make(tiny_corpus, reference_log))
        for op in ops:
            if op[0] == "rows":
                nodes = sorted(op[1])
                got = model.pair_rows(nodes)
                want = reference.pair_rows([_plain(f) for f in nodes])
                assert _hex_rows(got) == _hex_rows(want)
            elif op[0] == "cor":
                a, b = op[1], op[2]
                assert model.cor(a, b).hex() == reference.cor(_plain(a), _plain(b)).hex()
            else:
                model = pickle.loads(pickle.dumps(model))
                log = model.log if hasattr(model, "log") else log
            assert model.cache_size() == len(reference.cache)
            assert log == reference_log

    check()


def _old_dot(pa: dict[int, int], pb: dict[int, int]) -> int:
    if len(pb) < len(pa):
        pa, pb = pb, pa
    return sum(v * pb.get(i, 0) for i, v in pa.items())


postings = st.dictionaries(
    st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=60), max_size=80
)


@given(pa=postings, pb=postings)
def test_shared_key_dot_equals_the_generator_form(pa, pb):
    assert sum([pa[i] * pb[i] for i in pa.keys() & pb.keys()]) == _old_dot(pa, pb)


def _old_cosine(stats: OccurrenceStats, a: Feature, b: Feature) -> float:
    """``OccurrenceStats.cooccurrence_cosine`` as it was, with its own
    norms."""
    pa = stats.postings(a)
    pb = stats.postings(b)
    if not pa or not pb:
        return 0.0
    if len(pb) < len(pa):
        pa, pb = pb, pa
    dot = sum(v * pb.get(i, 0) for i, v in pa.items())
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(v * v for v in pa.values()))
    norm_b = math.sqrt(sum(v * v for v in pb.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


NAMES = [Feature.text(f"memo-t{i}") for i in range(5)] + [
    Feature.user(f"memo-u{i}") for i in range(4)
]


@settings(max_examples=60, deadline=None)
@given(
    bags=st.lists(
        st.dictionaries(st.sampled_from(NAMES), st.integers(min_value=1, max_value=9)),
        max_size=40,
    )
)
def test_cosine_equals_the_earlier_body_bit_for_bit(bags):
    stats = OccurrenceStats(MediaObject(f"o{i}", features=bag) for i, bag in enumerate(bags))
    for a in NAMES:
        for b in NAMES:
            assert stats.cooccurrence_cosine(a, b).hex() == _old_cosine(stats, a, b).hex()

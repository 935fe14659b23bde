"""MRF potential functions: hand-computed Eq. 7/9/10 checks."""

import pytest

from repro.core.cliques import Clique
from repro.core.correlation import CorrelationModel, OccurrenceStats
from repro.core.mrf import DEFAULT_LAMBDAS, CliqueScorer, MRFParameters, MRFSimilarity
from repro.core.objects import Feature, MediaObject

T = Feature.text
U = Feature.user


class FixedCorrelations(CorrelationModel):
    """Explicit pairwise correlations and CorS values for hand checks."""

    def __init__(self, pairs=None, cors_values=None, threshold=0.5):
        super().__init__(stats=OccurrenceStats([]), default_threshold=threshold)
        self._pairs = {frozenset(p): v for p, v in (pairs or {}).items()}
        self._cors_values = {tuple(sorted(k)): v for k, v in (cors_values or {}).items()}

    def _compute_cor(self, a, b):
        return self._pairs.get(frozenset((a, b)), 0.0)

    def cors(self, features):
        if len(features) == 1:
            return 1.0
        return self._cors_values.get(tuple(sorted(features)), 1.0)


# ----------------------------------------------------------------------
# MRFParameters
# ----------------------------------------------------------------------
def test_default_lambdas_follow_metzler_croft():
    p = MRFParameters()
    assert p.lambdas == DEFAULT_LAMBDAS
    assert p.max_clique_size == 3


def test_parameters_validation():
    with pytest.raises(ValueError):
        MRFParameters(lambdas={})
    with pytest.raises(ValueError):
        MRFParameters(lambdas={0: 1.0})
    with pytest.raises(ValueError):
        MRFParameters(lambdas={1: -0.1})
    with pytest.raises(ValueError):
        MRFParameters(alpha=1.5)
    with pytest.raises(ValueError):
        MRFParameters(delta=0.0)


def test_max_clique_size_ignores_zero_weights():
    p = MRFParameters(lambdas={1: 1.0, 2: 0.0, 3: 0.0})
    assert p.max_clique_size == 1


def test_lambda_for_missing_size_is_zero():
    assert MRFParameters().lambda_for(7) == 0.0


def test_with_updates_is_functional():
    p = MRFParameters()
    q = p.with_updates(alpha=0.9)
    assert q.alpha == 0.9
    assert p.alpha == 0.5
    assert q.lambdas == p.lambdas


# ----------------------------------------------------------------------
# Eq. 7 — joint probability
# ----------------------------------------------------------------------
def test_frequency_part_exact():
    # alpha=1: P = freq/|O|; 'a' appears twice among 4 occurrences.
    scorer = CliqueScorer(FixedCorrelations(), MRFParameters(alpha=1.0))
    obj = MediaObject.build("o", tags=["a", "a", "b", "c"])
    assert scorer.joint_probability(Clique((T("a"),)), obj) == pytest.approx(2 / 4)


def test_joint_frequency_is_min_of_members():
    scorer = CliqueScorer(FixedCorrelations(), MRFParameters(alpha=1.0))
    obj = MediaObject.build("o", tags=["a", "a", "b"])
    clique = Clique((T("a"), T("b")))
    assert scorer.joint_probability(clique, obj) == pytest.approx(1 / 3)


def test_absent_member_zeroes_frequency_part():
    scorer = CliqueScorer(FixedCorrelations(), MRFParameters(alpha=1.0))
    obj = MediaObject.build("o", tags=["a"])
    clique = Clique((T("a"), T("zzz")))
    assert scorer.joint_probability(clique, obj) == 0.0


def test_smoothing_part_exact():
    # alpha=0: P = sum of Cor(clique member, other object features)
    #              / (k * |O - c|)
    cor = FixedCorrelations(pairs={(T("q"), T("x")): 0.4, (T("q"), T("y")): 0.2})
    scorer = CliqueScorer(cor, MRFParameters(alpha=0.0))
    obj = MediaObject.build("o", tags=["x", "y"])
    clique = Clique((T("q"),))
    assert scorer.joint_probability(clique, obj) == pytest.approx((0.4 + 0.2) / (1 * 2))


def test_smoothing_excludes_clique_members_present_in_object():
    # clique = {a}; object = {a, x}. Rest = {x} only; Cor(a,a)=1 must NOT count.
    cor = FixedCorrelations(pairs={(T("a"), T("x")): 0.5})
    scorer = CliqueScorer(cor, MRFParameters(alpha=0.0))
    obj = MediaObject.build("o", tags=["a", "x"])
    assert scorer.joint_probability(Clique((T("a"),)), obj) == pytest.approx(0.5)


def test_smoothing_zero_when_object_covered_by_clique():
    cor = FixedCorrelations()
    scorer = CliqueScorer(cor, MRFParameters(alpha=0.0))
    obj = MediaObject.build("o", tags=["a"])
    assert scorer.joint_probability(Clique((T("a"),)), obj) == 0.0


def test_alpha_blends_parts():
    cor = FixedCorrelations(pairs={(T("a"), T("x")): 0.8})
    scorer = CliqueScorer(cor, MRFParameters(alpha=0.25))
    obj = MediaObject.build("o", tags=["a", "x"])
    freq_part = 1 / 2
    smooth_part = 0.8 / 1
    expected = 0.25 * freq_part + 0.75 * smooth_part
    assert scorer.joint_probability(Clique((T("a"),)), obj) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Eqs. 9 / 10 — weighted potentials
# ----------------------------------------------------------------------
def test_potential_multiplies_lambda_and_cors():
    cor = FixedCorrelations(cors_values={(T("a"), T("b")): 0.5})
    params = MRFParameters(lambdas={2: 0.4}, alpha=1.0)
    scorer = CliqueScorer(cor, params)
    obj = MediaObject.build("o", tags=["a", "b"])
    clique = Clique((T("a"), T("b")))
    # P = min(1,1)/2 = 0.5; potential = 0.4 * 0.5 * 0.5
    assert scorer.potential(clique, obj) == pytest.approx(0.4 * 0.5 * 0.5)


def test_potential_zero_weight_short_circuits():
    scorer = CliqueScorer(FixedCorrelations(), MRFParameters(lambdas={1: 1.0}))
    obj = MediaObject.build("o", tags=["a"])
    assert scorer.potential(Clique((T("a"), T("b"))), obj) == 0.0  # size 2 unweighted


def test_use_cors_false_skips_weighting():
    cor = FixedCorrelations(cors_values={(T("a"), T("b")): 0.25})
    params = MRFParameters(lambdas={2: 1.0}, alpha=1.0, use_cors=False)
    scorer = CliqueScorer(cor, params)
    obj = MediaObject.build("o", tags=["a", "b"])
    assert scorer.potential(Clique((T("a"), T("b"))), obj) == pytest.approx(0.5)


def test_temporal_decay_applies_with_timestamp():
    params = MRFParameters(lambdas={1: 1.0}, alpha=1.0, delta=0.5)
    scorer = CliqueScorer(FixedCorrelations(), params)
    obj = MediaObject.build("o", tags=["a"])
    fresh = scorer.potential(Clique((T("a"),), timestamp=3), obj, current_month=3)
    aged = scorer.potential(Clique((T("a"),), timestamp=1), obj, current_month=3)
    assert aged == pytest.approx(fresh * 0.25)


def test_no_decay_without_current_month():
    params = MRFParameters(lambdas={1: 1.0}, alpha=1.0, delta=0.5)
    scorer = CliqueScorer(FixedCorrelations(), params)
    obj = MediaObject.build("o", tags=["a"])
    assert scorer.potential(Clique((T("a"),), timestamp=0), obj) == pytest.approx(1.0)


def test_score_sums_potentials():
    params = MRFParameters(lambdas={1: 1.0}, alpha=1.0)
    scorer = CliqueScorer(FixedCorrelations(), params)
    obj = MediaObject.build("o", tags=["a", "b"])
    cliques = [Clique((T("a"),)), Clique((T("b"),)), Clique((T("zzz"),))]
    assert scorer.score(cliques, obj) == pytest.approx(0.5 + 0.5 + 0.0)


def test_release_clears_candidate_cache():
    scorer = CliqueScorer(FixedCorrelations(), MRFParameters(alpha=0.0))
    obj = MediaObject.build("o", tags=["a", "b"])
    scorer.joint_probability(Clique((T("a"),)), obj)
    scorer.release("o")  # must not raise; cache rebuilt next call
    scorer.joint_probability(Clique((T("a"),)), obj)


def test_joint_components_match_joint_probability():
    """The build-time factorization must re-mix to the scorer's Eq. 7
    value bit-exactly — the contract the impact-ordered index rests on."""
    from repro.core.mrf import joint_components

    cor = FixedCorrelations(pairs={(T("a"), T("b")): 0.4, (T("a"), T("c")): 0.2})
    obj = MediaObject.build("o", tags=["a", "b", "c"])
    clique = Clique((T("a"),))
    for alpha in (0.0, 0.3, 0.7, 1.0):
        scorer = CliqueScorer(cor, MRFParameters(alpha=alpha))
        freq_part, smooth_part = joint_components(clique, obj, cor, {})
        assert alpha * freq_part + (1.0 - alpha) * smooth_part == scorer.joint_probability(
            clique, obj
        )


# ----------------------------------------------------------------------
# MRFSimilarity facade
# ----------------------------------------------------------------------
def test_similarity_facade_end_to_end(tiny_corpus, correlations):
    sim = MRFSimilarity(correlations)
    query = tiny_corpus[0]
    same = sim.similarity(query, query)
    other = sim.similarity(query, tiny_corpus[1])
    assert same > 0
    # self-similarity should not be below similarity to an arbitrary object
    assert same >= other or abs(same - other) < 1e-9


def test_similarity_symmetric_inputs_give_nonnegative(tiny_corpus, correlations):
    sim = MRFSimilarity(correlations, max_clique_size=2)
    assert sim.max_clique_size == 2
    value = sim.similarity(tiny_corpus[2], tiny_corpus[3])
    assert value >= 0.0

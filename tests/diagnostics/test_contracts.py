"""Runtime invariant contracts (`repro.diagnostics.contracts`).

Two things are under test for every invariant:

1. it *fires* (raises :class:`ContractViolation`) on a crafted
   violation while ``REPRO_CONTRACTS=1``;
2. it is a *no-op* when the variable is unset — the same crafted
   violation passes through silently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cliques import Clique
from repro.core.correlation import CorrelationModel, OccurrenceStats
from repro.core.mrf import CliqueScorer, MRFParameters
from repro.core.objects import Feature, MediaObject
from repro.core.training import CoordinateAscentTrainer
from repro.diagnostics.contracts import (
    ContractViolation,
    bounded_correlation,
    check_canonical_features,
    check_finite,
    check_no_duplicates,
    check_non_negative,
    check_simplex,
    check_sorted_descending,
    check_symmetry,
    check_unit_interval,
    contracts_enabled,
    non_negative_result,
    postcondition,
    reset_contracts_cache,
    simplex_lambdas,
    symmetric_correlation,
)
from repro.index.postings import Posting
from repro.index.threshold import impact_sources
from repro.index.vectorized import PostingVectors


# The contracts_on / contracts_off fixtures live in tests/conftest.py.


# ----------------------------------------------------------------------
# the flag itself
# ----------------------------------------------------------------------
def test_enabled_is_cached_until_reset(contracts_off, monkeypatch):
    assert not contracts_enabled()
    monkeypatch.setenv("REPRO_CONTRACTS", "1")
    assert not contracts_enabled()  # cached: no per-call environ read
    reset_contracts_cache()
    assert contracts_enabled()
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    reset_contracts_cache()
    assert not contracts_enabled()


def test_violation_is_assertion_error():
    # Generic `except Exception` seams must not treat a contract
    # failure differently from an assert.
    assert issubclass(ContractViolation, AssertionError)


# ----------------------------------------------------------------------
# check functions in isolation
# ----------------------------------------------------------------------
def test_check_finite():
    check_finite(0.0)
    with pytest.raises(ContractViolation):
        check_finite(float("nan"))
    with pytest.raises(ContractViolation):
        check_finite(float("inf"))


def test_check_unit_interval():
    check_unit_interval(0.0)
    check_unit_interval(1.0)
    check_unit_interval(1.0 + 1e-12)  # float-noise tolerance
    with pytest.raises(ContractViolation):
        check_unit_interval(1.5)
    with pytest.raises(ContractViolation):
        check_unit_interval(-0.2)


def test_check_symmetry():
    check_symmetry(0.5, 0.5)
    with pytest.raises(ContractViolation):
        check_symmetry(0.5, 0.6)


def test_check_non_negative():
    check_non_negative(0.0)
    check_non_negative(3.0)
    with pytest.raises(ContractViolation):
        check_non_negative(-0.1)


def test_check_simplex():
    check_simplex({1: 0.6, 2: 0.4})
    with pytest.raises(ContractViolation):
        check_simplex({1: 0.5})  # sums to 0.5
    with pytest.raises(ContractViolation):
        check_simplex({1: 1.5, 2: -0.5})  # negative weight
    with pytest.raises(ContractViolation):
        check_simplex({})


def test_check_no_duplicates():
    check_no_duplicates(["a", "b", "c"])
    with pytest.raises(ContractViolation):
        check_no_duplicates(["a", "b", "a"])


def test_check_sorted_descending():
    check_sorted_descending([("a", 3.0), ("b", 2.0), ("c", 2.0)])
    with pytest.raises(ContractViolation):
        check_sorted_descending([("a", 1.0), ("b", 2.0)])
    with pytest.raises(ContractViolation):
        # tie broken by descending id — wrong order
        check_sorted_descending([("b", 2.0), ("a", 2.0)])


def test_check_canonical_features():
    check_canonical_features(("A", "B", "C"))
    with pytest.raises(ContractViolation):
        check_canonical_features(("B", "A"))
    with pytest.raises(ContractViolation):
        check_canonical_features(("A", "A"))


# ----------------------------------------------------------------------
# decorators: gating behaviour
# ----------------------------------------------------------------------
def test_decorators_noop_when_disabled(contracts_off):
    @bounded_correlation
    def bogus_cor():
        return 7.0

    @non_negative_result
    def bogus_potential():
        return -1.0

    assert bogus_cor() == 7.0
    assert bogus_potential() == -1.0


def test_decorators_fire_when_enabled(contracts_on):
    @bounded_correlation
    def bogus_cor():
        return 7.0

    @non_negative_result
    def bogus_potential():
        return -1.0

    with pytest.raises(ContractViolation):
        bogus_cor()
    with pytest.raises(ContractViolation):
        bogus_potential()


def test_postcondition_decorator(contracts_on):
    calls = []

    @postcondition(lambda result, x: calls.append((result, x)))
    def double(x):
        return 2 * x

    assert double(3) == 6
    assert calls == [(6, 3)]


def test_postcondition_skipped_when_disabled(contracts_off):
    calls = []

    @postcondition(lambda result, x: calls.append((result, x)))
    def double(x):
        return 2 * x

    assert double(3) == 6
    assert calls == []


# ----------------------------------------------------------------------
# seam: correlation bounds and symmetry (core/correlation.py)
# ----------------------------------------------------------------------
def _model(text_similarity):
    """CorrelationModel over an empty corpus with an injected intra-text
    measure — the seam the paper leaves pluggable."""
    return CorrelationModel(OccurrenceStats([]), text_similarity=text_similarity)


def test_out_of_bounds_correlation_fires(contracts_on):
    model = _model(lambda a, b: 7.0)  # symmetric but out of [0, 1]
    with pytest.raises(ContractViolation):
        model.cor(Feature.text("a"), Feature.text("b"))


def test_out_of_bounds_correlation_silent_when_disabled(contracts_off):
    model = _model(lambda a, b: 7.0)
    assert model.cor(Feature.text("a"), Feature.text("b")) == 7.0


def test_asymmetric_correlation_fires(contracts_on):
    model = _model(lambda a, b: 0.9 if a < b else 0.1)
    with pytest.raises(ContractViolation):
        model.cor(Feature.text("a"), Feature.text("b"))


def test_asymmetric_correlation_silent_when_disabled(contracts_off):
    model = _model(lambda a, b: 0.9 if a < b else 0.1)
    assert model.cor(Feature.text("a"), Feature.text("b")) == 0.9


def test_wellbehaved_correlation_passes(contracts_on):
    model = _model(lambda a, b: 0.5)
    assert model.cor(Feature.text("a"), Feature.text("b")) == 0.5


# ----------------------------------------------------------------------
# seam: clique potential non-negativity (core/mrf.py)
# ----------------------------------------------------------------------
class NegativeCors(CorrelationModel):
    """Stub whose CorS is negative — the DESIGN.md clamp removed."""

    def __init__(self):
        super().__init__(stats=OccurrenceStats([]), default_threshold=0.5)

    def _compute_cor(self, a, b):
        return 0.0

    def cors(self, features):
        return -2.0


def _potential_inputs():
    clique = Clique(features=(Feature.text("a"),))
    obj = MediaObject.build("obj", tags=["a", "b"])
    return clique, obj


def test_negative_potential_fires(contracts_on):
    scorer = CliqueScorer(NegativeCors(), MRFParameters(alpha=1.0))
    clique, obj = _potential_inputs()
    with pytest.raises(ContractViolation):
        scorer.potential(clique, obj)


def test_negative_potential_silent_when_disabled(contracts_off):
    scorer = CliqueScorer(NegativeCors(), MRFParameters(alpha=1.0))
    clique, obj = _potential_inputs()
    assert scorer.potential(clique, obj) < 0.0


# ----------------------------------------------------------------------
# seam: trained λ simplex (core/training.py)
# ----------------------------------------------------------------------
def test_trainer_result_satisfies_simplex(contracts_on):
    trainer = CoordinateAscentTrainer(
        objective=lambda p: -abs(p.alpha - 0.5),
        lambda_grid=(0.0, 0.5, 1.0),
        alpha_grid=(0.3, 0.5),
        max_rounds=1,
    )
    result = trainer.train(MRFParameters(lambdas={1: 0.7, 2: 0.3}))
    assert sum(result.params.lambdas.values()) == pytest.approx(1.0)


def test_simplex_decorator_fires_on_unnormalized_result(contracts_on):
    class FakeResult:
        class params:
            lambdas = {1: 0.4, 2: 0.4}  # sums to 0.8

    @simplex_lambdas
    def fake_train():
        return FakeResult()

    with pytest.raises(ContractViolation):
        fake_train()


def test_simplex_decorator_silent_when_disabled(contracts_off):
    class FakeResult:
        class params:
            lambdas = {1: 0.4, 2: 0.4}

    @simplex_lambdas
    def fake_train():
        return FakeResult()

    fake_train()  # must not raise


# ----------------------------------------------------------------------
# seam: clique canonical features (core/cliques.py)
# ----------------------------------------------------------------------
def test_duplicate_clique_features_fire(contracts_on):
    with pytest.raises(ContractViolation):
        Clique(features=(Feature.text("a"), Feature.text("a")))


def test_duplicate_clique_features_silent_when_disabled(contracts_off):
    clique = Clique(features=(Feature.text("a"), Feature.text("a")))
    assert clique.size == 2  # silently wrong — exactly why the contract exists


def test_unsorted_clique_features_are_canonicalized(contracts_on):
    clique = Clique(features=(Feature.text("b"), Feature.text("a")))
    assert clique.features == (Feature.text("a"), Feature.text("b"))


# ----------------------------------------------------------------------
# seam: posting-list dedup (index/postings.py)
# ----------------------------------------------------------------------
def test_posting_nontail_duplicate_fires(contracts_on):
    posting = Posting("T:a", cors=1.0)
    posting.add("x")
    posting.add("y")
    with pytest.raises(ContractViolation):
        posting.add("x")  # non-adjacent repeat = builder bug


def test_posting_adjacent_duplicate_is_legitimate_dedup(contracts_on):
    posting = Posting("T:a", cors=1.0)
    posting.add("x")
    posting.add("x")  # adjacent repeats are coalesced by design
    assert posting.object_ids == ("x",)


def test_posting_duplicate_silent_when_disabled(contracts_off):
    posting = Posting("T:a", cors=1.0)
    posting.add("x")
    posting.add("y")
    posting.add("x")
    assert posting.object_ids == ("x", "y", "x")


# ----------------------------------------------------------------------
# TA sorted-access order (index/threshold.py)
# ----------------------------------------------------------------------
def test_sorted_source_passes_contract(contracts_on):
    freq = np.array([1.0, 3.0, 2.0])
    vectors = PostingVectors("T:a", 1.0, np.arange(3), freq, np.zeros(3))
    (src,) = impact_sources([(vectors, 1.0, 1.0)], 1.0)
    entries = [src.entry(rank) for rank in range(len(src))]
    check_sorted_descending(entries, what="TA sorted-access source")
    assert entries[0] == (1, 3.0)


def test_sorted_source_contract_catches_bad_order(contracts_on):
    # ``impact_sources`` sorts, so corrupt the invariant directly.
    with pytest.raises(ContractViolation):
        check_sorted_descending(
            [("a", 1.0), ("b", 3.0)], what="TA sorted-access source"
        )

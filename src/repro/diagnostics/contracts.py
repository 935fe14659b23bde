"""Opt-in runtime invariant contracts for the numerically delicate core.

The MRF/CorS math (Eqs. 6–9) fails *silently*: an asymmetric
correlation measure, a negative clique potential or an unsorted TA
source does not crash — it just ranks wrong.  This module provides
machine-checked invariants at the seams where those bugs would enter,
enabled by setting ``REPRO_CONTRACTS=1`` in the environment::

    REPRO_CONTRACTS=1 python -m pytest        # suite with contracts on

When the variable is unset the decorated functions run with a single
cheap flag test of overhead; no invariant is evaluated.  The variable
is read once per process and cached — the decorators sit on hot build
paths, where a per-call ``os.environ`` read cost ~7% of a profiled
400-object index build; code that changes the variable afterwards
(tests flipping it with ``monkeypatch``) calls
:func:`reset_contracts_cache`.  Violations
raise :class:`ContractViolation` (an ``AssertionError`` subclass, so
generic ``except Exception`` code paths do not swallow the signal any
differently than an assert).

Checked invariants (see the decorators below for the exact seams):

* correlation values lie in ``[0, 1]`` and are finite, and the pairwise
  measure is symmetric (``Cor(a, b) == Cor(b, a)``);
* CorS (Eq. 8) is non-negative and finite (the clamp of DESIGN.md);
* every weighted clique potential ϕ' (Eq. 9/10) is non-negative and
  finite — the MRF sum is monotone in its terms;
* trained λ weights lie on the unit simplex (Section 3.4's constraint);
* clique feature tuples are canonically sorted and duplicate-free;
* posting lists never hold duplicate object ids;
* TA sorted-access sources are genuinely sorted (score descending,
  ties by ascending id).

The check functions are importable on their own so tests can exercise
each invariant against crafted violations without building a full
engine.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, TypeVar

ENV_VAR = "REPRO_CONTRACTS"

#: Tolerance for float-aggregation noise in bounds/sum checks.
EPSILON = 1e-9

F = TypeVar("F", bound=Callable[..., Any])


class ContractViolation(AssertionError):
    """A runtime invariant of the fusion math was broken."""


_enabled: bool | None = None


def contracts_enabled() -> bool:
    """Whether invariant checking is active (``REPRO_CONTRACTS=1``),
    read from the environment on first call and cached."""
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get(ENV_VAR, "") == "1"
    return _enabled


def reset_contracts_cache() -> None:
    """Forget the cached flag so the next :func:`contracts_enabled`
    re-reads ``REPRO_CONTRACTS``."""
    global _enabled
    _enabled = None


def _fail(message: str) -> None:
    raise ContractViolation(message)


# ----------------------------------------------------------------------
# check functions — the invariants themselves
# ----------------------------------------------------------------------
def check_finite(value: float, *, what: str = "value") -> None:
    if math.isnan(value) or math.isinf(value):
        _fail(f"{what} is not finite: {value!r}")


def check_unit_interval(value: float, *, what: str = "correlation") -> None:
    """``value`` must lie in ``[0, 1]`` (within float tolerance)."""
    check_finite(value, what=what)
    if not -EPSILON <= value <= 1.0 + EPSILON:
        _fail(f"{what} outside [0, 1]: {value!r}")


def check_symmetry(forward: float, backward: float, *, what: str = "correlation") -> None:
    """A pairwise measure must not depend on argument order."""
    if not math.isclose(forward, backward, rel_tol=1e-9, abs_tol=1e-12):
        _fail(f"{what} is asymmetric: f(a, b)={forward!r} but f(b, a)={backward!r}")


def check_non_negative(value: float, *, what: str = "potential") -> None:
    check_finite(value, what=what)
    if value < -EPSILON:
        _fail(f"{what} is negative: {value!r}")


def check_simplex(weights: Mapping[int, float], *, what: str = "lambda weights") -> None:
    """Weights must be non-negative and sum to 1 (Section 3.4)."""
    if not weights:
        _fail(f"{what} are empty")
    for size, weight in weights.items():
        check_finite(weight, what=f"{what}[{size}]")
        if weight < -EPSILON:
            _fail(f"{what}[{size}] is negative: {weight!r}")
    total = sum(weights.values())
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
        _fail(f"{what} sum to {total!r}, expected 1")


def check_no_duplicates(ids: Iterable[str], *, what: str = "posting list") -> None:
    seen: set[str] = set()
    for object_id in ids:
        if object_id in seen:
            _fail(f"{what} holds duplicate object id {object_id!r}")
        seen.add(object_id)


def check_sorted_descending(
    entries: Sequence[tuple[str, float]], *, what: str = "sorted-access source"
) -> None:
    """``(id, score)`` entries must be score-descending with ascending
    ids inside each score tie — the TA sorted-access order."""
    for prev, cur in zip(entries, entries[1:]):
        if cur[1] > prev[1] or (cur[1] == prev[1] and cur[0] < prev[0]):
            _fail(
                f"{what} out of order: {prev!r} precedes {cur!r} "
                "(want score descending, ties by ascending id)"
            )


def check_canonical_features(features: Sequence[Any], *, what: str = "clique") -> None:
    """Clique feature tuples must be sorted and duplicate-free — key
    construction and posting dedup both depend on it."""
    for prev, cur in zip(features, features[1:]):
        if cur < prev:
            _fail(f"{what} features not in canonical order: {cur!r} after {prev!r}")
        if cur == prev:
            _fail(f"{what} holds duplicate feature {cur!r}")


# ----------------------------------------------------------------------
# decorators — wiring the checks to the seams
# ----------------------------------------------------------------------
def postcondition(check: Callable[..., None]) -> Callable[[F], F]:
    """Wrap a function so ``check(result, *args, **kwargs)`` runs on
    every call while contracts are enabled."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if contracts_enabled():
                check(result, *args, **kwargs)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


def checked_correlation(fn: F) -> F:
    """For ``fn(self, a, b)``: :func:`symmetric_correlation` then
    :func:`bounded_correlation` in one wrapper — the same checks in the
    same order as stacking the two, for one frame and one
    :func:`contracts_enabled` call per call of ``fn``."""
    what = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(self: Any, a: Any, b: Any) -> Any:
        result = fn(self, a, b)
        if contracts_enabled():
            check_symmetry(result, fn(self, b, a), what=what)
            check_unit_interval(result, what=f"{what} result")
        return result

    return wrapper  # type: ignore[return-value]


def bounded_correlation(fn: F) -> F:
    """Result must be a finite value in ``[0, 1]``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        if contracts_enabled():
            check_unit_interval(result, what=f"{fn.__qualname__} result")
        return result

    return wrapper  # type: ignore[return-value]


def symmetric_correlation(fn: F) -> F:
    """For ``fn(self, a, b)``: recompute with swapped operands and
    demand the same value.  Doubles the cost of the wrapped call while
    contracts are on, which is why it belongs on the *uncached* measure."""

    @functools.wraps(fn)
    def wrapper(self: Any, a: Any, b: Any) -> Any:
        result = fn(self, a, b)
        if contracts_enabled():
            check_symmetry(result, fn(self, b, a), what=f"{fn.__qualname__}")
        return result

    return wrapper  # type: ignore[return-value]


def non_negative_result(fn: F) -> F:
    """Result must be finite and >= 0 (clique potentials, CorS)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        if contracts_enabled():
            check_non_negative(result, what=f"{fn.__qualname__} result")
        return result

    return wrapper  # type: ignore[return-value]


def simplex_lambdas(fn: F) -> F:
    """For trainers returning a ``TrainingResult``: the trained λ
    mapping must lie on the unit simplex."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        if contracts_enabled():
            check_simplex(result.params.lambdas, what="trained lambda weights")
        return result

    return wrapper  # type: ignore[return-value]

"""Parameter training (Section 3.4 / 5.2).

The paper trains the MRF parameters "adopting the training strategy
presented in [16]" — Metzler & Croft directly maximize the retrieval
metric over held-out queries by coordinate ascent on the (simplex-
constrained) λ weights, which is robust because the metric surface over
so few parameters is smooth enough for grid-based ascent.

:class:`CoordinateAscentTrainer` implements that strategy generically:
it optimizes an arbitrary ``objective(MRFParameters) -> float`` (the
caller supplies "mean P@10 of an engine rebuilt with these parameters
over training queries", or any other metric) over

* the per-clique-size λ weights, renormalized to the unit simplex after
  every move (the paper's constraint that λ codes only *relative*
  importance of clique sizes);
* the smoothing α of Eq. 7;
* optionally the decay δ of Eq. 10 (for recommendation training).

Index reuse across moves.  Every coordinate the trainer sweeps — the λ
weights, α and δ — multiplies or re-mixes *outside* the components the
inverted index stores (postings hold the α-independent parts of Eq. 7;
λ, CorS and decay are applied at query time), so objectives built on
``engine.with_params(candidate)`` share one built index across the
entire ascent: no move costs anything index-side — the query paths
mix the stored components at the current α per query.

A separate helper sweeps the FIG edge threshold, which the paper calls
"the trained correlation threshold" (Section 3.2) — it changes the
graph itself, so it cannot share the engine-reuse fast path and is kept
apart.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.mrf import MRFParameters
from repro.diagnostics.contracts import simplex_lambdas

Objective = Callable[[MRFParameters], float]


@dataclass(frozen=True)
class TrainingStep:
    """One accepted coordinate move (for audit/diagnostics)."""

    coordinate: str
    value: float
    objective: float


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of a training run."""

    params: MRFParameters
    objective: float
    history: tuple[TrainingStep, ...] = field(default_factory=tuple)

    @property
    def n_steps(self) -> int:
        return len(self.history)


def _normalized_lambdas(lambdas: dict[int, float]) -> dict[int, float]:
    total = sum(lambdas.values())
    if total <= 0:
        raise ValueError("lambda weights must not all be zero")
    return {size: weight / total for size, weight in lambdas.items()}


class CoordinateAscentTrainer:
    """Grid-based coordinate ascent over MRF parameters.

    Parameters
    ----------
    objective:
        Maps candidate parameters to the training metric (higher is
        better).  Typically closes over an engine built once via
        :meth:`RetrievalEngine.with_params` so only scoring repeats.
    lambda_grid / alpha_grid / delta_grid:
        Candidate values per coordinate.  ``delta_grid=None`` (default)
        leaves δ untouched (retrieval training); pass a grid to include
        it (recommendation training).
    max_rounds:
        Full passes over all coordinates; ascent stops early once a
        whole pass yields no improvement.
    min_improvement:
        Smallest objective gain counted as progress, guarding against
        float noise cycling the ascent forever.
    """

    def __init__(
        self,
        objective: Objective,
        lambda_grid: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.85, 1.0),
        alpha_grid: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
        delta_grid: Sequence[float] | None = None,
        max_rounds: int = 4,
        min_improvement: float = 1e-9,
    ) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self._objective = objective
        self._lambda_grid = tuple(lambda_grid)
        self._alpha_grid = tuple(alpha_grid)
        self._delta_grid = tuple(delta_grid) if delta_grid is not None else None
        self._max_rounds = max_rounds
        self._min_improvement = min_improvement

    @simplex_lambdas
    def train(self, initial: MRFParameters | None = None) -> TrainingResult:
        """Run the ascent from ``initial`` (default: library defaults)."""
        params = initial if initial is not None else MRFParameters()
        params = params.with_updates(lambdas=_normalized_lambdas(dict(params.lambdas)))
        best = self._objective(params)
        history: list[TrainingStep] = []

        for _round in range(self._max_rounds):
            improved = False
            for size in sorted(params.lambdas):
                params, best, moved = self._ascend_lambda(params, best, size, history)
                improved = improved or moved
            params, best, moved = self._ascend_scalar(
                params, best, "alpha", self._alpha_grid, history
            )
            improved = improved or moved
            if self._delta_grid is not None:
                params, best, moved = self._ascend_scalar(
                    params, best, "delta", self._delta_grid, history
                )
                improved = improved or moved
            if not improved:
                break
        return TrainingResult(params=params, objective=best, history=tuple(history))

    # ------------------------------------------------------------------
    # coordinate moves
    # ------------------------------------------------------------------
    def _ascend_lambda(
        self,
        params: MRFParameters,
        best: float,
        size: int,
        history: list[TrainingStep],
    ) -> tuple[MRFParameters, float, bool]:
        moved = False
        for value in self._lambda_grid:
            lambdas = dict(params.lambdas)
            lambdas[size] = value
            if sum(lambdas.values()) <= 0:
                continue
            candidate = params.with_updates(lambdas=_normalized_lambdas(lambdas))
            score = self._objective(candidate)
            if score > best + self._min_improvement:
                params, best, moved = candidate, score, True
                history.append(
                    TrainingStep(coordinate=f"lambda[{size}]", value=value, objective=score)
                )
        return params, best, moved

    def _ascend_scalar(
        self,
        params: MRFParameters,
        best: float,
        name: str,
        grid: Sequence[float],
        history: list[TrainingStep],
    ) -> tuple[MRFParameters, float, bool]:
        moved = False
        for value in grid:
            candidate = params.with_updates(**{name: value})
            score = self._objective(candidate)
            if score > best + self._min_improvement:
                params, best, moved = candidate, score, True
                history.append(TrainingStep(coordinate=name, value=value, objective=score))
        return params, best, moved


def train_edge_threshold(
    objective: Callable[[float], float],
    grid: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
) -> tuple[float, float]:
    """Sweep the FIG correlation threshold (Section 3.2's "trained
    threshold").  ``objective(threshold)`` must rebuild whatever it
    evaluates with the candidate threshold (edges — and hence cliques
    and indexes — change with it).  Returns ``(best_threshold,
    best_objective)``."""
    if not grid:
        raise ValueError("threshold grid must not be empty")
    best_t, best_score = grid[0], objective(grid[0])
    for threshold in grid[1:]:
        score = objective(threshold)
        if score > best_score:
            best_t, best_score = threshold, score
    return best_t, best_score

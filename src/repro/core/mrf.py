"""Markov-Random-Field similarity over FIGs (Sections 3.3–3.4, Eq. 10).

Scoring recap.  To compare query ``O_q`` with candidate ``O_i``, the
query's FIG root is replaced by ``O_i``; the joint distribution of the
resulting graph factors over root-anchored cliques (Eqs. 4–6)::

    s(O_q, O_i) ∝ Σ_{c ∈ C(G')} ϕ'(c)
    ϕ'(c)       = CorS(c) · ϕ(c)                               (Eq. 9)
    ϕ(c)        = λ_{|c|} · P(n_1..n_k | O_i)                  (Eq. 7)
    P(· | O_i)  = α · freq(n_1..n_k | O_i) / |O_i|
                + (1-α) · Σ_{n∈c} Σ_{m∈O_i−c} Cor(n, m)
                          / (k · |O_i − c|)

with ``k = |c| - 1`` the clique's feature count and λ trained per
clique size (Section 3.4's constraint, after [16]).  The recommendation
potential adds temporal decay (Eq. 10)::

    ϕ_rec(c_t) = λ_{|c|} · δ^(t_now - t) · CorS(c) · P(· | O_r)

Interpretation choices the paper leaves open (documented in DESIGN.md):

* ``freq(n_1..n_k | O_i)`` — the joint appearance count — is the
  *minimum* of the member frequencies when every member appears in
  ``O_i`` and 0 otherwise (the number of complete co-occurrences a bag
  can host);
* the smoothing average runs over the candidate's **distinct** features
  outside the clique, matching the ``|{O_i} − c|`` set notation.

Scoring cost: the smoothing term needs ``Cor(n, m)`` for every query
feature × candidate feature pair.  :class:`CliqueScorer` therefore
caches, per candidate object, the row sums ``S(n, O_i) = Σ_{m∈O_i}
Cor(n, m)`` so each clique costs O(k²) lookups instead of O(k·|O_i|).

Query-independence.  ``P(n_1..n_k | O_i)`` depends only on the clique,
the candidate and α — not on which query produced the clique — so the
inverted index precomputes its two α-free components at build time.
The build scores a whole object at once with :func:`score_object`,
which reads each feature pair's ``Cor`` once; the scan scorer goes
clique by clique through :func:`joint_components`.  Both sum the same
operands in the same order, so they produce bit-identical floats.
All float summations here iterate canonical orders (the clique's
sorted feature tuple, the object's feature-bag insertion order): float
addition is not associative, and set-order iteration would make scores
differ across processes under hash randomization — breaking the
bit-identical ranking contract between the scan, the build-time-scored
index and an index built in parallel or loaded from disk.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.core.cliques import Clique, enumerate_cliques
from repro.core.correlation import CorrelationModel
from repro.core.objects import Feature, FeatureType, MediaObject
from repro.diagnostics.contracts import (
    check_canonical_features,
    contracts_enabled,
    non_negative_result,
)
from repro.social.temporal import decay_weight

#: Default per-size clique weights, in the spirit of Metzler & Croft's
#: (0.85, 0.10, 0.05) weighting of their three dependence patterns.
DEFAULT_LAMBDAS: dict[int, float] = {1: 0.85, 2: 0.10, 3: 0.05}


@dataclass(frozen=True)
class MRFParameters:
    """Trained/tunable parameters of the similarity model.

    Attributes
    ----------
    lambdas:
        Clique-size -> weight (λ of Eq. 5, constrained per Section 3.4
        to depend only on ``|c|``).  Sizes without an entry weigh 0, so
        the mapping also controls the effective max clique size.
    alpha:
        Smoothing trade-off of Eq. 7, in ``[0, 1]``; 1 = frequency only.
    use_cors:
        Whether to apply the Eq. 9 CorS weight (the ablation bench
        toggles this).
    delta:
        Temporal decay of Eq. 10 in ``(0, 1]``; 1 disables decay, so
        retrieval simply uses the default.
    """

    lambdas: Mapping[int, float] = field(default_factory=lambda: dict(DEFAULT_LAMBDAS))
    alpha: float = 0.5
    use_cors: bool = True
    delta: float = 1.0

    def __post_init__(self) -> None:
        if not self.lambdas:
            raise ValueError("lambdas must contain at least one clique size")
        if any(size < 1 for size in self.lambdas):
            raise ValueError("clique sizes must be >= 1")
        if any(weight < 0 for weight in self.lambdas.values()):
            raise ValueError("lambda weights must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        object.__setattr__(self, "lambdas", dict(self.lambdas))

    @property
    def max_clique_size(self) -> int:
        """Largest clique size with positive weight."""
        positive = [s for s, w in self.lambdas.items() if w > 0]
        return max(positive) if positive else 1

    def lambda_for(self, size: int) -> float:
        return self.lambdas.get(size, 0.0)

    def with_updates(self, **changes: Any) -> "MRFParameters":
        """Functional update helper used by the trainer."""
        data = {
            "lambdas": dict(self.lambdas),
            "alpha": self.alpha,
            "use_cors": self.use_cors,
            "delta": self.delta,
        }
        data.update(changes)
        return MRFParameters(**data)


def joint_components(
    clique: Clique,
    obj: MediaObject,
    correlations: CorrelationModel,
    row_sums: dict[Feature, float],
) -> tuple[float, float]:
    """The two α-independent components of Eq. 7 for ``(clique, obj)``.

    Returns ``(freq_part, smooth_part)`` such that ``P(n_1..n_k | O_i)
    = α·freq_part + (1-α)·smooth_part``.  ``row_sums`` is the caller's
    per-object cache of ``S(n, O_i) = Σ_{m∈O_i} Cor(n, m)``; entries
    are filled on demand.  Every summation iterates a canonical order
    (see the module docstring) so the scan scorer and the index builder
    produce bit-identical floats.
    """
    freqs = [obj.frequency(f) for f in clique.features]
    joint = min(freqs) if all(f > 0 for f in freqs) else 0
    size = len(obj)
    freq_part = joint / size if size > 0 else 0.0

    smooth_part = 0.0
    clique_set = set(clique.features)
    rest_count = len(obj.features) - len(clique_set & obj.features.keys())
    if rest_count > 0:
        total = 0.0
        for n in clique.features:
            row = row_sums.get(n)
            if row is None:
                row = sum(correlations.cor(n, m) for m in obj.features)
                row_sums[n] = row
            inside = sum(
                correlations.cor(n, m) for m in clique.features if m in obj.features
            )
            total += row - inside
        smooth_part = total / (len(clique_set) * rest_count)
    return freq_part, smooth_part


class ObjectRows(NamedTuple):
    """One object's FIG in index form, from one pass over its pairs.

    ``nodes`` is the object's feature bag in its canonical (sorted)
    order, ``rows[i][j]`` is ``Cor(nodes[i], nodes[j])`` (1.0 on the
    diagonal) and ``forward[i]`` holds the ``j > i`` whose correlation
    is above their table's threshold — the FIG edges of Section 3.2,
    each stored once at its lower end.
    """

    nodes: tuple[Feature, ...]
    rows: list[list[float]]
    forward: list[set[int]]

    def edges(self) -> list[tuple[Feature, Feature]]:
        """Every FIG edge once, as a (lower, higher) feature pair."""
        nodes = self.nodes
        return [(nodes[i], nodes[j]) for i, later in enumerate(self.forward) for j in later]


def object_rows(obj: MediaObject, correlations: CorrelationModel) -> ObjectRows:
    """Fill ``obj``'s pairwise ``Cor`` rows once and threshold them into
    FIG edges (see :class:`ObjectRows`).

    The bag's insertion order is canonical (``MediaObject`` sorts it),
    so every pair is already in the correlation memo's key order; the
    per-type-pair thresholds are resolved once per call instead of once
    per pair.
    """
    nodes = tuple(obj.features)
    if contracts_enabled():
        check_canonical_features(nodes, what=f"object {obj.object_id!r}")
    rows = correlations.pair_rows(nodes)
    types = tuple(FeatureType)
    code = {ftype: i for i, ftype in enumerate(types)}
    table = [[correlations.threshold(a, b) for b in types] for a in types]
    codes = [code[node.ftype] for node in nodes]
    forward = []
    for i, row in enumerate(rows):
        limits = table[codes[i]]
        forward.append({j for j in range(i + 1, len(nodes)) if row[j] > limits[codes[j]]})
    return ObjectRows(nodes, rows, forward)


#: One scored (clique, object) pair: ``(key, CorS, freq_part, smooth_part)``.
ScoredClique = tuple[str, float, float, float]


def score_object(
    obj: MediaObject,
    correlations: CorrelationModel,
    max_size: int,
    cors_lookup: Callable[[str], float | None] | None = None,
) -> list[ScoredClique]:
    """Every clique of ``obj``'s FIG with its CorS (Eq. 8) and Eq. 7
    components — the per-object scoring kernel of the index build.

    Equal, bit for bit and in order, to ``FeatureInteractionGraph.
    from_object`` → ``cliques(max_size)`` → ``Clique.key`` /
    ``correlations.cors`` / :func:`joint_components`, but each pair's
    ``Cor`` is read once (:func:`object_rows`) instead of once per
    edge test, row sum and clique: ``S(n, O)`` sums the row in bag
    order and each "inside" sum runs over the clique in clique order,
    as :func:`joint_components` does; cliques are enumerated over node
    indices in the order the FIG's own enumeration gives.
    ``cors_lookup`` returns an already-known CorS for a key (``None``
    when unknown), so a builder computes Eq. 8 once per distinct
    clique.
    """
    nodes, rows, forward = object_rows(obj, correlations)
    keys = [node.key for node in nodes]
    counts = list(obj.features.values())
    size = sum(counts)
    row_sums = [sum(row) for row in rows]
    scored: list[ScoredClique] = []
    # Forward edges suffice: ordered extension only tests later nodes.
    adjacency = dict(enumerate(forward))
    for clique in enumerate_cliques(range(len(nodes)), adjacency, max_size=max_size):
        k = len(clique)
        key = "|".join([keys[i] for i in clique])
        freq_part = min([counts[i] for i in clique]) / size
        rest = len(nodes) - k
        smooth_part = 0.0
        if rest > 0:
            total = 0.0
            for n in clique:
                row = rows[n]
                total += row_sums[n] - sum([row[m] for m in clique])
            smooth_part = total / (k * rest)
        cors = cors_lookup(key) if cors_lookup is not None else None
        if cors is None:
            cors = correlations.cors(tuple([nodes[i] for i in clique]))
        scored.append((key, cors, freq_part, smooth_part))
    return scored


def mix_components(freq: Any, smooth: Any, alpha: float) -> Any:
    """α-mix of the Eq. 7 components: ``α·freq + (1-α)·smooth``.

    Accepts scalars or whole numpy arrays.  The expression is written
    exactly as the scalar scoring paths write it (two multiplies, one
    add, ``1.0 - alpha`` folded first) because numpy's elementwise
    ufuncs perform the same correctly rounded IEEE-754 double
    operations — vectorizing through this helper keeps mixed impacts
    bit-identical to the per-entry Python loop.
    """
    return alpha * freq + (1.0 - alpha) * smooth


def scale_impacts(p: Any, inner: float, outer: float = 1.0) -> Any:
    """Query-time scaling of stored impacts: ``outer·(inner·p)``.

    ``inner = λ_{|c|}·CorS(c)`` and ``outer`` is the recommendation
    path's temporal weight (1.0 for retrieval).  The association order
    matches ``outer · CliqueScorer.potential`` (the potential is
    ``(λ·CorS)·P``), so applying it to a whole array yields the same
    bits per element as the exact model.
    """
    return outer * (inner * p)


class CliqueScorer:
    """Scores candidate objects against a fixed clique set.

    One scorer instance serves one query (or one user profile); it owns
    the per-candidate correlation row-sum cache described in the module
    docstring.  The candidate cache is keyed by object id and kept until
    :meth:`release`, so scoring many cliques against the same candidate
    amortizes well — the access pattern of the sequential scans, which
    release each candidate once it is scored.
    """

    def __init__(self, correlations: CorrelationModel, params: MRFParameters) -> None:
        self._cor = correlations
        self._params = params
        self._row_sums: dict[str, dict[Feature, float]] = {}
        self._cors_cache: dict[tuple[Feature, ...], float] = {}

    @property
    def params(self) -> MRFParameters:
        return self._params

    # ------------------------------------------------------------------
    # Eq. 7 — joint probability with smoothing
    # ------------------------------------------------------------------
    def joint_probability(self, clique: Clique, obj: MediaObject) -> float:
        """``P(n_1..n_k | O_i)`` of Eq. 7."""
        freq_part, smooth_part = joint_components(
            clique, obj, self._cor, self._row_sums_for(obj)
        )
        alpha = self._params.alpha
        return alpha * freq_part + (1.0 - alpha) * smooth_part

    # ------------------------------------------------------------------
    # Eqs. 9 / 10 — weighted potentials
    # ------------------------------------------------------------------
    def cors(self, clique: Clique) -> float:
        """Memoized CorS (Eq. 8) of the clique's feature set."""
        cached = self._cors_cache.get(clique.features)
        if cached is None:
            cached = self._cor.cors(clique.features)
            self._cors_cache[clique.features] = cached
        return cached

    @non_negative_result
    def potential(
        self,
        clique: Clique,
        obj: MediaObject,
        current_month: int | None = None,
    ) -> float:
        """ϕ'(c) (Eq. 9), or ϕ_rec (Eq. 10) when ``current_month`` is
        given and the clique carries a timestamp."""
        weight = self._params.lambda_for(clique.size)
        if weight == 0.0:
            return 0.0
        if self._params.use_cors:
            weight *= self.cors(clique)
            if weight == 0.0:
                return 0.0
        if current_month is not None and clique.timestamp is not None:
            weight *= decay_weight(current_month - clique.timestamp, self._params.delta)
        if weight == 0.0:
            return 0.0
        return weight * self.joint_probability(clique, obj)

    def score(
        self,
        cliques: Sequence[Clique],
        obj: MediaObject,
        current_month: int | None = None,
    ) -> float:
        """Full similarity: Σ over cliques of the weighted potential
        (Eq. 6's log-space sum)."""
        return sum(self.potential(c, obj, current_month=current_month) for c in cliques)

    def release(self, object_id: str) -> None:
        """Drop the cached row sums of one candidate (memory control for
        long sequential scans)."""
        self._row_sums.pop(object_id, None)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _row_sums_for(self, obj: MediaObject) -> dict[Feature, float]:
        cached = self._row_sums.get(obj.object_id)
        if cached is None:
            cached = {}
            self._row_sums[obj.object_id] = cached
        return cached


class MRFSimilarity:
    """Object-to-object similarity façade (Definition 1's ``s``).

    Wraps FIG construction + clique enumeration + :class:`CliqueScorer`
    for the common "compare two objects" case; the retrieval and
    recommendation engines use the pieces directly for efficiency.
    """

    def __init__(
        self,
        correlations: CorrelationModel,
        params: MRFParameters | None = None,
        max_clique_size: int | None = None,
    ) -> None:
        self._cor = correlations
        self._params = params if params is not None else MRFParameters()
        self._max_clique_size = (
            max_clique_size if max_clique_size is not None else self._params.max_clique_size
        )

    @property
    def params(self) -> MRFParameters:
        return self._params

    @property
    def max_clique_size(self) -> int:
        return self._max_clique_size

    def similarity(self, query: MediaObject, candidate: MediaObject) -> float:
        """``s(O_q, O_i)``: build the query FIG, enumerate its cliques,
        and sum the candidate's weighted potentials."""
        from repro.core.fig import FeatureInteractionGraph

        fig = FeatureInteractionGraph.from_object(query, self._cor)
        cliques = fig.cliques(max_size=self._max_clique_size)
        scorer = CliqueScorer(self._cor, self._params)
        return scorer.score(cliques, candidate)

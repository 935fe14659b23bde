"""Corpus correlation statistics: Eq. 1 co-occurrence, Eq. 8 CorS, and
the six pair-wise correlation tables.

Section 3.2 defines how FIG edges are decided:

* **intra-type** correlations use modality-specific measures — WUP over
  the taxonomy for tags, centroid distance for visual words, group
  co-membership for users;
* **inter-type** correlations use the cosine of the two features'
  object-occurrence vectors (Eq. 1), where dimension *i* of a feature's
  vector is its frequency in object *i*.

Section 3.4 additionally weights each clique by the correlation
strength ``CorS`` of its features (Eq. 8), a standardized multi-way
co-moment over the corpus: for two features it reduces to their Pearson
correlation, and the paper notes it is "equivalent to the so-called
covariance" in that case.

Deviations from the paper, both forced by the math (documented in
DESIGN.md):

* Eq. 8 as printed has no ``1/|D|`` normalization; we normalize so that
  the two-feature case *is* the Pearson coefficient the paper alludes
  to, keeping magnitudes comparable across corpus sizes.
* For a singleton clique the standardized sum is identically zero
  (``Σ_i (x_i - x̄) = 0``), which would erase every single-feature
  clique from the model; we define ``CorS`` of a single feature as 1
  (neutral weight).
* ``CorS`` can be negative for anti-correlated features; potentials
  must be non-negative, so we clamp at 0 (an anti-correlated clique
  contributes nothing rather than a negative probability).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.core.objects import Feature, FeatureType, MediaObject
from repro.diagnostics.contracts import checked_correlation, non_negative_result
from repro.social.users import SocialGraph
from repro.text.wup import WuPalmerSimilarity
from repro.vision.visual_words import VisualCodebook


class OccurrenceStats:
    """Sparse feature-by-object occurrence matrix with moment queries.

    Built once per corpus; backs both the inter-type cosine (Eq. 1) and
    the clique correlation strength (Eq. 8).  Storage is one postings
    dict per feature (``object index -> frequency``), so memory is
    proportional to the corpus's total feature occurrences.
    """

    def __init__(self, objects: Iterable[MediaObject]) -> None:
        self._postings: dict[Feature, dict[int, int]] = {}
        n = 0
        for idx, obj in enumerate(objects):
            n += 1
            for feature, count in obj.features.items():
                self._postings.setdefault(feature, {})[idx] = count
        self._n_objects = n
        self._moment_cache: dict[Feature, tuple[float, float]] = {}
        self._norm_cache: dict[Feature, float] = {}
        self._column_cache: dict[Feature, tuple[dict[int, float], float] | None] = {}

    @property
    def n_objects(self) -> int:
        return self._n_objects

    def __contains__(self, feature: Feature) -> bool:
        return feature in self._postings

    def postings(self, feature: Feature) -> dict[int, int]:
        """Sparse occurrence vector of ``feature`` (empty if unseen)."""
        return self._postings.get(feature, {})

    def document_frequency(self, feature: Feature) -> int:
        """Number of objects containing ``feature``."""
        return len(self._postings.get(feature, ()))

    def moments(self, feature: Feature) -> tuple[float, float]:
        """``(mean, std)`` of the feature's frequency over all objects
        (zeros included).  Population statistics; std 0 for unseen or
        constant features."""
        cached = self._moment_cache.get(feature)
        if cached is not None:
            return cached
        posting = self._postings.get(feature, {})
        n = self._n_objects
        if n == 0:
            result = (0.0, 0.0)
        else:
            total = sum(posting.values())
            mean = total / n
            sq = sum(v * v for v in posting.values())
            var = sq / n - mean * mean
            result = (mean, math.sqrt(var) if var > 0 else 0.0)
        self._moment_cache[feature] = result
        return result

    # ------------------------------------------------------------------
    # Eq. 1 — co-occurrence cosine
    # ------------------------------------------------------------------
    def cooccurrence_cosine(self, a: Feature, b: Feature) -> float:
        """``Cor(n1, n2) = n1·n2 / (|n1| |n2|)`` over occurrence vectors."""
        pa = self._postings.get(a)
        pb = self._postings.get(b)
        if not pa or not pb:
            return 0.0
        # Integer products summed over the shared support: exact in any
        # iteration order, so the set's order cannot move the float.
        dot = sum([pa[i] * pb[i] for i in pa.keys() & pb.keys()])
        if dot == 0:
            return 0.0
        norm_a = self._norm(a, pa)
        norm_b = self._norm(b, pb)
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)

    def _norm(self, feature: Feature, posting: dict[int, int]) -> float:
        """Euclidean norm of the occurrence vector, cached per feature —
        popular features are the norm every pair recomputes, and the
        cached float is the identical value, so scores stay bitwise
        stable."""
        cached = self._norm_cache.get(feature)
        if cached is None:
            cached = math.sqrt(sum(v * v for v in posting.values()))
            self._norm_cache[feature] = cached
        return cached

    # ------------------------------------------------------------------
    # Eq. 8 — correlation strength of a clique's feature set
    # ------------------------------------------------------------------
    @non_negative_result
    def cors(self, features: Sequence[Feature]) -> float:
        """Normalized standardized co-moment of ``features``.

        ``CorS = (1/|D|) Σ_i Π_j (n_{j,i} - n̄_j) / σ_j``, computed
        sparsely: objects outside every feature's support contribute the
        constant ``Π_j (-n̄_j/σ_j)``, so only the union of supports is
        enumerated.  Singletons return 1, non-positive results clamp to
        0, and any zero-variance feature makes the result 0 (no
        standardization exists for it).
        """
        if len(features) == 0:
            raise ValueError("CorS of an empty feature set is undefined")
        if len(features) == 1:
            return 1.0
        n = self._n_objects
        if n == 0:
            return 0.0
        columns = []
        for feature in features:
            column = self._standardized_column(feature)
            if column is None:
                return 0.0
            columns.append(column)
        baseline = 1.0
        for _, outside in columns:
            baseline *= outside
        support: set[int] = set()
        for values, _ in columns:
            support.update(values)
        total = n * baseline
        for i in support:
            prod = 1.0
            for values, outside in columns:
                prod *= values.get(i, outside)
            total += prod - baseline
        value = total / n
        return value if value > 0.0 else 0.0

    def _standardized_column(self, feature: Feature) -> tuple[dict[int, float], float] | None:
        """``({i: (n_i - mean)/std}, (0.0 - mean)/std)`` over the
        feature's support, or ``None`` for a zero-variance (or unseen)
        feature; cached per feature.  The dict keeps the posting's key
        order, so the support set CorS builds from it — and hence the
        order of its float sum — is the one the postings themselves
        give, and each cached factor is the float the per-pair
        expression produced, so CorS stays bit-identical."""
        if feature in self._column_cache:
            return self._column_cache[feature]
        mean, std = self.moments(feature)
        column: tuple[dict[int, float], float] | None = None
        if std != 0.0:
            posting = self._postings.get(feature, {})
            column = ({i: (v - mean) / std for i, v in posting.items()}, (0.0 - mean) / std)
        self._column_cache[feature] = column
        return column


#: Default per-table edge thresholds (the "trained threshold" of
#: Section 3.2; :func:`repro.core.training.train_edge_threshold` can
#: refit them).  Intra-type measures live on a [0, 1] similarity scale
#: where ~0.5 separates same-cluster from cross-cluster pairs; the
#: inter-type Eq. 1 cosine is much smaller in magnitude (sparse
#: occurrence vectors), so its tables use a lower bar.
DEFAULT_TABLE_THRESHOLDS: dict[tuple[str, str], float] = {
    ("T", "T"): 0.5,
    ("V", "V"): 0.45,
    ("U", "U"): 0.5,
    ("T", "V"): 0.12,
    ("T", "U"): 0.12,
    ("U", "V"): 0.12,
}


class CorrelationModel:
    """Dispatching ``Cor(n1, n2)`` plus thresholded edge decisions.

    This is the runtime form of the paper's "6 pair-wise feature
    correlation tables" (T×T, V×V, U×U, T×V, T×U, V×U): intra-type
    measures are modality-specific, inter-type pairs use Eq. 1, and an
    edge is drawn when the correlation exceeds the (trained) threshold
    for its table.  Values are memoized per unordered pair, in one dict
    keyed by the pair's int :func:`pair_key` over the features'
    interned ids (see :mod:`repro.core.objects`); a pickled model ships
    its memo as feature pairs, which the receiving process re-keys.

    Parameters
    ----------
    stats:
        Occurrence statistics of the corpus.
    text_similarity:
        Intra-text measure (WUP by default); any ``(str, str) -> float``
        works — the paper notes the choice is orthogonal.
    codebook:
        Visual codebook for intra-visual similarity (``None`` disables
        intra-visual edges).
    social:
        Social graph for intra-user similarity (``None`` disables
        intra-user edges).
    thresholds:
        Edge threshold per table key (e.g. ``("T", "V")``, sorted), with
        ``default_threshold`` filling gaps.
    """

    def __init__(
        self,
        stats: OccurrenceStats,
        text_similarity: WuPalmerSimilarity | Callable[[str, str], float] | None = None,
        codebook: VisualCodebook | None = None,
        social: SocialGraph | None = None,
        thresholds: dict[tuple[str, str], float] | None = None,
        default_threshold: float = 0.3,
    ) -> None:
        self._stats = stats
        self._text_similarity = text_similarity
        self._codebook = codebook
        self._social = social
        self._thresholds = dict(thresholds or {})
        self._default_threshold = default_threshold
        self._cache: dict[int, float] = {}

    @property
    def stats(self) -> OccurrenceStats:
        return self._stats

    @staticmethod
    def table_key(a: FeatureType, b: FeatureType) -> tuple[str, str]:
        """Canonical key of the correlation table for a type pair."""
        ka, kb = a.value, b.value
        return (ka, kb) if ka <= kb else (kb, ka)

    def threshold(self, a: FeatureType, b: FeatureType) -> float:
        """Edge threshold for the (a, b) table."""
        return self._thresholds.get(self.table_key(a, b), self._default_threshold)

    def set_threshold(self, a: FeatureType, b: FeatureType, value: float) -> None:
        """Install a trained threshold for one table."""
        self._thresholds[self.table_key(a, b)] = value

    # ------------------------------------------------------------------
    # Cor dispatch
    # ------------------------------------------------------------------
    def cor(self, a: Feature, b: Feature) -> float:
        """Correlation between two features, in ``[0, 1]``-ish range
        (intra measures are [0,1]; Eq. 1 cosine is [0,1]).

        The bounds contract lives on :meth:`_compute_cor`: every value
        is checked once when computed, and cache hits — the bulk of
        build-time calls — skip the wrapper entirely.
        """
        if a is b:
            return 1.0
        key = pair_key(a, b) if a.key <= b.key else pair_key(b, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._compute_cor(a, b)
        self._cache[key] = value
        return value

    @checked_correlation
    def _compute_cor(self, a: Feature, b: Feature) -> float:
        if a.ftype != b.ftype:
            return self._stats.cooccurrence_cosine(a, b)
        if a.ftype == FeatureType.TEXT:
            if self._text_similarity is None:
                return self._stats.cooccurrence_cosine(a, b)
            return float(self._text_similarity(a.name, b.name))
        if a.ftype == FeatureType.VISUAL:
            if self._codebook is None:
                return self._stats.cooccurrence_cosine(a, b)
            return self._codebook.word_similarity(_visual_id(a.name), _visual_id(b.name))
        if self._social is None:
            return self._stats.cooccurrence_cosine(a, b)
        return self._social.similarity(a.name, b.name)

    def pair_rows(self, nodes: Sequence[Feature]) -> list[list[float]]:
        """``Cor`` of every pair of ``nodes`` as a symmetric matrix with
        1.0 on the diagonal (the value :meth:`cor` gives a feature and
        itself).

        ``nodes`` must be distinct and in canonical (sorted) order, as
        an object's feature bag is: each pair ``(nodes[i], nodes[j])``
        with ``i < j`` is then already in the memo's canonical order, so
        a warm pair costs one int-keyed dict read.  A cold pair is one
        :meth:`_compute_cor` call in that order, exactly the call
        :meth:`cor` would make, so subclass measures, the contract
        wrapper and :meth:`cache_size` see the same computations as
        pair-by-pair calls would make.
        """
        cache = self._cache
        compute = self._compute_cor
        ids = [node.id for node in nodes]
        rows = [[1.0] * len(nodes) for _ in nodes]
        for i, a in enumerate(nodes):
            row = rows[i]
            high = ids[i] << _ID_BITS
            for j in range(i + 1, len(nodes)):
                key = high | ids[j]
                value = cache.get(key)
                if value is None:
                    value = compute(a, nodes[j])
                    cache[key] = value
                row[j] = value
                rows[j][i] = value
        return rows

    def correlated(self, a: Feature, b: Feature) -> bool:
        """Edge decision: ``Cor(a, b)`` above the pair's table threshold."""
        return self.cor(a, b) > self.threshold(a.ftype, b.ftype)

    def cors(self, features: Sequence[Feature]) -> float:
        """Clique correlation strength (Eq. 8); see
        :meth:`OccurrenceStats.cors`."""
        return self._stats.cors(features)

    def cache_size(self) -> int:
        """Number of memoized pairs (diagnostics)."""
        return len(self._cache)

    def __getstate__(self) -> dict[str, Any]:
        # Pair keys hold process-local feature ids; ship the memo as
        # (feature, feature, value) triples, which re-intern on arrival.
        state = self.__dict__.copy()
        state["_cache"] = [
            (Feature.from_id(key >> _ID_BITS), Feature.from_id(key & _ID_MASK), value)
            for key, value in self._cache.items()
        ]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        pairs = state.pop("_cache")
        self.__dict__.update(state)
        self._cache = {pair_key(a, b): value for a, b, value in pairs}


#: Width of the low half of a :func:`pair_key`.  Feature ids are a
#: per-process counter, far below 2**32 for any corpus that fits in
#: memory.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


def pair_key(a: Feature, b: Feature) -> int:
    """Memo key of the ordered pair ``(a, b)``: both interned ids in one
    int.  Callers pass the pair in canonical order (``a.key <= b.key``)."""
    return (a.id << _ID_BITS) | b.id


def _visual_id(name: str) -> int:
    """Parse a canonical visual-word feature name (``vw<id>``)."""
    if not name.startswith("vw"):
        raise ValueError(f"not a visual word name: {name!r}")
    return int(name[2:])

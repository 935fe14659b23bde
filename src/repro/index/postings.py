"""Posting lists for the clique inverted index.

Section 3.5: "For each clique, we store the correlation strength CorS
of features in the clique and the objects which contain this clique."
A :class:`Posting` is that per-clique record: the stored CorS weight,
the ids of the containing objects (insertion = corpus order,
deduplicated), and — since the impact-ordering change — the two
α-independent components of each object's Eq. 7 joint probability,
computed once at index-build time.

Impact order.  The full potential factors as ``ϕ'(c, O_i) =
λ_{|c|}·CorS(c)·(α·freq + (1-α)·smooth)`` where λ and CorS are
*constant across one posting* (they depend only on the clique), so the
descending-potential order of a posting's entries is fully determined
by ``P(α) = α·freq + (1-α)·smooth``.  The query paths read the stored
components as arrays (:mod:`repro.index.vectorized`) and mix, order
and scale them per query (:class:`~repro.index.threshold.ImpactSortedSource`
for the Threshold Algorithm).  λ, CorS and temporal decay multiply
outside the stored components, and α only re-mixes them, so parameter
sweeps (``with_params``, the coordinate-ascent trainer) reuse the same
built posting arrays unchanged.

A :class:`Posting` of object-id strings is the build-side record: the
index builder appends to it and the binary writer serializes it
(:meth:`~repro.index.segmented.SegmentedCliqueIndex.lookup` rebuilds
one from the stored arrays).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.diagnostics.contracts import check_no_duplicates, contracts_enabled

class Posting:
    """One inverted-index entry: clique key, stored CorS, scored entries.

    Object ids are appended in corpus order; because the index builder
    visits each object once and an object emits each distinct clique
    once, deduplication only needs a tail check — keeping the posting
    parallel bare lists (memory matters: large corpora hold millions of
    postings).
    """

    __slots__ = ("_key", "_cors", "_object_ids", "_freq", "_smooth")

    def __init__(self, key: str, cors: float) -> None:
        self._key = key
        self._cors = float(cors)
        self._object_ids: list[str] = []
        self._freq: list[float] = []
        self._smooth: list[float] = []

    @classmethod
    def from_arrays(
        cls,
        key: str,
        cors: float,
        object_ids: list[str],
        freq: list[float],
        smooth: list[float],
    ) -> "Posting":
        """Construct directly from parallel arrays — the deserialization
        fast path (binary segment decode), which bypasses the per-entry
        tail checks of :meth:`add` because the reader already validated
        structure.  The arrays are adopted, not copied."""
        if len(freq) != len(object_ids) or len(smooth) != len(object_ids):
            raise ValueError(
                f"posting {key!r}: component arrays do not match the id list"
            )
        posting = cls(key, cors=cors)
        posting._object_ids = object_ids
        posting._freq = freq
        posting._smooth = smooth
        if contracts_enabled():
            check_no_duplicates(object_ids, what=f"posting {key!r}")
        return posting

    @property
    def key(self) -> str:
        """Canonical clique key (see :attr:`repro.core.cliques.Clique.key`)."""
        return self._key

    @property
    def cors(self) -> float:
        """Correlation strength of the clique (Eq. 8), computed eagerly
        by the index builder (it is query-independent, like the joint
        components)."""
        return self._cors

    def add(self, object_id: str, freq_part: float = 0.0, smooth_part: float = 0.0) -> None:
        """Append a scored entry (idempotent for repeated tail adds, the
        only repetition the index builder can produce)."""
        if not self._object_ids or self._object_ids[-1] != object_id:
            self._object_ids.append(object_id)
            self._freq.append(freq_part)
            self._smooth.append(smooth_part)
            if contracts_enabled():
                # A non-tail repeat means the builder visited an object
                # twice — the posting would double-count it at merge time.
                check_no_duplicates(self._object_ids, what=f"posting {self._key!r}")

    def extend_scored(self, entries: list[tuple[str, float, float]]) -> None:
        """Bulk append of ``(object_id, freq_part, smooth_part)`` rows —
        the shard-merge path of the parallel index build."""
        for object_id, freq_part, smooth_part in entries:
            self.add(object_id, freq_part, smooth_part)

    def components(self, index: int) -> tuple[float, float]:
        """``(freq_part, smooth_part)`` of the ``index``-th entry."""
        return self._freq[index], self._smooth[index]

    def component_arrays(self) -> tuple[list[float], list[float]]:
        """The parallel ``(freq, smooth)`` component lists, by reference
        — the bulk-conversion path of the vectorized scorer.  Callers
        must not mutate them."""
        return self._freq, self._smooth

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __contains__(self, object_id: str) -> bool:
        return object_id in self._object_ids

    def __len__(self) -> int:
        return len(self._object_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self._object_ids)

    @property
    def object_ids(self) -> tuple[str, ...]:
        return tuple(self._object_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Posting({self._key!r}, cors={self._cors!r}, n={len(self)})"

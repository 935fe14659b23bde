"""Fagin's Threshold Algorithm (TA) for top-k rank aggregation.

Algorithm 1 (line 13) merges the per-clique candidate lists with "the
Threshold Algorithm [7]", the classic middleware top-k method of Fagin,
Lotem & Naor: walk the input lists in parallel sorted order, fully
score every newly seen object via random access, and stop as soon as
the k-th best full score is strictly above the *threshold* — the
aggregate of the current sorted-access frontier — because no unseen
object can then reach it, not even to tie.

This implementation is generic over any **monotone** aggregate
(default: sum) and adopts the missing-entry-scores-zero convention,
which is what Algorithm 1 needs: an object absent from a clique's
candidate list contributes nothing for that clique.  With non-negative
scores and sum aggregation this keeps the aggregate monotone, so the
early-termination guarantee holds.

Two source flavours feed the walk:

* :class:`SortedListSource` — eager: sorts arbitrary ``(id, score)``
  pairs at construction.  The reference path, and the right tool when
  scores are computed per query.
* :class:`ImpactSortedSource` — lazy: wraps a *prebuilt* impact-ordered
  posting view (see :mod:`repro.index.postings`) and scales stored
  scores by the query's constant weight on demand, via a cursor that
  only ever advances as far as TA actually reads.  Early termination
  therefore skips not just scoring but even *touching* a posting's
  tail — the sublinear behaviour Algorithm 1 promises.

:class:`AccessStats` counts sorted/random accesses so benchmarks and
the CI perf gate can assert the early-termination win instead of
trusting it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Protocol, TypeVar

from repro.diagnostics.contracts import check_sorted_descending, contracts_enabled

_EMPTY_EXCLUDE: frozenset[str] = frozenset()

#: Object-id type of one TA run (object-id strings in the engines).
#: Ids only need hashing and a total order.
IdT = TypeVar("IdT")


class _ReverseStr:
    """Id wrapper with inverted ordering.

    Heap entries are ``(score, _ReverseStr(id))`` so the min-heap root is
    the *worst* element under the output order (score descending, id
    ascending): lowest score, and among score ties the largest id.
    Without this, ties at the k-th score would keep a different object
    than the final sort reports.  Works for any totally ordered id type
    (strings, dense integer ranks).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_ReverseStr") -> bool:
        return bool(self.value > other.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseStr) and bool(self.value == other.value)


class TopKSource(Protocol[IdT]):
    """What the TA walk needs from an input list: its length,
    descending sorted access by rank, and O(1) random access."""

    def __len__(self) -> int: ...

    def entry(self, rank: int) -> tuple[IdT, float]: ...

    def score(self, object_id: IdT) -> float: ...


class SortedListSource:
    """One TA input: descending-sorted access plus O(1) random access.

    Parameters
    ----------
    entries:
        ``(object_id, score)`` pairs; sorted internally by descending
        score (ties by id, so runs are deterministic).
    """

    __slots__ = ("_sorted", "_scores")

    def __init__(self, entries: Sequence[tuple[str, float]]) -> None:
        self._sorted: list[tuple[str, float]] = sorted(
            entries, key=lambda e: (-e[1], e[0])
        )
        self._scores: dict[str, float] = {oid: s for oid, s in entries}
        if len(self._scores) != len(self._sorted):
            raise ValueError("duplicate object ids within one source")
        if contracts_enabled():
            # Early termination is unsound on an unsorted source.
            check_sorted_descending(self._sorted, what="TA sorted-access source")

    def __len__(self) -> int:
        return len(self._sorted)

    def entry(self, rank: int) -> tuple[str, float]:
        """Sorted access: the ``rank``-th best entry."""
        return self._sorted[rank]

    def score(self, object_id: str) -> float:
        """Random access; missing objects score 0."""
        return self._scores.get(object_id, 0.0)


class ImpactSortedSource:
    """Lazy TA input over a prebuilt impact-ordered posting view.

    The stored ``pairs`` hold the α-mixed joint probability ``P``; the
    query-time potential is ``outer·(inner·P)`` with ``inner =
    λ_{|c|}·CorS(c)`` and ``outer`` an additional per-clique constant
    (1.0 for retrieval; the profile's temporal weight for
    recommendation).  The two-step association mirrors the pre-change
    scoring exactly, so scaled scores are bit-identical to what the
    per-query scorer produced.

    Sorted access materializes scaled entries through a cursor that
    advances only as far as TA reads — a posting's tail beyond the
    termination depth is never touched.  ``exclude`` ids (the query's
    own id) are skipped during cursor advance and score 0 on random
    access, matching the pre-change filter.  ``eligible``, when given,
    is an O(1) membership test applied the same way — the recommender's
    candidate filter over a shared corpus-wide index; the source's
    length then counts eligible entries in one pass over ``pairs``.
    """

    __slots__ = (
        "_pairs",
        "_scores",
        "_inner",
        "_outer",
        "_exclude",
        "_eligible",
        "_scaled",
        "_cursor",
        "_len",
    )

    def __init__(
        self,
        pairs: Sequence[tuple[str, float]],
        scores: Mapping[str, float],
        inner: float,
        outer: float = 1.0,
        exclude: Collection[str] = _EMPTY_EXCLUDE,
        eligible: Callable[[str], bool] | None = None,
    ) -> None:
        self._pairs = pairs
        self._scores = scores
        self._inner = inner
        self._outer = outer
        self._exclude = exclude
        self._eligible = eligible
        self._scaled: list[tuple[str, float]] = []
        self._cursor = 0
        if eligible is None:
            self._len = len(pairs) - sum(1 for oid in exclude if oid in scores)
        else:
            self._len = sum(
                1 for oid, _ in pairs if eligible(oid) and oid not in exclude
            )

    def __len__(self) -> int:
        return self._len

    def entry(self, rank: int) -> tuple[str, float]:
        """Sorted access: the ``rank``-th best non-excluded eligible
        entry, scaled lazily on first read."""
        eligible = self._eligible
        while len(self._scaled) <= rank:
            object_id, p = self._pairs[self._cursor]
            self._cursor += 1
            if object_id in self._exclude or (
                eligible is not None and not eligible(object_id)
            ):
                continue
            self._scaled.append((object_id, self._outer * (self._inner * p)))
        return self._scaled[rank]

    def score(self, object_id: str) -> float:
        """Random access; missing, excluded or ineligible objects
        score 0."""
        if object_id in self._exclude or (
            self._eligible is not None and not self._eligible(object_id)
        ):
            return 0.0
        p = self._scores.get(object_id)
        if p is None:
            return 0.0
        return self._outer * (self._inner * p)


@dataclass
class AccessStats:
    """Mutable access counters filled by :func:`threshold_algorithm`.

    ``sorted_accesses`` counts entries read through sorted access (the
    quantity the index bounds sublinearly), ``random_accesses`` counts
    score probes (one per source per newly seen object), and ``rounds``
    is the termination depth.
    """

    sorted_accesses: int = 0
    random_accesses: int = 0
    rounds: int = 0

    def merge(self, other: "AccessStats") -> None:
        """Accumulate another query's counters (benchmark aggregation)."""
        self.sorted_accesses += other.sorted_accesses
        self.random_accesses += other.random_accesses
        self.rounds += other.rounds


def threshold_algorithm(
    sources: Sequence[TopKSource[IdT]],
    k: int,
    aggregate: Callable[[Sequence[float]], float] = sum,
    stats: AccessStats | None = None,
) -> list[tuple[IdT, float]]:
    """Top-``k`` objects by aggregated score across ``sources``.

    Returns at most ``k`` ``(object_id, score)`` pairs in descending
    score order (ties broken by id).  ``aggregate`` must be monotone in
    every argument for early termination to be sound; the default sum
    over non-negative scores is.  Object ids only need a total order.

    The walk does one sorted access per source per round (Fagin's
    round-robin), fully scores unseen objects by random access, and
    stops when ``k`` objects have been found whose scores are all
    strictly above the frontier threshold, or when every list is
    exhausted.  An unseen object scores at most the threshold (each of
    its entries sits at or below the frontier, and the aggregate is
    monotone — for a float sum in source order too, as rounding is
    monotone), so under the strict stop it cannot even tie the ``k``-th
    score: the result is exactly the first ``k`` of all objects in
    ``(-score, id)`` order, ties at the ``k``-th place included.

    ``stats``, when given, is filled with the access counts of this run
    — the hook the perf benches and the CI early-termination gate read.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not sources:
        return []

    seen: set[IdT] = set()
    # Min-heap of (score, reverse-ordered id) holding the current top-k.
    heap: list[tuple[float, _ReverseStr]] = []
    depth = 0
    lens = [len(s) for s in sources]
    max_len = max(lens)
    while depth < max_len:
        frontier: list[float] = []
        for source, source_len in zip(sources, lens):
            if depth < source_len:
                object_id, score = source.entry(depth)
                if stats is not None:
                    stats.sorted_accesses += 1
                frontier.append(score)
                if object_id not in seen:
                    seen.add(object_id)
                    full = aggregate([s.score(object_id) for s in sources])
                    if stats is not None:
                        stats.random_accesses += len(sources)
                    entry = (full, _ReverseStr(object_id))
                    if len(heap) < k:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
            else:
                frontier.append(0.0)
        depth += 1
        if len(heap) >= k:
            threshold = aggregate(frontier)
            if heap[0][0] > threshold:
                break

    if stats is not None:
        stats.rounds = depth
    results = sorted(heap, key=lambda e: (-e[0], e[1].value))
    return [(rev.value, score) for score, rev in results]


def sorted_access_count(sources: Sequence[TopKSource[IdT]], k: int) -> int:
    """Run TA and return the number of sorted-access rounds it needed
    (the early-termination depth) — kept for the index-ablation bench."""
    stats = AccessStats()
    threshold_algorithm(sources, k, stats=stats)
    return stats.rounds

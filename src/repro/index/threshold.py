"""Fagin's Threshold Algorithm (TA) for top-k rank aggregation.

Algorithm 1 (line 13) merges the per-clique candidate lists with "the
Threshold Algorithm [7]", the classic middleware top-k method of Fagin,
Lotem & Naor: walk the input lists in parallel sorted order, fully
score every newly seen object via random access, and stop as soon as
the k-th best full score is strictly above the *threshold* — the
aggregate of the current sorted-access frontier — because no unseen
object can then reach it, not even to tie.

This implementation sums the per-source scores and adopts the
missing-entry-scores-zero convention, which is what Algorithm 1 needs:
an object absent from a clique's candidate list contributes nothing for
that clique.  With non-negative scores the sum is monotone, so the
early-termination guarantee holds.

Every input is an :class:`ImpactSortedSource` — one posting's entries,
built per query by :func:`impact_sources` from the stored arrays the
vectorized kernel sums (:class:`~repro.index.vectorized.PostingVectors`):
α-mixed, filtered, ordered by impact and scaled by the query's constant
per-clique weight, keyed by dense object id.  Scalar ``mode="index"``
runs Algorithm 1 over these, so both index modes read one posting form
and nothing is cached across queries.

:class:`AccessStats` counts sorted/random accesses so benchmarks and
the CI perf gate can assert the early-termination win instead of
trusting it.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.index.vectorized import PostingVectors, scaled_entries


class ImpactSortedSource:
    """One query clique's TA input: its posting's scored entries,
    already in descending impact order (see :func:`impact_sources`),
    keyed by dense object id.  Sorted access is by rank, random access
    by id in O(1)."""

    __slots__ = ("_sorted", "_scores")

    def __init__(self, entries: list[tuple[int, float]]) -> None:
        self._sorted = entries
        self._scores = dict(entries)
        if len(self._scores) != len(entries):
            raise ValueError("duplicate object ids within one source")

    def __len__(self) -> int:
        return len(self._sorted)

    def entry(self, rank: int) -> tuple[int, float]:
        """Sorted access: the ``rank``-th best entry."""
        return self._sorted[rank]

    def score(self, object_id: int) -> float:
        """Random access; missing, excluded or non-candidate ids
        score 0."""
        return self._scores.get(object_id, 0.0)


def impact_sources(
    terms: Sequence[tuple[PostingVectors, float, float]],
    alpha: float,
    exclude: int | None = None,
    candidates: np.ndarray | None = None,
) -> list[ImpactSortedSource]:
    """The TA sources of one query, built from the ``(posting, inner,
    outer)`` terms :func:`~repro.index.vectorized.accumulate_top_k`
    sums, in term order.

    A term is a source when its posting has a positive α-mixed impact
    ``P`` before exclusion.  Each source holds the term's
    :func:`~repro.index.vectorized.scaled_entries` — positive ``P``,
    the ``exclude`` dense id and the ids the ``candidates`` mask rejects
    dropped, scaled to ``outer·(inner·P)`` — ordered by ``(-P, dense
    id)``; scaling by a positive constant keeps that order descending.
    Dense order is string order, so the ``(-score, id)`` tie-break
    carries over to object ids.  One batch of array work serves every
    term; nothing is cached across queries.
    """
    if not terms:
        return []
    entries = scaled_entries(terms, alpha, exclude, candidates)
    order = np.lexsort((entries.ids, -entries.impacts, entries.term))
    pairs = list(zip(entries.ids[order].tolist(), entries.values[order].tolist()))
    bounds = np.searchsorted(entries.term[order], np.arange(len(terms) + 1)).tolist()
    return [
        ImpactSortedSource(pairs[lo:hi])
        for lo, hi, source in zip(bounds, bounds[1:], entries.sources.tolist())
        if source
    ]


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
    sources: Sequence[ImpactSortedSource],
    k: int,
    stats: AccessStats | None = None,
) -> list[tuple[int, float]]:
    """Top-``k`` dense object ids by summed score across ``sources``.

    Returns at most ``k`` ``(dense_id, score)`` pairs in descending
    score order (ties broken by ascending id).  The sum over
    non-negative scores is monotone in every argument, which early
    termination needs.

    The walk does one sorted access per source per round (Fagin's
    round-robin), fully scores unseen objects by random access, and
    stops when ``k`` objects have been found whose scores are all
    strictly above the frontier threshold, or when every list is
    exhausted.  An unseen object scores at most the threshold (each of
    its entries sits at or below the frontier, and a float sum in
    source order is monotone, as rounding is), so under the strict stop
    it cannot even tie the ``k``-th score: the result is exactly the
    first ``k`` of all objects in ``(-score, id)`` order, ties at the
    ``k``-th place included.

    ``stats``, when given, is filled with the access counts of this run
    — the hook the perf benches and the CI early-termination gate read.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not sources:
        return []

    seen: set[int] = set()
    # Min-heap of (score, -id) holding the current top-k: the root is
    # the worst entry under the output order — lowest score, and among
    # score ties the largest id — so ties at the k-th score keep the
    # object the final sort reports.
    heap: list[tuple[float, int]] = []
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
                    full = sum([s.score(object_id) for s in sources])
                    if stats is not None:
                        stats.random_accesses += len(sources)
                    entry = (full, -object_id)
                    if len(heap) < k:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
            else:
                frontier.append(0.0)
        depth += 1
        if len(heap) >= k and heap[0][0] > sum(frontier):
            break

    if stats is not None:
        stats.rounds = depth
    return [(-neg_id, score) for score, neg_id in sorted(heap, reverse=True)]

"""Vectorized zero-copy scoring: one accumulate-and-select kernel.

Both Algorithm 1 query modes read a posting in the one form defined
here: the default path ranks it with batch numpy work, and scalar
``mode="index"`` builds its per-query Threshold Algorithm sources
(:class:`~repro.index.threshold.ImpactSortedSource`) from the same
arrays:

* :class:`PostingVectors` — one clique's posting as parallel arrays:
  ascending **dense** object ids (rank in the sorted id table, so dense
  order == string order and tie-breaks survive the translation) and
  the two α-independent Eq. 7 component arrays.  Against an mmap'd segment
  the float arrays are zero-copy views straight into the mapping.
* :func:`scaled_entries` — the one entry filter both modes apply: the
  query's postings concatenated in source order, α-mixed, ``P ≤ 0``,
  excluded and non-candidate entries dropped, the rest scaled by their
  term's weights, in one whole-array expression each.
* :func:`accumulate_top_k` — the query kernel retrieval and
  recommendation share: the scaled entries summed per object with one
  ``np.unique`` + ``np.bincount``, then the top-k
  selected by ``(-score, dense id)``.  Work is O(touched entries): no
  ``n_objects``-sized array, no per-α cache, no Threshold Algorithm
  walk — every entry is summed anyway, so early termination would
  save no reading (DESIGN.md §9).
* :class:`MmapVectorView` / :class:`InMemoryVectorView` /
  :class:`SegmentedVectorView` — adapters giving every index flavour
  the same vector access surface.

**Bit parity.**  Both index modes score the entries
:func:`scaled_entries` returns; mixing and scaling go through the
shared :mod:`repro.core.mrf` helpers, elementwise, so each entry also
carries the bits the rescoring scorer computes for it.
``np.bincount`` adds each object's entries sequentially in input
order — source order — starting from ``0.0``, exactly the partial sums
of adding scalar ``score()`` calls source by source (a source without
the object contributes ``+0.0``, the bitwise identity for the
non-negative scores here).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.mrf import mix_components, scale_impacts
from repro.index.binfmt import BinaryIndexReader


class PostingVectors:
    """One posting as parallel arrays in ascending dense-id order.

    ``ids`` are dense ranks into the view's sorted object-id table;
    ``freq``/``smooth`` are the stored Eq. 7 components (zero-copy
    views against an mmap'd segment).
    """

    __slots__ = ("key", "cors", "ids", "freq", "smooth")

    def __init__(
        self,
        key: str,
        cors: float,
        ids: np.ndarray,
        freq: np.ndarray,
        smooth: np.ndarray,
    ) -> None:
        self.key = key
        self.cors = cors
        self.ids = ids
        self.freq = freq
        self.smooth = smooth

    def __len__(self) -> int:
        return len(self.ids)


class Entries(NamedTuple):
    """The entries of a query's terms that can score, in term order —
    what :func:`scaled_entries` returns."""

    #: Term (source) index of each entry.
    term: np.ndarray
    #: Dense object id of each entry.
    ids: np.ndarray
    #: Its α-mixed impact ``P`` (always > 0).
    impacts: np.ndarray
    #: Its scaled score ``outer·(inner·P)``.
    values: np.ndarray
    #: Per term: whether its posting has a positive impact, counted
    #: before exclusion — the terms that are sources.
    sources: np.ndarray


def scaled_entries(
    terms: Sequence[tuple[PostingVectors, float, float]],
    alpha: float,
    exclude: int | None = None,
    candidates: np.ndarray | None = None,
) -> Entries:
    """The one entry filter both index modes apply to a non-empty list
    of ``(posting, inner, outer)`` terms: α-mix every entry, keep the
    positive impacts, drop the ``exclude`` dense id (the query object)
    and, when ``candidates`` — a dense boolean mask over the view's
    object table — is given, every id it marks ``False``; scale the
    rest to ``outer·(inner·P)``."""
    lengths = [len(term[0]) for term in terms]
    ids = np.concatenate([term[0].ids for term in terms])
    impacts = mix_components(
        np.concatenate([term[0].freq for term in terms]),
        np.concatenate([term[0].smooth for term in terms]),
        alpha,
    )
    keep = impacts > 0.0
    ends = np.cumsum(lengths)
    positives = np.concatenate(([0], np.cumsum(keep)))
    sources = positives[ends] > positives[ends - lengths]
    if exclude is not None:
        keep &= ids != exclude
    if candidates is not None:
        keep &= candidates[ids]
    impacts = impacts[keep]
    values = scale_impacts(
        impacts,
        np.repeat([term[1] for term in terms], lengths)[keep],
        np.repeat([term[2] for term in terms], lengths)[keep],
    )
    term = np.repeat(np.arange(len(terms)), lengths)[keep]
    return Entries(term, ids[keep], impacts, values, sources)


class TopK(NamedTuple):
    """What :func:`accumulate_top_k` returns: the ranking plus the
    counts ``search_with_stats`` reports."""

    #: ``(dense id, score)`` pairs, score descending, ties by ascending id.
    ranking: list[tuple[int, float]]
    #: Postings with at least one positive impact.
    n_sources: int
    #: Positive entries summed (excluded and non-candidate ids dropped).
    n_entries: int
    #: Distinct objects scored — every one is a ranking candidate.
    n_candidates: int


def accumulate_top_k(
    terms: Sequence[tuple[PostingVectors, float, float]],
    alpha: float,
    k: int,
    exclude: int | None = None,
    candidates: np.ndarray | None = None,
) -> TopK:
    """Top-``k`` objects by ``Σ_terms outer·(inner·(α·freq + (1-α)·smooth))``.

    ``terms`` are ``(posting, inner, outer)`` in source order — the
    order the scalar Threshold Algorithm receives its sources in — and
    the entries summed are :func:`scaled_entries`'s, the ones the
    scalar sources hold.  Every object with a surviving entry is a
    candidate, and its score is the sequential source-order sum of its
    scaled entries, so the result equals scalar TA over the same
    sources bit for bit, ``(-score, id)`` tie order included.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not terms:
        return TopK([], 0, 0, 0)
    entries = scaled_entries(terms, alpha, exclude, candidates)
    hits, inverse = np.unique(entries.ids, return_inverse=True)
    scores = np.bincount(inverse, weights=entries.values, minlength=len(hits))
    n_candidates = len(hits)
    if n_candidates > k:
        kth = np.partition(scores, n_candidates - k)[n_candidates - k]
        top = scores >= kth
        hits, scores = hits[top], scores[top]
    order = np.lexsort((hits, -scores))[:k]
    ranking = list(zip(hits[order].tolist(), scores[order].tolist()))
    n_sources = int(np.count_nonzero(entries.sources))
    return TopK(ranking, n_sources, len(entries.values), n_candidates)


class MmapVectorView:
    """Vector access to an mmap'd segment: zero-copy component views and the
    reader's cached dense-id decode."""

    def __init__(self, reader: BinaryIndexReader) -> None:
        self._reader = reader
        self._cache: dict[str, PostingVectors | None] = {}

    @property
    def n_objects(self) -> int:
        return self._reader.n_objects

    def dense_id(self, object_id: str) -> int | None:
        return self._reader.find_object(object_id)

    def object_id(self, dense: int) -> str:
        return self._reader.object_id_at(dense)

    def vectors(self, key: str) -> PostingVectors | None:
        if key in self._cache:
            return self._cache[key]
        slot = self._reader.find_slot(key)
        if slot is None:
            self._cache[key] = None
            return None
        ids = self._reader.posting_dense_ids(slot)
        freq, smooth = self._reader.posting_components(slot)
        cors = self._reader.posting_cors(slot)
        result = PostingVectors(key, cors, ids, freq, smooth)
        self._cache[key] = result
        return result


class InMemoryVectorView:
    """Vector access over a built/deserialized in-memory index.

    Builds one sorted object-id table up front (dense id = rank, so
    dense order == string order) and converts each posting to ascending
    dense-id arrays on first touch — the fallback that keeps the
    vectorized engine available without an ``index.bin``.
    """

    def __init__(self, index) -> None:  # CliqueInvertedIndex; untyped to avoid a cycle
        self._index = index
        ids: set[str] = set()
        for posting in index.iter_postings():
            ids.update(posting.object_ids)
        self._table = sorted(ids)
        self._rank = {oid: dense for dense, oid in enumerate(self._table)}
        self._cache: dict[str, PostingVectors | None] = {}

    @property
    def n_objects(self) -> int:
        return len(self._table)

    def dense_id(self, object_id: str) -> int | None:
        return self._rank.get(object_id)

    def object_id(self, dense: int) -> str:
        return self._table[dense]

    def vectors(self, key: str) -> PostingVectors | None:
        if key in self._cache:
            return self._cache[key]
        posting = self._index.lookup(key)
        if posting is None:
            self._cache[key] = None
            return None
        n = len(posting)
        rank = self._rank
        dense = np.fromiter(
            (rank[oid] for oid in posting), dtype=np.int64, count=n
        )
        freq_list, smooth_list = posting.component_arrays()
        freq = np.asarray(freq_list, dtype=np.float64)
        smooth = np.asarray(smooth_list, dtype=np.float64)
        order = np.argsort(dense)
        result = PostingVectors(
            key, posting.cors, dense[order], freq[order], smooth[order]
        )
        self._cache[key] = result
        return result


def _segment_object_ids(segment) -> list[str]:
    """A segment's object ids in its local dense order (= sorted id
    order for both index flavours): straight off the id table for an
    mmap'd segment, the posting union otherwise."""
    reader = getattr(segment, "reader", None)
    if reader is not None:
        return [oid.decode("utf-8") for oid in reader.object_id_table_array().tolist()]
    ids: set[str] = set()
    for posting in segment.iter_postings():
        ids.update(posting.object_ids)
    return sorted(ids)


class SegmentedVectorView:
    """Vector access across a (main + delta) segment stack.

    Builds one *global* sorted object-id table over every segment
    (dense id = global rank, so dense order == string order exactly as
    in the single-segment views) plus a per-segment local→global dense
    remap.  ``vectors(key)`` resolves per segment through each
    segment's own cached view — the shared main segment keeps its
    zero-copy decodes warm across snapshot generations — then lifts the
    result into global dense ids:

    * key in **one** segment (the overwhelmingly common case): the
      segment's arrays are reused with remapped ids.  The remap is
      strictly increasing, so ascending order carries over unchanged.
    * key in **several** segments: entries concatenate main-first (the
      corpus order the monolithic build would have seen) and sort by
      global dense id — the arrays a monolithic build stores.
    """

    def __init__(self, segments) -> None:  # Sequence[CliqueInvertedIndex]
        self._views = [segment.vector_view() for segment in segments]
        local_tables = [_segment_object_ids(segment) for segment in segments]
        table: set[str] = set()
        for ids in local_tables:
            table.update(ids)
        self._table = sorted(table)
        self._rank = {oid: dense for dense, oid in enumerate(self._table)}
        rank = self._rank
        self._remaps = [
            np.fromiter((rank[oid] for oid in ids), dtype=np.int64, count=len(ids))
            for ids in local_tables
        ]
        self._cache: dict[str, PostingVectors | None] = {}

    @property
    def n_objects(self) -> int:
        return len(self._table)

    def dense_id(self, object_id: str) -> int | None:
        return self._rank.get(object_id)

    def object_id(self, dense: int) -> str:
        return self._table[dense]

    def vectors(self, key: str) -> PostingVectors | None:
        if key in self._cache:
            return self._cache[key]
        parts: list[tuple[np.ndarray, PostingVectors]] = []
        for view, remap in zip(self._views, self._remaps):
            pv = view.vectors(key)
            if pv is not None:
                parts.append((remap, pv))
        result: PostingVectors | None
        if not parts:
            result = None
        elif len(parts) == 1:
            remap, pv = parts[0]
            result = PostingVectors(key, pv.cors, remap[pv.ids], pv.freq, pv.smooth)
        else:
            ids = np.concatenate([remap[pv.ids] for remap, pv in parts])
            freq = np.concatenate([pv.freq for _, pv in parts])
            smooth = np.concatenate([pv.smooth for _, pv in parts])
            order = np.argsort(ids)
            result = PostingVectors(
                key, parts[0][1].cors, ids[order], freq[order], smooth[order]
            )
        self._cache[key] = result
        return result

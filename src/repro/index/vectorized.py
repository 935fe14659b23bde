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
* :class:`MmapVectorView` — the read surface of one segment, the
  one segment form: a mapped ``index.bin``, or the image of a built
  index or ingest delta (the same bytes in an anonymous mapping,
  :func:`~repro.index.binfmt.encode_image`).  It holds the posting
  arrays plus the sorted object-id table, keys, posting lengths, CorS
  by key and reader a
  :class:`~repro.index.segmented.SegmentedCliqueIndex` derives its
  read API from.  :class:`SegmentedVectorView` is the same surface
  merged over a main segment and its ingest deltas.

**Bit parity.**  Both index modes score the entries
:func:`scaled_entries` returns; mixing and scaling go through the
shared :mod:`repro.core.mrf` helpers, elementwise, so each entry also
carries the bits of the exact model's weighted potential
(:meth:`~repro.core.mrf.CliqueScorer.potential`) for it.
``np.bincount`` adds each object's entries sequentially in input
order — source order — starting from ``0.0``, exactly the partial sums
of adding scalar ``score()`` calls source by source (a source without
the object contributes ``+0.0``, the bitwise identity for the
non-negative scores here).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain
from pathlib import Path
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
    """The read surface of a mapped segment — an ``index.bin`` file or
    an image: zero-copy component views, the reader's cached dense-id
    decode, and the metadata a segment stack needs — the id table,
    keys, posting lengths and CorS, all read straight off the mapping
    with no posting decoded.

    The view owns its reader and counts the sharers of the mapping:
    stacks derived by ingest share one main segment across snapshot
    generations (guarded by: ``SnapshotManager._swap_lock`` — pins only
    move while a snapshot is being constructed or retired).
    Construction counts as the first pin; each :meth:`acquire` is
    balanced by one :meth:`close`, and the last close releases a file's
    mapping.  An image holds nothing but memory: it is freed with its
    last reference, so a retired snapshot's built index keeps
    answering, as its heap-built index did.
    """

    def __init__(self, reader: BinaryIndexReader) -> None:
        self._reader = reader
        self._cache: dict[str, PostingVectors | None] = {}
        self._pins = 1

    @property
    def n_objects(self) -> int:
        return self._reader.n_objects

    @property
    def max_clique_size(self) -> int:
        return self._reader.max_clique_size

    @property
    def path(self) -> Path | None:
        """The backing ``index.bin``; ``None`` for an image."""
        return self._reader.path

    @property
    def reader(self) -> BinaryIndexReader:
        """The open segment — what compaction merges."""
        return self._reader

    @property
    def decoded_slots(self) -> int:
        return self._reader.decoded_slots

    def dense_id(self, object_id: str) -> int | None:
        return self._reader.find_object(object_id)

    def object_id(self, dense: int) -> str:
        return self._reader.object_id_at(dense)

    def object_ids(self) -> list[str]:
        """The sorted object-id table (dense id = position)."""
        return [oid.decode("utf-8") for oid in self._reader.object_id_table_array().tolist()]

    def keys(self) -> Iterator[str]:
        """Every clique key in slot (== sorted) order."""
        return map(self._reader.key_at, range(self._reader.n_cliques))

    def posting_lengths(self) -> np.ndarray:
        """Posting lengths, parallel to :meth:`keys`."""
        return self._reader.posting_lengths()

    def slot(self, key: str) -> int | None:
        """Position of ``key`` in :meth:`keys`; ``None`` when absent."""
        return self._reader.find_slot(key)

    def cors(self, key: str) -> float | None:
        slot = self._reader.find_slot(key)
        return None if slot is None else self._reader.posting_cors(slot)

    def vectors(self, key: str) -> PostingVectors | None:
        if key not in self._cache:
            self._cache[key] = self._read(key, cache=True)
        return self._cache[key]

    def read_vectors(self, key: str) -> PostingVectors | None:
        """:meth:`vectors` without keeping the result or its decoded ids
        — the full scans' read, which must not pin every posting."""
        cached = self._cache.get(key)
        return cached if cached is not None else self._read(key, cache=False)

    def _read(self, key: str, cache: bool) -> PostingVectors | None:
        slot = self._reader.find_slot(key)
        if slot is None:
            return None
        ids = self._reader.posting_dense_ids(slot, cache=cache)
        freq, smooth = self._reader.posting_components(slot)
        return PostingVectors(key, self._reader.posting_cors(slot), ids, freq, smooth)

    @property
    def closed(self) -> bool:
        """Whether the last pin released the mapping."""
        return self._reader.closed

    def acquire(self) -> "MmapVectorView":
        """Register one more sharer of the mapping."""
        self._pins += 1
        return self

    def close(self) -> None:
        """Release one pin; a file's mapping closes with the last one."""
        self._pins -= 1
        if self._pins <= 0 and self.path is not None:
            self._reader.close()


class SegmentedVectorView:
    """The read surface of a (main + delta) segment stack: the segment
    views' surface, merged.

    A *global* sorted object-id table over every segment (dense id =
    global rank, so dense order == string order exactly as in the
    single-segment views) plus a per-segment local→global dense remap,
    both built on the first id access.  ``vectors(key)`` resolves per
    segment through each segment's own cached view — the shared main
    segment keeps its zero-copy decodes warm across snapshot
    generations — then lifts the result into global dense ids:

    * key in **one** segment (the overwhelmingly common case): the
      segment's arrays are reused with remapped ids.  The remap is
      strictly increasing, so ascending order carries over unchanged.
    * key in **several** segments: entries concatenate main-first (the
      corpus order the monolithic build would have seen) and sort by
      global dense id — the arrays a monolithic build stores.

    ``keys()`` yields the main segment's keys, then each delta's novel
    keys; ``posting_lengths()`` are the merged lengths parallel to them.
    """

    def __init__(self, segments: Sequence[MmapVectorView]) -> None:
        self._segments = tuple(segments)
        self._n_objects = sum(segment.n_objects for segment in self._segments)
        self._table: list[str] | None = None
        self._rank: dict[str, int] = {}
        self._remaps: list[np.ndarray] = []
        self._novel: list[str] | None = None
        self._lengths: np.ndarray | None = None
        self._cache: dict[str, PostingVectors | None] = {}

    def _global_ids(self) -> list[str]:
        if self._table is None:
            local_tables = [segment.object_ids() for segment in self._segments]
            rank = {
                oid: dense
                for dense, oid in enumerate(sorted(set().union(*local_tables)))
            }
            self._remaps = [
                np.fromiter((rank[oid] for oid in ids), dtype=np.int64, count=len(ids))
                for ids in local_tables
            ]
            self._rank = rank
            self._table = list(rank)
        return self._table

    def _merge_lengths(self) -> tuple[list[str], np.ndarray]:
        if self._novel is None or self._lengths is None:
            main = self._segments[0]
            lengths = main.posting_lengths().copy()
            novel: dict[str, int] = {}
            for segment in self._segments[1:]:
                for key, n in zip(segment.keys(), segment.posting_lengths().tolist()):
                    slot = main.slot(key)
                    if slot is not None:
                        lengths[slot] += n
                    else:
                        novel[key] = novel.get(key, 0) + n
            self._lengths = np.concatenate(
                [lengths, np.fromiter(novel.values(), dtype=np.int64, count=len(novel))]
            )
            self._novel = list(novel)
        return self._novel, self._lengths

    @property
    def n_objects(self) -> int:
        """Objects over every segment (every global dense id is below it)."""
        return self._n_objects

    @property
    def decoded_slots(self) -> int:
        return sum(segment.decoded_slots for segment in self._segments)

    def dense_id(self, object_id: str) -> int | None:
        self._global_ids()
        return self._rank.get(object_id)

    def object_id(self, dense: int) -> str:
        return self._global_ids()[dense]

    def keys(self) -> Iterator[str]:
        return chain(self._segments[0].keys(), self._merge_lengths()[0])

    def posting_lengths(self) -> np.ndarray:
        return self._merge_lengths()[1]

    def cors(self, key: str) -> float | None:
        """First segment that knows the clique answers — every segment
        scored it under the same frozen model, so they agree."""
        for segment in self._segments:
            cors = segment.cors(key)
            if cors is not None:
                return cors
        return None

    def vectors(self, key: str) -> PostingVectors | None:
        if key not in self._cache:
            self._global_ids()
            self._cache[key] = self._merge(
                key, [segment.vectors(key) for segment in self._segments]
            )
        return self._cache[key]

    def read_vectors(self, key: str) -> PostingVectors | None:
        """:meth:`vectors` without keeping the result here or in any
        segment — the full scans' read, which must not pin every
        posting."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._global_ids()
        return self._merge(key, [segment.read_vectors(key) for segment in self._segments])

    def _merge(
        self, key: str, per_segment: list[PostingVectors | None]
    ) -> PostingVectors | None:
        parts = [
            (remap, pv) for remap, pv in zip(self._remaps, per_segment) if pv is not None
        ]
        if not parts:
            return None
        if len(parts) == 1:
            remap, pv = parts[0]
            return PostingVectors(key, pv.cors, remap[pv.ids], pv.freq, pv.smooth)
        ids = np.concatenate([remap[pv.ids] for remap, pv in parts])
        freq = np.concatenate([pv.freq for _, pv in parts])
        smooth = np.concatenate([pv.smooth for _, pv in parts])
        order = np.argsort(ids)
        return PostingVectors(key, parts[0][1].cors, ids[order], freq[order], smooth[order])

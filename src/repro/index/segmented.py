"""Multi-segment index: one immutable main segment plus delta tails.

Streaming ingest cannot afford a rebuild — at paper scale a monolithic
build is ~25 minutes — so new objects land in small **delta segments**
(in-memory indexes built over just the new objects with the snapshot's
frozen correlation model) and queries run over the *stack* of segments,
LSM-style.  :class:`SegmentedCliqueIndex` is that stack behind the
ordinary :class:`~repro.index.inverted.CliqueInvertedIndex` read API,
so every consumer — the scalar TA path, the vectorized path,
``save_index``, serving snapshots — works unchanged.

**Bit parity with a monolithic build** (over the same correlation
model) holds by construction:

* A clique key held by exactly **one** segment resolves to that
  segment's posting object *as-is* — no copy.
* A key held by **several** segments resolves to one merged posting
  whose entries concatenate main-first, then deltas in arrival order —
  exactly the corpus order a from-scratch build appends in (segments
  partition the corpus into contiguous, ordered slices).  CorS is taken
  from the first holder: it is a pure function of the key under the
  frozen model, so every holder stores the same value.
* The Threshold Algorithm therefore sees **one source per clique**
  with identical entries in identical order — the ``>=``-termination
  twin-tie behaviour cannot diverge, which per-(clique, segment)
  sources would not guarantee.
* ``iter_postings`` yields every key once, merged across the stack;
  the writer lays slots out in key order, so re-serializing a
  segmented index is byte-identical to serializing a from-scratch
  build.

Derivation is O(delta): :meth:`with_delta` shares the main segment
(pin-counted via ``acquire``/``close``) and all prior deltas and reads
no posting — the publish cost of an ingest batch is the batch's own
build, never proportional to the corpus.

The stack is immutable like any served index: mutation raises
``TypeError``; growth happens by deriving a new stack, compaction by
merging segment *files* (:mod:`repro.index.segbuild`) and hot-reloading.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NoReturn

from repro.core.cliques import Clique
from repro.core.correlation import CorrelationModel
from repro.core.objects import MediaObject
from repro.index.inverted import CliqueInvertedIndex
from repro.index.postings import Posting
from repro.index.vectorized import SegmentedVectorView


class SegmentedCliqueIndex(CliqueInvertedIndex):
    """Read view over ``(main, *deltas)`` index segments.

    Parameters
    ----------
    main:
        The large immutable segment (typically an
        :class:`~repro.index.segment.MmapCliqueIndex` over ``index.bin``;
        any :class:`CliqueInvertedIndex` works).  If it exposes
        ``acquire``/``close``, the stack takes one pin and releases it
        on :meth:`close` — sharers across generations stay safe.
    deltas:
        Delta segments in arrival order (oldest first).  Their objects
        must be disjoint from ``main``'s and from each other's, and
        each must be built with the same correlation model and clique
        bound as ``main``.
    correlations:
        The frozen correlation model shared by every segment (defaults
        to ``main``'s).
    """

    def __init__(
        self,
        main: CliqueInvertedIndex,
        deltas: Sequence[CliqueInvertedIndex],
        correlations: CorrelationModel | None = None,
    ) -> None:
        for delta in deltas:
            if delta.max_clique_size != main.max_clique_size:
                raise ValueError(
                    f"delta segment clique bound {delta.max_clique_size} does not "
                    f"match the main segment's {main.max_clique_size}"
                )
        model = correlations if correlations is not None else main.correlations
        super().__init__(model, max_clique_size=main.max_clique_size)
        self._main = main
        self._deltas = tuple(deltas)
        self._segments: tuple[CliqueInvertedIndex, ...] = (main, *self._deltas)
        self.set_n_objects(sum(segment.n_objects for segment in self._segments))
        self._n_cliques: int | None = None
        self._closed = False
        acquire = getattr(main, "acquire", None)
        if acquire is not None:
            acquire()

    # ------------------------------------------------------------------
    # stack structure
    # ------------------------------------------------------------------
    @property
    def main(self) -> CliqueInvertedIndex:
        return self._main

    @property
    def deltas(self) -> tuple[CliqueInvertedIndex, ...]:
        return self._deltas

    @property
    def n_delta_objects(self) -> int:
        """Objects living in delta segments (compaction folds them in)."""
        return sum(delta.n_objects for delta in self._deltas)

    def with_delta(self, delta: CliqueInvertedIndex) -> "SegmentedCliqueIndex":
        """A new stack with ``delta`` appended — O(delta): the main
        segment and every prior delta are shared, not copied."""
        return SegmentedCliqueIndex(
            self._main, (*self._deltas, delta), correlations=self._cor
        )

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------
    def cors_for_key(self, key: str) -> float | None:
        """First segment that knows the clique answers — every segment
        scored it under the same frozen model, so they agree."""
        for segment in self._segments:
            cors = segment.cors_for_key(key)
            if cors is not None:
                return cors
        return None

    def lookup(self, clique: Clique | str) -> Posting | None:
        key = clique.key if isinstance(clique, Clique) else clique
        posting = self._postings.get(key)
        if posting is not None:
            return posting
        parts = []
        for segment in self._segments:
            hit = segment.lookup(key)
            if hit is not None:
                parts.append(hit)
        if not parts:
            return None
        if len(parts) == 1:
            # Reuse the holder's posting object as-is.
            posting = parts[0]
        else:
            ids: list[str] = []
            freq: list[float] = []
            smooth: list[float] = []
            for part in parts:
                ids.extend(part)
                part_freq, part_smooth = part.component_arrays()
                freq.extend(part_freq)
                smooth.extend(part_smooth)
            posting = Posting.from_arrays(key, parts[0].cors, ids, freq, smooth)
        self._postings[key] = posting
        return posting

    def __len__(self) -> int:
        count = self._n_cliques
        if count is None:
            count = len(self._main)
            seen: set[str] = set()
            for delta in self._deltas:
                for posting in delta.iter_postings():
                    key = posting.key
                    if key not in seen and key not in self._main:
                        seen.add(key)
                        count += 1
            self._n_cliques = count
        return count

    def __contains__(self, clique: Clique | str) -> bool:
        key = clique.key if isinstance(clique, Clique) else clique
        return any(key in segment for segment in self._segments)

    def iter_postings(self) -> Iterator[Posting]:
        """Every posting, merged across segments, once per key: the
        main segment's keys, then each delta's novel keys.  The writer
        sorts by key, so the order does not reach a file."""
        seen: set[str] = set()
        for segment in self._segments:
            for posting in segment.iter_postings():
                key = posting.key
                if key in seen:
                    continue
                seen.add(key)
                merged = self.lookup(key)
                assert merged is not None
                yield merged

    def vector_view(self) -> SegmentedVectorView:
        if self._vector_view is None:
            self._vector_view = SegmentedVectorView(self._segments)
        view = self._vector_view
        assert isinstance(view, SegmentedVectorView)
        return view

    def stats(self) -> dict[str, float]:
        """The main segment's summary widened to the stack.  The lazy
        counters (``materialized_postings``, ``decoded_slots``) are the
        main segment's when it is mapped; deltas are built in memory."""
        merged = dict(self._main.stats())
        for delta in self._deltas:
            delta_stats = delta.stats()
            merged["total_postings"] += delta_stats["total_postings"]
            merged["max_posting_length"] = max(
                merged["max_posting_length"], delta_stats["max_posting_length"]
            )
        merged["n_objects"] = float(self.n_objects)
        merged["n_cliques"] = float(len(self))
        total = merged["total_postings"]
        merged["avg_posting_length"] = total / len(self) if len(self) else 0.0
        merged["n_segments"] = float(len(self._segments))
        merged["n_delta_objects"] = float(self.n_delta_objects)
        return merged

    def segment_stats(self) -> dict[str, object]:
        """Per-stack shape summary for the serving ``/stats`` surface."""
        return {
            "n_segments": len(self._segments),
            "main_objects": self._main.n_objects,
            "delta_objects": [delta.n_objects for delta in self._deltas],
            "delta_cliques": [len(delta) for delta in self._deltas],
        }

    # ------------------------------------------------------------------
    # immutability
    # ------------------------------------------------------------------
    def _read_only(self) -> NoReturn:
        raise TypeError(
            "SegmentedCliqueIndex is read-only: derive a new stack with "
            "with_delta() or compact the segment files to change contents"
        )

    def add_object(self, obj: MediaObject) -> int:
        self._read_only()

    def build(
        self, objects: Iterable[MediaObject], n_workers: int = 1
    ) -> "CliqueInvertedIndex":
        self._read_only()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this stack's pin on the main segment (idempotent).
        Delta segments are plain in-memory indexes owned by their
        stacks' common lineage and need no release."""
        if self._closed:
            return
        self._closed = True
        release = getattr(self._main, "close", None)
        if release is not None:
            release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentedCliqueIndex(main={self._main!r}, "
            f"n_deltas={len(self._deltas)}, n_objects={self.n_objects})"
        )

"""The read-side index: one main segment plus delta tails.

Every query reads the clique index (Section 3.5, Figure 3) through a
:class:`SegmentedCliqueIndex`.  A mapped ``index.bin``
(:func:`repro.storage.store.load_index`) and a built index alike are a
*main-only* stack over one segment; streaming ingest, which cannot
afford a rebuild — at paper scale a monolithic build is ~25 minutes —
appends small **delta segments** (indexes built over just the new
objects with the snapshot's frozen correlation model) and queries run
over the stack, LSM-style.

Every segment has one form, the index format: a mapped ``index.bin``,
or the *image* of a builder (:func:`image_segment` — the bytes
``save_index`` would write, in an anonymous mapping).  An image is a
snapshot of its builder: adding objects to the builder afterwards
changes nothing a stack reads.  A segment is read only through its
:class:`~repro.index.vectorized.MmapVectorView`.
The stack derives its whole read API — ``lookup``, ``iter_postings``,
``cors_for_key``, ``len``, ``in``, ``stats`` — once, from one view: a
main-only stack reads its segment's own view as is (no remap, no global
id table), a stack with deltas reads the
:class:`~repro.index.vectorized.SegmentedVectorView` that merges them.

**Bit parity with a monolithic build** (over the same correlation
model) holds by construction:

* A clique key held by **several** segments resolves to one merged
  posting whose entries concatenate main-first, then deltas in arrival
  order — the corpus order a from-scratch build appends in (segments
  partition the corpus into contiguous, ordered slices) — sorted by
  dense id, the arrays a monolithic build stores.  CorS is taken from
  the first holder: it is a pure function of the key under the frozen
  model, so every holder stores the same value.
* The Threshold Algorithm therefore sees **one source per clique**
  with identical entries in identical order — the ``>=``-termination
  twin-tie behaviour cannot diverge, which per-(clique, segment)
  sources would not guarantee.
* ``iter_postings`` yields every key once, merged across the stack;
  the writer lays slots out in key order, so re-serializing a stack is
  byte-identical to serializing a from-scratch build.

Derivation is O(delta): :meth:`with_delta` shares the main segment
(pin-counted via ``acquire``/``close``) and all prior deltas and reads
no posting — the publish cost of an ingest batch is the batch's own
build, never proportional to the corpus.

The stack has no mutators: growth happens by deriving a new stack,
compaction by merging the stack's open segments into a new
``index.bin`` (:func:`~repro.index.segbuild.merge_segments`) and
hot-reloading.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.core.cliques import Clique
from repro.index.binfmt import encode_image
from repro.index.inverted import CliqueInvertedIndex
from repro.index.postings import Posting
from repro.index.vectorized import MmapVectorView, PostingVectors, SegmentedVectorView


class SegmentedCliqueIndex:
    """Read view over ``(main, *deltas)`` index segments.

    Parameters
    ----------
    main:
        The large immutable segment's view — ``index.bin`` or a built
        index's image.  The stack owns one pin on it: a freshly opened
        view carries exactly one, :meth:`with_delta` takes another for
        the derived stack, and :meth:`close` releases the stack's.
    deltas:
        Delta segment images in arrival order (oldest first).  Their
        objects must be disjoint from ``main``'s and from each other's,
        and each must be built with the same correlation model and
        clique bound as ``main``.
    """

    def __init__(
        self, main: MmapVectorView, deltas: Sequence[MmapVectorView] = ()
    ) -> None:
        for delta in deltas:
            if delta.max_clique_size != main.max_clique_size:
                raise ValueError(
                    f"delta segment clique bound {delta.max_clique_size} does not "
                    f"match the main segment's {main.max_clique_size}"
                )
        self._main = main
        self._deltas = tuple(deltas)
        self._view: MmapVectorView | SegmentedVectorView = (
            SegmentedVectorView((main, *self._deltas)) if self._deltas else main
        )
        self._closed = False

    # ------------------------------------------------------------------
    # stack structure
    # ------------------------------------------------------------------
    @property
    def main(self) -> MmapVectorView:
        return self._main

    @property
    def deltas(self) -> tuple[MmapVectorView, ...]:
        return self._deltas

    @property
    def max_clique_size(self) -> int:
        return self._main.max_clique_size

    @property
    def n_objects(self) -> int:
        """Indexed objects over every segment."""
        return self._view.n_objects

    @property
    def n_delta_objects(self) -> int:
        """Objects living in delta segments (compaction folds them in)."""
        return sum(delta.n_objects for delta in self._deltas)

    def with_delta(self, delta: MmapVectorView) -> "SegmentedCliqueIndex":
        """A new stack with ``delta`` appended — O(delta): the main
        segment and every prior delta are shared, not copied."""
        return SegmentedCliqueIndex(self._main.acquire(), (*self._deltas, delta))

    def vector_view(self) -> MmapVectorView | SegmentedVectorView:
        """The one view every query reads (see :mod:`repro.index.vectorized`)."""
        return self._view

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------
    def lookup(self, clique: Clique | str) -> Posting | None:
        """Posting for a clique (``None`` when no segment holds it) —
        Algorithm 1's ``InvList(c_i)``, entries in ascending object id
        order, built from the view's arrays on every call."""
        key = clique.key if isinstance(clique, Clique) else clique
        return self._posting(self._view.vectors(key))

    def iter_postings(self) -> Iterator[Posting]:
        """Every posting once, merged across segments: the main
        segment's keys, then each delta's novel keys.  A full scan (the
        writer's input) leaves every segment's decoded arrays as it
        found them.  The writer sorts by key, so the order does not
        reach a file."""
        view = self._view
        for key in view.keys():
            posting = self._posting(view.read_vectors(key))
            assert posting is not None
            yield posting

    def _posting(self, vectors: PostingVectors | None) -> Posting | None:
        if vectors is None:
            return None
        view = self._view
        return Posting.from_arrays(
            vectors.key,
            vectors.cors,
            [view.object_id(dense) for dense in vectors.ids.tolist()],
            vectors.freq.tolist(),
            vectors.smooth.tolist(),
        )

    def cors_for_key(self, key: str) -> float | None:
        """Stored CorS of ``key`` without building or decoding a
        posting — the delta build's reuse probe behind ``cors_lookup``."""
        return self._view.cors(key)

    def __len__(self) -> int:
        """Number of distinct cliques over every segment."""
        return len(self._view.posting_lengths())

    def __contains__(self, clique: Clique | str) -> bool:
        key = clique.key if isinstance(clique, Clique) else clique
        return self._view.cors(key) is not None

    def stats(self) -> dict[str, float]:
        """Size/selectivity summary from the merged posting lengths — no
        posting is decoded.  ``decoded_slots`` (postings decoded into
        arrays) shows how much of the index queries have touched; it is
        0 after open."""
        lengths = self._view.posting_lengths()
        n_cliques = len(lengths)
        total = int(lengths.sum()) if n_cliques else 0
        return {
            "n_objects": float(self.n_objects),
            "n_cliques": float(n_cliques),
            "total_postings": float(total),
            "avg_posting_length": total / n_cliques if n_cliques else 0.0,
            "max_posting_length": float(lengths.max()) if n_cliques else 0.0,
            "decoded_slots": float(self._view.decoded_slots),
        }

    def segment_stats(self) -> dict[str, object]:
        """Per-stack shape summary for the serving ``/stats`` surface."""
        return {
            "n_segments": 1 + len(self._deltas),
            "main_objects": self._main.n_objects,
            "delta_objects": [delta.n_objects for delta in self._deltas],
            "delta_cliques": [len(delta.posting_lengths()) for delta in self._deltas],
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the main segment's mapping has been released."""
        return self._main.closed

    def close(self) -> None:
        """Release this stack's pin on the main segment (idempotent).
        Built postings keep working (they own their arrays); after the
        last pin is released, not-yet-touched cliques cannot be read.
        Delta images are shared by every later stack and are freed
        with their last reference."""
        if not self._closed:
            self._closed = True
            self._main.close()

    def __enter__(self) -> "SegmentedCliqueIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentedCliqueIndex(main={self._main.path}, "
            f"n_deltas={len(self._deltas)}, n_objects={self.n_objects})"
        )


def image_segment(index: CliqueInvertedIndex) -> MmapVectorView:
    """``index`` as a segment: the bytes ``save_index`` writes for it,
    in an anonymous mapping (:func:`~repro.index.binfmt.encode_image`)."""
    return MmapVectorView(
        encode_image(
            list(index.iter_postings()),
            n_objects=index.n_objects,
            max_clique_size=index.max_clique_size,
        )
    )


def as_stack(index: CliqueInvertedIndex | SegmentedCliqueIndex) -> SegmentedCliqueIndex:
    """``index`` as the stack a query reads: a builder becomes a
    main-only stack over its image."""
    if isinstance(index, CliqueInvertedIndex):
        return SegmentedCliqueIndex(image_segment(index))
    return index

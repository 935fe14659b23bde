"""Memory-mapped index segment: the query-side view of an ``index.bin``.

:class:`MmapCliqueIndex` is a read-only :class:`CliqueInvertedIndex`
whose postings live in a :class:`~repro.index.binfmt.BinaryIndexReader`
mapping and decode **lazily, one clique per first touch**.  Both
Algorithm 1 query modes (the default and scalar ``index``) read a
clique through :meth:`MmapCliqueIndex.vector_view`: dense ids decoded
once per clique, component arrays zero-copy off the mapping, no
:class:`~repro.index.postings.Posting` built.  ``lookup`` materializes
a plain ``Posting`` for the consumers that want one — the rescore
parity path, re-serialization, read-back checks.  Queries only ever
pay for the cliques they actually touch.

Concurrency: serving threads may race to materialize the same posting
or decode the same slot; both build equal objects from the same bytes
and the last dict write wins — harmless.
Forked worker processes share the underlying read-only mapping through
the page cache, which is the multi-process-serving story the ROADMAP
asks for.

Mutation (``add_object`` / ``build``) raises ``TypeError``: a mapped
segment is immutable by construction.  Streaming ingest composes
*around* segments (delta segment + merge), not by writing into one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import NoReturn

from repro.core.cliques import Clique
from repro.core.correlation import CorrelationModel
from repro.core.objects import MediaObject
from repro.index.binfmt import BinaryIndexReader
from repro.index.inverted import CliqueInvertedIndex
from repro.index.postings import Posting
from repro.index.vectorized import MmapVectorView


class MmapCliqueIndex(CliqueInvertedIndex):
    """Read-only inverted index over an mmap'd index file.

    Parameters
    ----------
    reader:
        Open :class:`BinaryIndexReader`; the index takes ownership and
        closes it via :meth:`close`.
    correlations:
        Reported as :attr:`correlations`; the segment itself never
        scores anything (every CorS and component is stored).
    """

    def __init__(self, reader: BinaryIndexReader, correlations: CorrelationModel) -> None:
        super().__init__(correlations, max_clique_size=reader.max_clique_size)
        self._reader = reader
        # Share count for the underlying mapping: segmented indexes
        # derived by ingest share one main segment across generations
        # (guarded by: SnapshotManager._swap_lock — pins only move
        # while a snapshot is being constructed or retired).
        self._pins = 1
        self.set_n_objects(reader.n_objects)

    # ------------------------------------------------------------------
    # lazy materialization
    # ------------------------------------------------------------------
    @property
    def reader(self) -> BinaryIndexReader:
        return self._reader

    def _materialize(self, key: str, slot: int) -> Posting:
        posting = self._postings.get(key)
        if posting is None:
            ids, freq, smooth, cors = self._reader.read_posting(slot)
            posting = Posting.from_arrays(key, cors, ids, freq, smooth)
            self._postings[key] = posting
        return posting

    # ------------------------------------------------------------------
    # read API (overrides resolving against the segment)
    # ------------------------------------------------------------------
    def lookup(self, clique: Clique | str) -> Posting | None:
        key = clique.key if isinstance(clique, Clique) else clique
        posting = self._postings.get(key)
        if posting is not None:
            return posting
        slot = self._reader.find_slot(key)
        return None if slot is None else self._materialize(key, slot)

    def cors_for_key(self, key: str) -> float | None:
        """Stored CorS straight from the postmeta table — no posting is
        materialized, so the ingest delta build's reuse probe costs one
        binary search plus a struct read per clique."""
        posting = self._postings.get(key)
        if posting is not None:
            return posting.cors
        slot = self._reader.find_slot(key)
        if slot is None:
            return None
        return self._reader.posting_cors(slot)

    def __len__(self) -> int:
        return self._reader.n_cliques

    def __contains__(self, clique: Clique | str) -> bool:
        key = clique.key if isinstance(clique, Clique) else clique
        return key in self._postings or self._reader.find_slot(key) is not None

    def iter_postings(self) -> Iterator[Posting]:
        """Materialize and yield every posting in slot (== key) order —
        the full-scan path behind re-serialization and read-back
        checks."""
        for slot in range(self._reader.n_cliques):
            yield self._materialize(self._reader.key_at(slot), slot)

    def vector_view(self) -> MmapVectorView:
        """Zero-copy vector access straight off the mapping — no
        posting is ever materialized; decoded dense-id arrays are
        cached per clique inside the reader, so repeated queries
        against the same snapshot skip the varint decode."""
        if self._vector_view is None:
            self._vector_view = MmapVectorView(self._reader)
        return self._vector_view

    def stats(self) -> dict[str, float]:
        """Size/selectivity summary straight off the postmeta section —
        no posting is decoded.  ``materialized_postings``
        (:class:`Posting` objects built by lookups — the rescore path,
        re-serialization) and ``decoded_slots``
        (varint streams decoded into the reader's id cache) show how much
        of the segment queries have touched; both are 0 after open."""
        lengths = self._reader.posting_lengths()
        n_cliques = self._reader.n_cliques
        total = int(lengths.sum()) if n_cliques else 0
        return {
            "n_objects": float(self.n_objects),
            "n_cliques": float(n_cliques),
            "total_postings": float(total),
            "avg_posting_length": total / n_cliques if n_cliques else 0.0,
            "max_posting_length": float(lengths.max()) if n_cliques else 0.0,
            "materialized_postings": float(len(self._postings)),
            "decoded_slots": float(self._reader.decoded_slots),
        }

    # ------------------------------------------------------------------
    # immutability
    # ------------------------------------------------------------------
    def _read_only(self) -> NoReturn:
        raise TypeError(
            "MmapCliqueIndex is read-only: it serves a mapped on-disk segment; "
            "build a CliqueInvertedIndex (or a new artifact) to change contents"
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
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the underlying mapping."""
        return self._reader.closed

    def acquire(self) -> "MmapCliqueIndex":
        """Register one more sharer of the underlying mapping.

        A :class:`~repro.index.segmented.SegmentedCliqueIndex` derived
        by ingest shares this segment across snapshot generations; each
        sharer balances its ``acquire`` with one :meth:`close`, and the
        mapping is released when the last sharer lets go.
        """
        self._pins += 1
        return self

    def close(self) -> None:
        """Release one pin on the underlying mapping; the mapping
        closes when the last sharer releases (construction counts as
        the first pin).  Materialized postings keep working (they own
        their decoded arrays); after the final release, lookups of
        not-yet-touched cliques will fail."""
        self._pins -= 1
        if self._pins <= 0:
            self._reader.close()

    def __enter__(self) -> "MmapCliqueIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MmapCliqueIndex({str(self._reader.path)!r}, n_cliques={len(self)})"

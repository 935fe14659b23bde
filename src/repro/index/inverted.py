"""Clique inverted index (Section 3.5, Figure 3).

Preprocessing represents every database object as a FIG, enumerates its
cliques, and indexes them: clique key -> :class:`Posting` holding the
clique's CorS and, per containing object, the two α-independent
components of the Eq. 7 joint probability.  Both quantities are
query-independent — ``ϕ'(c, O_i) = λ_{|c|}·CorS(c)·P(n_1..n_k|O_i)``
depends only on the clique, the candidate and the MRF parameters — so
the index computes them **once at build time**.  At query time the
retrieval engine multiplies each posting by its constant per-clique
weight and ranks the stored arrays: no per-candidate scoring and no
corpus access.  The scalar path sorts each touched posting into its
α-specific impact order per query; nothing is sorted ahead of a query.

This builder only builds.  Queries read it as its image — the bytes
``save_index`` writes for it, in an anonymous mapping
(:func:`~repro.index.segmented.image_segment`) — inside a
:class:`~repro.index.segmented.SegmentedCliqueIndex`, like a mapped
``index.bin``: a snapshot that has no ``index.bin`` and every ingest
delta are served that way.

Building is shard-parallel: the corpus splits into contiguous shards
(:func:`~repro.core.sharding.split_shards`), each worker scores
its shard's (clique, object) pairs with its own correlation model, and
the per-shard partial postings merge in shard order — bit-identical to
the serial build because every component is a pure function of
``(clique, object)`` computed over canonical iteration orders.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.core.cliques import Clique
from repro.core.correlation import CorrelationModel
from repro.core.mrf import score_object
from repro.core.objects import MediaObject
from repro.core.sharding import split_shards
from repro.index.postings import Posting

def _build_shard(
    payload: tuple[Sequence[MediaObject], CorrelationModel, int],
) -> list[Posting]:
    """Worker body: index one shard with the serial ``add_object`` and
    return its postings in first-encounter order (module-level so it
    pickles under every start method)."""
    objects, correlations, max_clique_size = payload
    shard = CliqueInvertedIndex(correlations, max_clique_size=max_clique_size)
    for obj in objects:
        shard.add_object(obj)
    return list(shard.iter_postings())


class CliqueInvertedIndex:
    """Inverted lists over clique keys.

    Parameters
    ----------
    correlations:
        Correlation model used to build each object's FIG, the stored
        CorS weights and the build-time joint components.
    max_clique_size:
        Clique enumeration bound (matches the scorer's λ support).
    cors_lookup:
        Optional ``key -> CorS`` source consulted before Eq. 8 is
        recomputed — the O(delta) ingest path passes the serving
        index's :meth:`cors_for_key` so cliques the main segment
        already scored (under the same frozen model, hence the same
        float) cost a metadata read instead of a sparse co-moment.
    """

    def __init__(
        self,
        correlations: CorrelationModel,
        max_clique_size: int = 3,
        cors_lookup: Callable[[str], float | None] | None = None,
    ) -> None:
        self._cor = correlations
        self._max_clique_size = max_clique_size
        self._cors_lookup = cors_lookup
        self._postings: dict[str, Posting] = {}
        self._n_objects = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_object(self, obj: MediaObject) -> int:
        """Index one object; returns the number of cliques it produced.

        Scores every (clique, object) pair as it goes, through the
        per-object kernel :func:`repro.core.mrf.score_object`: CorS per
        new clique and the Eq. 7 components per entry are
        query-independent, so build time is the only place they need to
        be computed.
        """
        postings = self._postings
        lookup = self._cors_lookup

        def known_cors(key: str) -> float | None:
            posting = postings.get(key)
            if posting is not None:
                return posting.cors
            return lookup(key) if lookup is not None else None

        scored = score_object(obj, self._cor, self._max_clique_size, known_cors)
        for key, cors, freq_part, smooth_part in scored:
            posting = postings.get(key)
            if posting is None:
                posting = Posting(key, cors=cors)
                postings[key] = posting
            posting.add(obj.object_id, freq_part, smooth_part)
        self._n_objects += 1
        return len(scored)

    def build(
        self, objects: Iterable[MediaObject], n_workers: int = 1
    ) -> "CliqueInvertedIndex":
        """Index every object; returns self for chaining.

        ``n_workers > 1`` scores contiguous corpus shards in a process
        pool and merges the partial postings in shard order,
        bit-identical to the serial build.  One worker (the default)
        runs inline with no pool.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        materialized = list(objects)
        if n_workers == 1 or len(materialized) < 2 * n_workers:
            for obj in materialized:
                self.add_object(obj)
            return self

        shards = split_shards(materialized, n_workers)
        payloads = [(shard, self._cor, self._max_clique_size) for shard in shards]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for partial in pool.map(_build_shard, payloads):
                self._merge_shard(partial)
        self._n_objects += len(materialized)
        return self

    def _merge_shard(self, partial: list[Posting]) -> None:
        """Append one shard's scored postings, preserving corpus order."""
        for shard_posting in partial:
            posting = self._postings.get(shard_posting.key)
            if posting is None:
                self._postings[shard_posting.key] = shard_posting
            else:
                object_ids = shard_posting.object_ids
                freq, smooth = shard_posting.component_arrays()
                posting.extend_scored(list(zip(object_ids, freq, smooth)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def max_clique_size(self) -> int:
        return self._max_clique_size

    @property
    def n_objects(self) -> int:
        """Number of indexed objects."""
        return self._n_objects

    @property
    def correlations(self) -> CorrelationModel:
        return self._cor

    def __len__(self) -> int:
        """Number of distinct cliques indexed."""
        return len(self._postings)

    def __contains__(self, clique: Clique | str) -> bool:
        key = clique.key if isinstance(clique, Clique) else clique
        return key in self._postings

    def lookup(self, clique: Clique | str) -> Posting | None:
        """Posting for a clique (``None`` when no object contains it) —
        Algorithm 1's ``InvList(c_i)``."""
        key = clique.key if isinstance(clique, Clique) else clique
        return self._postings.get(key)

    def cors_for_key(self, key: str) -> float | None:
        """Stored CorS of ``key`` without scoring anything — ``None``
        when the clique is unknown.  The delta-build reuse hook behind
        ``cors_lookup``."""
        posting = self._postings.get(key)
        return posting.cors if posting is not None else None

    def iter_postings(self) -> Iterator[Posting]:
        return iter(self._postings.values())

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Index size/selectivity summary (for benches and docs)."""
        lengths = [len(p) for p in self._postings.values()]
        total = sum(lengths)
        return {
            "n_objects": float(self._n_objects),
            "n_cliques": float(len(self._postings)),
            "total_postings": float(total),
            "avg_posting_length": total / len(lengths) if lengths else 0.0,
            "max_posting_length": float(max(lengths)) if lengths else 0.0,
        }

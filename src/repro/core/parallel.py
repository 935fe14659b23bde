"""Parallel sequential scan.

The paper closes its efficiency discussion with: "the time efficiency
can be potentially increased by deploying parallel algorithms and
distributed architectures".  This module implements that direction for
the *exact* (sequential-scan) similarity model: the corpus is split
into shards, each worker process scores its shard against the query's
cliques with its own :class:`CliqueScorer`, and the per-shard top-k
lists are merged — embarrassingly parallel because Eq. 6 scores each
candidate independently.

The results are bit-identical to ``RetrievalEngine.search(mode="scan")``
(same potentials, same tie-breaking), which the test suite asserts.
Worker dispatch uses ``ProcessPoolExecutor``; with one worker the scan
runs inline, so the class is safe to use unconditionally.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Sequence

from repro.core.cliques import Clique
from repro.core.correlation import CorrelationModel
from repro.core.mrf import CliqueScorer, MRFParameters
from repro.core.objects import MediaObject
from repro.core.retrieval import RankedResult, RetrievalEngine, ranked_sort
from repro.core.sharding import split_shards

__all__ = ["ParallelScanner"]


def _score_shard(
    payload: tuple[
        Sequence[Clique], Sequence[MediaObject], CorrelationModel, MRFParameters, int | None
    ],
) -> list[tuple[str, float]]:
    """Worker body: score every object of one shard (module-level so it
    pickles under every start method)."""
    cliques, objects, correlations, params, current_month = payload
    scorer = CliqueScorer(correlations, params)
    results: list[tuple[str, float]] = []
    for obj in objects:
        score = scorer.score(cliques, obj, current_month=current_month)
        results.append((obj.object_id, score))
        scorer.release(obj.object_id)
    return results


class ParallelScanner:
    """Shard-parallel exact scan over a :class:`RetrievalEngine`'s corpus.

    Parameters
    ----------
    engine:
        Engine whose corpus, correlation model and parameters to use
        (no index needed — scans do not touch it).
    n_workers:
        Worker processes; defaults to the CPU count.  ``1`` runs
        inline with no pool (deterministic baseline and the safe
        default inside constrained environments).
    """

    def __init__(self, engine: RetrievalEngine, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._engine = engine
        self._n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def search(
        self,
        query: MediaObject,
        k: int = 10,
        exclude_query: bool = True,
    ) -> list[RankedResult]:
        """Exact top-``k`` (identical to the engine's scan mode)."""
        cliques = self._engine.query_cliques(query)
        exclude = {query.object_id} if exclude_query else set()
        objects = [o for o in self._engine.corpus if o.object_id not in exclude]

        if self._n_workers == 1 or len(objects) < 2 * self._n_workers:
            scored = _score_shard(
                (cliques, objects, self._engine.correlations, self._engine.params, None)
            )
        else:
            shards = split_shards(objects, self._n_workers)
            payloads = [
                (cliques, shard, self._engine.correlations, self._engine.params, None)
                for shard in shards
            ]
            scored = []
            with ProcessPoolExecutor(max_workers=self._n_workers) as pool:
                for shard_results in pool.map(_score_shard, payloads):
                    scored.extend(shard_results)

        results = [RankedResult(object_id=oid, score=s) for oid, s in scored]
        return ranked_sort(results)[:k]

    @staticmethod
    def _split(objects: Sequence[MediaObject], n: int) -> list[list[MediaObject]]:
        """Contiguous shards of near-equal size (see :func:`split_shards`)."""
        return split_shards(objects, n)

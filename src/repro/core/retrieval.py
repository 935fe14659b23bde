"""Social media retrieval engine (Section 3.5, Algorithm 1, Figure 3).

The engine owns the paper's whole preprocessing pipeline for one corpus:

1. occurrence statistics over the corpus (Eq. 1 / Eq. 8 backing store);
2. the correlation model — WUP for tags (via the corpus taxonomy),
   centroid similarity for visual words (via the corpus codebook),
   group co-membership for users, Eq. 1 across modalities;
3. the clique inverted index over every object's FIG.

Three query modes are provided:

* ``mode="auto"`` (the default) — Algorithm 1 as batch numpy work: the
  query cliques' postings are consumed as whole arrays (zero-copy views
  against an mmap'd ``index.bin``), summed per object in source order and
  the top-k selected straight from the sums
  (:func:`repro.index.vectorized.accumulate_top_k`).  Rankings are
  bit-identical to ``mode="index"``.
* ``mode="index"`` — the scalar Algorithm 1: the same posting arrays,
  one impact-ordered source per query clique (built per query, scaled
  by the constant per-clique weight ``λ_{|c|}·CorS(c)``), merged with
  the Threshold Algorithm.
* ``mode="scan"`` — the sequential reference scan of Section 3.5's
  opening: score *every* object with the full clique sum, including
  smoothing contributions for objects that do not contain a clique.
  Slower, but the exact model; the index ablation bench compares both.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.cliques import Clique
from repro.core.correlation import (
    DEFAULT_TABLE_THRESHOLDS,
    CorrelationModel,
    OccurrenceStats,
)
from repro.core.fig import FeatureInteractionGraph
from repro.core.mrf import CliqueScorer, MRFParameters
from repro.core.objects import MediaObject
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segmented import SegmentedCliqueIndex, as_stack
from repro.index.threshold import (
    AccessStats,
    ImpactSortedSource,
    impact_sources,
    threshold_algorithm,
)
from repro.index.vectorized import PostingVectors, TopK, accumulate_top_k
from repro.social.corpus import Corpus
from repro.text.wup import WuPalmerSimilarity


@dataclass(frozen=True)
class RankedResult:
    """One retrieval hit.

    Deliberately *not* orderable: dataclass ordering would compare by
    ``(object_id, score)`` ascending — the wrong direction and the
    wrong primary key for a ranking.  Use :func:`ranked_sort` to order
    result lists.
    """

    object_id: str
    score: float


@dataclass(frozen=True)
class IndexQueryStats:
    """Access accounting for one index-mode query.

    Scalar ``index`` mode: ``n_sources`` is the number of TA input
    lists, ``sorted_accesses`` the posting entries the Threshold
    Algorithm actually read, ``random_accesses`` its per-source score
    probes and ``rounds`` its termination depth;
    ``total_posting_entries`` is what a full walk of the lists would
    have read.  Early termination shows as ``sorted_accesses`` strictly
    below ``total_posting_entries`` — the invariant the CI perf gate
    asserts.

    The default (``auto``) mode sums every entry,
    so ``n_sources`` counts the postings with a positive impact,
    ``sorted_accesses == total_posting_entries`` is the number of
    positive entries summed, ``random_accesses`` the distinct
    candidates scored, and ``rounds`` is 0.

    ``blocks_skipped`` / ``blocks_total`` are always 0 — no query path
    skips posting blocks — and stay only so existing readers of the
    fields keep working.
    """

    sorted_accesses: int
    random_accesses: int
    rounds: int
    n_sources: int
    total_posting_entries: int
    blocks_skipped: int = 0
    blocks_total: int = 0


def ranked_sort(results: Iterable[RankedResult]) -> list[RankedResult]:
    """Canonical ranking order: descending score, ascending object id.

    Both scans (retrieval and recommendation) sort through this helper,
    the order the index modes select by, so tie-breaking stays
    bit-identical across execution strategies.
    """
    return sorted(results, key=lambda r: (-r.score, r.object_id))


def correlation_model_for_corpus(
    corpus: Corpus,
    thresholds: dict[tuple[str, str], float] | None = None,
    default_threshold: float = 0.3,
    stats: OccurrenceStats | None = None,
) -> CorrelationModel:
    """Assemble the Section 3.2 correlation model for ``corpus``.

    Uses the corpus's taxonomy (WUP) for intra-text, its codebook for
    intra-visual and its social graph for intra-user correlation; any
    missing context falls back to Eq. 1 co-occurrence for that table.
    Explicit ``thresholds`` entries override the library defaults
    (:data:`repro.core.correlation.DEFAULT_TABLE_THRESHOLDS`) per table.
    """
    if stats is None:
        stats = OccurrenceStats(corpus)
    text_similarity = (
        WuPalmerSimilarity(corpus.taxonomy) if corpus.taxonomy is not None else None
    )
    effective = dict(DEFAULT_TABLE_THRESHOLDS)
    if thresholds:
        effective.update(thresholds)
    return CorrelationModel(
        stats=stats,
        text_similarity=text_similarity,
        codebook=corpus.codebook,
        social=corpus.social,
        thresholds=effective,
        default_threshold=default_threshold,
    )


class RetrievalEngine:
    """Definition 1's retrieval operator over one corpus.

    Parameters
    ----------
    corpus:
        The database ``D``.
    params:
        MRF parameters (λ per clique size, α, CorS toggle).  Defaults to
        the Metzler-Croft-style weights; use
        :class:`repro.core.training.CoordinateAscentTrainer` to fit them.
    thresholds / default_threshold:
        FIG edge thresholds per correlation table.
    build_index:
        Build the clique inverted index eagerly (disable for scan-only
        experiments to skip the preprocessing cost).
    index:
        A prebuilt index to adopt instead of building one — a
        :class:`~repro.index.segmented.SegmentedCliqueIndex` (the path
        the serving layer uses to load a persisted index) or a
        :class:`CliqueInvertedIndex`, read as a main-only stack over
        its image as of adoption (later ``add_object`` calls change
        nothing the engine reads).  Must
        cover at least ``params``' max clique size; takes precedence
        over ``build_index``.
    index_workers:
        Worker processes for the eager index build (``1`` = serial).
    correlations:
        A prebuilt correlation model to adopt instead of assembling one
        from the corpus — the frozen-model path: segmented ingest and
        the multi-segment parity tests need the *same* model an earlier
        snapshot (or a reference build) used, not one recomputed over
        the extended corpus.  When given, ``thresholds`` and
        ``default_threshold`` are ignored.
    """

    def __init__(
        self,
        corpus: Corpus,
        params: MRFParameters | None = None,
        thresholds: dict[tuple[str, str], float] | None = None,
        default_threshold: float = 0.3,
        build_index: bool = True,
        index: CliqueInvertedIndex | SegmentedCliqueIndex | None = None,
        index_workers: int = 1,
        correlations: CorrelationModel | None = None,
    ) -> None:
        self._corpus = corpus
        self._params = params if params is not None else MRFParameters()
        self._correlations = (
            correlations
            if correlations is not None
            else correlation_model_for_corpus(
                corpus, thresholds=thresholds, default_threshold=default_threshold
            )
        )
        self._max_clique_size = self._params.max_clique_size
        self._index: SegmentedCliqueIndex | None = None
        if index is not None:
            self.adopt_index(index)
        elif build_index:
            built = CliqueInvertedIndex(
                self._correlations, max_clique_size=self._max_clique_size
            ).build(corpus, n_workers=index_workers)
            self._index = as_stack(built)
        self._clique_cache: dict[frozenset, tuple[Clique, ...]] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def corpus(self) -> Corpus:
        return self._corpus

    @property
    def correlations(self) -> CorrelationModel:
        return self._correlations

    @property
    def params(self) -> MRFParameters:
        return self._params

    @property
    def index(self) -> SegmentedCliqueIndex | None:
        return self._index

    def adopt_index(self, index: CliqueInvertedIndex | SegmentedCliqueIndex) -> None:
        """Install a prebuilt (typically loaded) index on an engine
        constructed with ``build_index=False`` — the serving layer's
        load path.  The index must cover the parameters' clique bound;
        a :class:`CliqueInvertedIndex` is read as a main-only stack.

        O(1): no posting is read here; a query reads a clique's
        posting when it first touches the clique."""
        if index.max_clique_size < self._max_clique_size:
            raise ValueError(
                f"prebuilt index covers cliques up to size {index.max_clique_size}, "
                f"but the parameters need {self._max_clique_size}"
            )
        self._index = as_stack(index)

    def with_params(self, params: MRFParameters) -> "RetrievalEngine":
        """Clone sharing corpus, correlation model and index, with new
        MRF parameters — cheap, for parameter sweeps and training.

        The clone reuses the existing index, so ``params`` must not
        enlarge ``max_clique_size`` beyond the indexed bound.
        """
        clone = object.__new__(RetrievalEngine)
        clone._corpus = self._corpus
        clone._params = params
        clone._correlations = self._correlations
        clone._max_clique_size = self._max_clique_size
        if self._index is not None and params.max_clique_size > self._index.max_clique_size:
            raise ValueError(
                "cannot raise max clique size above the indexed bound "
                f"({self._index.max_clique_size}); rebuild the engine instead"
            )
        clone._index = self._index
        # Cliques depend on max_clique_size, so clones cache separately.
        clone._clique_cache = {}
        return clone

    def with_ingested(
        self, corpus: Corpus, index: SegmentedCliqueIndex
    ) -> "RetrievalEngine":
        """Clone for an extended corpus with a derived (segmented)
        index — the O(delta) ingest publish path.

        Shares the **frozen** correlation model and MRF parameters:
        ingest scores new objects against the statistics the serving
        snapshot was built with, so rankings over (main + delta) are
        bit-identical to a from-scratch build *with the same model* —
        a full ``repro index build`` refreshes the statistics.  No
        posting is touched here, so the publish cost is the delta build
        alone; the shared main segment keeps whatever a query already
        decoded or cached across generations.
        """
        if index.max_clique_size < self._max_clique_size:
            raise ValueError(
                f"prebuilt index covers cliques up to size {index.max_clique_size}, "
                f"but the parameters need {self._max_clique_size}"
            )
        clone = object.__new__(RetrievalEngine)
        clone._corpus = corpus
        clone._params = self._params
        clone._correlations = self._correlations
        clone._max_clique_size = self._max_clique_size
        clone._index = index
        clone._clique_cache = {}
        return clone

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    #: Bound on cached query-clique feature sets (FIFO eviction).
    MAX_CLIQUE_CACHE = 4096

    def query_cliques(self, query: MediaObject) -> list[Clique]:
        """Build the query FIG and enumerate its cliques (Alg. 1 l.4-5).

        Cached per distinct feature set: an object FIG's cliques depend
        only on which features the query holds (edges come from the
        engine's fixed correlation model), so repeated queries — the
        serving pattern — skip graph construction and enumeration
        entirely.
        """
        key = frozenset(query.features)
        cached = self._clique_cache.get(key)
        if cached is None:
            fig = FeatureInteractionGraph.from_object(query, self._correlations)
            cached = tuple(fig.cliques(max_size=self._max_clique_size))
            if len(self._clique_cache) >= self.MAX_CLIQUE_CACHE:
                self._clique_cache.pop(next(iter(self._clique_cache)))
            self._clique_cache[key] = cached
        return list(cached)

    def search(
        self,
        query: MediaObject,
        k: int = 10,
        mode: str = "auto",
        exclude_query: bool = True,
    ) -> list[RankedResult]:
        """Top-``k`` most similar objects (Definition 1).

        ``exclude_query`` drops the query's own id from the results —
        the paper's queries are corpus images, and returning the query
        to itself carries no information.  ``mode="auto"`` (the
        default) runs the accumulate-and-select kernel over the index.
        """
        if mode not in ("auto", "index", "scan"):
            raise ValueError(f"mode must be 'auto', 'index' or 'scan', got {mode!r}")
        cliques = self.query_cliques(query)
        exclude = {query.object_id} if exclude_query else set()
        if mode == "scan":
            return self._search_scan(cliques, k, exclude)
        if self._index is None:
            raise ValueError("engine was built with build_index=False; use mode='scan'")
        if mode == "index":
            results, _ = self._search_index(cliques, k, exclude)
            return results
        results, _ = self._search_index_vectorized(cliques, k, exclude)
        return results

    def search_with_stats(
        self,
        query: MediaObject,
        k: int = 10,
        exclude_query: bool = True,
        mode: str = "index",
    ) -> tuple[list[RankedResult], IndexQueryStats]:
        """Index-mode search plus the access accounting of the TA run —
        the hook the perf benches and the CI early-termination gate use.

        ``mode`` selects the scalar (``"index"``, the default — its
        access budget is what the CI gate is calibrated on) or the
        vectorized default path (``"auto"``); see
        :class:`IndexQueryStats` for what each counts.
        """
        if mode not in ("auto", "index"):
            raise ValueError(f"mode must be 'auto' or 'index', got {mode!r}")
        if self._index is None:
            raise ValueError("engine was built with build_index=False; use mode='scan'")
        cliques = self.query_cliques(query)
        exclude = {query.object_id} if exclude_query else set()
        if mode != "index":
            results, top = self._search_index_vectorized(cliques, k, exclude)
            return results, IndexQueryStats(
                sorted_accesses=top.n_entries,
                random_accesses=top.n_candidates,
                rounds=0,
                n_sources=top.n_sources,
                total_posting_entries=top.n_entries,
            )
        stats = AccessStats()
        results, sources = self._search_index(cliques, k, exclude, stats)
        return results, IndexQueryStats(
            sorted_accesses=stats.sorted_accesses,
            random_accesses=stats.random_accesses,
            rounds=stats.rounds,
            n_sources=len(sources),
            total_posting_entries=sum(len(s) for s in sources),
        )

    # ------------------------------------------------------------------
    # Algorithm 1 — index modes over the stored posting arrays
    # ------------------------------------------------------------------
    def _index_terms(
        self, cliques: list[Clique], exclude: set[str]
    ) -> tuple[list[tuple[PostingVectors, float, float]], int | None]:
        """The gate both index modes share: one ``(posting, weight,
        1.0)`` term per query clique with a posting and a non-zero
        constant weight ``λ_{|c|}·CorS(c)``, plus the dense id of the
        excluded query object (``None`` when it is not indexed).

        The weight multiplies *outside* the stored α-mixed component,
        associating as :meth:`CliqueScorer.potential` does (λ, then
        CorS, then the joint probability), so each stored entry scores
        the potential the exact model gives it, bit for bit.
        """
        assert self._index is not None
        view = self._index.vector_view()
        terms: list[tuple[PostingVectors, float, float]] = []
        for clique in cliques:
            weight = self._params.lambda_for(clique.size)
            if weight == 0.0:
                continue
            vectors = view.vectors(clique.key)
            if vectors is None:
                continue
            if self._params.use_cors:
                weight *= vectors.cors
                if weight == 0.0:
                    continue
            terms.append((vectors, weight, 1.0))
        exclude_dense = None  # ``exclude`` holds at most the query's own id
        for object_id in exclude:
            exclude_dense = view.dense_id(object_id)
        return terms, exclude_dense

    def _search_index(
        self,
        cliques: list[Clique],
        k: int,
        exclude: set[str],
        stats: AccessStats | None = None,
    ) -> tuple[list[RankedResult], list[ImpactSortedSource]]:
        """Scalar Algorithm 1: the Threshold Algorithm over one
        :class:`ImpactSortedSource` per term; returns the ranking and
        the sources it walked."""
        assert self._index is not None
        view = self._index.vector_view()
        terms, exclude_dense = self._index_terms(cliques, exclude)
        sources = impact_sources(terms, self._params.alpha, exclude=exclude_dense)
        merged = threshold_algorithm(sources, k=k, stats=stats)
        results = [
            RankedResult(object_id=view.object_id(dense), score=score)
            for dense, score in merged
        ]
        return results, sources

    def _search_index_vectorized(
        self, cliques: list[Clique], k: int, exclude: set[str]
    ) -> tuple[list[RankedResult], TopK]:
        """Batch-numpy Algorithm 1: one :func:`accumulate_top_k` over
        the same terms the scalar walk ranks, so every object's score is
        the scalar TA full score bit for bit and the ``(-score, id)``
        top-k is the scalar ranking."""
        assert self._index is not None
        view = self._index.vector_view()
        terms, exclude_dense = self._index_terms(cliques, exclude)
        top = accumulate_top_k(terms, self._params.alpha, k, exclude=exclude_dense)
        results = [
            RankedResult(object_id=view.object_id(dense), score=score)
            for dense, score in top.ranking
        ]
        return results, top

    # ------------------------------------------------------------------
    # sequential reference scan
    # ------------------------------------------------------------------
    def _search_scan(
        self, cliques: list[Clique], k: int, exclude: set[str]
    ) -> list[RankedResult]:
        scorer = CliqueScorer(self._correlations, self._params)
        scored: list[RankedResult] = []
        for obj in self._corpus:
            if obj.object_id in exclude:
                continue
            score = scorer.score(cliques, obj)
            scored.append(RankedResult(object_id=obj.object_id, score=score))
            scorer.release(obj.object_id)
        return ranked_sort(scored)[:k]

"""Social media recommendation (Section 4, Definition 2).

A user's profile ``H_u`` is the set of objects they favorited during
the profile window.  The profile FIG connects features only within each
historical object (avoiding noisy cross-favorite cliques) and stamps
each clique with its most recent appearance month; the temporal
potential (Eq. 10) then decays old cliques by ``δ^(t_now - t_clique)``.

``δ = 1`` gives the paper's plain ``FIG`` recommender (no decay);
``δ < 1`` gives ``FIG-T``.  Candidates are the "newly incoming set" —
objects whose timestamp falls in the evaluation window — and the
recommendation time ``t_now`` defaults to the start of that window.

Recommendation and retrieval share one clique index: every posting's
Eq. 7 components are a pure function of ``(clique, object, correlation
model)``, so a recommender handed the engine's corpus-wide index ranks
over it directly and restricts the result to candidates with a dense
boolean mask built once at init.  Without an index it builds its own
over the candidates only (mask all-true) and ranks through the same
masked code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cliques import Clique
from repro.core.correlation import CorrelationModel
from repro.core.fig import FeatureInteractionGraph
from repro.core.mrf import CliqueScorer, MRFParameters
from repro.core.objects import MediaObject
from repro.core.retrieval import RankedResult, correlation_model_for_corpus, ranked_sort
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segmented import SegmentedCliqueIndex, as_stack
from repro.index.threshold import impact_sources, threshold_algorithm
from repro.index.vectorized import PostingVectors, accumulate_top_k
from repro.social.corpus import Corpus
from repro.social.temporal import TemporalSplit, decay_weight


@dataclass(frozen=True)
class UserProfile:
    """A tracked user's profile: history objects and derived cliques.

    ``cliques`` holds each distinct clique once (timestamp-free);
    ``occurrences`` maps its feature set to the months of every
    appearance across the history — the Eq. 10 sum runs per appearance,
    so a clique recurring in many favorites accumulates weight.
    """

    user: str
    history: tuple[MediaObject, ...]
    cliques: tuple[Clique, ...]
    occurrences: dict[tuple, tuple[int, ...]] = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.history)

    def temporal_weight(self, clique: Clique, t_now: int, delta: float) -> float:
        """``Σ_i δ^(t_now − t_i)`` over the clique's appearances."""
        stamps = self.occurrences.get(clique.features, ())
        return sum(decay_weight(t_now - ts, delta) for ts in stamps)


class Recommender:
    """Content/similarity-based recommender over a recommendation corpus.

    Parameters
    ----------
    corpus:
        A corpus with favorite events (e.g. from
        :meth:`repro.social.generator.SyntheticFlickr.generate_recommendation_corpus`).
    params:
        MRF parameters; ``params.delta`` selects FIG (1.0) vs FIG-T (<1).
    thresholds / default_threshold:
        FIG edge thresholds per correlation table (ignored when
        ``correlations`` is given).
    split:
        Profile/evaluation windows; defaults to the paper's first-half /
        second-half split.
    build_index:
        Build a clique inverted index over the candidate objects for
        Algorithm-1-style recommendation when no ``index`` is given
        (disable for scan-only use).
    index:
        A prebuilt clique index to rank over instead of building one —
        typically the retrieval engine's corpus-wide index (a loaded
        ``index.bin`` or a build's image), so a serving snapshot
        holds one index.  It must hold every candidate that has
        features and cover ``params``' max clique size, else
        ``ValueError``.  Opening it reads no posting: a query reads a
        clique's stored arrays on first touch.  The candidate set is
        fixed at init, so the recommender keeps ranking over the stack
        it was given: serving hands it the snapshot's main-only stack,
        and an ingest publish carries it over unchanged.  A
        :class:`CliqueInvertedIndex` is read as a main-only stack.
        Takes precedence over ``build_index``.
    correlations:
        A prebuilt correlation model to adopt instead of assembling one
        from the corpus — the engine's, when ``index`` is the engine's
        index, so profile FIGs and the stored CorS come from one model.
    """

    def __init__(
        self,
        corpus: Corpus,
        params: MRFParameters | None = None,
        thresholds: dict[tuple[str, str], float] | None = None,
        default_threshold: float = 0.3,
        split: TemporalSplit | None = None,
        build_index: bool = True,
        index: CliqueInvertedIndex | SegmentedCliqueIndex | None = None,
        correlations: CorrelationModel | None = None,
    ) -> None:
        self._corpus = corpus
        self._params = params if params is not None else MRFParameters()
        self._split = split if split is not None else TemporalSplit.paper_default(corpus.n_months)
        self._correlations = (
            correlations
            if correlations is not None
            else correlation_model_for_corpus(
                corpus, thresholds=thresholds, default_threshold=default_threshold
            )
        )
        self._candidates: tuple[MediaObject, ...] = tuple(
            corpus.objects_in_window(self._split.evaluation)
        )
        self._max_clique_size = self._params.max_clique_size
        self._index: SegmentedCliqueIndex | None = None
        if index is not None:
            if index.max_clique_size < self._max_clique_size:
                raise ValueError(
                    f"prebuilt index covers cliques up to size {index.max_clique_size}, "
                    f"but the parameters need {self._max_clique_size}"
                )
            self._index = as_stack(index)
        elif build_index:
            built = CliqueInvertedIndex(
                self._correlations, max_clique_size=self._max_clique_size
            ).build(self._candidates)
            self._index = as_stack(built)
        self._candidate_mask: np.ndarray | None = (
            self._mask_candidates(self._index) if self._index is not None else None
        )
        self._profile_cache: dict[str, UserProfile] = {}

    def _mask_candidates(self, index: SegmentedCliqueIndex) -> np.ndarray:
        """Dense boolean mask over ``index``'s object table: ``True`` at
        every candidate.  A candidate with features always has cliques,
        so an index lacking its dense id was built over other objects —
        ranking over it would silently drop that candidate."""
        view = index.vector_view()
        mask = np.zeros(view.n_objects, dtype=bool)
        missing: list[str] = []
        for obj in self._candidates:
            dense = view.dense_id(obj.object_id)
            if dense is not None:
                mask[dense] = True
            elif obj.features:
                missing.append(obj.object_id)
        if missing:
            raise ValueError(
                f"index holds no postings for {len(missing)} of {len(self._candidates)} "
                f"candidates (first: {missing[0]!r}); it was built over other objects"
            )
        return mask

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def corpus(self) -> Corpus:
        return self._corpus

    @property
    def split(self) -> TemporalSplit:
        return self._split

    @property
    def params(self) -> MRFParameters:
        return self._params

    @property
    def candidates(self) -> tuple[MediaObject, ...]:
        """The newly-incoming objects eligible for recommendation."""
        return self._candidates

    @property
    def index(self) -> SegmentedCliqueIndex | None:
        """The clique index this recommender ranks over (shared or own)."""
        return self._index

    def with_params(self, params: MRFParameters) -> "Recommender":
        """Clone sharing corpus, correlations, index and candidate mask
        with new parameters — used by the δ sweep (Fig. 10) and the
        served ``/recommend?delta=`` override.  Profiles are re-derived
        because clique enumeration depth may differ."""
        clone = object.__new__(Recommender)
        clone._corpus = self._corpus
        clone._params = params
        clone._split = self._split
        clone._correlations = self._correlations
        clone._candidates = self._candidates
        clone._max_clique_size = self._max_clique_size
        if self._index is not None and params.max_clique_size > self._index.max_clique_size:
            raise ValueError(
                "cannot raise max clique size above the indexed bound; rebuild instead"
            )
        clone._index = self._index
        clone._candidate_mask = self._candidate_mask
        clone._profile_cache = {}
        return clone

    # ------------------------------------------------------------------
    # profiles
    # ------------------------------------------------------------------
    def profile_for(self, user: str) -> UserProfile:
        """Build (and cache) the user's profile from profile-window
        favorites.  Raises ``ValueError`` for users with no history —
        cold-start users are outside the paper's scope."""
        cached = self._profile_cache.get(user)
        if cached is not None:
            return cached
        events = self._corpus.favorites_of(user, window=self._split.profile)
        if not events:
            raise ValueError(f"user {user!r} has no favorites in the profile window")
        history = tuple(self._corpus.get(e.object_id) for e in events)
        fig = FeatureInteractionGraph.from_profile(
            history, self._correlations, profile_id=f"profile:{user}"
        )
        occurrences = fig.clique_occurrences(max_size=self._max_clique_size)
        cliques = tuple(Clique(features=f) for f in sorted(occurrences))
        profile = UserProfile(
            user=user, history=history, cliques=cliques, occurrences=occurrences
        )
        self._profile_cache[user] = profile
        return profile

    # ------------------------------------------------------------------
    # recommendation
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: str,
        k: int = 10,
        mode: str = "auto",
        current_month: int | None = None,
    ) -> list[RankedResult]:
        """Top-``k`` candidates by profile similarity (Definition 2).

        ``current_month`` is Eq. 10's ``t_c``; it defaults to the start
        of the evaluation window (the "now" at which the newly incoming
        objects are being considered).  ``mode="auto"`` (the default)
        runs the accumulate-and-select kernel over the index.  Rankings
        agree across the index modes in ids and float scores, exact
        score ties included (canonical ``(-score, id)`` order).
        """
        if mode not in ("auto", "index", "scan"):
            raise ValueError(f"mode must be 'auto', 'index' or 'scan', got {mode!r}")
        profile = self.profile_for(user)
        t_now = current_month if current_month is not None else self._split.evaluation.start
        if mode == "scan":
            return self._recommend_scan(profile, k, t_now)
        if self._index is None:
            raise ValueError("recommender was built with build_index=False; use mode='scan'")
        if mode == "index":
            return self._recommend_index(profile, k, t_now)
        return self._recommend_index_vectorized(profile, k, t_now)

    def _index_terms(
        self, profile: UserProfile, t_now: int
    ) -> list[tuple[PostingVectors, float, float]]:
        """The gate both index modes share: one ``(posting, inner,
        outer)`` term per profile clique with a posting, a positive
        Eq. 10 temporal weight ``outer`` and a non-zero ``inner =
        λ_{|c|}·CorS(c)``.  The temporal weight is constant per clique,
        so it scales the stored impacts as the outer factor —
        ``outer·(inner·P)``, which is ``outer`` times
        :meth:`CliqueScorer.potential` bit for bit."""
        assert self._index is not None
        view = self._index.vector_view()
        delta = self._params.delta
        terms: list[tuple[PostingVectors, float, float]] = []
        for clique in profile.cliques:
            outer = profile.temporal_weight(clique, t_now, delta)
            if outer <= 0.0:
                continue
            inner = self._params.lambda_for(clique.size)
            if inner == 0.0:
                continue
            vectors = view.vectors(clique.key)
            if vectors is None:
                continue
            if self._params.use_cors:
                inner *= vectors.cors
                if inner == 0.0:
                    continue
            terms.append((vectors, inner, outer))
        return terms

    def _recommend_index(
        self, profile: UserProfile, k: int, t_now: int
    ) -> list[RankedResult]:
        """Scalar Algorithm 1 over the profile's terms: the Threshold
        Algorithm over one
        :class:`~repro.index.threshold.ImpactSortedSource` per term, with
        non-candidates of a shared index dropped by the candidate
        mask."""
        assert self._index is not None
        view = self._index.vector_view()
        sources = impact_sources(
            self._index_terms(profile, t_now),
            self._params.alpha,
            candidates=self._candidate_mask,
        )
        merged = threshold_algorithm(sources, k=k)
        return [
            RankedResult(object_id=view.object_id(dense), score=score)
            for dense, score in merged
        ]

    def _recommend_index_vectorized(
        self, profile: UserProfile, k: int, t_now: int
    ) -> list[RankedResult]:
        """Eq. 10 as batch numpy work: one :func:`accumulate_top_k` over
        the terms the scalar walk ranks, with the candidate mask.  The
        top-``k`` is ordered by ``(-score, dense id)`` — dense order is
        string order, so this is the canonical ranking."""
        assert self._index is not None
        view = self._index.vector_view()
        top = accumulate_top_k(
            self._index_terms(profile, t_now),
            self._params.alpha,
            k,
            candidates=self._candidate_mask,
        )
        return [
            RankedResult(object_id=view.object_id(dense), score=score)
            for dense, score in top.ranking
        ]

    def _recommend_scan(
        self, profile: UserProfile, k: int, t_now: int
    ) -> list[RankedResult]:
        scorer = CliqueScorer(self._correlations, self._params)
        delta = self._params.delta
        weights = [
            profile.temporal_weight(clique, t_now, delta) for clique in profile.cliques
        ]
        scored: list[RankedResult] = []
        for obj in self._candidates:
            score = sum(
                w * scorer.potential(c, obj)
                for c, w in zip(profile.cliques, weights)
                if w > 0.0
            )
            scored.append(RankedResult(object_id=obj.object_id, score=score))
            scorer.release(obj.object_id)
        return ranked_sort(scored)[:k]

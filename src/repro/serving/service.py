"""Transport-independent request handlers.

Every public method takes plain Python values and returns a plain dict
(JSON-shaped), so the full request surface is unit-testable without
opening a socket; :mod:`repro.serving.http` is a thin codec around this
class.  Invalid requests raise :class:`ServiceError` carrying the HTTP
status the transport should map it to.

Handlers are deterministic given a snapshot: no clocks, no randomness —
the wall-clock boundary lives in :mod:`repro.serving.http` (latency
measurement) and :mod:`repro.serving.snapshot` (load timestamps), which
keeps this module inside the repo's determinism lint scope.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from repro.core.objects import Feature, FeatureType, MediaObject, parse_feature_key
from repro.core.recommendation import Recommender
from repro.core.retrieval import RankedResult
from repro.serving.cache import ResultCache, result_cache_key
from repro.serving.metrics import MetricsRegistry
from repro.serving.snapshot import EngineSnapshot, SnapshotLease, SnapshotManager

#: Upper bound on requested result-list length (admission of absurd k
#: values would turn a single request into a corpus-wide sort).
MAX_K = 1000

#: Modes a request may select.  ``auto`` runs the vectorized engine,
#: ``index`` the scalar TA walk, ``scan`` the exhaustive reference —
#: all index modes rank bit-identically, so the mode only shows up in
#: latency (and in the cache key).
_VALID_MODES = ("auto", "index", "scan")

#: Cache-key placeholder for endpoints that have no mode dimension
#: (``recommend`` always runs the index path).  Distinct from every
#: entry in ``_VALID_MODES`` so it can never collide with a real mode.
_NO_MODE = "-"


class ServiceError(Exception):
    """Request-level failure with the HTTP status it should map to."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _validate_k(k: Any) -> int:
    try:
        value = int(k)
    except (TypeError, ValueError):
        raise ServiceError(400, f"k must be an integer, got {k!r}") from None
    if not 1 <= value <= MAX_K:
        raise ServiceError(400, f"k must be in [1, {MAX_K}], got {value}")
    return value


def _validate_mode(mode: Any) -> str:
    if mode not in _VALID_MODES:
        raise ServiceError(400, f"mode must be one of {_VALID_MODES}, got {mode!r}")
    return str(mode)


def _name_bag(value: Any, field: str) -> tuple[str, ...]:
    """A free-form feature bag: a list of names, duplicates = counts."""
    if value is None:
        return ()
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ServiceError(400, f"{field} must be a list of strings")
    names = list(value)
    if not all(isinstance(name, str) and name for name in names):
        raise ServiceError(400, f"{field} must be a list of non-empty strings")
    return tuple(sorted(names))


def _render_results(results: Sequence[RankedResult]) -> list[dict[str, Any]]:
    return [{"object_id": r.object_id, "score": r.score} for r in results]


def segment_shape(snapshot: EngineSnapshot) -> dict[str, Any] | None:
    """Segment-stack shape of a snapshot's serving index (``None`` when
    the snapshot carries no index at all).  Module-level because the
    prefork supervisor reports it too."""
    index = snapshot.engine.index
    return None if index is None else index.segment_stats()


def parse_ingest_records(records: Any) -> list[MediaObject]:
    """Validate an ingest request body into media objects.

    Records use the corpus store's canonical shape — ``{"id", "t",
    "features"}`` with ``features`` mapping ``type:name`` keys to
    positive counts (exactly one line of ``objects.jsonl``).  Raw
    Flickr-like metadata is converted *client-side* (``repro ingest
    --raw``) so the server never grows a second preprocessing path.
    Module-level because the prefork supervisor validates batches with
    it too, before any worker sees them.  The whole batch is validated
    before any feature is interned, so a rejected batch leaves the
    process's intern table (:mod:`repro.core.objects`) as it was.
    """
    if not isinstance(records, list) or not records:
        raise ServiceError(400, "records must be a non-empty list of objects")
    parsed: list[tuple[str, dict[tuple[FeatureType, str], int], int]] = []
    seen: set[str] = set()
    for position, record in enumerate(records):
        where = f"records[{position}]"
        if not isinstance(record, dict):
            raise ServiceError(400, f"{where} must be a JSON object")
        object_id = record.get("id")
        if not isinstance(object_id, str) or not object_id:
            raise ServiceError(400, f"{where}: 'id' must be a non-empty string")
        if object_id in seen:
            raise ServiceError(400, f"{where}: duplicate id {object_id!r} in batch")
        seen.add(object_id)
        raw_features = record.get("features")
        if not isinstance(raw_features, dict) or not raw_features:
            raise ServiceError(
                400, f"{where}: 'features' must be a non-empty 'type:name' -> count map"
            )
        features: dict[tuple[FeatureType, str], int] = {}
        for key, count in raw_features.items():
            try:
                type_and_name = parse_feature_key(key)
                count = int(count)
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, f"{where}: bad feature {key!r}: {exc}") from None
            if count < 1:
                raise ServiceError(400, f"{where}: feature {key!r} count must be >= 1")
            features[type_and_name] = count
        try:
            timestamp = int(record.get("t", 0))
        except (TypeError, ValueError):
            raise ServiceError(
                400, f"{where}: 't' must be an integer month, got {record.get('t')!r}"
            ) from None
        parsed.append((object_id, features, timestamp))
    return [
        MediaObject(
            object_id=object_id,
            features={Feature(ftype, name): count for (ftype, name), count in bag.items()},
            timestamp=timestamp,
        )
        for object_id, bag, timestamp in parsed
    ]


class QueryService:
    """The serving subsystem's request surface over one snapshot manager.

    Parameters
    ----------
    manager:
        Snapshot lifecycle owner (must be loaded before the first
        query; :meth:`reload` works either way).
    cache:
        Result cache; ``ResultCache(0)`` disables caching.
    metrics:
        Registry shared with the HTTP front end so request counters,
        cache statistics and snapshot gauges render in one scrape.
    """

    def __init__(
        self,
        manager: SnapshotManager,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._manager = manager
        self._cache = cache if cache is not None else ResultCache()
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def manager(self) -> SnapshotManager:
        return self._manager

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def _snapshot(self) -> EngineSnapshot:
        try:
            return self._manager.current
        except RuntimeError as exc:
            raise ServiceError(503, str(exc)) from exc

    def _lease(self) -> SnapshotLease:
        """A refcounted hold on the current snapshot for one request —
        a concurrent reload can retire the snapshot but cannot close
        its mmap'd index until the lease is released."""
        try:
            return self._manager.lease()
        except RuntimeError as exc:
            raise ServiceError(503, str(exc)) from exc

    # ------------------------------------------------------------------
    # query endpoints
    # ------------------------------------------------------------------
    def search(self, query: Any, k: Any = 10, mode: Any = "auto") -> dict[str, Any]:
        """Top-``k`` objects most similar to the stored object ``query``
        (bit-identical to ``repro search`` on the same corpus)."""
        if not isinstance(query, str) or not query:
            raise ServiceError(400, "query must be a non-empty object id")
        k = _validate_k(k)
        mode = _validate_mode(mode)
        with self._lease() as snapshot:
            key = result_cache_key(snapshot.generation, "search", query, k, mode)
            cached = self._cache.get(key)
            if cached is not None:
                return dict(cached, cached=True)
            corpus = snapshot.corpus
            if query not in corpus:
                raise ServiceError(404, f"unknown object id {query!r}")
            results = snapshot.engine.search(corpus.get(query), k=k, mode=mode)
            payload = {
                "endpoint": "search",
                "generation": snapshot.generation,
                "query": query,
                "k": k,
                "mode": mode,
                "results": _render_results(results),
            }
            self._cache.put(key, payload)
            return dict(payload, cached=False)

    def recommend(self, user: Any, k: Any = 10, delta: Any = None) -> dict[str, Any]:
        """Top-``k`` newly-incoming objects for ``user`` (bit-identical
        to ``repro recommend`` on the same corpus and ``delta``)."""
        if not isinstance(user, str) or not user:
            raise ServiceError(400, "user must be a non-empty user id")
        k = _validate_k(k)
        with self._lease() as snapshot:
            recommender = snapshot.recommender
            if recommender is None:
                raise ServiceError(
                    409, "corpus has no favorite events; recommendation is unavailable"
                )
            effective_delta = recommender.params.delta if delta is None else delta
            try:
                effective_delta = float(effective_delta)
            except (TypeError, ValueError):
                raise ServiceError(
                    400, f"delta must be a number, got {delta!r}"
                ) from None
            key = result_cache_key(
                snapshot.generation, "recommend", (user, effective_delta), k, _NO_MODE
            )
            cached = self._cache.get(key)
            if cached is not None:
                return dict(cached, cached=True)
            recommender = self._recommender_for_delta(recommender, effective_delta)
            try:
                results = recommender.recommend(user, k=k)
            except ValueError as exc:
                raise ServiceError(404, str(exc)) from exc
            payload = {
                "endpoint": "recommend",
                "generation": snapshot.generation,
                "user": user,
                "k": k,
                "delta": effective_delta,
                "results": _render_results(results),
            }
            self._cache.put(key, payload)
            return dict(payload, cached=False)

    @staticmethod
    def _recommender_for_delta(recommender: Recommender, delta: float) -> Recommender:
        """Recommender clone with the requested decay (shares corpus,
        correlations and index — cheap; see ``Recommender.with_params``)."""
        if delta == recommender.params.delta:
            return recommender
        try:
            return recommender.with_params(recommender.params.with_updates(delta=delta))
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc

    def similar(
        self,
        tags: Any = None,
        visual_words: Any = None,
        users: Any = None,
        k: Any = 10,
        mode: Any = "auto",
    ) -> dict[str, Any]:
        """Similarity search for a free-form feature bag that does not
        correspond to any stored object id.

        The bags are lists of names; duplicates accumulate frequency
        exactly like :meth:`repro.core.objects.MediaObject.build`.
        """
        tag_bag = _name_bag(tags, "tags")
        visual_bag = _name_bag(visual_words, "visual_words")
        user_bag = _name_bag(users, "users")
        if not (tag_bag or visual_bag or user_bag):
            raise ServiceError(
                400, "at least one of tags/visual_words/users must be non-empty"
            )
        k = _validate_k(k)
        mode = _validate_mode(mode)
        with self._lease() as snapshot:
            signature = (tag_bag, visual_bag, user_bag)
            key = result_cache_key(snapshot.generation, "similar", signature, k, mode)
            cached = self._cache.get(key)
            if cached is not None:
                return dict(cached, cached=True)
            query = MediaObject.build(
                "query:ad-hoc", tags=tag_bag, visual_words=visual_bag, users=user_bag
            )
            results = snapshot.engine.search(query, k=k, mode=mode, exclude_query=False)
            payload = {
                "endpoint": "similar",
                "generation": snapshot.generation,
                "tags": list(tag_bag),
                "visual_words": list(visual_bag),
                "users": list(user_bag),
                "k": k,
                "mode": mode,
                "results": _render_results(results),
            }
            self._cache.put(key, payload)
            return dict(payload, cached=False)

    # ------------------------------------------------------------------
    # lifecycle / introspection endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        snapshot = self._snapshot()
        return {
            "status": "ok",
            "generation": snapshot.generation,
            "objects": snapshot.n_objects,
            "recommendation": snapshot.recommender is not None,
            "source": snapshot.source,
        }

    def stats(self) -> dict[str, Any]:
        snapshot = self._snapshot()
        cache_stats = self._cache.stats()
        provenance = snapshot.index_provenance
        index_stats: dict[str, Any] | None = None
        if provenance is not None:
            index_stats = {
                "origin": provenance.origin,
                "build_seconds": provenance.build_seconds,
                "cliques": provenance.n_cliques,
                "postings": provenance.total_postings,
                "format_version": provenance.format_version,
                "payload_verified": provenance.payload_verified,
                "segments": segment_shape(snapshot),
            }
            index = snapshot.engine.index
            if index is not None:
                # How much of the index queries have touched so far.
                index_stats["decoded_slots"] = int(index.stats()["decoded_slots"])
        return {
            "snapshot": {
                "generation": snapshot.generation,
                "objects": snapshot.n_objects,
                "source": snapshot.source,
                "loaded_at": snapshot.loaded_at,
                "recommendation": snapshot.recommender is not None,
            },
            "index": index_stats,
            "cache": {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "evictions": cache_stats.evictions,
                "size": cache_stats.size,
                "capacity": cache_stats.capacity,
            },
        }

    def reload(self) -> dict[str, Any]:
        """Swap in a freshly built snapshot and empty the result cache."""
        snapshot = self._manager.reload()
        dropped = self._cache.clear()
        return {
            "status": "reloaded",
            "generation": snapshot.generation,
            "objects": snapshot.n_objects,
            "cache_entries_dropped": dropped,
        }

    def ingest(self, records: Any, persist: bool = True) -> dict[str, Any]:
        """Publish a batch of new objects as a delta segment — O(batch).

        ``records`` follow the canonical corpus-store shape (see
        :func:`parse_ingest_records`).  A duplicate id against the
        serving corpus answers 409; the snapshot swap empties the
        result cache like any generation change."""
        objects = parse_ingest_records(records)
        try:
            snapshot = self._manager.ingest(objects, persist=persist)
        except ValueError as exc:
            raise ServiceError(409, str(exc)) from exc
        except RuntimeError as exc:
            raise ServiceError(503, str(exc)) from exc
        dropped = self._cache.clear()
        return {
            "status": "ingested",
            "generation": snapshot.generation,
            "objects": snapshot.n_objects,
            "ingested": len(objects),
            "segments": segment_shape(snapshot),
            "cache_entries_dropped": dropped,
        }

    def compact(self) -> dict[str, Any]:
        """Fold delta segments into the on-disk artifact and reload;
        a no-op (``status: "noop"``) when nothing is stacked."""
        try:
            snapshot, folded = self._manager.compact()
        except RuntimeError as exc:
            raise ServiceError(503, str(exc)) from exc
        dropped = self._cache.clear() if folded else 0
        return {
            "status": "compacted" if folded else "noop",
            "generation": snapshot.generation,
            "objects": snapshot.n_objects,
            "folded_objects": folded,
            "segments": segment_shape(snapshot),
            "cache_entries_dropped": dropped,
        }

    def metrics_text(self, now: float | None = None) -> str:
        """Prometheus text exposition of the full registry plus cache
        and snapshot state.  ``now`` (wall-clock seconds) is supplied by
        the transport so this module stays clock-free."""
        self._update_gauges(now)
        return self._metrics.render()

    def metrics_dump(self, now: float | None = None) -> dict[str, Any]:
        """Structured registry export (see ``MetricsRegistry.dump``),
        with the same cache/snapshot gauge refresh as
        :meth:`metrics_text`.  The prefork supervisor scrapes workers
        through this so per-process registries can be merged and
        rendered as one cluster-wide exposition."""
        self._update_gauges(now)
        return self._metrics.dump()

    def _update_gauges(self, now: float | None = None) -> None:
        cache_stats = self._cache.stats()
        self._metrics.gauge(
            "repro_result_cache_hits_total",
            "Result cache hits since process start.",
            kind_override="counter",
        ).set(cache_stats.hits)
        self._metrics.gauge(
            "repro_result_cache_misses_total",
            "Result cache misses since process start.",
            kind_override="counter",
        ).set(cache_stats.misses)
        self._metrics.gauge(
            "repro_result_cache_evictions_total",
            "Result cache evictions since process start.",
            kind_override="counter",
        ).set(cache_stats.evictions)
        self._metrics.gauge(
            "repro_result_cache_entries", "Current result cache entry count."
        ).set(cache_stats.size)
        try:
            snapshot: EngineSnapshot | None = self._manager.current
        except RuntimeError:
            snapshot = None
        if snapshot is not None:
            self._metrics.gauge(
                "repro_snapshot_generation", "Generation id of the serving snapshot."
            ).set(snapshot.generation)
            self._metrics.gauge(
                "repro_snapshot_objects", "Objects in the serving snapshot."
            ).set(snapshot.n_objects)
            if now is not None:
                self._metrics.gauge(
                    "repro_snapshot_age_seconds",
                    "Seconds since the serving snapshot finished loading.",
                ).set(max(0.0, now - snapshot.loaded_at))

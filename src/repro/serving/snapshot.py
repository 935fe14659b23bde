"""Engine lifecycle: immutable snapshots with atomic hot-reload.

The online system keeps exactly one engine per corpus: the correlation
model is built at load time, and the clique inverted index (the paper's
Figure 3 preprocessing) is either mapped from ``index.bin`` — an
O(metadata) open that reads no posting — or built once; either way the
engine reads it as a main-only
:class:`~repro.index.segmented.SegmentedCliqueIndex`, which ingest
grows by delta segments.  Every query
runs against that prebuilt structure — the point of Section 3.5's
index — and decodes or caches only the postings of its own cliques.

A :class:`SnapshotManager` owns a reference to the current
:class:`EngineSnapshot`.  Reload builds a complete replacement off the
serving path (the old snapshot keeps answering queries throughout) and
then swaps the reference under a lock — readers take a refcounted
*lease* per request, so in-flight requests drain on the old snapshot
while new requests land on the new one.  A failed reload leaves the
current snapshot untouched.

Swapped-out snapshots are *disposed deterministically*: the manager
retires the previous snapshot on swap and closes it (releasing an
mmap'd index artifact's file descriptor and mapping) as soon as the
last lease is released — immediately, when no request is in flight.
Before this, the old reader's fd lingered until garbage collection,
which under reload churn is an fd leak.

Each snapshot carries a monotonically increasing *generation*; the
result cache keys on it, so a swap implicitly invalidates all cached
results of previous generations.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.mrf import MRFParameters
from repro.core.objects import MediaObject
from repro.core.recommendation import Recommender
from repro.core.retrieval import RetrievalEngine
from repro.index.binfmt import BINARY_FORMAT_VERSION
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segbuild import merge_segments
from repro.index.segmented import SegmentedCliqueIndex, as_stack, image_segment
from repro.social.corpus import Corpus
from repro.storage.store import (
    StorageError,
    append_objects,
    load_corpus,
    load_index,
    load_params,
)

#: The persisted retrieval index the snapshot loader picks up (written
#: by ``repro index build`` / :func:`repro.storage.store.save_index`):
#: a binary artifact, loaded O(metadata) via mmap (read-only pages
#: shared across reloads and worker processes).
INDEX_ARTIFACT = "index.bin"


@dataclass(frozen=True)
class IndexProvenance:
    """Where the serving retrieval index came from, and what it holds.

    ``origin`` is ``"built"`` (preprocessed from the corpus at load
    time) or ``"loaded"`` (picked up from ``index.bin``);
    ``build_seconds`` is the wall time of whichever of those happened.
    ``format_version`` is the on-disk index format
    (:data:`~repro.index.binfmt.BINARY_FORMAT_VERSION`, the one binary
    mmap format; a built snapshot reports the format it would save
    as).  ``payload_verified`` records whether payload checksums
    were swept at load time (``False`` when the operator passed
    ``--no-verify-payload`` for a faster cold start; always ``True``
    for a built index, which has no artifact to distrust).  Surfaced
    verbatim by the service's ``/stats`` endpoint so operators can tell
    a cold preprocessing run from an artifact pickup — and whether that
    pickup was integrity-checked.
    """

    origin: str
    build_seconds: float
    n_cliques: int
    total_postings: int
    format_version: int
    payload_verified: bool = True


@dataclass(frozen=True)
class EngineSnapshot:
    """One immutable generation of the serving state.

    Attributes
    ----------
    engine:
        Retrieval engine with its index attached (mapped or built).
    recommender:
        Recommender sharing ``engine``'s index and correlation
        model, or ``None`` when the corpus carries no favorite events
        (retrieval-only corpora).
    generation:
        Monotonic id assigned by the manager; starts at 1.
    source:
        Corpus directory this snapshot was loaded from.
    loaded_at:
        Wall-clock seconds (``time.time``) at load completion — feeds
        the ``/metrics`` snapshot-age gauge.
    index_provenance:
        How the retrieval index came to be (``None`` when the snapshot
        was built with ``build_index=False``).
    """

    engine: RetrievalEngine
    recommender: Recommender | None
    generation: int
    source: str
    loaded_at: float
    index_provenance: IndexProvenance | None = None

    @property
    def corpus(self) -> Corpus:
        return self.engine.corpus

    @property
    def n_objects(self) -> int:
        return len(self.engine.corpus)

    def close(self) -> None:
        """Release OS resources held by this snapshot's index.

        The snapshot's main segment holds a pin on its mapping
        (:class:`repro.index.vectorized.MmapVectorView`): the
        artifact's file descriptor and pages, or a built index's
        image.  The manager calls
        this once the snapshot is retired and the last lease is
        released — never while a request may still read it.
        """
        if self.engine.index is not None:
            self.engine.index.close()


def build_snapshot(
    corpus_dir: str | Path,
    generation: int,
    params: MRFParameters | None = None,
    params_path: str | Path | None = None,
    build_index: bool = True,
    loaded_at: float | None = None,
    verify_payload: bool = True,
) -> EngineSnapshot:
    """Load ``corpus_dir`` into a fresh snapshot.

    Parameter resolution: an explicit ``params`` object wins; otherwise
    ``params_path`` (or ``<corpus_dir>/params.json`` when present) is
    loaded; otherwise the library-default :class:`MRFParameters` — the
    same default the batch CLI uses, so served rankings are
    bit-identical to ``repro search``/``repro recommend``.

    ``verify_payload=False`` skips the payload checksum sweep when
    picking up a binary index artifact (the ``--no-verify-payload``
    fast open); structural validation still runs, and the choice is
    recorded in the snapshot's :class:`IndexProvenance`.
    """
    directory = Path(corpus_dir)
    if params is None:
        candidate = Path(params_path) if params_path is not None else directory / "params.json"
        if params_path is not None or candidate.is_file():
            params = load_params(candidate)
        else:
            params = MRFParameters()
    corpus = load_corpus(directory)
    provenance: IndexProvenance | None = None
    engine = RetrievalEngine(corpus, params=params, build_index=False)
    if build_index:
        engine, provenance = _attach_index(
            engine, corpus, directory, verify_payload=verify_payload
        )
    # One index and one correlation model per snapshot: the recommender
    # ranks over the engine's (loaded or built) index, masked to its
    # candidates, instead of building a second index over them.
    recommender = (
        Recommender(
            corpus,
            params=params,
            build_index=False,
            index=engine.index,
            correlations=engine.correlations,
        )
        if corpus.favorites
        else None
    )
    return EngineSnapshot(
        engine=engine,
        recommender=recommender,
        generation=generation,
        source=str(directory),
        loaded_at=loaded_at if loaded_at is not None else time.time(),
        index_provenance=provenance,
    )


def _attach_index(
    engine: RetrievalEngine,
    corpus: Corpus,
    directory: Path,
    verify_payload: bool = True,
) -> tuple[RetrievalEngine, IndexProvenance]:
    """Give the engine its retrieval index, a main-only stack: over
    ``index.bin`` (mmap) when a valid one sits next to the corpus,
    otherwise over the image of a fresh build.

    A stale artifact (object count differing from the corpus), a
    corrupt one or one of an older format version falls through to
    building — serving correctness never
    depends on an artifact being right, only cold-start time does.  The
    mapping is read-only, so successive generations reloading the same
    file share page-cache pages instead of re-parsing.
    """
    artifact = directory.joinpath(INDEX_ARTIFACT)
    if artifact.is_file():
        started = time.perf_counter()
        loaded: SegmentedCliqueIndex | None
        try:
            loaded = load_index(artifact, engine.correlations, verify_payload=verify_payload)
        except StorageError:
            loaded = None
        if loaded is not None:
            if loaded.n_objects == len(corpus):
                engine.adopt_index(loaded)
                stats = loaded.stats()
                return engine, IndexProvenance(
                    origin="loaded",
                    build_seconds=time.perf_counter() - started,
                    n_cliques=int(stats["n_cliques"]),
                    total_postings=int(stats["total_postings"]),
                    format_version=BINARY_FORMAT_VERSION,
                    payload_verified=verify_payload,
                )
            loaded.close()  # stale: release the mapping before rebuilding

    started = time.perf_counter()
    built = CliqueInvertedIndex(
        engine.correlations, max_clique_size=engine.params.max_clique_size
    ).build(corpus)
    index = as_stack(built)
    engine.adopt_index(index)
    stats = index.stats()
    return engine, IndexProvenance(
        origin="built",
        build_seconds=time.perf_counter() - started,
        n_cliques=int(stats["n_cliques"]),
        total_postings=int(stats["total_postings"]),
        format_version=BINARY_FORMAT_VERSION,
    )


class SnapshotLease:
    """A refcounted hold on one snapshot for the duration of a request.

    Context-manager protocol: ``with manager.lease() as snapshot: ...``
    — the snapshot cannot be disposed while the lease is open, even if
    a reload retires it mid-request.  ``release`` is idempotent.
    """

    __slots__ = ("_manager", "_snapshot", "_released")

    def __init__(self, manager: "SnapshotManager", snapshot: EngineSnapshot) -> None:
        self._manager = manager
        self._snapshot = snapshot
        self._released = False

    @property
    def snapshot(self) -> EngineSnapshot:
        return self._snapshot

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._manager._release(self._snapshot)

    def __enter__(self) -> EngineSnapshot:
        return self._snapshot

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class SnapshotManager:
    """Owns the current snapshot and serializes reloads.

    Parameters
    ----------
    corpus_dir:
        Directory written by :func:`repro.storage.store.save_corpus`.
    params / params_path:
        Parameter resolution inputs (see :func:`build_snapshot`); the
        resolution re-runs on every reload, so dropping a new
        ``params.json`` next to the corpus takes effect on reload.
    build_index:
        Forwarded to the engine/recommender constructors.
    verify_payload:
        Whether artifact pickup sweeps payload checksums (see
        :func:`build_snapshot`); applies to every (re)load.
    clock:
        Injectable wall clock for tests.
    """

    def __init__(
        self,
        corpus_dir: str | Path,
        params: MRFParameters | None = None,
        params_path: str | Path | None = None,
        build_index: bool = True,
        verify_payload: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._corpus_dir = Path(corpus_dir)
        self._params = params
        self._params_path = params_path
        self._build_index = build_index
        self._verify_payload = verify_payload
        self._clock = clock
        self._current: EngineSnapshot | None = None
        self._generation = 0
        #: serializes builds so concurrent reloads don't race the
        #: generation counter or waste duplicate work.
        self._reload_lock = threading.Lock()
        #: guards the reference swap and the lease bookkeeping below.
        self._swap_lock = threading.Lock()
        #: open lease count per snapshot generation.
        self._lease_counts: dict[int, int] = {}
        #: generations swapped out but still leased; closed on last release.
        self._retired: dict[int, EngineSnapshot] = {}

    @property
    def corpus_dir(self) -> Path:
        return self._corpus_dir

    @property
    def current(self) -> EngineSnapshot:
        """The serving snapshot; raises if :meth:`load` never ran."""
        with self._swap_lock:
            snapshot = self._current
        if snapshot is None:
            raise RuntimeError("no snapshot loaded; call load() first")
        return snapshot

    @property
    def generation(self) -> int:
        with self._swap_lock:
            return self._generation

    def lease(self) -> SnapshotLease:
        """Acquire a refcounted hold on the current snapshot.

        Raises ``RuntimeError`` when :meth:`load` never ran.  Request
        handlers read through leases so a concurrent reload can never
        close an index a request is still walking.
        """
        with self._swap_lock:
            snapshot = self._current
            if snapshot is None:
                raise RuntimeError("no snapshot loaded; call load() first")
            generation = snapshot.generation
            self._lease_counts[generation] = self._lease_counts.get(generation, 0) + 1
        return SnapshotLease(self, snapshot)

    def _release(self, snapshot: EngineSnapshot) -> None:
        """Drop one lease; dispose the snapshot if it was retired and
        this was the last hold.  (Called by :class:`SnapshotLease`.)"""
        generation = snapshot.generation
        dispose: EngineSnapshot | None = None
        with self._swap_lock:
            remaining = self._lease_counts.get(generation, 0) - 1
            if remaining > 0:
                self._lease_counts[generation] = remaining
            else:
                self._lease_counts.pop(generation, None)
                dispose = self._retired.pop(generation, None)
        if dispose is not None:
            dispose.close()

    def leases(self, generation: int) -> int:
        """Open lease count for ``generation`` (introspection/tests)."""
        with self._swap_lock:
            return self._lease_counts.get(generation, 0)

    def load(self) -> EngineSnapshot:
        """Build the next generation and atomically swap it in.

        The build happens outside the swap lock — the previous snapshot
        keeps serving until the replacement is fully warm.  On failure
        the exception propagates and the current snapshot is untouched.
        The swapped-out snapshot is retired: it is closed immediately
        when idle, or on the release of its last lease otherwise.
        """
        with self._reload_lock:
            return self._load_locked()

    def _load_locked(self) -> EngineSnapshot:
        """The body of :meth:`load`; caller holds ``_reload_lock``."""
        snapshot = build_snapshot(
            self._corpus_dir,
            generation=self.generation + 1,
            params=self._params,
            params_path=self._params_path,
            build_index=self._build_index,
            loaded_at=self._clock(),
            verify_payload=self._verify_payload,
        )
        self._swap(snapshot)
        return snapshot

    def _swap(self, snapshot: EngineSnapshot) -> None:
        """Publish ``snapshot`` as current; retire the previous one
        (disposed now when idle, else on its last lease release)."""
        dispose: EngineSnapshot | None = None
        with self._swap_lock:
            previous = self._current
            self._current = snapshot
            self._generation = snapshot.generation
            if previous is not None:
                if self._lease_counts.get(previous.generation, 0) > 0:
                    self._retired[previous.generation] = previous
                else:
                    dispose = previous
        if dispose is not None:
            dispose.close()

    #: reload is the same operation as the initial load — build then swap.
    reload = load

    # ------------------------------------------------------------------
    # streaming ingest and compaction
    # ------------------------------------------------------------------
    def ingest(
        self, objects: Sequence[MediaObject], persist: bool = True
    ) -> EngineSnapshot:
        """Publish ``objects`` as a delta segment — O(batch), not O(corpus).

        The batch is scored with the current snapshot's **frozen**
        correlation model (corpus statistics do not refresh until the
        next full build/reload), encoded as a small delta segment — an
        image in the index format, exactly what ``save_index`` would
        write for the batch — and stacked behind the serving index
        (:class:`~repro.index.segmented.SegmentedCliqueIndex` shares the
        main segment across generations, so whatever earlier queries
        decoded or cached on it stays cached).
        Rankings are bit-identical to a from-scratch build over the
        extended corpus *under the same model* — the parity the
        segmented property test gates.

        The recommender carries over unchanged: it ranks over the
        main-only stack it was built with (its main segment kept mapped
        by the new stack's pin), so its candidate set stays fixed until
        the next reload.

        ``persist`` appends the batch to the corpus directory so a plain
        reload sees it; the prefork supervisor persists exactly once and
        workers apply the same batch in-memory (``persist=False``).

        Raises ``ValueError`` for an empty batch or duplicate object
        ids; on any failure the current snapshot is untouched.
        """
        materialized = list(objects)
        if not materialized:
            raise ValueError("ingest batch is empty")
        with self._reload_lock:
            current = self.current
            engine = current.engine
            base = engine.index
            if base is None:
                raise RuntimeError("cannot ingest into a snapshot without an index")
            # Validates id uniqueness before anything is published or
            # written to disk.
            corpus = current.corpus.extended(materialized)
            # cors_lookup: cliques the serving index already scored keep
            # their stored CorS (same frozen model, same float); only
            # genuinely new cliques pay the Eq. 8 co-moment.
            delta = CliqueInvertedIndex(
                engine.correlations,
                max_clique_size=base.max_clique_size,
                cors_lookup=base.cors_for_key,
            ).build(materialized)
            stack = base.with_delta(image_segment(delta))
            new_engine = engine.with_ingested(corpus, stack)
            if persist:
                append_objects(self._corpus_dir, materialized)
            snapshot = EngineSnapshot(
                engine=new_engine,
                recommender=current.recommender,
                generation=self.generation + 1,
                source=current.source,
                loaded_at=self._clock(),
                index_provenance=current.index_provenance,
            )
            self._swap(snapshot)
            return snapshot

    def compact(self) -> tuple[EngineSnapshot, int]:
        """Fold delta segments into ``index.bin`` and hot-reload.

        Returns ``(snapshot, folded_objects)``; ``folded_objects`` is 0
        (and the snapshot unchanged) when there was nothing to fold.

        Every segment — a mapped ``index.bin``, a built main's image,
        each delta's image — is already in the index format, so one
        streaming k-way merge
        (:func:`~repro.index.segbuild.merge_segments`) over the stack's
        own open readers rewrites the artifact, writing no intermediate
        segment and materializing no posting in the heap — compaction
        cost is O(artifact bytes + delta), published atomically via
        ``os.replace`` while the old inode keeps serving.

        The merged artifact is byte-identical to a from-scratch write
        over the extended corpus *under the frozen model*.  The reload
        that follows recomputes the query-side correlation model from
        the extended corpus, but the artifact's baked components keep
        their build-time statistics — run ``repro index build`` to
        refresh those too.  The recommender behaves like search here:
        the reload gives it a fresh instance over the new ``index.bin``,
        which ranks candidates with the artifact's build-time
        components (CorS and Eq. 7 parts) rather than re-scoring them
        under the refreshed model, until the next ``repro index build``.
        """
        with self._reload_lock:
            current = self.current
            index = current.engine.index
            if index is None or not index.deltas:
                return current, 0
            folded = index.n_delta_objects
            merge_segments(
                [segment.reader for segment in (index.main, *index.deltas)],
                self._corpus_dir.joinpath(INDEX_ARTIFACT),
            )
            return self._load_locked(), folded

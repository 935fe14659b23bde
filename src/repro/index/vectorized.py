"""Vectorized zero-copy scoring with block-max (WAND-style) pruning.

The scalar index path materializes one Python ``Posting`` per touched
clique and feeds per-entry tuples through
:class:`~repro.index.threshold.ImpactSortedSource` — every sorted and
random access costs a Python-level call.  This module replaces the hot
path with batch numpy work over the same data:

* :class:`PostingVectors` — one clique's posting as parallel arrays:
  ascending **dense** object ids (rank in the sorted id table, so dense
  order == string order and tie-breaks survive the translation), the
  two α-independent Eq. 7 component arrays, and per-block component
  maxima.  Against a v3 segment the float arrays are zero-copy views
  straight into the mapping; mixing by α is one whole-array expression
  (:func:`repro.core.mrf.mix_components`).
* :class:`BlockMaxSource` — a TA sorted-access source that opens
  fixed-size posting blocks (:data:`~repro.index.binfmt.BLOCK_SIZE`
  entries) **lazily**: blocks queue in descending order of their
  α-mixed upper bound ``α·max(freq) + (1-α)·max(smooth)`` and are only
  sliced, filtered and impact-sorted when the walk actually reaches an
  impact their bound allows.  Blocks the Threshold Algorithm terminates
  above are never touched — ``blocks_skipped`` counts them.
* :func:`accumulate_scores` support via :meth:`BlockMaxSource.accumulate`
  — random access becomes one dense f64 accumulator filled per source
  with whole-array scaling, probed O(1) per candidate.  The arrays are
  recycled across queries by a per-snapshot :class:`AccumulatorPool`
  (dirty-slot reset via :meth:`BlockMaxSource.reset`).
* :class:`MmapVectorView` / :class:`InMemoryVectorView` — adapters
  giving both index flavours the same vector access surface, so
  retrieval and recommendation share one vectorized engine.

**Bit parity.**  Every float op here is the same IEEE-754 double
operation the scalar path performs, in the same association order:
mixing and scaling go through the shared :mod:`repro.core.mrf` helpers,
the per-entry emission scales with *Python* floats exactly like
``ImpactSortedSource.entry``, and the accumulator adds per-source
contributions in source order (a source not containing an object
contributes ``+0.0``, the bitwise identity for the non-negative scores
here).  Block bounds dominate member impacts because multiplication by
the non-negative mixing weights and correctly rounded addition are both
monotone — ``REPRO_CONTRACTS=1`` re-checks that dominance at every
block open (:func:`repro.diagnostics.contracts.check_block_bound`).
"""

from __future__ import annotations

import threading
from collections.abc import Collection, Iterable

import numpy as np

from repro.core.mrf import mix_components, scale_impacts
from repro.diagnostics.contracts import check_block_bound, contracts_enabled
from repro.index.binfmt import BLOCK_SIZE, BinaryIndexReader

assert BLOCK_SIZE > 0  # block arithmetic below divides by it

#: Per-posting bound on cached α-mixed arrays (mirrors
#: :data:`repro.index.postings.MAX_IMPACT_VIEWS`).
MAX_MIXED_CACHE = 8

def block_maxima(values: np.ndarray) -> np.ndarray:
    """Per-block maxima of ``values`` over :data:`BLOCK_SIZE`-sized
    blocks — the in-memory fallback for postings without stored bounds
    (freshly built indexes, single-block postings, pre-blockmax v3
    files)."""
    arr = np.asarray(values, dtype=np.float64)
    if not len(arr):
        return np.empty(0, dtype=np.float64)
    edges = np.arange(0, len(arr), BLOCK_SIZE)
    return np.maximum.reduceat(arr, edges)


class MixedImpacts:
    """One posting's α-mixed impact view, cached per α.

    Everything query-independent lives here so per-query source
    construction allocates nothing: the full impact array (parallel to
    the posting's ids), per-block upper bounds with their
    descending-bound schedule, and the positive-impact compaction the
    accumulator adds from.
    """

    __slots__ = (
        "ids",
        "impacts",
        "bounds",
        "n_positive",
        "block_order",
        "sorted_bounds",
        "pos_ids",
        "pos_impacts",
        "block_runs",
    )

    def __init__(self, ids: np.ndarray, impacts: np.ndarray, bounds: np.ndarray) -> None:
        self.ids = ids
        self.impacts = impacts
        self.bounds = bounds
        keep = impacts > 0.0
        self.pos_ids = ids[keep]
        self.pos_impacts = impacts[keep]
        self.n_positive = len(self.pos_ids)
        self.block_order = np.lexsort((np.arange(len(bounds)), -bounds))
        self.sorted_bounds = bounds[self.block_order]
        # Lazily built per-block sorted runs, shared by every query at
        # this α: blocks TA never opens are never sliced or sorted.
        self.block_runs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def block_run(self, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block's positive entries as a ``(ids, impacts,
        -impacts)`` run sorted by ``(-impact, id)`` — computed on first
        open across queries, cached thereafter.  The negated copy is the
        ascending key :meth:`BlockMaxSource._refill` bisects on."""
        run = self.block_runs.get(block)
        if run is None:
            lo = block * BLOCK_SIZE
            ids = self.ids[lo : lo + BLOCK_SIZE]
            impacts = self.impacts[lo : lo + BLOCK_SIZE]
            keep = impacts > 0.0
            if not keep.all():
                ids = ids[keep]
                impacts = impacts[keep]
            order = np.lexsort((ids, -impacts))
            impacts = impacts[order]
            run = (ids[order], impacts, -impacts)
            self.block_runs[block] = run
        return run


class PostingVectors:
    """One posting as parallel arrays in ascending dense-id order.

    ``ids`` are dense ranks into the view's sorted object-id table;
    ``freq``/``smooth`` are the stored Eq. 7 components (zero-copy
    views against a v3 segment).  ``mixed(alpha)`` returns the α-mixed
    impacts plus per-block upper bounds, FIFO-cached per α exactly like
    the scalar posting's impact-view cache.
    """

    __slots__ = (
        "key",
        "cors",
        "ids",
        "freq",
        "smooth",
        "block_max_freq",
        "block_max_smooth",
        "_mixed",
    )

    def __init__(
        self,
        key: str,
        cors: float,
        ids: np.ndarray,
        freq: np.ndarray,
        smooth: np.ndarray,
        block_max_freq: np.ndarray | None = None,
        block_max_smooth: np.ndarray | None = None,
    ) -> None:
        self.key = key
        self.cors = cors
        self.ids = ids
        self.freq = freq
        self.smooth = smooth
        self.block_max_freq = (
            block_max_freq if block_max_freq is not None else block_maxima(freq)
        )
        self.block_max_smooth = (
            block_max_smooth if block_max_smooth is not None else block_maxima(smooth)
        )
        self._mixed: dict[float, MixedImpacts] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def mixed(self, alpha: float) -> MixedImpacts:
        """The α-mixed view for ``alpha`` — impacts, block bounds with
        their descending-bound schedule, and the positive-impact
        compaction — computed once per α so per-query source
        construction is allocation-free."""
        cached = self._mixed.get(alpha)
        if cached is None:
            impacts = mix_components(self.freq, self.smooth, alpha)
            bounds = mix_components(self.block_max_freq, self.block_max_smooth, alpha)
            cached = MixedImpacts(self.ids, impacts, bounds)
            if len(self._mixed) >= MAX_MIXED_CACHE:
                self._mixed.pop(next(iter(self._mixed)), None)
            self._mixed[alpha] = cached
        return cached


class BlockMaxSource:
    """Lazy block-opening TA source over one :class:`PostingVectors`.

    Sorted access merges the posting's blocks by descending mixed
    impact (ties by ascending dense id — the canonical ranking
    tie-break).  Unopened blocks wait in descending-bound order; opened
    blocks sit as separate ``(-impact, id)``-sorted runs (prebuilt per
    α, see :meth:`MixedImpacts.block_run`), and a refill emits
    **every** remaining entry whose impact is *strictly* above the best
    unopened bound: one bisect per run, then a sort of just the emitted
    chunk (entries left behind are all ≤ that bound, so the chunk's
    internal order is the global order).  An entry that ties a bound
    waits until that block is opened — so the emission order is exactly
    what a merge with per-block upper-bound markers produces, which is
    exactly the scalar source's ``(-impact, id)`` order.  Blocks the
    walk terminates above are never sliced: that is the WAND-style win,
    reported via ``blocks_skipped``.

    Emission scales impacts as ``outer·(inner·p)`` — elementwise the
    same double ops as ``ImpactSortedSource.entry``, so scaled scores
    match bit for bit; ``exclude`` holds *dense* ids and behaves like
    the scalar source's exclusion (skipped on sorted access, 0 on
    random access).
    """

    __slots__ = (
        "_mv",
        "_ids",
        "_impacts",
        "_bounds",
        "_inner",
        "_outer",
        "_exclude",
        "_exclude_drop",
        "_scaled",
        "_block_order",
        "_sorted_bounds",
        "_next_block",
        "_runs",
        "_len",
        "n_pairs",
        "blocks_total",
        "blocks_opened",
    )

    def __init__(
        self,
        vectors: PostingVectors,
        alpha: float,
        inner: float,
        outer: float = 1.0,
        exclude: Collection[int] = (),
    ) -> None:
        mv = vectors.mixed(alpha)
        impacts, bounds = mv.impacts, mv.bounds
        self._mv = mv
        self._ids = vectors.ids
        self._impacts = impacts
        self._bounds = bounds
        self._inner = inner
        self._outer = outer
        self._exclude = frozenset(exclude)
        # Excluded *positive* entries grouped by the block holding them:
        # block opens drop by id from the cached (positive-only) run,
        # and a block without excluded members costs one dict miss.
        excluded_positive = 0
        drop: dict[int, list[int]] = {}
        for dense in self._exclude:
            pos = int(np.searchsorted(self._ids, dense))
            if pos < len(self._ids) and self._ids[pos] == dense and impacts[pos] > 0.0:
                excluded_positive += 1
                drop.setdefault(pos // BLOCK_SIZE, []).append(dense)
        self._exclude_drop = drop
        #: Positive-impact entries before exclusion — the vectorized
        #: ``if view.pairs:`` emptiness test.
        self.n_pairs = mv.n_positive
        self._len = mv.n_positive - excluded_positive
        self.blocks_total = len(bounds)
        self.blocks_opened = 0
        self._scaled: list[tuple[int, float]] = []
        # Blocks in descending-bound order (bound ties by block index),
        # prescheduled in the per-α cache; _next_block walks the
        # schedule as the emission descends.
        self._block_order = mv.block_order
        self._sorted_bounds = mv.sorted_bounds
        self._next_block = 0
        # Unemitted remainders of opened blocks, each a
        # (-impact, id)-sorted (ids, impacts, -impacts) run.
        self._runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @property
    def blocks_skipped(self) -> int:
        """Blocks whose bound kept them from ever being sliced."""
        return self.blocks_total - self.blocks_opened

    def __len__(self) -> int:
        return self._len

    def _open_next_block(self) -> None:
        block = int(self._block_order[self._next_block])
        self._next_block += 1
        lo = block * BLOCK_SIZE
        if contracts_enabled():
            check_block_bound(
                float(self._bounds[block]),
                self._impacts[lo : lo + BLOCK_SIZE],
                what=f"posting block {block}",
            )
        ids, impacts, neg = self._mv.block_run(block)
        drop = self._exclude_drop.get(block)
        if drop is not None:
            # The cached run is shared across queries, so exclusion
            # filters a copy — by id, since the run is impact-sorted.
            keep = ids != drop[0]
            for dense in drop[1:]:
                keep &= ids != dense
            ids = ids[keep]
            impacts = impacts[keep]
            neg = neg[keep]
        if len(ids):
            self._runs.append((ids, impacts, neg))
        self.blocks_opened += 1

    def _refill(self) -> None:
        """Extend ``_scaled`` by at least one entry, opening blocks
        only when the next unopened bound could still interleave."""
        while True:
            exhausted = self._next_block >= self.blocks_total
            runs = self._runs
            if runs:
                if exhausted:
                    cuts = [len(run[0]) for run in runs]
                else:
                    # Each run is impact-descending: emit the per-run
                    # prefix strictly above the best unopened bound;
                    # a tie waits for that block to open first.
                    neg_bound = -float(self._sorted_bounds[self._next_block])
                    cuts = [int(run[2].searchsorted(neg_bound)) for run in runs]
                if len(runs) == 1:
                    cut = cuts[0]
                    if cut:
                        ids, impacts, neg = runs[0]
                        emit_ids, emit_impacts = ids[:cut], impacts[:cut]
                        if cut == len(ids):
                            runs.clear()
                        else:
                            runs[0] = (ids[cut:], impacts[cut:], neg[cut:])
                        self._emit(emit_ids, emit_impacts)
                        return
                elif any(cuts):
                    emit_ids = np.concatenate(
                        [run[0][:cut] for run, cut in zip(runs, cuts) if cut]
                    )
                    emit_impacts = np.concatenate(
                        [run[1][:cut] for run, cut in zip(runs, cuts) if cut]
                    )
                    self._runs = [
                        run if cut == 0 else (run[0][cut:], run[1][cut:], run[2][cut:])
                        for run, cut in zip(runs, cuts)
                        if cut < len(run[0])
                    ]
                    # Everything left behind is ≤ the bound < the chunk,
                    # so sorting the chunk alone yields the global
                    # (-impact, id) order.
                    order = np.lexsort((emit_ids, -emit_impacts))
                    self._emit(emit_ids[order], emit_impacts[order])
                    return
            if exhausted:
                raise IndexError("sorted access past the end of the source")
            self._open_next_block()

    def _emit(self, ids: np.ndarray, impacts: np.ndarray) -> None:
        self._scaled.extend(
            zip(
                ids.tolist(),
                scale_impacts(impacts, self._inner, self._outer).tolist(),
            )
        )

    def entry(self, rank: int) -> tuple[int, float]:
        """Sorted access: the ``rank``-th best eligible entry, opening
        only the blocks the merge order actually reaches."""
        scaled = self._scaled
        while len(scaled) <= rank:
            self._refill()
        return scaled[rank]

    def score(self, object_id: int) -> float:
        """Random access by dense id; missing, excluded or
        non-positive entries score 0."""
        if object_id in self._exclude:
            return 0.0
        pos = int(np.searchsorted(self._ids, object_id))
        if pos < len(self._ids) and self._ids[pos] == object_id:
            impact = float(self._impacts[pos])
            if impact > 0.0:
                return self._outer * (self._inner * impact)
        return 0.0

    def accumulate(self, acc: np.ndarray) -> None:
        """Add this source's scaled score for every positive entry into
        the dense accumulator — the vectorized random-access table.

        Probing ``acc`` afterwards is bit-identical to summing
        ``score()`` across sources in source order: the elementwise
        scaling is the same double ops, the fancy-index add touches each
        dense position independently (dense ids are unique within a
        posting), and sources skipped here would have contributed
        ``+0.0``, the bitwise identity for the non-negative partial sums
        involved.

        *Excluded* entries are added too — they only perturb the
        accumulator at their own dense positions, which TA never probes
        when every source in the query excludes the same ids (both
        engines do: the query object's own id).  Skipping the exclusion
        mask here lets the add run over the per-α precompacted arrays
        with no per-query mask work.
        """
        mv = self._mv
        acc[mv.pos_ids] += scale_impacts(mv.pos_impacts, self._inner, self._outer)

    def reset(self, acc: np.ndarray) -> None:
        """Zero exactly the slots :meth:`accumulate` wrote — the
        O(touched) dirty-slot reset that lets :class:`AccumulatorPool`
        return a used accumulator to the all-zeros state without an
        O(n_objects) fill."""
        acc[self._mv.pos_ids] = 0.0


def accumulate_scores(
    sources: Iterable[BlockMaxSource],
    n_objects: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Dense full-score table over ``sources`` (in source order) —
    probe with ``acc[dense_id]`` (or ``acc.tolist().__getitem__``) for
    TA random access.

    Only valid for probing ids the sources can emit: every source must
    exclude the same ids (see :meth:`BlockMaxSource.accumulate`), so an
    excluded id never reaches random access and its (deliberately
    unmasked) accumulator slot is never read.

    ``out`` supplies a preallocated **all-zeros** accumulator of length
    ``n_objects`` (from an :class:`AccumulatorPool`); accumulation into
    a pooled zeroed array performs the identical double additions as a
    fresh ``np.zeros``, so scores stay bit-identical.
    """
    if out is not None:
        acc = out
    else:
        acc = np.zeros(n_objects, dtype=np.float64)
    for source in sources:
        source.accumulate(acc)
    return acc


class AccumulatorPool:
    """Reusable dense f64 accumulators for :func:`accumulate_scores`.

    Serving builds one dense ``n_objects`` array per vectorized query;
    at steady state that is the single largest per-query allocation.
    The pool keeps a small free list of already-zeroed arrays per
    snapshot (it hangs off the snapshot's cached vector view, so a
    reload drops it with the view): :meth:`acquire` pops one or
    allocates when the pool is empty, :meth:`release` restores the
    all-zeros invariant via the per-source **dirty-slot reset**
    (``O(touched)``, not ``O(n_objects)``) before returning the array
    to the free list.

    Thread safety: request threads share the pool, so the free list is
    guarded by ``self._lock`` — held only for the list pop/append
    (never across the reset or any allocation), keeping the critical
    section allocation- and blocking-free (LK101/LK102 clean).  The
    reset itself runs on the releasing thread's exclusive array.
    """

    __slots__ = ("n_objects", "max_pooled", "_lock", "_free")

    def __init__(self, n_objects: int, max_pooled: int = 4) -> None:
        self.n_objects = n_objects
        self.max_pooled = max_pooled
        self._lock = threading.Lock()
        self._free: list[np.ndarray] = []  # lintkit: guarded-by(self._lock)

    def acquire(self) -> np.ndarray:
        """An all-zeros accumulator of length ``n_objects`` — pooled
        when one is free, freshly allocated otherwise."""
        with self._lock:
            if self._free:
                return self._free.pop()
        return np.zeros(self.n_objects, dtype=np.float64)

    def release(self, acc: np.ndarray, sources: Iterable[BlockMaxSource]) -> None:
        """Return ``acc`` to the pool after zeroing exactly the slots
        ``sources`` accumulated into.

        ``sources`` must be the same set :func:`accumulate_scores` ran
        over — their positive entries are precisely the written slots,
        so the per-source reset restores the all-zeros invariant the
        next :meth:`acquire` relies on (re-checked under
        ``REPRO_CONTRACTS=1``).  Arrays beyond ``max_pooled`` are
        dropped for the allocator to reclaim.
        """
        if len(acc) != self.n_objects:
            return
        for source in sources:
            source.reset(acc)
        if contracts_enabled() and acc.any():
            raise AssertionError(
                "pooled accumulator still dirty after per-source reset"
            )
        with self._lock:
            if len(self._free) < self.max_pooled:
                self._free.append(acc)


class _PooledViewMixin:
    """Lazy per-view :class:`AccumulatorPool` shared by every vector
    view flavour.  The view is cached on its index (one per snapshot
    generation), so the pool's lifetime — and the ``n_objects`` the
    arrays are sized for — tracks the snapshot exactly.  The benign
    publication race (two threads constructing the first pool) resolves
    by last-write-wins; each loser keeps a private, equally valid pool
    for its in-flight query.
    """

    _acc_pool: AccumulatorPool | None = None

    def accumulator_pool(self) -> AccumulatorPool:
        pool = self._acc_pool
        n_objects: int = self.n_objects  # type: ignore[attr-defined]
        if pool is None or pool.n_objects != n_objects:
            pool = AccumulatorPool(n_objects)
            self._acc_pool = pool
        return pool


class MmapVectorView(_PooledViewMixin):
    """Vector access to a v3 segment: zero-copy component views, the
    reader's cached dense-id decode, and stored block maxima (rebuilt
    in memory for artifacts written before the ``blockmax`` section)."""

    def __init__(self, reader: BinaryIndexReader) -> None:
        self._reader = reader
        self._cache: dict[str, PostingVectors | None] = {}

    @property
    def n_objects(self) -> int:
        return self._reader.n_objects

    def dense_id(self, object_id: str) -> int | None:
        return self._reader.find_object(object_id)

    def object_id(self, dense: int) -> str:
        return self._reader.object_id_at(dense)

    def vectors(self, key: str) -> PostingVectors | None:
        if key in self._cache:
            return self._cache[key]
        slot = self._reader.find_slot(key)
        if slot is None:
            self._cache[key] = None
            return None
        ids = self._reader.posting_dense_ids(slot)
        freq, smooth = self._reader.posting_components(slot)
        stored = self._reader.posting_block_max(slot)
        bmf, bms = stored if stored is not None else (None, None)
        cors = self._reader.posting_cors(slot)
        result = PostingVectors(key, cors, ids, freq, smooth, bmf, bms)
        self._cache[key] = result
        return result


class InMemoryVectorView(_PooledViewMixin):
    """Vector access over a built/deserialized in-memory index.

    Builds one sorted object-id table up front (dense id = rank, so
    dense order == string order), converts each posting to ascending
    dense-id arrays on first touch, and rebuilds block maxima in memory
    — the fallback that keeps the vectorized engine available without a
    v3 artifact.
    """

    def __init__(self, index) -> None:  # CliqueInvertedIndex; untyped to avoid a cycle
        self._index = index
        ids: set[str] = set()
        for posting in index.iter_postings():
            ids.update(posting.object_ids)
        self._table = sorted(ids)
        self._rank = {oid: dense for dense, oid in enumerate(self._table)}
        self._cache: dict[str, PostingVectors | None] = {}

    @property
    def n_objects(self) -> int:
        return len(self._table)

    def dense_id(self, object_id: str) -> int | None:
        return self._rank.get(object_id)

    def object_id(self, dense: int) -> str:
        return self._table[dense]

    def vectors(self, key: str) -> PostingVectors | None:
        if key in self._cache:
            return self._cache[key]
        posting = self._index.lookup(key)
        if posting is None:
            self._cache[key] = None
            return None
        n = len(posting)
        rank = self._rank
        dense = np.fromiter(
            (rank[oid] for oid in posting), dtype=np.int64, count=n
        )
        freq_list, smooth_list = posting.component_arrays()
        freq = np.asarray(freq_list, dtype=np.float64)
        smooth = np.asarray(smooth_list, dtype=np.float64)
        order = np.argsort(dense)
        result = PostingVectors(
            key, posting.cors, dense[order], freq[order], smooth[order]
        )
        self._cache[key] = result
        return result


def _segment_object_ids(segment) -> list[str]:
    """A segment's object ids in its local dense order (= sorted id
    order for both index flavours): straight off the id table for an
    mmap'd segment, the posting union otherwise."""
    reader = getattr(segment, "reader", None)
    if reader is not None:
        return [oid.decode("utf-8") for oid in reader.object_id_table_array().tolist()]
    ids: set[str] = set()
    for posting in segment.iter_postings():
        ids.update(posting.object_ids)
    return sorted(ids)


class SegmentedVectorView(_PooledViewMixin):
    """Vector access across a (main + delta) segment stack.

    Builds one *global* sorted object-id table over every segment
    (dense id = global rank, so dense order == string order exactly as
    in the single-segment views) plus a per-segment local→global dense
    remap.  ``vectors(key)`` resolves per segment through each
    segment's own cached view — the shared main segment keeps its
    zero-copy decodes warm across snapshot generations — then lifts the
    result into global dense ids:

    * key in **one** segment (the overwhelmingly common case): the
      segment's arrays are reused with remapped ids.  The remap is
      strictly increasing, so ascending order, block partition and the
      stored block maxima all carry over unchanged.
    * key in **several** segments: entries concatenate main-first (the
      corpus order the monolithic build would have seen) and sort by
      global dense id; block maxima are recomputed over the merged
      arrays — the same per-:data:`~repro.index.binfmt.BLOCK_SIZE`
      partition a monolithic build stores, so block bounds (and the
      pruning walk) match bit for bit.
    """

    def __init__(self, segments) -> None:  # Sequence[CliqueInvertedIndex]
        self._views = [segment.vector_view() for segment in segments]
        local_tables = [_segment_object_ids(segment) for segment in segments]
        table: set[str] = set()
        for ids in local_tables:
            table.update(ids)
        self._table = sorted(table)
        self._rank = {oid: dense for dense, oid in enumerate(self._table)}
        rank = self._rank
        self._remaps = [
            np.fromiter((rank[oid] for oid in ids), dtype=np.int64, count=len(ids))
            for ids in local_tables
        ]
        self._cache: dict[str, PostingVectors | None] = {}

    @property
    def n_objects(self) -> int:
        return len(self._table)

    def dense_id(self, object_id: str) -> int | None:
        return self._rank.get(object_id)

    def object_id(self, dense: int) -> str:
        return self._table[dense]

    def vectors(self, key: str) -> PostingVectors | None:
        if key in self._cache:
            return self._cache[key]
        parts: list[tuple[np.ndarray, PostingVectors]] = []
        for view, remap in zip(self._views, self._remaps):
            pv = view.vectors(key)
            if pv is not None:
                parts.append((remap, pv))
        result: PostingVectors | None
        if not parts:
            result = None
        elif len(parts) == 1:
            remap, pv = parts[0]
            result = PostingVectors(
                key,
                pv.cors,
                remap[pv.ids],
                pv.freq,
                pv.smooth,
                pv.block_max_freq,
                pv.block_max_smooth,
            )
        else:
            ids = np.concatenate([remap[pv.ids] for remap, pv in parts])
            freq = np.concatenate([pv.freq for _, pv in parts])
            smooth = np.concatenate([pv.smooth for _, pv in parts])
            order = np.argsort(ids)
            result = PostingVectors(
                key, parts[0][1].cors, ids[order], freq[order], smooth[order]
            )
        self._cache[key] = result
        return result

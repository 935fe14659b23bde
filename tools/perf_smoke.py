"""CI perf-smoke gate for the impact-ordered index.

Builds a small synthetic corpus, indexes it, runs index-mode queries
through :meth:`RetrievalEngine.search_with_stats`, and enforces the two
properties the impact-ordering change bought:

* **early termination** — the Threshold Algorithm's sorted-access reads
  must stay under a budget expressed as a fraction of the total posting
  length of each query's lists (a full walk is ratio 1.0; regressing to
  one means TA's early exit stopped firing);
* **parity** — the scalar index-mode rankings stay bit-identical to the
  vectorized default path (``mode="auto"``) on every smoke query;
* **binary store** — the mmap'd artifact must open fast (load p50
  under ``--max-binary-load-ms``, default 50 ms) and serve rankings
  bit-identical to the engine it was saved from on every smoke query;
  a snapshot opened over it (``build_snapshot``, the serving load path)
  must decode no posting (``decoded_slots == 0``) — the open time and
  the lazy-cache counter are recorded;
* **vectorized scoring** — on a larger corpus (default 2,500 objects)
  the vectorized mode must beat the scalar index mode by at least
  ``--min-vectorized-speedup`` at p50 (default 2.0, i.e. half the
  latency) and stay bit-identical;
* **serving defaults** — a snapshot served off the saved corpus +
  ``index.bin`` must run the vectorized engine *by default* (payload
  reports the ``auto`` mode, a query sums a positive number of
  posting entries, provenance of the current
  :data:`~repro.index.binfmt.BINARY_FORMAT_VERSION`), and default-mode
  rankings must stay bit-identical to the scalar index walk;
* **segmented build** — the direct-to-binary sharded build
  (:func:`repro.index.segbuild.build_segmented`) must produce an
  ``index.bin`` byte-identical to the serial monolithic build + save
  (always gated), and beat it by ``--min-build-speedup`` wall-clock
  (gated only on hosts with >= 4 CPUs — shard parallelism cannot win
  on a 1-core runner, so there the speedup is recorded, not enforced);
* **incremental ingest** — publishing a ``--ingest-batch`` delta
  through :meth:`SnapshotManager.ingest` must cost at most
  ``--max-ingest-fraction`` of the full serial rebuild wall (the
  O(delta)-not-O(corpus) claim) and the batch must answer queries
  immediately from the delta segment.

Writes a machine-readable JSON artifact (latency p50/p95, access
counts, the binary artifact's size and load times) for the CI run to
upload, and exits non-zero on any violation.

Usage::

    python -m tools.perf_smoke --objects 500 --queries 50 \
        --out perf_smoke.json --budget-ratio 0.9
"""

from __future__ import annotations

import argparse
import filecmp
import gc
import json
import os
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.core.objects import MediaObject
from repro.core.retrieval import RetrievalEngine
from repro.eval import percentile, sample_queries
from repro.index.binfmt import BINARY_FORMAT_VERSION
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segbuild import build_segmented
from repro.serving.cache import ResultCache
from repro.serving.service import QueryService
from repro.serving.snapshot import SnapshotManager, build_snapshot
from repro.social.generator import GeneratorConfig, SyntheticFlickr
from repro.storage.store import load_index, save_corpus, save_index

#: Load-time repeats for stable p50/p95 on a 1-core CI runner.
LOAD_REPEATS = 5


def _binary_store_report(
    engine: RetrievalEngine, queries: list, k: int, max_load_ms: float
) -> dict:
    """Save the smoke engine's index, time its load, check
    binary-loaded ranking parity, and open it the way serving does
    (``build_snapshot``) to check that the open reads no posting."""
    with tempfile.TemporaryDirectory(prefix="perf_smoke_index_") as tmp:
        directory = Path(tmp)
        save_corpus(engine.corpus, directory)
        bin_path = save_index(engine.index, directory / "index.bin")
        bin_bytes = bin_path.stat().st_size

        start = time.perf_counter()
        snapshot = build_snapshot(directory, generation=1)
        open_seconds = time.perf_counter() - start
        assert snapshot.engine.index is not None
        opened = snapshot.engine.index.stats()
        origin = snapshot.index_provenance.origin if snapshot.index_provenance else None
        snapshot.close()

        bin_loads: list[float] = []
        for _ in range(LOAD_REPEATS):
            start = time.perf_counter()
            load_index(bin_path, engine.correlations).close()
            bin_loads.append(time.perf_counter() - start)

        loaded = RetrievalEngine(engine.corpus, build_index=False)
        loaded.adopt_index(load_index(bin_path, loaded.correlations))
        parity_failures = [
            q.object_id
            for q in queries
            if loaded.search(q, k=k) != engine.search(q, k=k, mode="index")
        ]

    load_p50_ms = percentile(bin_loads, 50.0) * 1000
    return {
        "bytes": {"binary": bin_bytes},
        "load_ms": {
            "binary_p50": load_p50_ms,
            "binary_p95": percentile(bin_loads, 95.0) * 1000,
        },
        "max_binary_load_ms": max_load_ms,
        "within_load_budget": load_p50_ms < max_load_ms,
        "parity_failures": parity_failures,
        "snapshot_open": {
            "seconds": open_seconds,
            "origin": origin,
            "decoded_slots": int(opened["decoded_slots"]),
        },
    }


def _serving_defaults_report(engine: RetrievalEngine, queries: list, k: int) -> dict:
    """Serve the smoke corpus off disk and assert the serving layer's
    defaults actually reach the vectorized engine (the stale
    ``mode="index"`` default regression class)."""
    with tempfile.TemporaryDirectory(prefix="perf_smoke_serving_") as tmp:
        directory = Path(tmp)
        save_corpus(engine.corpus, directory)
        save_index(engine.index, directory / "index.bin")
        manager = SnapshotManager(directory)
        manager.load()
        service = QueryService(manager, cache=ResultCache(256))
        snapshot = manager.current
        provenance = snapshot.index_provenance

        default_modes: set[str] = set()
        parity_failures: list[str] = []
        for query in queries:
            payload = service.search(query.object_id, k=k)
            default_modes.add(payload["mode"])
            served = [(r["object_id"], r["score"]) for r in payload["results"]]
            reference = [
                (r.object_id, r.score)
                for r in engine.search(engine.corpus.get(query.object_id), k=k, mode="index")
            ]
            if served != reference:
                parity_failures.append(query.object_id)
        _, stats = snapshot.engine.search_with_stats(
            engine.corpus.get(queries[0].object_id), k=k, mode="auto"
        )
        snapshot.close()

    return {
        "default_modes": sorted(default_modes),
        "default_is_vectorized": default_modes == {"auto"},
        "provenance": {
            "origin": provenance.origin if provenance else None,
            "format_version": provenance.format_version if provenance else None,
        },
        "served_from_binary_artifact": bool(
            provenance
            and provenance.origin == "loaded"
            and provenance.format_version == BINARY_FORMAT_VERSION
        ),
        "entries_summed": stats.total_posting_entries,
        "entries_visible": stats.total_posting_entries > 0,
        "parity_failures": parity_failures,
    }


def _timed(fn, *args, **kwargs):
    """``(elapsed_seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


class _GcPauses:
    """Collector pauses while registered in ``gc.callbacks``: total
    seconds and collections per generation."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1
            self._started = None

    def __enter__(self) -> "_GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)


def _vectorized_report(
    n_objects: int, n_queries: int, k: int, seed: int, min_speedup: float, workers: int
) -> dict:
    """Time scalar ``index`` mode against the default ``auto`` on a
    larger corpus, and check parity."""
    corpus = SyntheticFlickr(
        GeneratorConfig(n_objects=n_objects), seed=seed
    ).generate_retrieval_corpus()
    engine = RetrievalEngine(corpus, build_index=False)
    index = CliqueInvertedIndex(
        engine.correlations, max_clique_size=engine.params.max_clique_size
    ).build(corpus, n_workers=workers)
    engine.adopt_index(index)

    queries = sample_queries(corpus, n_queries=n_queries, seed=seed)
    # Warm both paths off the clock: the vector view's decoded postings,
    # which the scalar walk and the vectorized kernel both read.
    for query in queries:
        engine.search(query, k=k, mode="index")
        engine.search(query, k=k, mode="auto")

    scalar: list[float] = []
    vectorized: list[float] = []
    parity_failures: list[str] = []
    for query in queries:
        # Best-of-3 per query: the gate compares the two paths' costs,
        # so per-run scheduler noise (the machine is shared with the
        # index-build workers' teardown etc.) must not decide it.
        scalar.append(
            min(
                _timed(engine.search, query, k=k, mode="index")[0]
                for _ in range(3)
            )
        )
        best = min(
            (
                _timed(engine.search_with_stats, query, k=k, mode="auto")
                for _ in range(3)
            ),
            key=lambda timed: timed[0],
        )
        vectorized.append(best[0])
        results, _ = best[1]
        if results != engine.search(query, k=k, mode="index"):
            parity_failures.append(query.object_id)

    scalar_p50 = percentile(scalar, 50.0) * 1000
    vec_p50 = percentile(vectorized, 50.0) * 1000
    speedup = scalar_p50 / vec_p50 if vec_p50 else 0.0
    return {
        "n_objects": n_objects,
        "n_queries": len(queries),
        "latency_ms": {
            "scalar_p50": scalar_p50,
            "scalar_p95": percentile(scalar, 95.0) * 1000,
            "vectorized_p50": vec_p50,
            "vectorized_p95": percentile(vectorized, 95.0) * 1000,
            "speedup_p50": speedup,
        },
        "min_speedup_p50": min_speedup,
        "fast_enough": speedup >= min_speedup,
        "parity_failures": parity_failures,
    }


def _build_ingest_report(
    n_objects: int,
    seed: int,
    workers: int,
    min_speedup: float,
    ingest_batch: int,
    max_ingest_fraction: float,
) -> dict:
    """Time the serial monolithic build+save against the sharded
    direct-to-binary build, gate byte identity, then price an
    O(delta) ingest against the full-rebuild wall it avoids."""
    corpus = SyntheticFlickr(
        GeneratorConfig(n_objects=n_objects), seed=seed
    ).generate_retrieval_corpus()
    probe = RetrievalEngine(corpus, build_index=False)
    model = probe.correlations
    max_clique = probe.params.max_clique_size
    with tempfile.TemporaryDirectory(prefix="perf_smoke_build_") as tmp:
        directory = Path(tmp)

        def serial_build():
            index = CliqueInvertedIndex(model, max_clique_size=max_clique).build(
                corpus
            )
            save_index(index, directory / "mono.bin")
            return index

        serial_seconds, index = _timed(serial_build)
        segmented_seconds, segmented = _timed(
            build_segmented,
            list(corpus),
            model,
            max_clique_size=max_clique,
            n_workers=workers,
            out_path=directory / "segmented.bin",
        )
        identical = filecmp.cmp(
            segmented.out_path, directory / "mono.bin", shallow=False
        )
        speedup = serial_seconds / segmented_seconds if segmented_seconds else 0.0
        # Shard parallelism cannot beat a serial build without cores to
        # run the shards on; the byte-identity gate holds regardless.
        cpu_count = os.cpu_count() or 1
        enforced = workers > 1 and cpu_count >= 4

        # Ingest: publish a delta batch into a snapshot served off the
        # very corpus the build stage produced.  Best-of-3 with a fresh
        # manager per trial (cold model cache each time): the gate
        # prices the delta path, not GC pauses left over from the
        # parallel-build stage sharing this process.  A full collection
        # runs untimed before each trial (a generation-2 pass that
        # falls inside one costs several times the ingest itself), and
        # each trial's remaining collector pauses are recorded.
        serve_dir = directory / "serving"
        save_corpus(corpus, serve_dir)
        save_index(index, serve_dir / "index.bin")
        objects = list(corpus)
        trials: list[float] = []
        trial_gc: list[dict] = []
        for trial in range(3):
            manager = SnapshotManager(serve_dir)
            manager.load()
            extras = [
                MediaObject(
                    object_id=f"ingest-{trial}-{i:05d}",
                    features=Counter(objects[i].features),
                    timestamp=objects[i].timestamp,
                )
                for i in range(ingest_batch)
            ]
            gc.collect()
            with _GcPauses() as pauses:
                seconds, snapshot = _timed(manager.ingest, extras, persist=False)
            trials.append(seconds)
            trial_gc.append(
                {"pause_seconds": pauses.seconds, "collections": pauses.collections}
            )
        segments = snapshot.engine.index.segment_stats()
        searchable = bool(snapshot.engine.search(extras[0], k=5))
        snapshot.close()
        ingest_seconds = min(trials)

    fraction = ingest_seconds / serial_seconds if serial_seconds else 1.0
    return {
        "n_objects": n_objects,
        "workers": workers,
        "cpu_count": cpu_count,
        "build_seconds": {
            "serial_monolithic": serial_seconds,
            "segmented": segmented_seconds,
            "shard": segmented.shard_seconds,
            "merge": segmented.merge_seconds,
            "speedup": speedup,
        },
        "n_segments": segmented.n_segments,
        "segment_bytes": list(segmented.segment_bytes),
        "shard_peak_rss_kb": list(segmented.shard_peak_rss_kb),
        "bytes_identical": identical,
        "min_build_speedup": min_speedup,
        "speedup_gate_enforced": enforced,
        "fast_enough": speedup >= min_speedup if enforced else True,
        "ingest": {
            "batch": ingest_batch,
            "seconds": ingest_seconds,
            "trial_seconds": trials,
            "trial_gc": trial_gc,
            "fraction_of_rebuild": fraction,
            "max_fraction": max_ingest_fraction,
            "within_budget": fraction < max_ingest_fraction,
            "searchable": searchable,
            "segments": segments,
        },
    }


def run_smoke(
    n_objects: int = 500,
    n_queries: int = 50,
    k: int = 10,
    budget_ratio: float = 0.9,
    seed: int = 7,
    max_binary_load_ms: float = 50.0,
    vectorized_objects: int = 2500,
    vectorized_queries: int = 30,
    min_vectorized_speedup: float = 2.0,
    index_workers: int = 4,
    build_objects: int = 2500,
    min_build_speedup: float = 2.0,
    ingest_batch: int = 100,
    max_ingest_fraction: float = 0.05,
) -> dict:
    """Run the smoke workload; the returned report carries ``ok``."""
    corpus = SyntheticFlickr(
        GeneratorConfig(n_objects=n_objects), seed=seed
    ).generate_retrieval_corpus()

    build_start = time.perf_counter()
    engine = RetrievalEngine(corpus)
    build_seconds = time.perf_counter() - build_start

    queries = sample_queries(corpus, n_queries=n_queries, seed=seed)
    samples: list[float] = []
    sorted_accesses = 0
    total_entries = 0
    parity_failures = []
    for query in queries:
        start = time.perf_counter()
        results, stats = engine.search_with_stats(query, k=k)
        samples.append(time.perf_counter() - start)
        sorted_accesses += stats.sorted_accesses
        total_entries += stats.total_posting_entries
        if results != engine.search(query, k=k, mode="auto"):
            parity_failures.append(query.object_id)

    binary_index = _binary_store_report(engine, queries, k, max_binary_load_ms)
    serving_defaults = _serving_defaults_report(engine, queries[:10], k)
    vectorized = _vectorized_report(
        vectorized_objects,
        vectorized_queries,
        k,
        seed,
        min_vectorized_speedup,
        index_workers,
    )
    segmented_build = _build_ingest_report(
        build_objects,
        seed,
        index_workers,
        min_build_speedup,
        ingest_batch,
        max_ingest_fraction,
    )

    ratio = sorted_accesses / total_entries if total_entries else 0.0
    within_budget = ratio < budget_ratio
    binary_ok = (
        binary_index["within_load_budget"]
        and not binary_index["parity_failures"]
        and binary_index["snapshot_open"]["origin"] == "loaded"
        and binary_index["snapshot_open"]["decoded_slots"] == 0
    )
    vectorized_ok = (
        vectorized["fast_enough"]
        and not vectorized["parity_failures"]
    )
    serving_ok = (
        serving_defaults["default_is_vectorized"]
        and serving_defaults["served_from_binary_artifact"]
        and serving_defaults["entries_visible"]
        and not serving_defaults["parity_failures"]
    )
    build_ok = (
        segmented_build["bytes_identical"]
        and segmented_build["fast_enough"]
        and segmented_build["ingest"]["within_budget"]
        and segmented_build["ingest"]["searchable"]
    )
    return {
        "gate": "perf_smoke",
        "ok": within_budget
        and not parity_failures
        and binary_ok
        and vectorized_ok
        and serving_ok
        and build_ok,
        "n_objects": n_objects,
        "n_queries": len(queries),
        "k": k,
        "index_build_seconds": build_seconds,
        "latency_ms": {
            "p50": percentile(samples, 50.0) * 1000,
            "p95": percentile(samples, 95.0) * 1000,
            "mean": sum(samples) / len(samples) * 1000,
        },
        "ta_access": {
            "sorted_accesses": sorted_accesses,
            "total_posting_entries": total_entries,
            "ratio": ratio,
            "budget_ratio": budget_ratio,
            "within_budget": within_budget,
        },
        "parity_failures": parity_failures,
        "binary_index": binary_index,
        "serving_defaults": serving_defaults,
        "vectorized": vectorized,
        "segmented_build": segmented_build,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=500)
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument(
        "--budget-ratio",
        type=float,
        default=0.9,
        help="sorted accesses must stay under this fraction of total posting length",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--max-binary-load-ms",
        type=float,
        default=50.0,
        help="binary index mmap-load p50 must stay under this many milliseconds",
    )
    parser.add_argument(
        "--vectorized-objects",
        type=int,
        default=2500,
        help="corpus size for the vectorized-vs-scalar stage",
    )
    parser.add_argument(
        "--vectorized-queries",
        type=int,
        default=30,
        help="timed queries in the vectorized-vs-scalar stage",
    )
    parser.add_argument(
        "--min-vectorized-speedup",
        type=float,
        default=2.0,
        help="vectorized p50 must beat scalar index p50 by this factor",
    )
    parser.add_argument(
        "--index-workers",
        type=int,
        default=4,
        help="parallel shards for the vectorized and segmented-build stages",
    )
    parser.add_argument(
        "--build-objects",
        type=int,
        default=2500,
        help="corpus size for the segmented-vs-serial build stage",
    )
    parser.add_argument(
        "--min-build-speedup",
        type=float,
        default=2.0,
        help="segmented build must beat the serial build by this factor "
        "(enforced only on hosts with >= 4 CPUs)",
    )
    parser.add_argument(
        "--ingest-batch",
        type=int,
        default=100,
        help="objects published through SnapshotManager.ingest",
    )
    parser.add_argument(
        "--max-ingest-fraction",
        type=float,
        default=0.05,
        help="ingest wall must stay under this fraction of the serial rebuild",
    )
    parser.add_argument("--out", type=Path, default=None, help="JSON artifact path")
    args = parser.parse_args(argv)

    report = run_smoke(
        n_objects=args.objects,
        n_queries=args.queries,
        k=args.k,
        budget_ratio=args.budget_ratio,
        seed=args.seed,
        max_binary_load_ms=args.max_binary_load_ms,
        vectorized_objects=args.vectorized_objects,
        vectorized_queries=args.vectorized_queries,
        min_vectorized_speedup=args.min_vectorized_speedup,
        index_workers=args.index_workers,
        build_objects=args.build_objects,
        min_build_speedup=args.min_build_speedup,
        ingest_batch=args.ingest_batch,
        max_ingest_fraction=args.max_ingest_fraction,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)

    access = report["ta_access"]
    if not access["within_budget"]:
        print(
            f"perf-smoke FAIL: TA read {access['sorted_accesses']} of "
            f"{access['total_posting_entries']} posting entries "
            f"(ratio {access['ratio']:.3f} >= budget {access['budget_ratio']:.3f})",
            file=sys.stderr,
        )
        return 1
    if report["parity_failures"]:
        print(
            f"perf-smoke FAIL: {len(report['parity_failures'])} queries diverged "
            f"from the vectorized default path: {report['parity_failures'][:5]}",
            file=sys.stderr,
        )
        return 1
    binary = report["binary_index"]
    if not binary["within_load_budget"]:
        print(
            f"perf-smoke FAIL: binary index load p50 "
            f"{binary['load_ms']['binary_p50']:.1f} ms >= budget "
            f"{binary['max_binary_load_ms']:.1f} ms",
            file=sys.stderr,
        )
        return 1
    if binary["parity_failures"]:
        print(
            f"perf-smoke FAIL: {len(binary['parity_failures'])} queries from the "
            f"binary-loaded index diverged from the built engine: "
            f"{binary['parity_failures'][:5]}",
            file=sys.stderr,
        )
        return 1
    opened = binary["snapshot_open"]
    if opened["origin"] != "loaded" or opened["decoded_slots"]:
        print(
            f"perf-smoke FAIL: snapshot open over index.bin (origin "
            f"{opened['origin']!r}) decoded {opened['decoded_slots']} "
            f"postings; the open must read none",
            file=sys.stderr,
        )
        return 1
    serving = report["serving_defaults"]
    if not serving["default_is_vectorized"]:
        print(
            f"perf-smoke FAIL: default serving mode was "
            f"{serving['default_modes']} instead of ['auto']",
            file=sys.stderr,
        )
        return 1
    if not serving["served_from_binary_artifact"]:
        print(
            f"perf-smoke FAIL: snapshot did not pick up a v{BINARY_FORMAT_VERSION} "
            f"binary artifact (provenance {serving['provenance']})",
            file=sys.stderr,
        )
        return 1
    if not serving["entries_visible"]:
        print(
            "perf-smoke FAIL: served auto-mode query summed no posting entries "
            "(need > 0)",
            file=sys.stderr,
        )
        return 1
    if serving["parity_failures"]:
        print(
            f"perf-smoke FAIL: {len(serving['parity_failures'])} default-mode "
            f"served queries diverged from the scalar index walk: "
            f"{serving['parity_failures'][:5]}",
            file=sys.stderr,
        )
        return 1
    vec = report["vectorized"]
    if not vec["fast_enough"]:
        print(
            f"perf-smoke FAIL: vectorized p50 "
            f"{vec['latency_ms']['vectorized_p50']:.2f} ms is only "
            f"{vec['latency_ms']['speedup_p50']:.2f}x the scalar index p50 "
            f"{vec['latency_ms']['scalar_p50']:.2f} ms "
            f"(need >= {vec['min_speedup_p50']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    if vec["parity_failures"]:
        print(
            f"perf-smoke FAIL: {len(vec['parity_failures'])} vectorized queries "
            f"diverged from the scalar index walk: {vec['parity_failures'][:5]}",
            file=sys.stderr,
        )
        return 1
    build = report["segmented_build"]
    if not build["bytes_identical"]:
        print(
            f"perf-smoke FAIL: segmented build ({build['n_segments']} segments, "
            f"{build['workers']} workers) is not byte-identical to the serial "
            f"monolithic index.bin",
            file=sys.stderr,
        )
        return 1
    if not build["fast_enough"]:
        print(
            f"perf-smoke FAIL: segmented build took "
            f"{build['build_seconds']['segmented']:.2f} s, only "
            f"{build['build_seconds']['speedup']:.2f}x the serial "
            f"{build['build_seconds']['serial_monolithic']:.2f} s "
            f"(need >= {build['min_build_speedup']:.2f}x on "
            f"{build['cpu_count']} CPUs)",
            file=sys.stderr,
        )
        return 1
    ingest = build["ingest"]
    if not ingest["within_budget"]:
        print(
            f"perf-smoke FAIL: ingest of {ingest['batch']} objects took "
            f"{ingest['seconds']:.2f} s = {ingest['fraction_of_rebuild']:.3f} "
            f"of the full rebuild (budget {ingest['max_fraction']:.3f}) — "
            f"the delta path is not O(batch)",
            file=sys.stderr,
        )
        return 1
    if not ingest["searchable"]:
        print(
            "perf-smoke FAIL: an object published via ingest answered no "
            "queries from the delta segment",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    raise SystemExit(main())

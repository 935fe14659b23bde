"""The ``build`` and ``query`` workloads, each run in a fresh child
process so that set-up time and peak RSS are the work's own.

Usage: ``python -m pbench.child '<json spec>'``; the result is one JSON
object on the last stdout line.  The spec names the workload, whether
to stop after set-up (``setup_only``), the prepared corpus, an output
directory, the seed, the measuring window in seconds and whether to
trace.

Both workloads spread their operations evenly over the window (an
operation that falls behind runs at once): host speed on a shared
machine drifts by tens of percent over seconds, and a median taken
across the whole window varies far less from run to run than one taken
over a burst.  A traced run skips the pacing: it compares the busy time
of an untraced pass with that of a traced one.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from pbench.measure import P50, P90, Tally, interleave, percentile
from pbench.tracing import Tracer, maybe_span, wait_until

#: Objects per ``CliqueInvertedIndex.build`` call in the build workload:
#: the ingest batch size, and 100 batches give p90 ten samples beyond.
BUILD_BATCH = 20
#: First-touch searches in the query workload.
N_QUERIES = 400
#: Sampled postings compared after the index read-back.
N_VERIFY_POSTINGS = 200
#: Searches / users re-run on the scalar TA path as the parity check.
N_PARITY_QUERIES = 20
N_PARITY_USERS = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ----------------------------------------------------------------------
# build: load_corpus -> CliqueInvertedIndex.build -> save_index -> verify
# ----------------------------------------------------------------------
def _entries(posting: Any) -> list[tuple[str, float, float]]:
    freq, smooth = posting.component_arrays()
    return sorted(zip(posting.object_ids, freq, smooth))


def _same_cors(a: float | None, b: float | None) -> bool:
    def missing(x: float | None) -> bool:
        return x is None or math.isnan(x)

    return missing(a) and missing(b) if missing(a) or missing(b) else a == b


def _verify_index(
    index: Any, path: Path, correlations: Any, seed: int, tally: Tally, tracer: Tracer | None
) -> None:
    """Re-open the written artifact (mmap + CRC sweep) and compare it
    with the in-memory index: counts, and a seeded sample of postings
    entry by entry."""
    from repro.storage.store import load_index

    with maybe_span(tracer, "storage.load_index"):
        reloaded = load_index(path, correlations, verify_payload=True)
    try:
        want, got = index.stats(), reloaded.stats()
        for field in ("n_objects", "n_cliques", "total_postings"):
            tally.check(want[field] == got[field], f"read-back {field}: {got[field]} != {want[field]}")
        postings = list(index.iter_postings())
        sample = random.Random(seed).sample(postings, min(N_VERIFY_POSTINGS, len(postings)))
        for posting in sample:
            loaded = reloaded.lookup(posting.key)
            tally.check(
                loaded is not None
                and _same_cors(posting.cors, loaded.cors)
                and _entries(posting) == _entries(loaded),
                f"read-back posting {posting.key!r} differs",
            )
    finally:
        reloaded.close()


def _build_pass(
    corpus: Any, out: Path, seed: int, seconds: float, tracer: Tracer | None
) -> dict[str, Any]:
    """The offline path with its 20-object batches paced over
    ``seconds``; a traced pass times every ``add_object`` call."""
    from repro.core.retrieval import RetrievalEngine
    from repro.index.inverted import CliqueInvertedIndex
    from repro.storage.store import save_index

    tally = Tally()
    objects = list(corpus)
    batches = [objects[i : i + BUILD_BATCH] for i in range(0, len(objects), BUILD_BATCH)]
    batch_ms: list[float] = []
    object_ms: list[float] = []
    t0 = time.perf_counter()
    with maybe_span(tracer, "core.correlation.model"):
        engine = RetrievalEngine(corpus, build_index=False)
    busy = time.perf_counter() - t0
    index = CliqueInvertedIndex(engine.correlations, max_clique_size=engine.params.max_clique_size)
    start = time.perf_counter()
    for i, batch in enumerate(batches):
        wait_until(start + i * seconds / len(batches), tracer)
        t0 = time.perf_counter()
        if tracer is None:
            index.build(batch)
        else:
            with tracer.span("index.build"):
                for obj in batch:
                    o0 = time.perf_counter()
                    index.add_object(obj)
                    o1 = time.perf_counter()
                    tracer.record("index.add_object", o0, o1, request=obj.object_id)
                    object_ms.append(_ms(o1 - o0))
        batch_ms.append(_ms(time.perf_counter() - t0))
        tally.ok()
    t0 = time.perf_counter()
    with maybe_span(tracer, "storage.save_index"):
        path = save_index(index, out / "index.bin")
    with maybe_span(tracer, "storage.verify_index"):
        _verify_index(index, path, engine.correlations, seed, tally, tracer)
    busy += sum(batch_ms) / 1000.0 + time.perf_counter() - t0
    stats = index.stats()
    return {
        "tally": tally,
        "busy_s": busy,
        "batch_ms": batch_ms,
        "object_ms": object_ms,
        "n_objects": len(objects),
        "cliques": stats["n_cliques"],
        "postings": stats["total_postings"],
        "index_bytes": path.stat().st_size,
        "pairs": engine.correlations.cache_size(),
    }


def run_build(spec: dict[str, Any]) -> dict[str, Any]:
    from repro.storage.store import load_corpus

    tracer = Tracer() if spec["trace"] else None
    out = Path(spec["out_dir"])
    result: dict[str, Any] = {}
    if tracer is None:
        corpus = load_corpus(spec["corpus_dir"])
        result["setup_done"] = time.monotonic()
        if spec["setup_only"]:
            return result
        work = _build_pass(corpus, out, spec["seed"], spec["seconds"], None)
    else:
        # Both passes run unpaced: the overhead ratio compares busy times.
        reference = _build_pass(load_corpus(spec["corpus_dir"]), out, spec["seed"], 0.0, None)
        window_start = time.perf_counter()
        with tracer.span("storage.load_corpus"):
            corpus = load_corpus(spec["corpus_dir"])
        work = _build_pass(corpus, out, spec["seed"], 0.0, tracer)
        window_end = time.perf_counter()
        result["layers"] = {
            "storage.load_corpus_s": tracer.total("storage.load_corpus"),
            "core.correlation.model_s": tracer.total("core.correlation.model"),
            "index.build_s": tracer.total("index.build"),
            "index.object_p50_ms": percentile(work["object_ms"], P50).value,
            "index.object_p90_ms": percentile(work["object_ms"], P90).value,
            "storage.save_index_s": tracer.total("storage.save_index"),
            "storage.verify_index_s": tracer.total("storage.verify_index"),
            "storage.load_index_s": tracer.total("storage.load_index"),
            "trace.overhead_ratio": work["busy_s"] / reference["busy_s"],
            "trace.unattributed_s": tracer.unattributed(window_start, window_end),
        }
        result["self_times"] = tracer.self_times()
        tracer.dump(out / "spans.jsonl")
    n = work["n_objects"]
    result.update(
        tally=vars(work["tally"]),
        ops_ms=work["batch_ms"],
        peak_rss_mb=_peak_rss_mb(),
        throughput_per_s=n / work["busy_s"],
        figures={
            "build_objects_per_s": n / work["busy_s"],
            "index_bytes_per_object": work["index_bytes"] / n,
        },
        counts={
            "index.cliques": work["cliques"],
            "index.postings": work["postings"],
            "index.cliques_per_object": work["cliques"] / n,
            "core.correlation.pairs": work["pairs"],
        },
    )
    return result


# ----------------------------------------------------------------------
# query: build_snapshot -> 400 first-touch searches + every user recommended
# ----------------------------------------------------------------------
def _check_ranking(
    results: list[Any], exclude: str | None, allowed: Any, tally: Tally, what: str
) -> None:
    ids = [r.object_id for r in results]
    order = sorted(results, key=lambda r: (-r.score, r.object_id))
    tally.check(
        0 < len(results) <= 10
        and results == order
        and len(set(ids)) == len(ids)
        and exclude not in ids
        and all(i in allowed and math.isfinite(r.score) for i, r in zip(ids, results)),
        f"{what}: malformed ranking",
    )


def traced_snapshot(corpus_dir: Path, tracer: Tracer) -> tuple[Any, Any, Any]:
    """``build_snapshot``'s steps, each in its layer's span."""
    from repro.core.mrf import MRFParameters
    from repro.core.recommendation import Recommender
    from repro.core.retrieval import RetrievalEngine
    from repro.storage.store import load_corpus, load_index

    params = MRFParameters()
    with tracer.span("storage.load_corpus"):
        corpus = load_corpus(corpus_dir)
    with tracer.span("core.correlation.model"):
        engine = RetrievalEngine(corpus, params=params, build_index=False)
    with tracer.span("storage.load_index"):
        index = load_index(corpus_dir / "index.bin", engine.correlations, verify_payload=True)
    with tracer.span("index.precompute_impact"):
        engine.adopt_index(index)
    with tracer.span("core.recommendation.init"):
        recommender = Recommender(corpus, params=params)
    return corpus, engine, recommender


def _query_pass(spec: dict[str, Any], tracer: Tracer | None) -> dict[str, Any]:
    from repro.eval import FavoriteOracle, TopicOracle, sample_queries
    from repro.eval.metrics import precision_at_n
    from repro.serving.snapshot import build_snapshot

    corpus_dir = Path(spec["corpus_dir"])
    started = time.perf_counter()
    if tracer is None:
        snapshot = build_snapshot(corpus_dir, generation=1)
        corpus, engine, recommender = snapshot.corpus, snapshot.engine, snapshot.recommender
    else:
        corpus, engine, recommender = traced_snapshot(corpus_dir, tracer)
    result: dict[str, Any] = {"setup_done": time.monotonic()}
    if spec["setup_only"]:
        return result
    setup_s = time.perf_counter() - started

    tally = Tally()
    queries = sample_queries(corpus, n_queries=N_QUERIES, seed=spec["seed"])
    oracle = FavoriteOracle(corpus, recommender.split.evaluation)
    users = oracle.users()
    ops = interleave(queries, users)
    search_ms: list[float] = []
    rec_ms: list[float] = []
    rankings: list[Any] = []
    recs: list[Any] = []
    access: list[Any] = []
    start = time.perf_counter()
    for i, (kind, item) in enumerate(ops):
        wait_until(start + i * spec["seconds"] / len(ops), tracer)
        t0 = time.perf_counter()
        if kind == "primary" and tracer is None:
            rankings.append(engine.search(item, k=10))
        elif kind == "primary":
            with tracer.span("search", request=item.object_id):
                with tracer.span("core.fig.query_cliques", request=item.object_id):
                    engine.query_cliques(item)
                with tracer.span("index.ta", request=item.object_id):
                    results, stats = engine.search_with_stats(item, k=10, mode="auto")
            rankings.append(results)
            access.append(stats)
        elif tracer is None:
            recs.append(recommender.recommend(item, k=10))
        else:
            with tracer.span("recommend", request=item):
                with tracer.span("core.recommendation.profile", request=item):
                    recommender.profile_for(item)
                with tracer.span("core.recommendation.rank", request=item):
                    recs.append(recommender.recommend(item, k=10))
        (search_ms if kind == "primary" else rec_ms).append(_ms(time.perf_counter() - t0))

    with maybe_span(tracer, "bench.check"):
        topics = TopicOracle(corpus)
        p10 = [
            precision_at_n([r.object_id for r in res], topics.relevance_fn(q.object_id), 10)
            for q, res in zip(queries, rankings)
        ]
        rec_p10 = [
            precision_at_n([r.object_id for r in res], oracle.relevance_fn(u), 10)
            for u, res in zip(users, recs)
        ]
        for q, res in zip(queries, rankings):
            _check_ranking(res, q.object_id, corpus, tally, f"search {q.object_id}")
        candidates = {o.object_id for o in recommender.candidates}
        for u, res in zip(users, recs):
            _check_ranking(res, None, candidates, tally, f"recommend {u}")
        # The scalar TA walk ranks bit-identically to the default path.
        rng = random.Random(spec["seed"])
        for i in rng.sample(range(len(queries)), min(N_PARITY_QUERIES, len(queries))):
            scalar = engine.search(queries[i], k=10, mode="index")
            tally.check(scalar == rankings[i], f"search {queries[i].object_id}: scalar path differs")
        for i in rng.sample(range(len(users)), min(N_PARITY_USERS, len(users))):
            scalar = recommender.recommend(users[i], k=10, mode="index")
            tally.check(scalar == recs[i], f"recommend {users[i]}: scalar path differs")
    stats = engine.index.stats()
    result.update(
        tally=tally,
        busy_s=setup_s + (sum(search_ms) + sum(rec_ms)) / 1000.0,
        search_ms=search_ms,
        rec_ms=rec_ms,
        rankings=[[(r.object_id, r.score) for r in res] for res in rankings],
        access=access,
        p_at_10=statistics.fmean(p10),
        rec_p_at_10=statistics.fmean(rec_p10),
        cliques=stats["n_cliques"],
        postings=stats["total_postings"],
        n_objects=len(corpus),
        pairs=engine.correlations.cache_size(),
    )
    return result


def _query_layers(tracer: Tracer, access: list[Any]) -> dict[str, float]:
    def median_ms(name: str) -> float:
        return statistics.median(_ms(s.duration) for s in tracer.named(name))

    sorted_acc = sum(a.sorted_accesses for a in access)
    entries = sum(a.total_posting_entries for a in access)
    blocks = sum(a.blocks_total for a in access)
    return {
        "storage.load_corpus_s": tracer.total("storage.load_corpus"),
        "core.correlation.model_s": tracer.total("core.correlation.model"),
        "storage.load_index_s": tracer.total("storage.load_index"),
        "index.precompute_impact_s": tracer.total("index.precompute_impact"),
        "core.recommendation.init_s": tracer.total("core.recommendation.init"),
        "core.fig.query_cliques_ms": median_ms("core.fig.query_cliques"),
        "index.ta_ms": median_ms("index.ta"),
        "index.sources_per_query": statistics.fmean(a.n_sources for a in access),
        "index.sorted_accesses_per_query": sorted_acc / len(access),
        "index.random_accesses_per_query": statistics.fmean(a.random_accesses for a in access),
        "index.touched_ratio": sorted_acc / entries if entries else 0.0,
        "index.blocks_skipped_ratio": (
            sum(a.blocks_skipped for a in access) / blocks if blocks else 0.0
        ),
        "core.recommendation.profile_ms": median_ms("core.recommendation.profile"),
        "core.recommendation.rank_ms": median_ms("core.recommendation.rank"),
    }


def run_query(spec: dict[str, Any]) -> dict[str, Any]:
    tracer = Tracer() if spec["trace"] else None
    result: dict[str, Any] = {}
    if tracer is None:
        work = _query_pass(spec, None)
        if spec["setup_only"]:
            return work
    else:
        # Both passes run unpaced: the overhead ratio compares busy times.
        spec = dict(spec, seconds=0.0)
        reference = _query_pass(spec, None)
        window_start = time.perf_counter()
        work = _query_pass(spec, tracer)
        window_end = time.perf_counter()
        work["tally"].check(
            work["rankings"] == reference["rankings"], "traced rankings differ from untraced"
        )
        result["layers"] = dict(
            _query_layers(tracer, work["access"]),
            **{
                "trace.overhead_ratio": work["busy_s"] / reference["busy_s"],
                "trace.unattributed_s": tracer.unattributed(window_start, window_end),
            },
        )
        result["self_times"] = tracer.self_times()
        tracer.dump(Path(spec["out_dir"]) / "spans.jsonl")
    n = work["n_objects"]
    result.update(
        setup_done=work["setup_done"],
        tally=vars(work["tally"]),
        ops_ms=work["search_ms"],
        peak_rss_mb=_peak_rss_mb(),
        throughput_per_s=len(work["search_ms"]) / (sum(work["search_ms"]) / 1000.0),
        figures={
            "search_p50_ms": percentile(work["search_ms"], P50).value,
            "search_p90_ms": percentile(work["search_ms"], P90).value,
            "recommend_p50_ms": percentile(work["rec_ms"], P50).value,
            "p_at_10": work["p_at_10"],
            "rec_p_at_10": work["rec_p_at_10"],
        },
        counts={
            "index.cliques": work["cliques"],
            "index.postings": work["postings"],
            "index.cliques_per_object": work["cliques"] / n,
            "core.correlation.pairs": work["pairs"],
        },
    )
    return result


WORKLOADS = {"build": run_build, "query": run_query}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    result = WORKLOADS[spec["workload"]](spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Serving throughput — QPS and tail latency of the HTTP subsystem.

Not a paper figure: this bench characterises the online serving layer
added on top of the batch engines.  It stands up `repro.serving` over a
synthetic retrieval corpus, drives it with concurrent keep-alive HTTP
clients, and reports QPS plus p50/p95 latency for two phases:

* cold  — every request is a distinct query (cache misses, full MRF
  scoring per request);
* warm  — requests resample a small query set (mostly LRU cache hits).

The gap between the phases is the measured value of the result cache.

Beyond the single-process baseline, the CLI sweeps prefork worker
counts (``--workers 1 2 4``): each configuration serves the same saved
corpus + ``index.bin`` artifact through :class:`PreforkServer`, so the
sweep measures how far the shared-mmap fork model scales and checks
that a fixed default-mode query answers bit-identically at every worker
count.  ``--gate R`` (opt-in — meaningless on the 1-core CI runner)
fails the run unless the largest pool's cold QPS is at least ``R``
times the single-worker cold QPS.

Unlike the figure benches, the artifact is machine-readable JSON
(``benchmarks/results/serving_throughput.json``) so the numbers can be
tracked across commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import _harness as H
from repro.core.retrieval import RetrievalEngine
from repro.index.inverted import CliqueInvertedIndex
from repro.serving.cache import ResultCache
from repro.serving.http import create_server
from repro.serving.prefork import PreforkServer
from repro.serving.service import QueryService
from repro.serving.snapshot import SnapshotManager
from repro.storage.store import save_corpus, save_index

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 60
CORPUS_SIZE = 500
WARM_QUERY_POOL = 5


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _drive_clients(
    port: int,
    query_ids: list[str],
    clients: int = N_CLIENTS,
    requests: int = REQUESTS_PER_CLIENT,
) -> list[float]:
    """Each client walks its own slice of ``query_ids`` over one
    keep-alive connection; returns every request's latency in seconds."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[Exception] = []

    def client(slot: int) -> None:
        try:
            for i in range(requests):
                query = query_ids[(slot * requests + i) % len(query_ids)]
                url = f"http://127.0.0.1:{port}/search?query={query}&k=10"
                start = time.perf_counter()
                with urllib.request.urlopen(url) as response:
                    response.read()
                latencies[slot].append(time.perf_counter() - start)
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(s,)) for s in range(clients)]
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    flat = [sample for per_client in latencies for sample in per_client]
    flat.append(wall)  # smuggle the wall time out as the last element
    return flat


def _phase_stats(samples_with_wall: list[float]) -> dict:
    wall = samples_with_wall[-1]
    samples = samples_with_wall[:-1]
    return {
        "requests": len(samples),
        "qps": round(len(samples) / wall, 1),
        "p50_ms": round(_percentile(samples, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(samples, 0.95) * 1000, 3),
        "mean_ms": round(statistics.mean(samples) * 1000, 3),
    }


def _probe(port: int, query: str) -> dict:
    """One default-mode request; the payload is the parity witness."""
    url = f"http://127.0.0.1:{port}/search?query={query}&k=10"
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


def _saved_corpus_dir(corpus, directory: Path) -> Path:
    """Persist the corpus *and* the binary index so every serving
    configuration (in-process or prefork) loads the same artifact and
    forked workers share its pages through the OS page cache."""
    save_corpus(corpus, directory)
    engine = RetrievalEngine(corpus, build_index=False)
    index = CliqueInvertedIndex(
        engine.correlations, max_clique_size=engine.params.max_clique_size
    ).build(corpus)
    save_index(index, directory / "index.bin")
    return directory


def _drive_phases(
    port: int, all_ids: list[str], clients: int, requests: int
) -> tuple[dict, dict, dict]:
    cold = _phase_stats(_drive_clients(port, all_ids, clients, requests))
    warm = _phase_stats(
        _drive_clients(port, all_ids[:WARM_QUERY_POOL], clients, requests)
    )
    probe = _probe(port, all_ids[0])
    return cold, warm, probe


def _run_inprocess(corpus_dir: Path, all_ids: list[str], clients: int, requests: int) -> dict:
    """Legacy single-process path: ThreadingHTTPServer in this process."""
    manager = SnapshotManager(corpus_dir)
    manager.load()
    service = QueryService(manager, cache=ResultCache(1024))
    server = create_server(service, port=0, max_in_flight=clients * 2)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        cold, warm, probe = _drive_phases(server.port, all_ids, clients, requests)
        cache = service.cache.stats()
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        manager.current.close()
    return {
        "workers": 0,
        "model": "in-process",
        "cold": cold,
        "warm": warm,
        "cache": {"hits": cache.hits, "misses": cache.misses},
        "probe": probe,
    }


def _run_prefork(
    corpus_dir: Path, all_ids: list[str], workers: int, clients: int, requests: int
) -> dict:
    """Prefork path: supervisor + ``workers`` forked accept loops over
    the shared listening socket and mmap index."""
    pool = PreforkServer(
        corpus_dir, workers=workers, port=0, cache_size=1024,
        max_in_flight=clients * 2, grace=10.0,
    )
    pool.start()
    runner = threading.Thread(target=pool.run)
    runner.start()
    try:
        cold, warm, probe = _drive_phases(pool.port, all_ids, clients, requests)
        stats = json.loads(
            urllib.request.urlopen(
                f"http://127.0.0.1:{pool.port}/stats"
            ).read()
        )
        cache = stats.get("cache", {})
    finally:
        pool.request_shutdown()
        runner.join()
    return {
        "workers": workers,
        "model": "prefork",
        "cold": cold,
        "warm": warm,
        "cache": {"hits": cache.get("hits", 0), "misses": cache.get("misses", 0)},
        "probe": probe,
    }


def run_experiment(
    worker_counts: list[int] | None = None,
    corpus_size: int = CORPUS_SIZE,
    clients: int = N_CLIENTS,
    requests: int = REQUESTS_PER_CLIENT,
) -> dict:
    """Serve one saved corpus through each configuration and compare.

    ``worker_counts`` of ``None`` runs only the legacy in-process
    server; otherwise each entry stands up a :class:`PreforkServer`
    with that many forked workers (the in-process baseline still runs
    first so the prefork rows have a same-artifact reference).
    """
    corpus = H.retrieval_corpus(corpus_size)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = _saved_corpus_dir(corpus, Path(tmp) / "corpus")
        all_ids = [obj.object_id for obj in corpus]
        configs = [_run_inprocess(corpus_dir, all_ids, clients, requests)]
        for count in worker_counts or []:
            configs.append(_run_prefork(corpus_dir, all_ids, count, clients, requests))

    reference = configs[0]["probe"]
    parity = all(
        cfg["probe"]["mode"] == reference["mode"]
        and cfg["probe"]["results"] == reference["results"]
        for cfg in configs[1:]
    )
    prefork = [cfg for cfg in configs if cfg["model"] == "prefork"]
    scaling = None
    if len(prefork) >= 2:
        base = min(prefork, key=lambda cfg: cfg["workers"])
        peak = max(prefork, key=lambda cfg: cfg["workers"])
        if base["cold"]["qps"]:
            scaling = {
                "base_workers": base["workers"],
                "peak_workers": peak["workers"],
                "cold_qps_ratio": round(peak["cold"]["qps"] / base["cold"]["qps"], 3),
            }
    return {
        "bench": "serving_throughput",
        "corpus_size": corpus_size,
        "clients": clients,
        "requests_per_client": requests,
        "default_mode": reference["mode"],
        "parity_across_configs": parity,
        "scaling": scaling,
        "configs": configs,
        # legacy top-level keys: the in-process baseline
        "cold": configs[0]["cold"],
        "warm": configs[0]["warm"],
        "cache": configs[0]["cache"],
    }


def _report(result: dict, capsys) -> None:
    H.RESULTS_DIR.mkdir(exist_ok=True)
    artifact = H.RESULTS_DIR / "serving_throughput.json"
    artifact.write_text(json.dumps(result, indent=2) + "\n")
    lines = [
        f"== Serving throughput ({result['clients']} concurrent clients) ==",
        f"{'config':<14} {'QPS cold':>9} {'QPS warm':>9} {'p50 ms':>8} {'p95 ms':>8}",
    ]
    for cfg in result["configs"]:
        label = (
            "in-process" if cfg["model"] == "in-process"
            else f"prefork x{cfg['workers']}"
        )
        lines.append(
            f"{label:<14} {cfg['cold']['qps']:>9} {cfg['warm']['qps']:>9}"
            f" {cfg['cold']['p50_ms']:>8} {cfg['cold']['p95_ms']:>8}"
        )
    lines.append(f"default mode: {result['default_mode']}")
    lines.append(f"parity across configs: {result['parity_across_configs']}")
    if result["scaling"]:
        scaling = result["scaling"]
        lines.append(
            f"cold QPS scaling x{scaling['peak_workers']}/"
            f"x{scaling['base_workers']}: {scaling['cold_qps_ratio']}"
        )
    lines.append(f"artifact: {artifact}")
    lines.append("")
    text = "\n".join(lines)
    if capsys is not None:
        with capsys.disabled():
            print("\n" + text)
    else:
        print("\n" + text)


@pytest.mark.benchmark(group="serving")
def test_serving_throughput(benchmark, capsys):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    _report(result, capsys)

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    assert result["cold"]["requests"] == total
    assert result["warm"]["requests"] == total
    # the serving default must reach the vectorized engine
    assert result["default_mode"] == "auto"
    # the warm phase resamples a tiny pool: nearly everything hits cache
    assert result["cache"]["hits"] >= total - N_CLIENTS * WARM_QUERY_POOL
    # cached answers must not be slower than full scoring
    assert result["warm"]["p50_ms"] <= result["cold"]["p50_ms"]
    assert result["warm"]["qps"] >= result["cold"]["qps"]


@pytest.mark.benchmark(group="serving")
def test_serving_prefork_parity(benchmark, capsys):
    """Prefork answers must be bit-identical to the in-process server.

    No scaling assertion here: CI runners may expose a single core, so
    throughput gains are checked only by the opt-in ``--gate`` CLI.
    """
    result = benchmark.pedantic(
        lambda: run_experiment(
            worker_counts=[2], corpus_size=200, clients=4, requests=20
        ),
        rounds=1,
        iterations=1,
    )
    _report(result, capsys)
    assert result["parity_across_configs"]
    assert result["default_mode"] == "auto"
    prefork = [cfg for cfg in result["configs"] if cfg["model"] == "prefork"]
    assert prefork and prefork[0]["cold"]["requests"] == 4 * 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=CORPUS_SIZE)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=None,
        help="prefork worker counts to sweep (omit for in-process only)",
    )
    parser.add_argument("--clients", type=int, default=N_CLIENTS)
    parser.add_argument("--requests", type=int, default=REQUESTS_PER_CLIENT)
    parser.add_argument("--out", type=Path, default=None, help="extra JSON artifact path")
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help=(
            "opt-in: fail unless peak-worker cold QPS >= GATE x "
            "base-worker cold QPS (needs >= 2 --workers entries and a "
            "multi-core host)"
        ),
    )
    args = parser.parse_args(argv)

    result = run_experiment(
        worker_counts=args.workers,
        corpus_size=args.objects,
        clients=args.clients,
        requests=args.requests,
    )
    _report(result, None)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    if not result["parity_across_configs"]:
        print("serving-throughput FAIL: configurations disagree on the "
              "default-mode probe query", file=sys.stderr)
        return 1
    if result["default_mode"] != "auto":
        print(f"serving-throughput FAIL: default mode is "
              f"{result['default_mode']}", file=sys.stderr)
        return 1
    if args.gate is not None:
        scaling = result["scaling"]
        if scaling is None:
            print("serving-throughput FAIL: --gate needs at least two "
                  "--workers entries", file=sys.stderr)
            return 1
        if scaling["cold_qps_ratio"] < args.gate:
            print(
                f"serving-throughput FAIL: cold QPS ratio "
                f"{scaling['cold_qps_ratio']} < gate {args.gate} "
                f"({scaling['peak_workers']} vs {scaling['base_workers']} workers)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Subcommands cover the lifecycle a downstream user needs without writing
Python: generate a synthetic corpus to disk, inspect it, run retrieval
queries, produce recommendations, and evaluate retrieval quality with
the topic oracle.

Examples::

    repro generate --objects 1000 --out ./corpus
    repro info ./corpus
    repro index build ./corpus --workers 4           # binary index.bin
    repro search ./corpus --query obj000003 --k 10
    repro generate --objects 1500 --tracked-users 10 --recommendation --out ./rec
    repro recommend ./rec --user tracked000 --k 10 --delta 0.4
    repro evaluate ./corpus --queries 20
    repro serve ./corpus --port 8077
    repro ingest ./new-objects.jsonl --server http://127.0.0.1:8077

Every subcommand exits with code 2 and a one-line stderr message for
operator errors (missing/corrupt corpus directory, unknown ids,
unreachable server).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import urllib.error
import urllib.request
from collections.abc import Sequence
from pathlib import Path

from repro.core.mrf import MRFParameters
from repro.core.retrieval import RetrievalEngine
from repro.eval.oracle import TopicOracle
from repro.eval.protocol import evaluate_retrieval, sample_queries
from repro.serving.cache import ResultCache
from repro.serving.http import create_server, install_signal_handlers
from repro.serving.prefork import PreforkServer
from repro.serving.service import QueryService
from repro.serving.snapshot import SnapshotManager, build_snapshot
from repro.social.generator import GeneratorConfig, SyntheticFlickr
from repro.social.ingest import IngestConfig, IngestError, ingest_object
from repro.index.segbuild import build_segmented
from repro.storage.store import (
    StorageError,
    load_corpus,
    load_index,
    save_corpus,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiple feature fusion for social media (SIGMOD 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus and save it")
    gen.add_argument("--objects", type=int, default=1000)
    gen.add_argument("--topics", type=int, default=24)
    gen.add_argument("--users", type=int, default=400)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--tracked-users", type=int, default=0)
    gen.add_argument(
        "--recommendation",
        action="store_true",
        help="generate a recommendation corpus with favorite events",
    )
    gen.add_argument("--out", required=True, help="output directory")

    info = sub.add_parser("info", help="summarize a saved corpus")
    info.add_argument("corpus", help="corpus directory")

    index = sub.add_parser("index", help="build the clique inverted index")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser(
        "build", help="precompute the clique inverted index and save it with the corpus"
    )
    build.add_argument("corpus", help="corpus directory")
    build.add_argument(
        "--workers", type=int, default=1, help="parallel build shards (1 = serial)"
    )
    build.add_argument(
        "--no-verify-payload",
        action="store_true",
        help="skip the post-write payload checksum sweep of the artifact",
    )

    search = sub.add_parser("search", help="retrieve objects similar to a query object")
    search.add_argument("corpus", help="corpus directory")
    search.add_argument("--query", required=True, help="query object id")
    search.add_argument("--k", type=int, default=10)
    search.add_argument(
        "--mode",
        choices=("auto", "index", "scan"),
        default="auto",
        help="auto (vectorized), scalar index, or exhaustive scan "
        "— all rank bit-identically",
    )

    rec = sub.add_parser("recommend", help="recommend new objects to a user")
    rec.add_argument("corpus", help="corpus directory")
    rec.add_argument("--user", required=True)
    rec.add_argument("--k", type=int, default=10)
    rec.add_argument("--delta", type=float, default=1.0, help="temporal decay (1.0 = FIG)")

    ev = sub.add_parser("evaluate", help="P@N over sampled queries (topic oracle)")
    ev.add_argument("corpus", help="corpus directory")
    ev.add_argument("--queries", type=int, default=20)
    ev.add_argument("--seed", type=int, default=1)
    ev.add_argument("--cutoffs", type=int, nargs="+", default=[3, 5, 10, 20])

    serve = sub.add_parser("serve", help="serve retrieval/recommendation over HTTP")
    serve.add_argument("corpus", help="corpus directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8077, help="0 picks an ephemeral port")
    serve.add_argument(
        "--params",
        default=None,
        help="MRF parameter JSON (defaults to <corpus>/params.json when present)",
    )
    serve.add_argument("--cache-size", type=int, default=1024, help="0 disables the cache")
    serve.add_argument(
        "--no-verify-payload",
        action="store_true",
        help="skip payload checksums when picking up an index artifact "
        "(faster cold start; recorded in /stats provenance)",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=8,
        help="concurrent query bound; excess requests get 503 + Retry-After",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 pre-forks a pool over one shared "
        "listening socket and mmap index (POSIX only)",
    )

    ingest = sub.add_parser(
        "ingest", help="stream new objects into a running server (delta segments)"
    )
    ingest.add_argument(
        "records",
        help="JSONL file of objects — canonical {'id','t','features'} corpus "
        "records, or raw Flickr-like metadata with --raw",
    )
    ingest.add_argument(
        "--server", required=True, help="base URL, e.g. http://127.0.0.1:8077"
    )
    ingest.add_argument(
        "--batch", type=int, default=100, help="objects per POST /ingest request"
    )
    ingest.add_argument(
        "--raw",
        action="store_true",
        help="records are raw Flickr-like metadata; convert client-side "
        "(per-record preprocessing, no corpus-wide vocabulary threshold)",
    )
    ingest.add_argument(
        "--months",
        type=int,
        default=6,
        help="month span raw records must fall in (--raw only)",
    )
    ingest.add_argument(
        "--compact",
        action="store_true",
        help="fold the delta segments into index.bin after the last batch",
    )
    ingest.add_argument(
        "--timeout", type=float, default=120.0, help="per-request timeout seconds"
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n_objects=args.objects,
        n_topics=args.topics,
        n_users=args.users,
        n_tracked_users=args.tracked_users,
    )
    generator = SyntheticFlickr(config, seed=args.seed)
    if args.recommendation:
        if args.tracked_users < 1:
            print("error: --recommendation requires --tracked-users >= 1", file=sys.stderr)
            return 2
        corpus = generator.generate_recommendation_corpus()
    else:
        corpus = generator.generate_retrieval_corpus()
    path = save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} objects to {path}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    users = corpus.social.users
    print(f"objects     : {len(corpus)}")
    print(f"months      : {corpus.n_months}")
    print(f"users       : {len(users)}")
    print(f"groups      : {len(corpus.social.groups)}")
    print(f"favorites   : {len(corpus.favorites)}")
    print(f"taxonomy    : {'yes' if corpus.taxonomy is not None else 'no'}")
    print(f"codebook    : {len(corpus.codebook) if corpus.codebook is not None else 'no'} words")
    sizes = [len(o) for o in corpus]
    print(f"avg features: {sum(sizes) / len(sizes):.1f} occurrences/object")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    corpus = load_corpus(args.corpus)
    engine = RetrievalEngine(corpus, build_index=False)
    path = Path(args.corpus) / "index.bin"
    # Shard workers write segment files and a streaming merge assembles
    # index.bin, so no process ever holds the whole posting heap; one
    # worker writes a single segment that becomes index.bin as is.  The
    # bytes do not depend on the worker count.
    report = build_segmented(
        list(corpus),
        engine.correlations,
        max_clique_size=engine.params.max_clique_size,
        n_workers=args.workers,
        out_path=path,
    )
    merged = ""
    if report.n_segments > 1:
        merged = f"; {report.n_segments} segments merged in {report.merge_seconds:.2f}s"
    # Re-open the artifact, by default with the eager payload checksum
    # sweep: a torn or bit-flipped write fails here, at build time, not
    # at serve time.
    verified = not args.no_verify_payload
    with load_index(path, engine.correlations, verify_payload=verified) as written:
        stats = written.stats()
    note = ", payload verified" if verified else ""
    print(
        f"wrote {int(stats['n_cliques'])} cliques / {int(stats['total_postings'])} "
        f"postings to {path} (binary, {path.stat().st_size} bytes{note}{merged})"
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    # Explicit params: a params.json beside the corpus is for `serve`.
    snapshot = build_snapshot(
        args.corpus, generation=1, params=MRFParameters(), build_index=args.mode != "scan"
    )
    try:
        corpus = snapshot.corpus
        if args.query not in corpus:
            print(f"error: unknown object id {args.query!r}", file=sys.stderr)
            return 2
        query = corpus.get(args.query)
        print("query:", query.describe())
        hits = snapshot.engine.search(query, k=args.k, mode=args.mode)
    finally:
        snapshot.close()
    for rank, hit in enumerate(hits, start=1):
        print(f"{rank:3d}. {hit.object_id}  score={hit.score:.4f}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    snapshot = build_snapshot(
        args.corpus, generation=1, params=MRFParameters(delta=args.delta)
    )
    try:
        if snapshot.recommender is None:
            print("error: corpus has no favorite events", file=sys.stderr)
            return 2
        hits = snapshot.recommender.recommend(args.user, k=args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        snapshot.close()
    label = "FIG" if args.delta == 1.0 else f"FIG-T (delta={args.delta})"
    print(f"{label} recommendations for {args.user}:")
    for rank, hit in enumerate(hits, start=1):
        print(f"{rank:3d}. {hit.object_id}  score={hit.score:.4f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    engine = RetrievalEngine(corpus)
    oracle = TopicOracle(corpus)
    queries = sample_queries(corpus, n_queries=args.queries, seed=args.seed)
    report = evaluate_retrieval(engine, queries, oracle, cutoffs=tuple(args.cutoffs))
    print(report.format_row("FIG", args.cutoffs))
    return 0


def _post_json(url: str, payload: dict, timeout: float) -> dict:
    """POST a JSON body; the decoded JSON reply.  Raises
    ``RuntimeError`` with a one-line operator message on any HTTP or
    transport failure."""
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))  # type: ignore[no-any-return]
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        raise RuntimeError(f"server answered {exc.code} for {url}: {detail}") from None
    except urllib.error.URLError as exc:
        raise RuntimeError(f"cannot reach {url}: {exc.reason}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"request to {url} failed: {exc}") from None


def _iter_ingest_records(args: argparse.Namespace) -> "list[dict]":
    """Parse the records file into canonical ingest records, converting
    raw metadata client-side when ``--raw`` is set."""
    config = IngestConfig(n_months=args.months)
    records: list[dict] = []
    path = Path(args.records)
    with path.open() as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RuntimeError(f"corrupt {path} at line {line_number}: {exc}") from None
            if not isinstance(record, dict):
                raise RuntimeError(f"{path} line {line_number}: not a JSON object")
            if args.raw:
                try:
                    obj = ingest_object(record, config)
                except (IngestError, ValueError) as exc:
                    raise RuntimeError(f"{path} line {line_number}: {exc}") from None
                record = {
                    "id": obj.object_id,
                    "t": obj.timestamp,
                    "features": {f.key: c for f, c in sorted(obj.features.items())},
                }
            records.append(record)
    return records


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.batch < 1:
        print("error: --batch must be >= 1", file=sys.stderr)
        return 2
    base = args.server.rstrip("/")
    try:
        records = _iter_ingest_records(args)
        if not records:
            print(f"error: no records in {args.records}", file=sys.stderr)
            return 2
        total = 0
        reply: dict = {}
        for start in range(0, len(records), args.batch):
            batch = records[start : start + args.batch]
            reply = _post_json(f"{base}/ingest", {"records": batch}, args.timeout)
            total += len(batch)
            print(
                f"ingested {total}/{len(records)} objects "
                f"(generation {reply.get('generation')}, "
                f"{reply.get('objects')} served)",
                flush=True,
            )
        segments = reply.get("segments") or {}
        print(
            f"done: {total} objects streamed; index now has "
            f"{segments.get('n_segments', '?')} segments"
        )
        if args.compact:
            reply = _post_json(f"{base}/admin/compact", {}, args.timeout)
            print(
                f"compaction: {reply.get('status')} "
                f"(folded {reply.get('folded_objects', 0)} objects, "
                f"generation {reply.get('generation')})"
            )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    if args.workers > 1:
        return _serve_prefork(args)
    manager = SnapshotManager(
        args.corpus,
        params_path=args.params,
        verify_payload=not args.no_verify_payload,
    )
    snapshot = manager.load()
    service = QueryService(manager, cache=ResultCache(args.cache_size))
    server = create_server(
        service, host=args.host, port=args.port, max_in_flight=args.max_in_flight
    )
    install_signal_handlers(server)
    print(
        f"serving {snapshot.n_objects} objects (generation {snapshot.generation}) "
        f"at http://{args.host}:{server.port}",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("shutdown complete", flush=True)
    return 0


def _serve_prefork(args: argparse.Namespace) -> int:
    pool = PreforkServer(
        args.corpus,
        workers=args.workers,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        max_in_flight=args.max_in_flight,
        params_path=args.params,
        verify_payload=not args.no_verify_payload,
    )
    snapshot = pool.start()
    pool.install_signal_handlers()
    print(
        f"serving {snapshot.n_objects} objects (generation {snapshot.generation}) "
        f"at http://{args.host}:{pool.port} with {args.workers} workers "
        f"(pids {', '.join(map(str, pool.worker_pids()))})",
        flush=True,
    )
    pool.run()
    print("shutdown complete", flush=True)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "index": _cmd_index,
    "search": _cmd_search,
    "recommend": _cmd_recommend,
    "evaluate": _cmd_evaluate,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Operator errors — a corpus directory that is missing, not a corpus,
    or corrupt on disk — exit with code 2 and a one-line message rather
    than a traceback, for every subcommand.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StorageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

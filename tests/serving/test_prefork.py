"""Prefork worker pool: parity, aggregation, reload, crash recovery.

The pool forks real worker processes, so the whole scenario runs in one
end-to-end test over a module-scoped corpus directory — starting a pool
per assertion would dominate the suite's runtime.  Single-process
behaviour (the reference the pool must match bit-for-bit) comes from a
:class:`QueryService` over the same saved corpus + ``index.bin``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.request

import pytest

from repro.core.retrieval import RetrievalEngine
from repro.index.inverted import CliqueInvertedIndex
from repro.serving.cache import ResultCache
from repro.serving.prefork import PreforkServer
from repro.serving.service import QueryService
from repro.serving.snapshot import SnapshotManager
from repro.storage.store import save_corpus, save_index

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="prefork serving requires POSIX fork"
)


@pytest.fixture(scope="module")
def indexed_corpus_dir(tmp_path_factory, tiny_corpus):
    """The retrieval corpus saved with its binary index artifact, so
    every forked worker maps the same read-only ``index.bin`` pages."""
    path = tmp_path_factory.mktemp("prefork") / "corpus"
    save_corpus(tiny_corpus, path)
    engine = RetrievalEngine(tiny_corpus, build_index=False)
    index = CliqueInvertedIndex(
        engine.correlations, max_clique_size=engine.params.max_clique_size
    ).build(tiny_corpus)
    save_index(index, path / "index.bin")
    return path


def _get(port: int, path: str) -> bytes:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=60) as r:
        return r.read()


def _post(port: int, path: str) -> bytes:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=b"{}",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as r:
        return r.read()


def test_workers_must_be_positive(indexed_corpus_dir):
    with pytest.raises(ValueError):
        PreforkServer(indexed_corpus_dir, workers=0)


def test_prefork_end_to_end(indexed_corpus_dir, tiny_corpus):
    """One pool lifecycle: default-mode parity with a single-process
    service, aggregated metrics/stats, coordinated reload, crash
    restart, graceful drain."""
    manager = SnapshotManager(indexed_corpus_dir)
    manager.load()
    reference_service = QueryService(manager, cache=ResultCache(64))
    query_ids = [obj.object_id for obj in list(tiny_corpus)[:5]]
    reference = {q: reference_service.search(query=q, k=10) for q in query_ids}
    assert reference[query_ids[0]]["mode"] == "auto"

    pool = PreforkServer(indexed_corpus_dir, workers=2, port=0, grace=5.0)
    pool.start()
    runner = threading.Thread(target=pool.run)
    runner.start()
    try:
        port = pool.port
        assert json.loads(_get(port, "/healthz"))["status"] == "ok"

        # -- default /search is bit-identical to the single-process path
        for query_id, expected in reference.items():
            payload = json.loads(_get(port, f"/search?query={query_id}&k=10"))
            assert payload["mode"] == "auto"
            assert payload["results"] == expected["results"]

        # -- /metrics aggregates every worker plus the supervisor
        text = _get(port, "/metrics").decode()
        assert "repro_prefork_workers 2" in text
        assert 'repro_requests_total{endpoint="search",status="200"}' in text

        # -- /stats reports the cluster shape
        stats = json.loads(_get(port, "/stats"))
        assert stats["cluster"]["workers"] == 2
        assert len(stats["workers"]) == 2

        # -- coordinated reload bumps every worker to the new generation
        outcome = json.loads(_post(port, "/admin/reload"))
        assert outcome["generation"] == 2
        worker_generations = [
            entry.get("result", entry).get("generation")
            for entry in outcome["workers"]
        ]
        assert worker_generations == [2, 2]
        payload = json.loads(_get(port, f"/search?query={query_ids[0]}&k=10"))
        assert payload["generation"] == 2
        assert payload["results"] == reference[query_ids[0]]["results"]

        # -- a SIGKILLed worker is respawned by the supervisor
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pids = pool.worker_pids()
            if len(pids) == 2 and victim not in pids:
                break
            time.sleep(0.2)
        else:
            pytest.fail(f"worker {victim} not respawned: {pool.worker_pids()}")
        payload = json.loads(_get(port, f"/search?query={query_ids[1]}&k=10"))
        assert payload["results"] == reference[query_ids[1]]["results"]
    finally:
        pool.request_shutdown()
        runner.join(timeout=60)
    assert not runner.is_alive()
    assert pool.workers == 0

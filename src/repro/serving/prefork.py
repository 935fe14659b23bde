"""Pre-fork worker pool: N processes over one shared mmap index.

``ThreadingHTTPServer`` is GIL-bound — one hot query saturates a core.
The classic escape (nginx/gunicorn/Apache prefork) is *shared-nothing
processes over a shared listening socket*, and the binary index
makes it nearly free here: the supervisor binds the socket and
loads/validates the corpus + ``index.bin`` exactly once, then forks
``--workers N`` children that each run the existing
:class:`~repro.serving.http.ServingHTTPServer` accept loop over the
inherited socket.  The index artifact's read-only pages are shared by
every worker through the page cache — no per-worker parse, no
per-worker resident copy.

Roles after the fork:

* **Worker** — the plain single-process server plus a
  :class:`WorkerControl` reader thread speaking JSON-lines over an
  inherited ``socketpair``.  It answers supervisor scrapes
  (``metrics``/``stats``/``reload``/``ingest``/``ping``) inline, and
  routes the pool-facing endpoints (``/metrics``, ``/stats``,
  ``/ingest``, ``/admin/reload``, ``/admin/compact``) to the
  supervisor as ``*-all`` requests so any worker can present or
  mutate the whole pool.
* **Supervisor** — single-threaded on purpose (``os.fork`` from a
  threaded parent is the canonical fork-safety bug LK201 exists to
  catch): one ``selectors`` loop pumps every control channel, reaps
  children with ``waitpid(WNOHANG)`` (no SIGCHLD handler), restarts
  crashed workers with exponential backoff, and fans SIGTERM out for
  a graceful full-tree drain.

Coordinated reload keeps generations aligned: the supervisor reloads
its *own* manager first (validating the artifact — a broken reload
never reaches a worker), then broadcasts ``reload`` to all workers at
once so their atomic snapshot swaps land within build-time variance of
each other — the window where two workers serve different generations
is bounded by one in-flight rebuild, not by sequential worker count.
A worker that fails its reload is killed and respawned from the
already-reloaded parent image, converging on the new generation.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import selectors
import signal
import socket
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serving.cache import ResultCache
from repro.serving.http import ServingHTTPServer, create_server, install_signal_handlers
from repro.serving.metrics import MetricsRegistry, merge_dumps, render_dump
from repro.serving.service import (
    QueryService,
    ServiceError,
    parse_ingest_records,
    segment_shape,
)
from repro.serving.snapshot import EngineSnapshot, SnapshotManager

LOGGER = logging.getLogger("repro.serving.prefork")

#: Seconds a worker must stay up for its crash counter to reset.
STABLE_UPTIME_SECONDS = 10.0

#: Per-scrape timeout when aggregating worker registries/stats.
SCRAPE_TIMEOUT_SECONDS = 10.0

#: Per-worker timeout for a coordinated reload (index rebuilds from a
#: cold corpus can take tens of seconds at bench sizes).
RELOAD_TIMEOUT_SECONDS = 600.0

#: Per-worker timeout for applying one ingest batch — O(batch) delta
#: builds, far cheaper than a reload.
INGEST_TIMEOUT_SECONDS = 60.0


class Channel:
    """JSON-lines control channel over one socket.

    Both sides send newline-delimited JSON objects.  Requests carry a
    ``cmd`` key, responses echo the request ``id`` with an ``ok`` flag
    — the presence of ``cmd`` is what distinguishes the two, so the
    same channel carries traffic in both directions without id
    coordination.  ``send`` is locked (worker HTTP threads and the
    control reader share the socket); reads are single-consumer.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.socket = sock
        self._send_lock = threading.Lock()
        self._buffer = b""
        self.eof = False

    def fileno(self) -> int:
        return self.socket.fileno()

    def send(self, message: dict[str, Any]) -> None:
        data = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
        with self._send_lock:
            self.socket.sendall(data)

    def feed(self) -> list[dict[str, Any]] | None:
        """Drain available bytes (non-blocking socket); decoded
        messages, ``[]`` when nothing is ready, ``None`` on EOF."""
        try:
            chunk = self.socket.recv(65536)
        except BlockingIOError:
            return []
        except OSError:
            self.eof = True
            return None
        if not chunk:
            self.eof = True
            return None
        self._buffer += chunk
        messages: list[dict[str, Any]] = []
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            if line:
                messages.append(json.loads(line))
        return messages

    def recv_blocking(self) -> dict[str, Any] | None:
        """Next message (blocking socket); ``None`` on EOF/error."""
        while True:
            if b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                if not line:
                    continue
                return json.loads(line)  # type: ignore[no-any-return]
            try:
                chunk = self.socket.recv(65536)
            except OSError:
                self.eof = True
                return None
            if not chunk:
                self.eof = True
                return None
            self._buffer += chunk

    def close(self) -> None:
        try:
            self.socket.close()
        except OSError:
            pass


class _PendingReply:
    """One outstanding worker→supervisor request's rendezvous point."""

    __slots__ = ("event", "message")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.message: dict[str, Any] | None = None


class WorkerControl:
    """Worker-side control runtime: answers supervisor requests on a
    dedicated reader thread and exposes the pool-wide views the HTTP
    layer routes ``/metrics``, ``/stats`` and ``/admin/reload`` to
    (the :class:`~repro.serving.http.ClusterControl` protocol)."""

    def __init__(
        self,
        channel: Channel,
        service: QueryService,
        server: ServingHTTPServer,
    ) -> None:
        self._channel = channel
        self._service = service
        self._server = server
        self._ids = itertools.count(1)
        self._pending: dict[int, _PendingReply] = {}
        self._pending_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        thread = threading.Thread(
            target=self._read_loop, name="repro-prefork-control", daemon=True
        )
        self._thread = thread
        thread.start()

    # ------------------------------------------------------------------
    # reader thread
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            message = self._channel.recv_blocking()
            if message is None:
                # The supervisor is gone; an orphaned worker must not
                # linger on the shared port.  shutdown() is safe here —
                # this is not the serve_forever thread.
                LOGGER.warning("control channel lost; draining worker %d", os.getpid())
                self._server.shutdown()
                return
            if "cmd" in message:
                self._handle_request(message)
                continue
            with self._pending_lock:
                waiter = self._pending.pop(int(message.get("id", 0)), None)
            if waiter is not None:
                waiter.message = message
                waiter.event.set()

    def _handle_request(self, message: dict[str, Any]) -> None:
        cmd = message.get("cmd")
        msg_id = message.get("id")
        try:
            reply = self._execute(cmd, message)
        except Exception as exc:
            # Report the failure to the supervisor instead of killing
            # the control loop; the supervisor decides what to do.
            try:
                self._channel.send({"id": msg_id, "ok": False, "error": str(exc)})
            except OSError:
                pass
            return
        try:
            self._channel.send(dict(reply, id=msg_id, ok=True))
        except OSError:
            # Supervisor went away mid-reply; the EOF path above will
            # drain this worker on the next read.
            pass

    def _execute(self, cmd: Any, message: dict[str, Any]) -> dict[str, Any]:
        if cmd == "metrics":
            return {"dump": self._service.metrics_dump(now=message.get("now"))}
        if cmd == "stats":
            return {"stats": dict(self._service.stats(), pid=os.getpid())}
        if cmd == "reload":
            return {"result": dict(self._service.reload(), pid=os.getpid())}
        if cmd == "ingest":
            # The supervisor already persisted the batch; this worker's
            # post-fork manager copy applies it in-memory only.
            return {
                "result": dict(
                    self._service.ingest(message.get("records"), persist=False),
                    pid=os.getpid(),
                )
            }
        if cmd == "ping":
            return {"pid": os.getpid()}
        raise ValueError(f"unknown control command {cmd!r}")

    # ------------------------------------------------------------------
    # worker-initiated cluster requests (ClusterControl protocol)
    # ------------------------------------------------------------------
    def _request(self, cmd: str, timeout: float, **fields: Any) -> dict[str, Any]:
        msg_id = next(self._ids)
        waiter = _PendingReply()
        with self._pending_lock:
            self._pending[msg_id] = waiter
        try:
            self._channel.send({"id": msg_id, "cmd": cmd, **fields})
        except OSError as exc:
            with self._pending_lock:
                self._pending.pop(msg_id, None)
            raise ServiceError(503, f"control channel to supervisor lost: {exc}") from exc
        if not waiter.event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(msg_id, None)
            raise ServiceError(503, f"supervisor did not answer {cmd} in {timeout:g}s")
        message = waiter.message
        assert message is not None
        if not message.get("ok"):
            raise ServiceError(503, f"cluster {cmd} failed: {message.get('error')}")
        return message

    def cluster_metrics(self, now: float) -> str:
        return str(self._request("metrics-all", SCRAPE_TIMEOUT_SECONDS * 2, now=now)["text"])

    def cluster_stats(self) -> dict[str, Any]:
        return dict(self._request("stats-all", SCRAPE_TIMEOUT_SECONDS * 2)["stats"])

    def cluster_reload(self) -> dict[str, Any]:
        return dict(self._request("reload-all", RELOAD_TIMEOUT_SECONDS)["result"])

    def cluster_ingest(self, records: Any) -> dict[str, Any]:
        # Validate locally first so malformed batches answer 400 at this
        # worker instead of surfacing as a 503 supervisor failure.
        parse_ingest_records(records)
        return dict(
            self._request("ingest-all", INGEST_TIMEOUT_SECONDS * 2, records=records)[
                "result"
            ]
        )

    def cluster_compact(self) -> dict[str, Any]:
        return dict(self._request("compact-all", RELOAD_TIMEOUT_SECONDS)["result"])


@dataclass
class _Worker:
    """Supervisor-side record of one live child."""

    slot: int
    pid: int
    channel: Channel
    started_at: float


@dataclass
class _Slot:
    """Restart bookkeeping for one worker position."""

    failures: int = 0
    restart_at: float = field(default=0.0)


class PreforkServer:
    """Supervisor for a pool of forked serving workers.

    Usage::

        pool = PreforkServer(corpus_dir, workers=4, port=8077)
        pool.start()                  # bind + load + fork
        pool.install_signal_handlers()
        pool.run()                    # supervise until shutdown

    The supervisor thread model is *no threads*: everything it does —
    pumping control channels, reaping, restarting, aggregating — runs
    on the single caller thread of :meth:`run`, which keeps every
    ``os.fork`` (initial spawn and crash restarts alike) trivially
    fork-safe.  :meth:`request_shutdown` is async-signal-safe and may
    be called from signal handlers or other threads.
    """

    def __init__(
        self,
        corpus_dir: str | Path,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 1024,
        max_in_flight: int = 8,
        params_path: str | Path | None = None,
        verify_payload: bool = True,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        grace: float = 10.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not hasattr(os, "fork"):
            raise RuntimeError("prefork serving requires os.fork (POSIX only)")
        self._corpus_dir = Path(corpus_dir)
        self._n_workers = workers
        self._host = host
        self._port = port
        self._cache_size = cache_size
        self._max_in_flight = max_in_flight
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._grace = grace
        self._manager = SnapshotManager(
            corpus_dir, params_path=params_path, verify_payload=verify_payload
        )
        self._registry = MetricsRegistry()
        self._workers_gauge = self._registry.gauge(
            "repro_prefork_workers", "Live worker processes in the pool."
        )
        self._restarts_counter = self._registry.counter(
            "repro_prefork_worker_restarts_total",
            "Worker processes restarted after a crash.",
        )
        self._generation_gauge = self._registry.gauge(
            "repro_prefork_generation",
            "Snapshot generation the supervisor last loaded.",
        )
        self._listen_socket: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._workers: dict[int, _Worker] = {}
        self._slots = [_Slot() for _ in range(workers)]
        self._inbox: deque[tuple[_Worker, dict[str, Any]]] = deque()
        self._pending: dict[int, dict[str, Any] | None] = {}
        self._ids = itertools.count(1)
        self._shutdown_requested = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def manager(self) -> SnapshotManager:
        return self._manager

    @property
    def workers(self) -> int:
        """Live worker count (supervisor view)."""
        return len(self._workers)

    @property
    def port(self) -> int:
        if self._listen_socket is None:
            raise RuntimeError("not started; call start() first")
        return int(self._listen_socket.getsockname()[1])

    def worker_pids(self) -> list[int]:
        return sorted(worker.pid for worker in self._workers.values())

    def start(self) -> EngineSnapshot:
        """Load once, bind once, fork the pool; returns the snapshot."""
        if self._started:
            raise RuntimeError("start() already ran")
        self._started = True
        snapshot = self._manager.load()
        self._generation_gauge.set(snapshot.generation)
        listen = socket.create_server((self._host, self._port), backlog=128)
        # Non-blocking accept: every worker's serve_forever polls the
        # shared socket; after a thundering-herd wakeup the losers get
        # BlockingIOError from accept() and go back to their selectors
        # instead of hanging in a blocking accept.  O_NONBLOCK lives on
        # the shared open file description, so setting it once here
        # covers every forked worker.
        listen.setblocking(False)
        self._listen_socket = listen
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        for slot in range(self._n_workers):
            self._spawn(slot)
        return snapshot

    def run(self) -> None:
        """Supervise until :meth:`request_shutdown`, then drain."""
        if not self._started:
            raise RuntimeError("not started; call start() first")
        try:
            while not self._shutdown_requested:
                self._pump(0.5)
                self._reap()
                self._restart_due()
                self._drain_inbox()
        finally:
            self._drain_and_stop()

    def serve(self) -> None:
        """``start()`` + ``run()`` in one call."""
        self.start()
        self.run()

    def request_shutdown(self) -> None:
        """Stop the pool (async-signal-safe: flag + wake byte)."""
        self._shutdown_requested = True
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"x")
            except OSError:
                pass

    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)
    ) -> None:
        """SIGTERM/SIGINT on the supervisor drain the whole tree."""

        def _initiate(signum: int, frame: Any) -> None:
            self.request_shutdown()

        for signum in signals:
            signal.signal(signum, _initiate)

    # ------------------------------------------------------------------
    # spawning and the fork boundary
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> None:
        sup_sock, worker_sock = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            # ---- child ----------------------------------------------
            try:
                sup_sock.close()
                self._close_supervisor_fds()
                self._worker_main(slot, worker_sock)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        # ---- parent -------------------------------------------------
        worker_sock.close()
        sup_sock.setblocking(False)
        worker = _Worker(
            slot=slot, pid=pid, channel=Channel(sup_sock), started_at=time.monotonic()
        )
        self._workers[slot] = worker
        assert self._selector is not None
        self._selector.register(sup_sock, selectors.EVENT_READ, ("worker", worker))
        self._workers_gauge.set(len(self._workers))
        LOGGER.info("spawned worker slot=%d pid=%d", slot, pid)

    def _close_supervisor_fds(self) -> None:
        """Drop supervisor-only descriptors in a fresh child.

        Without this, sibling workers would hold every control socket
        open and the supervisor would never see EOF on a dead worker's
        channel (and the wake pipe would leak into the whole pool).
        """
        for other in self._workers.values():
            other.channel.close()
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._selector is not None:
            self._selector.close()

    def _worker_main(self, slot: int, worker_sock: socket.socket) -> None:
        """Everything a worker process runs after the fork.

        The snapshot manager (corpus + mmap index) is inherited from
        the parent — already loaded and validated, pages shared — so a
        worker is serving milliseconds after the fork.  Only the
        request-scoped state is per-process: the result cache, the
        metrics registry, the HTTP server object.
        """
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        service = QueryService(self._manager, cache=ResultCache(self._cache_size))
        server = create_server(
            service,
            max_in_flight=self._max_in_flight,
            listen_socket=self._listen_socket,
        )
        install_signal_handlers(server)
        control = WorkerControl(Channel(worker_sock), service, server)
        server.control = control
        control.start()
        LOGGER.info("worker slot=%d pid=%d serving", slot, os.getpid())
        try:
            server.serve_forever(poll_interval=0.1)
        finally:
            server.server_close()

    # ------------------------------------------------------------------
    # supervision loop internals
    # ------------------------------------------------------------------
    def _pump(self, timeout: float) -> None:
        """One select round: feed channels, resolve pending responses,
        queue inbound worker requests for the main loop."""
        assert self._selector is not None
        for key, _ in self._selector.select(timeout):
            kind, worker = key.data
            if kind == "wake":
                assert self._wake_r is not None
                try:
                    while self._wake_r.recv(4096):
                        pass
                except OSError:
                    pass
                continue
            messages = worker.channel.feed()
            if messages is None:
                self._unregister(worker)
                continue
            for message in messages:
                if "cmd" in message:
                    self._inbox.append((worker, message))
                else:
                    msg_id = int(message.get("id", 0))
                    if msg_id in self._pending:
                        self._pending[msg_id] = message

    def _unregister(self, worker: _Worker) -> None:
        assert self._selector is not None
        try:
            self._selector.unregister(worker.channel.socket)
        except (KeyError, ValueError):
            pass

    def _reap(self) -> None:
        """Collect exited children; schedule restarts with backoff."""
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            worker = next(
                (w for w in self._workers.values() if w.pid == pid), None
            )
            if worker is None:
                continue
            self._unregister(worker)
            worker.channel.close()
            del self._workers[worker.slot]
            self._workers_gauge.set(len(self._workers))
            if self._shutdown_requested:
                continue
            uptime = time.monotonic() - worker.started_at
            slot_state = self._slots[worker.slot]
            if uptime >= STABLE_UPTIME_SECONDS:
                slot_state.failures = 1
            else:
                slot_state.failures += 1
            delay = min(
                self._backoff_cap, self._backoff_base * 2 ** (slot_state.failures - 1)
            )
            slot_state.restart_at = time.monotonic() + delay
            self._restarts_counter.inc()
            LOGGER.warning(
                "worker slot=%d pid=%d exited (status=%d, uptime=%.1fs); "
                "restart in %.1fs",
                worker.slot,
                pid,
                status,
                uptime,
                delay,
            )

    def _restart_due(self) -> None:
        if self._shutdown_requested:
            return
        now = time.monotonic()
        for slot in range(self._n_workers):
            if slot not in self._workers and now >= self._slots[slot].restart_at:
                self._spawn(slot)

    def _drain_inbox(self) -> None:
        while self._inbox:
            worker, message = self._inbox.popleft()
            self._handle_worker_request(worker, message)

    def _handle_worker_request(self, worker: _Worker, message: dict[str, Any]) -> None:
        cmd = message.get("cmd")
        msg_id = message.get("id")
        try:
            if cmd == "metrics-all":
                reply: dict[str, Any] = {"text": self.aggregate_metrics(message.get("now"))}
            elif cmd == "stats-all":
                reply = {"stats": self.aggregate_stats()}
            elif cmd == "reload-all":
                reply = {"result": self.coordinate_reload()}
            elif cmd == "ingest-all":
                reply = {"result": self.coordinate_ingest(message.get("records"))}
            elif cmd == "compact-all":
                reply = {"result": self.coordinate_compact()}
            elif cmd == "ping":
                reply = {"pid": os.getpid()}
            else:
                raise ValueError(f"unknown cluster command {cmd!r}")
        except Exception as exc:
            LOGGER.exception("cluster command %r failed", cmd)
            try:
                worker.channel.send({"id": msg_id, "ok": False, "error": str(exc)})
            except OSError:
                pass
            return
        try:
            worker.channel.send(dict(reply, id=msg_id, ok=True))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # supervisor → workers requests
    # ------------------------------------------------------------------
    def _broadcast(
        self, cmd: str, timeout: float, **fields: Any
    ) -> dict[int, dict[str, Any] | Exception]:
        """Send ``cmd`` to every live worker, collect replies in
        parallel (one pump services all channels).  Failures land in
        the result map as exceptions rather than raising — aggregation
        must degrade to the workers that answered."""
        results: dict[int, dict[str, Any] | Exception] = {}
        outstanding: dict[int, tuple[_Worker, int]] = {}
        for slot, worker in sorted(self._workers.items()):
            msg_id = next(self._ids)
            self._pending[msg_id] = None
            try:
                worker.channel.send({"id": msg_id, "cmd": cmd, **fields})
            except OSError as exc:
                del self._pending[msg_id]
                results[slot] = exc
                continue
            outstanding[slot] = (worker, msg_id)
        deadline = time.monotonic() + timeout
        while outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._pump(min(0.1, remaining))
            for slot, (worker, msg_id) in list(outstanding.items()):
                response = self._pending.get(msg_id)
                if response is not None:
                    del self._pending[msg_id]
                    del outstanding[slot]
                    results[slot] = response
                elif worker.channel.eof:
                    del self._pending[msg_id]
                    del outstanding[slot]
                    results[slot] = OSError("control channel closed")
        for slot, (worker, msg_id) in outstanding.items():
            self._pending.pop(msg_id, None)
            results[slot] = TimeoutError(
                f"worker pid={worker.pid} did not answer {cmd} in {timeout:g}s"
            )
        return results

    def aggregate_metrics(self, now: float | None = None) -> str:
        """Pool-wide Prometheus exposition: supervisor registry merged
        with every worker registry dump (see ``metrics.merge_dumps``)."""
        self._workers_gauge.set(len(self._workers))
        dumps = [self._registry.dump()]
        for slot, result in sorted(
            self._broadcast("metrics", SCRAPE_TIMEOUT_SECONDS, now=now).items()
        ):
            if isinstance(result, Exception):
                LOGGER.warning("metrics scrape failed for slot %d: %s", slot, result)
                continue
            dumps.append(result["dump"])
        return render_dump(merge_dumps(dumps))

    def aggregate_stats(self) -> dict[str, Any]:
        """Pool-wide ``/stats``: per-worker sections plus summed cache
        counters and the supervisor's snapshot/restart view."""
        snapshot = self._manager.current
        worker_stats: list[dict[str, Any]] = []
        cache_totals = {"hits": 0, "misses": 0, "evictions": 0, "size": 0, "capacity": 0}
        for slot, result in sorted(
            self._broadcast("stats", SCRAPE_TIMEOUT_SECONDS).items()
        ):
            if isinstance(result, Exception):
                worker_stats.append({"slot": slot, "error": str(result)})
                continue
            stats = dict(result["stats"], slot=slot)
            worker_stats.append(stats)
            cache = stats.get("cache") or {}
            for field_name in cache_totals:
                cache_totals[field_name] += int(cache.get(field_name, 0))
        return {
            "cluster": {
                "workers": len(self._workers),
                "configured_workers": self._n_workers,
                "restarts_total": self._restarts_counter.value(),
                "supervisor_pid": os.getpid(),
            },
            "snapshot": {
                "generation": snapshot.generation,
                "objects": snapshot.n_objects,
                "source": snapshot.source,
                "loaded_at": snapshot.loaded_at,
                "recommendation": snapshot.recommender is not None,
                "segments": segment_shape(snapshot),
            },
            "cache": cache_totals,
            "workers": worker_stats,
        }

    def coordinate_reload(self) -> dict[str, Any]:
        """Generation-coordinated reload across the pool.

        Order matters: the supervisor's own manager reloads first — if
        the artifact is broken the exception propagates and *no worker
        ever sees it*.  Then every worker gets ``reload`` at once;
        each builds off-path and swaps atomically, so the pool
        converges within build-time variance.  A worker that fails or
        times out is killed: its replacement forks from the
        already-reloaded parent and starts on the new generation.
        """
        snapshot = self._manager.reload()
        self._generation_gauge.set(snapshot.generation)
        worker_results = self._fanout_and_recycle("reload", RELOAD_TIMEOUT_SECONDS)
        return {
            "status": "reloaded",
            "generation": snapshot.generation,
            "objects": snapshot.n_objects,
            "workers": worker_results,
        }

    def coordinate_ingest(self, records: Any) -> dict[str, Any]:
        """Apply one ingest batch across the pool.

        Same discipline as :meth:`coordinate_reload`: the supervisor
        applies (and persists) the batch first, so a bad batch raises
        here and never reaches a worker.  Each worker then applies the
        identical records to its own post-fork manager copy in memory —
        deterministic, because every process scores with the same
        inherited frozen correlation model.  A worker that fails is
        killed; its replacement forks from the supervisor image, which
        already holds the batch.
        """
        objects = parse_ingest_records(records)
        snapshot = self._manager.ingest(objects, persist=True)
        self._generation_gauge.set(snapshot.generation)
        worker_results = self._fanout_and_recycle(
            "ingest", INGEST_TIMEOUT_SECONDS, records=records
        )
        return {
            "status": "ingested",
            "generation": snapshot.generation,
            "objects": snapshot.n_objects,
            "ingested": len(objects),
            "segments": segment_shape(snapshot),
            "workers": worker_results,
        }

    def coordinate_compact(self) -> dict[str, Any]:
        """Fold delta segments into ``index.bin`` and reload the pool.

        The supervisor compacts (rewriting the artifact atomically) and
        reloads its own manager; workers then just ``reload`` — the
        rewritten artifact matches the persisted corpus, so every
        worker converges on a single-segment mmap stack sharing the new
        file's pages.
        """
        snapshot, folded = self._manager.compact()
        self._generation_gauge.set(snapshot.generation)
        worker_results: list[dict[str, Any]] = []
        if folded:
            worker_results = self._fanout_and_recycle("reload", RELOAD_TIMEOUT_SECONDS)
        return {
            "status": "compacted" if folded else "noop",
            "generation": snapshot.generation,
            "objects": snapshot.n_objects,
            "folded_objects": folded,
            "segments": segment_shape(snapshot),
            "workers": worker_results,
        }

    def _fanout_and_recycle(
        self, cmd: str, timeout: float, **fields: Any
    ) -> list[dict[str, Any]]:
        """Broadcast a state-changing command; kill workers that fail
        or time out so their replacements fork from the already-updated
        supervisor image (the reload/ingest convergence rule)."""
        worker_results: list[dict[str, Any]] = []
        for slot, result in sorted(self._broadcast(cmd, timeout, **fields).items()):
            if isinstance(result, Exception):
                worker = self._workers.get(slot)
                if worker is not None:
                    LOGGER.warning(
                        "%s failed for slot %d (%s); recycling pid %d",
                        cmd,
                        slot,
                        result,
                        worker.pid,
                    )
                    try:
                        os.kill(worker.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                worker_results.append({"slot": slot, "error": str(result)})
                continue
            worker_results.append(dict(result["result"], slot=slot))
        return worker_results

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _drain_and_stop(self) -> None:
        """SIGTERM fan-out → grace wait → SIGKILL stragglers → close."""
        self._shutdown_requested = True
        for worker in self._workers.values():
            try:
                os.kill(worker.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self._grace
        while self._workers and time.monotonic() < deadline:
            self._pump(0.1)
            self._reap()
        for worker in list(self._workers.values()):
            LOGGER.warning(
                "worker pid=%d ignored SIGTERM for %.1fs; killing",
                worker.pid,
                self._grace,
            )
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while self._workers:
            self._reap()
            if self._workers:
                time.sleep(0.05)
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        for sock in (self._wake_r, self._wake_w, self._listen_socket):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._wake_r = self._wake_w = None
        self._listen_socket = None
        try:
            self._manager.current.close()
        except RuntimeError:
            pass
        LOGGER.info("prefork pool drained")

"""Online query-serving subsystem.

The batch CLI rebuilds the whole engine from disk per invocation; this
package keeps one warm engine behind an HTTP API, the deployment shape
the paper's Section 3.5 preprocessing exists for:

* :mod:`repro.serving.snapshot` — immutable engine snapshots with
  atomic hot-reload and a generation counter;
* :mod:`repro.serving.cache` — thread-safe LRU result cache keyed by
  generation (snapshot swaps implicitly invalidate);
* :mod:`repro.serving.service` — transport-independent request
  handlers returning plain dicts;
* :mod:`repro.serving.http` — ``ThreadingHTTPServer`` front end with
  admission control, structured access logs and graceful shutdown;
* :mod:`repro.serving.metrics` — counter/histogram registry rendered
  at ``GET /metrics`` in Prometheus text format;
* :mod:`repro.serving.prefork` — pre-fork worker pool sharing one
  listening socket and one read-only mmap index across N processes,
  with supervisor restarts, aggregated metrics and coordinated reload.

Start a server from the CLI with ``repro serve <corpus-dir>``
(``--workers N`` forks a pool).
"""

from __future__ import annotations

from repro.serving.cache import CacheStats, ResultCache, result_cache_key
from repro.serving.http import (
    ServingHTTPServer,
    ServingRequestHandler,
    create_server,
    install_signal_handlers,
)
from repro.serving.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_dumps,
    render_dump,
)
from repro.serving.prefork import PreforkServer, WorkerControl
from repro.serving.service import MAX_K, QueryService, ServiceError
from repro.serving.snapshot import (
    EngineSnapshot,
    SnapshotLease,
    SnapshotManager,
    build_snapshot,
)

__all__ = [
    "CacheStats",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EngineSnapshot",
    "Gauge",
    "Histogram",
    "MAX_K",
    "MetricsRegistry",
    "PreforkServer",
    "QueryService",
    "ResultCache",
    "ServiceError",
    "ServingHTTPServer",
    "ServingRequestHandler",
    "SnapshotLease",
    "SnapshotManager",
    "WorkerControl",
    "build_snapshot",
    "create_server",
    "install_signal_handlers",
    "merge_dumps",
    "render_dump",
    "result_cache_key",
]

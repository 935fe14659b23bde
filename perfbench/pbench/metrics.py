"""The metric catalogue: every name the benchmark can print, its unit
and which direction is better, plus the contract result line.

``END_TO_END`` is what every untraced run reports and what
``BENCHMARK.json`` bounds; ``PER_LAYER`` is what every traced run
reports.  Each workload reports every name: a layer that the workload
bypasses reads 0, which is the measured amount of work it did there.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: (name, unit, better).  The "operation" is per workload: one 20-object
#: ``CliqueInvertedIndex.build`` batch (build), one first-touch search
#: (query), one closed-loop search over a keep-alive connection (serve).
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
)

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # storage
    ("storage.load_corpus_s", "s", "lower"),
    ("storage.load_index_s", "s", "lower"),
    ("storage.save_index_s", "s", "lower"),
    ("storage.verify_index_s", "s", "lower"),
    ("index.precompute_impact_s", "s", "lower"),
    ("core.correlation.model_s", "s", "lower"),
    # index build
    ("index.build_s", "s", "lower"),
    ("index.object_p50_ms", "ms", "lower"),
    ("index.object_p90_ms", "ms", "lower"),
    ("index.cliques", "count", "lower"),
    ("index.postings", "count", "lower"),
    ("index.cliques_per_object", "count", "lower"),
    ("core.correlation.pairs", "count", "lower"),
    # query path
    ("core.fig.query_cliques_ms", "ms", "lower"),
    ("index.ta_ms", "ms", "lower"),
    ("index.sources_per_query", "count", "lower"),
    ("index.sorted_accesses_per_query", "count", "lower"),
    ("index.random_accesses_per_query", "count", "lower"),
    ("index.touched_ratio", "ratio", "lower"),
    ("index.blocks_skipped_ratio", "ratio", "higher"),
    # recommendation
    ("core.recommendation.init_s", "s", "lower"),
    ("core.recommendation.profile_ms", "ms", "lower"),
    ("core.recommendation.rank_ms", "ms", "lower"),
    # serving
    ("serving.server_ms", "ms", "lower"),
    ("serving.transport_ms", "ms", "lower"),
    ("serving.cache.hit_ratio", "ratio", "higher"),
    ("serving.ingest_server_ms", "ms", "lower"),
    ("serving.segments", "count", "lower"),
    ("serving.rejected", "count", "lower"),
    # load generator and tracer
    ("loadgen.late_max_ms", "ms", "lower"),
    ("loadgen.offered_rate", "1/s", "higher"),
    ("loadgen.achieved_rate", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    # workload-level figures of the traced run (named as in the
    # untraced run's report, where they are printed for every run)
    ("build_objects_per_s", "1/s", "higher"),
    ("index_bytes_per_object", "B", "lower"),
    ("search_p50_ms", "ms", "lower"),
    ("search_p90_ms", "ms", "lower"),
    ("recommend_p50_ms", "ms", "lower"),
    ("p_at_10", "ratio", "higher"),
    ("rec_p_at_10", "ratio", "higher"),
    ("repeat_p50_ms", "ms", "lower"),
    ("ingest_p50_ms", "ms", "lower"),
    ("saturated_qps", "1/s", "higher"),
    ("compact_s", "s", "lower"),
    ("failed_ratio", "ratio", "lower"),
)

#: Workload-level figures every untraced run prints (by workload).
REPORTED = {
    "build": ("build_objects_per_s", "index_bytes_per_object"),
    "query": ("search_p50_ms", "search_p90_ms", "recommend_p50_ms", "p_at_10", "rec_p_at_10"),
    "serve": (
        "search_p50_ms",
        "search_p90_ms",
        "repeat_p50_ms",
        "ingest_p50_ms",
        "saturated_qps",
        "compact_s",
        "p_at_10",
    ),
}

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def result_line(
    correct: bool, attempted: int, failed: int, values: Mapping[str, float], traced: bool
) -> str:
    """The contract's last stdout line: every end-to-end metric (or,
    traced, every per-layer metric), each with its unit."""
    catalogue = PER_LAYER if traced else END_TO_END
    missing = [name for name, _, _ in catalogue if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit} for name, unit, _ in catalogue
    }
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )

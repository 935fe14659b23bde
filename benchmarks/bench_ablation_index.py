"""Ablation — clique inverted index + Threshold Algorithm vs the
sequential scan.

Section 3.5 motivates the index purely as acceleration; the indexed
Algorithm 1 is also an *approximation*, because the index stores only
(clique, object) pairs where the object contains the whole clique: the
exact scan gives every pair an Eq. 7 smoothing term, the index drops it
for every query clique an object does not fully contain.  This
ablation measures both sides of the trade:

* latency — the index must be substantially faster than the scan;
* effectiveness — the indexed top-10 precision must stay close to the
  exact scan's.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.eval import evaluate_retrieval, sample_queries, time_per_query

SIZE = 500  # scan mode is O(|D|) per query; keep the corpus small
N_Q = 10


class _Mode:
    def __init__(self, engine, mode):
        self._engine = engine
        self._mode = mode

    def search(self, query, k=10):
        return self._engine.search(query, k=k, mode=self._mode)


def run_experiment():
    engine = H.fig_engine(SIZE)
    oracle = H.topic_oracle(SIZE)
    q = sample_queries(H.retrieval_corpus(SIZE), n_queries=N_Q, seed=H.QUERY_SEED)

    rows, stats = [], {}
    for mode in ("index", "scan"):
        system = _Mode(engine, mode)
        precision = evaluate_retrieval(system, q, oracle, cutoffs=(10,))[10]
        latency = time_per_query(system, q, k=10).mean
        stats[mode] = (precision, latency)
        rows.append(f"{mode:<6} P@10={precision:.3f}  latency={latency * 1000:8.2f} ms")
    speedup = stats["scan"][1] / stats["index"][1]
    rows.append(f"speedup: {speedup:.1f}x")
    return rows, stats


@pytest.mark.benchmark(group="ablation")
def test_ablation_index(benchmark, capsys):
    rows, stats = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    H.report(
        "ablation_index",
        "Ablation: inverted index + TA vs sequential scan",
        rows,
        capsys,
        data={
            "modes": {
                m: {"p_at_10": p, "latency_s": t} for m, (p, t) in stats.items()
            },
            "speedup": stats["scan"][1] / stats["index"][1],
        },
    )
    index_p, index_t = stats["index"]
    scan_p, scan_t = stats["scan"]
    assert index_t < scan_t / 2, "the index must be substantially faster than the scan"
    # The index is an approximation (it drops the smoothing term of every
    # query clique an object does not fully contain); we report the
    # measured precision cost and bound it.
    assert index_p >= scan_p - 0.25, "the index approximation drifted too far from the exact model"

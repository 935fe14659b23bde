"""Golden access counts of scalar ``mode="index"`` (Algorithm 1's TA).

``data/ta_counters.json`` holds, for every object of the two test
corpora used as a query (``k=10``, default parameters, the query
excluded), the counters ``search_with_stats(mode="index")`` reports:
``[sorted_accesses, random_accesses, rounds, n_sources,
total_posting_entries]``.  Rankings are gated elsewhere; these pin the
walk itself — which sources exist, how long they are after exclusion,
and how deep the Threshold Algorithm reads before it stops — so a
change to source construction, ordering or the stop rule shows here
even when it leaves every top-10 intact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.retrieval import RetrievalEngine

GOLDEN = json.loads((Path(__file__).parent / "data" / "ta_counters.json").read_text())


@pytest.fixture(scope="module")
def engines(engine, rec_corpus):
    return {"tiny": engine, "rec": RetrievalEngine(rec_corpus)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scalar_ta_counters_match_golden(engines, name):
    engine = engines[name]
    assert sorted(o.object_id for o in engine.corpus) == sorted(GOLDEN[name])
    drifted = {}
    for query in engine.corpus:
        _, stats = engine.search_with_stats(query, k=10, mode="index")
        got = [
            stats.sorted_accesses,
            stats.random_accesses,
            stats.rounds,
            stats.n_sources,
            stats.total_posting_entries,
        ]
        if got != GOLDEN[name][query.object_id]:
            drifted[query.object_id] = (got, GOLDEN[name][query.object_id])
    assert not drifted, f"{len(drifted)} queries drifted, e.g. {next(iter(drifted.items()))}"

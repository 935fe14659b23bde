"""Ablation — posting-list compression on the real clique index.

At the paper's 236K-object scale the clique index holds millions of
postings; memory is the practical constraint our DESIGN.md calls out.
This ablation measures the varint/delta codec of
:mod:`repro.index.compression` on the actual posting data of a built
index: total raw bytes (8 B per id) vs compressed bytes, plus the
decode correctness over every posting.  Expected shape: multi-x
compression, higher for long (dense-gap) postings.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.index.compression import decode_postings, encode_postings


def run_experiment():
    corpus = H.retrieval_corpus()
    engine = H.fig_engine()
    index = engine.index
    id_of = {obj.object_id: i for i, obj in enumerate(corpus)}

    raw_bytes = 0
    compressed_bytes = 0
    n_postings = 0
    mismatches = 0
    for posting in index.iter_postings():
        ids = sorted(id_of[oid] for oid in posting.object_ids)
        data = encode_postings(ids)
        if decode_postings(data) != ids:
            mismatches += 1
        raw_bytes += len(ids) * 8
        compressed_bytes += len(data)
        n_postings += 1

    ratio = raw_bytes / compressed_bytes if compressed_bytes else 1.0
    rows = [
        f"postings           : {n_postings}",
        f"raw bytes (8B/id)  : {raw_bytes}",
        f"varint bytes       : {compressed_bytes}",
        f"compression ratio  : {ratio:.2f}x",
        f"decode mismatches  : {mismatches}",
    ]
    return rows, (ratio, mismatches)


@pytest.mark.benchmark(group="ablation")
def test_ablation_compression(benchmark, capsys):
    rows, (ratio, mismatches) = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    H.report(
        "ablation_compression",
        "Ablation: posting-list compression",
        rows,
        capsys,
        data={"compression_ratio": ratio, "decode_mismatches": mismatches},
    )
    assert mismatches == 0, "compressed postings must decode exactly"
    assert ratio > 3.0, "varint/delta should compress the index multi-x"

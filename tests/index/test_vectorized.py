"""Block-max vectorized scoring: emission order, pruning, parity.

Unit coverage for :mod:`repro.index.vectorized` against synthetic
multi-block postings: the block-max source must emit exactly the scalar
``(-impact, id)`` order (ties included) while opening only the blocks
the walk reaches, the dense accumulator must match per-id random
access bit for bit, and the stored/rebuilt block maxima must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.diagnostics.contracts import ContractViolation
from repro.index.binfmt import BLOCK_SIZE, BinaryIndexReader, write_index_file
from repro.index.postings import Posting
from repro.index.vectorized import (
    MAX_MIXED_CACHE,
    AccumulatorPool,
    BlockMaxSource,
    PostingVectors,
    accumulate_scores,
    block_maxima,
)

N_ENTRIES = 3 * BLOCK_SIZE + 17  # four blocks, last one ragged


def _synthetic_vectors(seed: int = 0) -> PostingVectors:
    """A four-block posting with deliberate ties and zero impacts."""
    rng = np.random.default_rng(seed)
    ids = np.arange(N_ENTRIES, dtype=np.int64)
    freq = rng.uniform(0.0, 1.0, N_ENTRIES)
    freq[rng.integers(0, N_ENTRIES, 40)] = 0.5  # cross-block ties
    freq[rng.integers(0, N_ENTRIES, 25)] = 0.0  # dropped on emission
    smooth = rng.uniform(0.0, 0.5, N_ENTRIES)
    smooth[freq == 0.0] = 0.0
    return PostingVectors("tag:test", 0.8, ids, freq, smooth)


def _expected_entries(vectors, alpha, inner, outer, exclude=()):
    """The scalar reference: every positive entry, scaled with Python
    floats, in ``(-impact, id)`` order."""
    impacts = alpha * vectors.freq + (1.0 - alpha) * vectors.smooth
    entries = [
        (int(i), outer * (inner * float(p)))
        for i, p in zip(vectors.ids, impacts)
        if p > 0.0 and int(i) not in exclude
    ]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


# ----------------------------------------------------------------------
# block maxima
# ----------------------------------------------------------------------
def test_block_maxima_matches_manual():
    values = np.arange(N_ENTRIES, dtype=np.float64) % 97
    maxima = block_maxima(values)
    expected = [
        values[lo : lo + BLOCK_SIZE].max() for lo in range(0, N_ENTRIES, BLOCK_SIZE)
    ]
    assert maxima.tolist() == expected


def test_block_maxima_empty():
    assert len(block_maxima(np.empty(0))) == 0


# ----------------------------------------------------------------------
# emission order and parity with the scalar source
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [0.0, 0.37, 0.5, 1.0])
def test_emission_matches_scalar_order_bitwise(alpha):
    vectors = _synthetic_vectors()
    source = BlockMaxSource(vectors, alpha, inner=0.3, outer=2.0)
    expected = _expected_entries(vectors, alpha, 0.3, 2.0)
    assert len(source) == len(expected)
    got = [source.entry(rank) for rank in range(len(expected))]
    assert got == expected  # ids AND float scores, ties by ascending id


def test_entry_past_end_raises():
    vectors = _synthetic_vectors()
    source = BlockMaxSource(vectors, 0.5, inner=1.0)
    with pytest.raises(IndexError):
        source.entry(len(source))
    # all blocks were forced open on the way to exhaustion
    assert source.blocks_opened == source.blocks_total
    assert source.blocks_skipped == 0


def test_shallow_walk_skips_blocks():
    """Concentrating mass in one block lets a short walk prune the
    rest — the WAND-style win the stats report."""
    ids = np.arange(N_ENTRIES, dtype=np.int64)
    freq = np.full(N_ENTRIES, 0.01)
    freq[:BLOCK_SIZE] = np.linspace(5.0, 4.0, BLOCK_SIZE)  # hot first block
    smooth = np.zeros(N_ENTRIES)
    vectors = PostingVectors("tag:hot", 1.0, ids, freq, smooth)
    source = BlockMaxSource(vectors, 1.0, inner=1.0)
    for rank in range(8):
        source.entry(rank)
    assert source.blocks_opened == 1
    assert source.blocks_skipped == source.blocks_total - 1 > 0


# ----------------------------------------------------------------------
# exclusion
# ----------------------------------------------------------------------
def test_exclusion_drops_entries_everywhere():
    vectors = _synthetic_vectors()
    alpha, inner = 0.5, 0.7
    impacts = alpha * vectors.freq + (1.0 - alpha) * vectors.smooth
    positive = int(np.argmax(impacts > 0.0))
    zero = int(np.argmin(impacts > 0.0))
    missing = N_ENTRIES + 100
    exclude = {positive, zero, missing}
    source = BlockMaxSource(vectors, alpha, inner=inner, exclude=exclude)
    expected = _expected_entries(vectors, alpha, inner, 1.0, exclude=exclude)
    # only the positive excluded entry shrinks the source
    assert len(source) == source.n_pairs - 1
    assert [source.entry(r) for r in range(len(expected))] == expected
    for dense in exclude:
        assert source.score(dense) == 0.0


def test_score_random_access():
    vectors = _synthetic_vectors()
    alpha, inner, outer = 0.37, 0.3, 2.0
    source = BlockMaxSource(vectors, alpha, inner=inner, outer=outer)
    impacts = alpha * vectors.freq + (1.0 - alpha) * vectors.smooth
    for dense in (0, 1, N_ENTRIES - 1):
        impact = float(impacts[dense])
        expected = outer * (inner * impact) if impact > 0.0 else 0.0
        assert source.score(dense) == expected
    assert source.score(N_ENTRIES + 5) == 0.0  # absent id


# ----------------------------------------------------------------------
# accumulator
# ----------------------------------------------------------------------
def test_accumulate_matches_per_id_score_sum():
    sources = [
        BlockMaxSource(_synthetic_vectors(seed), 0.5, inner=0.2 * (seed + 1))
        for seed in range(3)
    ]
    acc = accumulate_scores(sources, N_ENTRIES).tolist()
    for dense in range(0, N_ENTRIES, 7):
        total = 0.0
        for source in sources:
            total += source.score(dense)
        assert acc[dense] == total  # bit-identical, source order preserved


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
def test_mixed_view_cached_per_alpha_with_fifo_eviction():
    vectors = _synthetic_vectors()
    first = vectors.mixed(0.5)
    assert vectors.mixed(0.5) is first
    for i in range(MAX_MIXED_CACHE):
        vectors.mixed(i / (MAX_MIXED_CACHE + 1))
    assert vectors.mixed(0.5) is not first  # evicted, rebuilt fresh


def test_block_runs_shared_across_sources():
    vectors = _synthetic_vectors()
    a = BlockMaxSource(vectors, 0.5, inner=1.0)
    b = BlockMaxSource(vectors, 0.5, inner=2.0)
    a.entry(0)
    b.entry(0)
    assert a._mv is b._mv and len(a._mv.block_runs) >= 1


# ----------------------------------------------------------------------
# contracts
# ----------------------------------------------------------------------
def test_corrupt_block_bound_detected_under_contracts(contracts_on):
    vectors = _synthetic_vectors()
    bad_bounds = np.zeros_like(vectors.block_max_freq)  # bounds below members
    broken = PostingVectors(
        "tag:bad", 1.0, vectors.ids, vectors.freq, vectors.smooth,
        bad_bounds, np.zeros_like(vectors.block_max_smooth),
    )
    source = BlockMaxSource(broken, 1.0, inner=1.0)
    with pytest.raises(ContractViolation, match="block"):
        source.entry(0)


# ----------------------------------------------------------------------
# stored blockmax round trip
# ----------------------------------------------------------------------
def test_stored_block_max_matches_rebuilt(tmp_path):
    small = Posting("tag:small", cors=0.5)
    for i in range(5):
        small.add(f"s{i:03d}", float(i + 1), 0.25)
    big = Posting("tag:big", cors=0.5)
    for i in range(2 * BLOCK_SIZE + 9):
        big.add(f"b{i:04d}", float((i * 7) % 100 + 1), float(i % 13) / 13.0)
    path = write_index_file(
        tmp_path / "index.bin", [small, big], n_objects=600, max_clique_size=2
    )
    with BinaryIndexReader(path) as reader:
        # single-block postings store no bounds: consumers rebuild
        assert reader.posting_block_max(reader.find_slot("tag:small")) is None
        slot = reader.find_slot("tag:big")
        stored = reader.posting_block_max(slot)
        assert stored is not None
        freq, smooth = reader.posting_components(slot)
        np.testing.assert_array_equal(stored[0], block_maxima(freq))
        np.testing.assert_array_equal(stored[1], block_maxima(smooth))


# ----------------------------------------------------------------------
# accumulator pool
# ----------------------------------------------------------------------
def test_pooled_accumulator_matches_fresh_allocation():
    vectors = _synthetic_vectors()
    n = int(vectors.ids.max()) + 1
    sources = [BlockMaxSource(vectors, 0.5, inner=0.7, outer=1.3)]
    fresh = accumulate_scores(sources, n)
    pool = AccumulatorPool(n)
    pooled = accumulate_scores(sources, n, out=pool.acquire())
    np.testing.assert_array_equal(pooled, fresh)


def test_pool_release_resets_dirty_slots_and_recycles():
    vectors = _synthetic_vectors()
    n = int(vectors.ids.max()) + 1
    sources = [
        BlockMaxSource(vectors, 0.5, inner=0.7),
        BlockMaxSource(vectors, 0.25, inner=1.1),
    ]
    pool = AccumulatorPool(n)
    acc = accumulate_scores(sources, n, out=pool.acquire())
    assert acc.any()
    pool.release(acc, sources)
    recycled = pool.acquire()
    assert recycled is acc  # the same array came back...
    assert not recycled.any()  # ...restored to all zeros
    # And a second round over the recycled array scores identically.
    again = accumulate_scores(sources, n, out=recycled)
    np.testing.assert_array_equal(again, accumulate_scores(sources, n))


def test_pool_drops_foreign_sizes_and_caps_free_list():
    pool = AccumulatorPool(16, max_pooled=1)
    wrong = np.zeros(99, dtype=np.float64)
    pool.release(wrong, [])
    a, b = pool.acquire(), pool.acquire()
    pool.release(a, [])
    pool.release(b, [])
    assert pool.acquire() is a  # capped at one pooled array
    assert pool.acquire() is not b

"""The benchmark's own accounting: schedules, percentiles, failures."""

from collections import Counter

import pytest

from pbench.measure import (
    MIN_BEYOND,
    Tally,
    is_backlogged,
    open_loop_schedule,
    percentile,
)

IDS = [f"obj{i:06d}" for i in range(500)]
HOT = IDS[-20:]


def _schedule(seed, **kwargs):
    args = dict(duration_s=20, rate=10.0, distinct_ids=IDS[:400], hot_ids=HOT, n_batches=10)
    args.update(kwargs)
    return open_loop_schedule(seed, **args)


def test_schedule_is_a_function_of_the_seed():
    assert _schedule(3) == _schedule(3)
    assert _schedule(3) != _schedule(4)


def test_schedule_mix_spacing_and_order():
    ops = _schedule(7)
    kinds = Counter(op.kind for op in ops)
    assert kinds == {"search": 130, "repeat": 60, "ingest": 10}
    assert [op.due for op in ops] == [i / 10.0 for i in range(200)]
    searches = [op.key for op in ops if op.kind == "search"]
    assert searches == IDS[:130]  # each distinct id once, in order
    assert [op.key for op in ops if op.kind == "ingest"] == list(range(10))
    assert all(op.key in HOT for op in ops if op.kind == "repeat")


def test_schedule_caps_ingests_at_the_stream():
    ops = _schedule(1, n_batches=3)
    assert sum(op.kind == "ingest" for op in ops) == 3


def test_schedule_rejects_too_few_distinct_ids():
    with pytest.raises(ValueError):
        _schedule(1, distinct_ids=IDS[:10])


def test_percentile_carries_count_and_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    p50, p90 = percentile(samples, 50), percentile(samples, 90)
    assert (p50.value, p50.n, p50.beyond) == (50.0, 100, 50)
    assert (p90.value, p90.n, p90.beyond) == (90.0, 100, 10)
    assert p90.supported and p90.beyond == MIN_BEYOND
    assert "n=100" in p90.describe("ms") and "10 beyond" in p90.describe("ms")


def test_tail_without_enough_samples_beyond_is_flagged():
    p90 = percentile([float(v) for v in range(20)], 90)
    assert p90.beyond == 2 and not p90.supported
    assert "too few samples beyond" in p90.describe("ms")


def test_percentile_ties_count_only_strictly_greater():
    p50 = percentile([1.0, 1.0, 1.0, 2.0], 50)
    assert (p50.value, p50.beyond) == (1.0, 1)


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_failed_ratio_accounting():
    tally = Tally()
    tally.ok(3)
    tally.fail("bad status")
    assert tally.check(True, "unused")
    assert not tally.check(False, "wrong ranking")
    assert (tally.attempted, tally.failed) == (6, 2)
    assert tally.failed_ratio == pytest.approx(2 / 6)
    assert tally.reasons == ["bad status", "wrong ranking"]
    assert Tally().failed_ratio == 0.0


def test_backlog_is_growing_latency_not_a_slow_request():
    flat = [10.0] * 40
    flat[20] = 900.0  # one slow ingest is not a backlog
    assert not is_backlogged(flat, interval_ms=100.0)
    growing = [10.0 + 20.0 * i for i in range(40)]
    assert is_backlogged(growing, interval_ms=100.0)

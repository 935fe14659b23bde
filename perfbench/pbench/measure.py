"""Summaries the benchmark reports, kept free of any program import so
they can be unit-tested on their own: percentiles that carry their
sample counts, failure accounting, the seeded open-loop schedule and the
backlog test that decides whether an open-loop phase measured latency
at all."""

from __future__ import annotations

import math
import random
import statistics
from collections.abc import Sequence
from typing import Any
from dataclasses import dataclass, field

#: Timing percentiles always reported (median and the tail).
P50, P90 = 50.0, 90.0

#: A tail percentile is only meaningful with this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A percentile together with the evidence behind it."""

    q: float
    value: float
    n: int
    beyond: int  # samples strictly greater than ``value``

    @property
    def supported(self) -> bool:
        """True when the median, or a tail with enough samples beyond it."""
        return self.q <= P50 or self.beyond >= MIN_BEYOND

    def describe(self, unit: str) -> str:
        note = "" if self.supported else ", too few samples beyond"
        return f"p{self.q:g}={self.value:.4f} {unit} (n={self.n}, {self.beyond} beyond{note})"


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for s in ordered if s > value)
    return Percentile(q=q, value=value, n=len(ordered), beyond=beyond)


@dataclass
class Tally:
    """Attempted vs failed operations; a failure is an error, a non-2xx
    response or an output that fails its correctness check."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Count one operation, failed unless ``condition`` holds."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass(frozen=True)
class Op:
    """One scheduled open-loop request: due ``due`` seconds after the
    phase starts; ``key`` is an object id (search/repeat) or a stream
    batch number (ingest)."""

    due: float
    kind: str
    key: str | int


def open_loop_schedule(
    seed: int,
    duration_s: float,
    rate: float,
    distinct_ids: Sequence[str],
    hot_ids: Sequence[str],
    n_batches: int,
    repeat_share: float = 0.30,
    ingest_share: float = 0.05,
) -> list[Op]:
    """The open-loop request sequence, a function of its arguments only.

    Arrivals are evenly spaced at ``rate``; the kinds are shuffled from
    exact counts (``ingest_share`` ingests, capped at ``n_batches``;
    ``repeat_share`` repeats of a Zipf-weighted draw from ``hot_ids``;
    the rest distinct searches taken in order from ``distinct_ids``).
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    n = int(round(duration_s * rate))
    n_ingest = min(n_batches, int(round(n * ingest_share)))
    n_repeat = int(round(n * repeat_share)) if hot_ids else 0
    n_search = n - n_ingest - n_repeat
    if n_search > len(distinct_ids):
        raise ValueError(f"schedule needs {n_search} distinct ids, got {len(distinct_ids)}")
    rng = random.Random(seed)
    kinds = ["search"] * n_search + ["repeat"] * n_repeat + ["ingest"] * n_ingest
    rng.shuffle(kinds)
    weights = [1.0 / (rank + 1) for rank in range(len(hot_ids))]
    searches = iter(distinct_ids)
    batches = iter(range(n_ingest))
    ops = []
    for i, kind in enumerate(kinds):
        if kind == "search":
            key: str | int = next(searches)
        elif kind == "repeat":
            key = rng.choices(hot_ids, weights=weights)[0]
        else:
            key = next(batches)
        ops.append(Op(due=i / rate, kind=kind, key=key))
    return ops


def is_backlogged(latencies_ms: Sequence[float], interval_ms: float) -> bool:
    """True when latency grows across an open-loop phase: the median of
    its last quarter exceeds the first quarter's by more than one
    arrival interval, so requests queued behind each other."""
    if len(latencies_ms) < 8:
        return False
    quarter = len(latencies_ms) // 4
    first = statistics.median(latencies_ms[:quarter])
    last = statistics.median(latencies_ms[-quarter:])
    return last - first > interval_ms


def interleave(primary: Sequence[Any], secondary: Sequence[Any]) -> list[tuple[str, Any]]:
    """``primary`` items tagged ``"primary"`` with the ``secondary`` ones
    spread evenly between them, so both are sampled across a window."""
    ops: list[tuple[str, Any]] = [("primary", item) for item in primary]
    if secondary:
        step = len(ops) / len(secondary)
        for j, item in reversed(list(enumerate(secondary))):
            ops.insert(int(round((j + 0.5) * step)), ("secondary", item))
    return ops

"""Span bookkeeping: self time and the unattributed remainder."""

import json

from pbench.tracing import Tracer, covered


def _clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_is_parent_minus_time_children_cover():
    tracer = Tracer(clock=_clock(0.0, 10.0))
    with tracer.span("parent"):
        tracer.record("child", 1.0, 3.0)
        tracer.record("child", 2.0, 5.0)  # overlaps the first: counted once
        tracer.record("child", 7.0, 8.0)
    (parent,) = tracer.named("parent")
    assert all(s.parent == parent.id for s in tracer.named("child"))
    assert tracer.self_time(parent) == 5.0
    assert tracer.self_times() == {"parent": 5.0, "child": 2.0 + 3.0 + 1.0}


def test_nesting_request_ids_and_unattributed_remainder(tmp_path):
    tracer = Tracer(clock=_clock(1.0, 2.0, 3.0, 4.0))
    with tracer.span("outer", request="q1"):
        with tracer.span("inner", request="q1"):
            pass
    (outer,), (inner,) = tracer.named("outer"), tracer.named("inner")
    assert inner.parent == outer.id and outer.parent is None
    assert (outer.start, outer.end, inner.start, inner.end) == (1.0, 4.0, 2.0, 3.0)
    assert inner.request == "q1"
    assert tracer.unattributed(0.0, 5.0) == 2.0
    tracer.dump(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["outer", "inner"]


def test_spans_recorded_on_other_threads_attach_to_the_given_parent():
    import threading

    tracer = Tracer(clock=_clock(0.0, 10.0))
    with tracer.span("phase"):
        parent = tracer.current()
        worker = threading.Thread(target=tracer.record, args=("request", 1.0, 4.0, "q1", parent))
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    (phase,), (request,) = tracer.named("phase"), tracer.named("request")
    assert request.parent == phase.id
    assert tracer.self_time(phase) == 7.0
    assert tracer.current() is None

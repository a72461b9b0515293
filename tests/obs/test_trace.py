"""Unit tests for the span/tracer layer (repro.obs.trace)."""

from __future__ import annotations

import threading

import pytest

from repro.obs.trace import NULL_SPAN, Span, Tracer


def test_span_tree_nesting_and_completion():
    tracer = Tracer()
    root = tracer.start_trace("request", 1.0, request_id=7, lane="solve")
    queue = tracer.start_span("queue", root, 1.0)
    queue.finish(2.0)
    solve = tracer.start_span("solve", root, 2.0, solver="qr")
    solve.finish(5.0)
    tracer.end_trace(root, 5.5)
    assert root.is_complete()
    assert root.end == 5.5
    assert [s.name for s in root.walk()] == ["request", "queue", "solve"]
    assert root.find("solve") is solve
    assert root.find_all("queue") == [queue]
    assert solve.parent_id == root.span_id
    assert solve.trace_id == root.trace_id


def test_child_start_clamped_to_parent():
    tracer = Tracer()
    root = tracer.start_trace("request", 10.0)
    child = tracer.start_span("early", root, 3.0)  # before the parent started
    assert child.start == 10.0


def test_finish_extends_over_children_and_clamps():
    tracer = Tracer()
    root = tracer.start_trace("request", 0.0)
    child = tracer.start_span("long", root, 1.0)
    child.finish(9.0)
    tracer.end_trace(root, 4.0)  # earlier than the child's end
    assert root.end == 9.0
    assert root.is_complete()
    # An end before the start clamps to a zero-duration span, never negative.
    span = Span("s", "t", "s1", None, 5.0)
    span.finish(2.0)
    assert span.end == 5.0
    assert span.duration == 0.0


def test_event_is_zero_duration_and_finished():
    tracer = Tracer()
    root = tracer.start_trace("request", 0.0)
    ev = tracer.event("drift", root, 3.0, kind="residual_energy")
    assert ev.start == ev.end == 3.0
    assert ev.duration == 0.0
    assert ev.attributes["kind"] == "residual_energy"


def test_status_propagation():
    tracer = Tracer()
    root = tracer.start_trace("request", 0.0)
    tracer.event("shed", root, 1.0, status="shed", reason="deadline")
    tracer.end_trace(root, 1.0, status="shed")
    assert root.status == "shed"
    assert root.find("shed").status == "shed"


def test_completed_retention_is_bounded_but_counters_are_not():
    tracer = Tracer(max_traces=4)
    for i in range(10):
        root = tracer.start_trace("request", float(i))
        tracer.end_trace(root, float(i) + 0.5)
    traces = tracer.traces()
    assert len(traces) == 4  # oldest evicted
    assert [t.start for t in traces] == [6.0, 7.0, 8.0, 9.0]
    assert tracer.traces_started == 10
    assert tracer.traces_completed == 10
    assert tracer.active_count() == 0


def test_find_trace_covers_active_and_completed():
    tracer = Tracer()
    active = tracer.start_trace("request", 0.0)
    done = tracer.start_trace("request", 1.0)
    tracer.end_trace(done, 2.0)
    assert tracer.find_trace(active.trace_id) is active
    assert tracer.find_trace(done.trace_id) is done
    assert tracer.find_trace("t_missing") is None


def test_disabled_tracer_is_inert():
    tracer = Tracer(enabled=False)
    root = tracer.start_trace("request", 0.0, lane="solve")
    assert root is NULL_SPAN
    child = tracer.start_span("solve", root, 1.0)
    assert child is NULL_SPAN
    child.set(solver="qr").finish(2.0, status="error")  # all swallowed
    tracer.event("x", root, 1.0)
    tracer.end_trace(root, 3.0)
    assert tracer.traces() == []
    assert tracer.traces_started == 0
    assert not NULL_SPAN.is_complete()
    assert NULL_SPAN.attributes == {}


def test_clear_keeps_counters():
    tracer = Tracer()
    tracer.end_trace(tracer.start_trace("request", 0.0), 1.0)
    tracer.clear()
    assert tracer.traces() == []
    assert tracer.traces_completed == 1


def test_as_dict_round_trip():
    tracer = Tracer()
    root = tracer.start_trace("request", 0.0, lane="ridge")
    tracer.start_span("solve", root, 0.5, solver="qr").finish(1.0)
    tracer.end_trace(root, 1.5)
    d = root.as_dict()
    assert d["name"] == "request"
    assert d["attributes"] == {"lane": "ridge"}
    assert d["duration_seconds"] == pytest.approx(1.5)
    assert d["children"][0]["name"] == "solve"
    assert d["children"][0]["parent_id"] == root.span_id


def test_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Tracer(max_traces=0)


def _growing_trace(tracer, start, calls):
    """End a root whose single child is grown on read; count the growths."""
    root = tracer.start_trace("request", start)

    def grow(r):
        calls.append(r.trace_id)
        tracer.start_span("solve", r, start).finish(start + 0.5)

    tracer.end_trace(root, start + 1.0, grow=grow)
    return root


def test_grow_runs_once_on_first_read():
    tracer = Tracer()
    calls = []
    root = _growing_trace(tracer, 0.0, calls)
    assert root.children == [] and calls == []  # closed, not yet grown
    assert root.end == 1.0 and tracer.traces_completed == 1
    assert tracer.traces() == [root]
    assert [s.name for s in root.walk()] == ["request", "solve"]
    assert root.is_complete()
    assert tracer.traces() == [root]
    assert tracer.find_trace(root.trace_id) is root
    assert calls == [root.trace_id]  # read three times, grown once


def test_find_trace_grows_too():
    tracer = Tracer()
    calls = []
    root = _growing_trace(tracer, 0.0, calls)
    assert tracer.find_trace(root.trace_id) is root
    assert calls == [root.trace_id]
    assert root.find("solve") is not None
    tracer.traces()
    assert calls == [root.trace_id]


def test_grown_span_ids_are_numbered_at_growth():
    tracer = Tracer()
    first = _growing_trace(tracer, 0.0, [])
    second = tracer.start_trace("request", 2.0)
    tracer.end_trace(second, 3.0)
    tracer.traces()
    child = first.children[0]
    assert child.parent_id == first.span_id and child.trace_id == first.trace_id
    ids = [first.span_id, second.span_id, child.span_id]
    assert len(set(ids)) == 3
    assert int(child.span_id[1:], 16) > int(second.span_id[1:], 16)


def test_evicted_and_sampled_out_traces_never_grow():
    calls = []
    tracer = Tracer(max_traces=4)
    roots = [_growing_trace(tracer, float(i), calls) for i in range(64)]
    assert tracer.traces() == roots[-4:]
    assert calls == [r.trace_id for r in roots[-4:]]

    calls = []
    sampled = Tracer(sample_every=8)
    roots = [_growing_trace(sampled, float(i), calls) for i in range(64)]
    kept = sampled.traces()
    assert kept == roots[::8]
    assert calls == [r.trace_id for r in kept]
    assert sampled.traces_completed == 64


def test_concurrent_readers_never_see_a_half_grown_tree():
    tracer = Tracer()
    entered = threading.Event()
    release = threading.Event()
    root = tracer.start_trace("request", 0.0)

    def grow(r):
        tracer.start_span("queue", r, 0.0).finish(0.5)
        entered.set()
        release.wait(5.0)
        tracer.start_span("solve", r, 0.5).finish(1.0)

    tracer.end_trace(root, 1.0, grow=grow)
    seen = []
    first = threading.Thread(target=lambda: seen.append(tracer.traces()))
    first.start()
    assert entered.wait(5.0)
    second = threading.Thread(target=lambda: seen.append(tracer.traces()))
    second.start()
    second.join(0.2)
    assert second.is_alive()  # waits for the first reader's growth
    release.set()
    first.join(5.0)
    second.join(5.0)
    assert len(seen) == 2
    for traces in seen:
        assert [s.name for s in traces[0].walk()] == ["request", "queue", "solve"]


def _per_call_roots(tracer):
    """Reference: every root opened by ``start_trace`` + an admission event."""
    def grow(root, residual):
        tracer.start_span("solve", root, 6.0).finish(9.0, residual=residual)

    admitted = []
    for i in range(5):
        root = tracer.start_trace("request", float(i), request_id=i)
        tracer.event("admission", root, float(i), queue_depth=i + 1)
        admitted.append(root)
    fresh = tracer.start_trace("request", 5.0, request_id=100)
    for root, residual in zip((admitted[0], fresh, admitted[1]), (0.1, 0.2, 0.3)):
        tracer.end_trace(root, 10.0, grow=lambda r, res=residual: grow(r, res))
    tracer.event("shed", admitted[2], 11.0, status="shed", reason="deadline")
    tracer.end_trace(admitted[2], 11.0, status="shed")
    for root in admitted[3:]:
        tracer.end_trace(root, 12.0, status="error", error="ValueError")


def _reserved_roots(tracer):
    """The same trees: roots reserved at admission, closed per batch."""
    def grow(root, residual):
        tracer.start_span("solve", root, 6.0).finish(9.0, residual=residual)

    admitted = [
        (tracer.reserve_root(), float(i), {"request_id": i}, "admission", {"queue_depth": i + 1})
        for i in range(5)
    ]
    tracer.complete_roots(
        "request", 5.0, 10.0, [admitted[0], {"request_id": 100}, admitted[1]],
        grow=grow, grow_args=[0.1, 0.2, 0.3],
    )
    shed = tracer.open_reserved("request", admitted[2])
    tracer.event("shed", shed, 11.0, status="shed", reason="deadline")
    tracer.end_trace(shed, 11.0, status="shed")
    tracer.complete_roots("request", 12.0, 12.0, admitted[3:], status="error", error="ValueError")


def _snapshot(tracer):
    return (
        [t.as_dict() for t in tracer.traces()],
        tracer.traces_started, tracer.traces_completed, tracer.traces_retained,
        tracer.active_count(),
    )


@pytest.mark.parametrize("sample_every", [1, 2, 3])
def test_reserved_roots_close_like_per_call_roots(sample_every):
    reference, reserved = Tracer(sample_every=sample_every), Tracer(sample_every=sample_every)
    _per_call_roots(reference)
    _reserved_roots(reserved)
    assert _snapshot(reserved) == _snapshot(reference)
    assert reserved.traces_started == reserved.traces_completed == 6


def test_reserved_roots_count_as_active_until_closed_or_cleared():
    tracer = Tracer()
    first = (tracer.reserve_root(), 0.0, {}, "admission", {})
    second = (tracer.reserve_root(), 0.0, {}, "admission", {})
    assert tracer.active_count() == 2 and tracer.traces_started == 2
    tracer.complete_roots("request", 0.0, 1.0, [first])
    assert tracer.active_count() == 1 and tracer.traces_completed == 1
    tracer.clear()
    assert tracer.active_count() == 0
    # A reservation dropped by clear() closes uncounted, like an active root.
    tracer.complete_roots("request", 0.0, 1.0, [second])
    tracer.end_trace(tracer.open_reserved("request", second), 1.0)
    assert tracer.traces_completed == 1 and tracer.traces() == []


def test_disabled_tracer_reserves_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.reserve_root() is None
    assert tracer.active_count() == 0 and tracer.traces_started == 0

"""Per-request tracing on the simulated clock: spans, trees, and a tracer.

A :class:`Span` is one named interval of a request's life -- ``queue``,
``plan``, ``batch``, ``solver:rand_cholqr`` -- with a start/end in
*simulated* seconds (shard executor clocks and the alpha-beta comm model,
never a wall clock), a bag of attributes (solver family, shard id, cache
hit, fallback hop) and child spans.  A trace is the span tree hanging off
one root; every admitted request gets exactly one.

The :class:`Tracer` hands out spans and retains a bounded number of
completed traces (a long-lived server must not grow per-request state
without limit).  Timestamps are always passed in explicitly by the caller
-- the tracer never reads a clock -- which is what keeps the tracing
overhead zero *on the simulated clock*: instrumentation only reads clocks
the cost model already advanced.

A completed root may defer its children: ``end_trace(..., grow=fn)`` closes
the root at once (id, counters, sampling and status are settled there) and
keeps ``fn``, which :meth:`Tracer.traces` and :meth:`Tracer.find_trace` call
exactly once, on first read, to add the children.  A trace evicted from the
bounded deque or sampled out is never read, so its children are never
built; child span ids are numbered when the tree grows.

A fused batch's riders, whose roots open and close in one call, go through
:meth:`Tracer.complete_roots`: one lock section for the whole batch, the
same ids, counters and sampling decisions as one ``start_trace`` /
``end_trace`` pair per rider, and each retained root kept as a small record
that becomes its :class:`Span` on first read.  A root that must take its
ids when its request is admitted but closes with its batch is *reserved*
(:meth:`Tracer.reserve_root`): the ids of the root and of its first event
and the head-sampling decision are settled then, no Span is built, and the
batch's :meth:`Tracer.complete_roots` closes it with the others.

Two invariants the instrumentation (and the test-suite) relies on:

* child spans nest inside their parent on the simulated clock --
  ``start_span`` clamps a child's start up to its parent's, and finishing
  a span extends its end over its children;
* a disabled tracer costs one attribute lookup per call: every method
  returns the shared :data:`NULL_SPAN`, which swallows all mutation.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = ["Span", "Tracer", "NULL_SPAN"]

#: Span status values: ``ok``, ``error`` (chain exhausted / ingest failed),
#: ``shed`` (dropped by admission control or the deadline dispatcher).
STATUSES = ("ok", "error", "shed")


class Span:
    """One named interval in a trace, with attributes and children."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end", "status",
        "attributes", "children", "_grow",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = float(start)
        self.end: Optional[float] = None
        self.status = "ok"
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.children: List["Span"] = []
        #: Deferred child builder of a completed root (see Tracer.end_trace).
        self._grow: Optional[Callable[["Span"], None]] = None

    # ------------------------------------------------------------------
    def set(self, **attributes: object) -> "Span":
        """Attach attributes (chainable)."""
        self.attributes.update(attributes)
        return self

    def finish(self, end: float, status: str = "ok", **attributes: object) -> "Span":
        """Close the span at ``end`` (clamped over its start and children)."""
        if attributes:
            self.attributes.update(attributes)
        end = float(end)
        for child in self.children:
            if child.end is not None and child.end > end:
                end = child.end
        if end < self.start:
            end = self.start
        self.end = end
        self.status = status
        return self

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Simulated seconds covered (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with ``name``, pre-order."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        return [span for span in self.walk() if span.name == name]

    def is_complete(self) -> bool:
        """Every span in the tree closed, children nested inside parents."""
        if self.end is None:
            return False
        for child in self.children:
            if not child.is_complete():
                return False
            if child.start < self.start or child.end > self.end:
                return False
        return True

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form of the whole subtree."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_seconds": self.start,
            "end_seconds": self.end,
            "duration_seconds": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"[{self.start:.3e}, {self.end if self.end is None else format(self.end, '.3e')}], "
            f"status={self.status}, children={len(self.children)})"
        )


class _NullSpan(Span):
    """Inert span returned by a disabled tracer; swallows all mutation."""

    def __init__(self) -> None:
        super().__init__("null", "", "", None, 0.0)
        self.end = 0.0

    def set(self, **attributes: object) -> "Span":
        return self

    def finish(self, end: float, status: str = "ok", **attributes: object) -> "Span":
        return self

    def is_complete(self) -> bool:
        return False


#: Shared inert span: identity-comparable (``span is NULL_SPAN``) and safe
#: to call anything on.  All tracer methods return it when tracing is off.
NULL_SPAN = _NullSpan()


#: A root reserved by :meth:`Tracer.reserve_root`, as the caller keeps it:
#: ``(seq, start, attributes, event, event_attributes)``.
Reservation = Tuple[int, float, Dict[str, object], str, Dict[str, object]]


def _root_span(
    name: str, seq: int, start: float, attributes: Dict[str, object],
    event: Optional[Tuple[str, Dict[str, object]]] = None,
) -> Span:
    """An open root with trace-id number ``seq`` (span id ``seq + 1``).

    ``event = (name, attributes)`` adds the zero-duration child at ``start``
    that :meth:`Tracer.event` would have added, with span id ``seq + 2``.
    """
    root = Span(name, f"t{seq:08x}", f"s{seq + 1:08x}", None, start, attributes)
    if event is not None:
        child = Span(event[0], root.trace_id, f"s{seq + 2:08x}", root.span_id, root.start, event[1])
        root.children.append(child.finish(root.start))
    return root


class _ClosedRoot:
    """A root closed by :meth:`Tracer.complete_roots`, built into a Span on read.

    ``seq`` is the root's trace-id number (its span id is ``seq + 1``);
    ``event`` is a reserved root's first child (see :func:`_root_span`);
    ``grow(root, grow_arg)``, when set, becomes the Span's deferred builder.
    """

    __slots__ = ("name", "seq", "start", "end", "status", "attributes", "event",
                 "end_attributes", "grow", "grow_arg")

    def __init__(self, name, seq, start, end, status, attributes, event, end_attributes,
                 grow, grow_arg):
        self.name = name
        self.seq = seq
        self.start = start
        self.end = end
        self.status = status
        self.attributes = attributes
        self.event = event
        self.end_attributes = end_attributes
        self.grow = grow
        self.grow_arg = grow_arg

    def span(self) -> Span:
        """The root exactly as ``start_trace`` + ``end_trace`` would have left it."""
        root = _root_span(self.name, self.seq, self.start, self.attributes, self.event)
        root.finish(self.end, status=self.status, **self.end_attributes)
        if self.grow is not None:
            grow, arg = self.grow, self.grow_arg
            root._grow = lambda r: grow(r, arg)
        return root


class Tracer:
    """Creates spans and retains a bounded deque of completed traces.

    Parameters
    ----------
    enabled:
        When False every method is a no-op returning :data:`NULL_SPAN`, so
        instrumented code needs no branches.
    max_traces:
        Completed-trace retention bound (oldest evicted first).  Eviction
        only drops the tree, not the counters: ``traces_started`` /
        ``traces_completed`` keep counting, so span-tree completeness is
        checkable even past the bound.
    sample_every:
        Head sampling: retain every Nth root trace (the first of each run
        of N), so tracing stays affordable at high QPS.  Sampling only
        affects *retention* in the completed deque -- every trace is still
        built, counted in ``traces_started``/``traces_completed``, and
        closed normally -- and traces ending in ``shed`` or ``error``
        status are ALWAYS retained regardless of the sampling decision
        (the interesting traces are exactly the ones something dropped).
        ``traces_retained`` counts what actually landed in the deque.
    """

    def __init__(
        self, enabled: bool = True, max_traces: int = 512, sample_every: int = 1
    ) -> None:
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        if sample_every <= 0:
            raise ValueError("sample_every must be positive (1 keeps everything)")
        self.enabled = bool(enabled)
        self.max_traces = int(max_traces)
        self.sample_every = int(sample_every)
        self._lock = threading.Lock()
        self._grow_lock = threading.Lock()
        self._seq = 0
        self._roots_seen = 0
        self._sampled_out: set = set()
        self._active: Dict[str, Span] = {}
        #: Reserved roots not yet closed: seq -> kept by head sampling.
        self._reserved: Dict[int, bool] = {}
        self._completed: Deque[Union[Span, _ClosedRoot]] = deque(maxlen=self.max_traces)
        self.traces_started = 0
        self.traces_completed = 0
        self.traces_retained = 0

    # ------------------------------------------------------------------
    def _next_id(self, prefix: str) -> str:
        with self._lock:
            self._seq += 1
            return f"{prefix}{self._seq:08x}"

    def start_trace(self, name: str, start: float, **attributes: object) -> Span:
        """Open a new trace; returns its root span."""
        if not self.enabled:
            return NULL_SPAN
        trace_id = self._next_id("t")
        root = Span(name, trace_id, self._next_id("s"), None, start, attributes)
        with self._lock:
            self._active[trace_id] = root
            self.traces_started += 1
            # Head-sampling decision, made at the root: keep the first of
            # every run of ``sample_every`` roots.  Recorded in a private
            # set (Span has __slots__ and the attribute bag belongs to the
            # instrumentation) and reconsidered at end_trace for shed/error.
            self._roots_seen += 1
            if (self._roots_seen - 1) % self.sample_every != 0:
                self._sampled_out.add(trace_id)
        return root

    def start_span(self, name: str, parent: Span, start: float, **attributes: object) -> Span:
        """Open a child span under ``parent`` (start clamped to nest)."""
        if not self.enabled or parent is NULL_SPAN:
            return NULL_SPAN
        start = float(start)
        if start < parent.start:
            start = parent.start
        span = Span(name, parent.trace_id, self._next_id("s"), parent.span_id, start, attributes)
        parent.children.append(span)
        return span

    def event(self, name: str, parent: Span, at: float, status: str = "ok", **attributes: object) -> Span:
        """Zero-duration child span (plan decisions, cache hits, drift)."""
        span = self.start_span(name, parent, at, **attributes)
        span.finish(at, status=status)
        return span

    def end_trace(
        self,
        root: Span,
        end: float,
        status: str = "ok",
        grow: Optional[Callable[[Span], None]] = None,
        **attributes: object,
    ) -> Span:
        """Close the root and move the trace to the completed deque.

        ``traces_completed`` counts every trace that ends -- sampled out or
        not -- so the started == completed invariant is independent of the
        sampling rate; only *retention* in the deque is subject to it, and
        shed/error traces override the sampling decision.

        ``grow(root)``, when given, adds the root's remaining children.  It
        runs once, on the first :meth:`traces` / :meth:`find_trace` that
        returns the root, and never for a trace that is sampled out or
        evicted unread.  ``end`` must already cover every span it will add:
        the root is closed here, before they exist.
        """
        if not self.enabled or root is NULL_SPAN:
            return root
        root.finish(end, status=status, **attributes)
        with self._lock:
            if self._active.pop(root.trace_id, None) is not None:
                self.traces_completed += 1
                sampled_out = root.trace_id in self._sampled_out
                self._sampled_out.discard(root.trace_id)
                if not sampled_out or root.status != "ok":
                    root._grow = grow
                    self._completed.append(root)
                    self.traces_retained += 1
        return root

    def reserve_root(self) -> Optional[int]:
        """Reserve a root that opens now but is built when it closes.

        Takes the ids ``start_trace`` and one :meth:`event` under the root
        would take, counts the root in ``traces_started`` and makes its
        head-sampling decision, but builds no Span.  Returns the root's
        trace-id number ``seq`` (``None`` when tracing is off); the caller
        keeps it in a :data:`Reservation` for :meth:`complete_roots`, or
        for :meth:`open_reserved` when the root needs a live Span after all.
        """
        if not self.enabled:
            return None
        with self._lock:
            seq = self._seq + 1
            self._seq = seq + 2
            self._reserved[seq] = self._roots_seen % self.sample_every == 0
            self._roots_seen += 1
            self.traces_started += 1
        return seq

    def open_reserved(self, name: str, reservation: Reservation) -> Span:
        """A reserved root as the live Span ``start_trace`` + ``event`` would have made.

        The root becomes active, as if opened at its reservation, so
        :meth:`start_span`, :meth:`event` and :meth:`end_trace` carry on
        from there.  A reservation dropped by :meth:`clear` yields a Span
        that :meth:`end_trace` does not count.
        """
        seq, start, attributes, event, event_attributes = reservation
        root = _root_span(name, seq, start, attributes, (event, event_attributes))
        with self._lock:
            keep = self._reserved.pop(seq, None)
            if keep is not None:
                self._active[root.trace_id] = root
                if not keep:
                    self._sampled_out.add(root.trace_id)
        return root

    def complete_roots(
        self,
        name: str,
        start: float,
        end: float,
        roots: Sequence[Union[Dict[str, object], Reservation]],
        status: str = "ok",
        grow: Optional[Callable[[Span, object], None]] = None,
        grow_args: Sequence[object] = (),
        **end_attributes: object,
    ) -> None:
        """Close one root per entry of ``roots`` at ``end``, in one call.

        An attribute dict opens its root at ``start`` now: the entry is
        equivalent to ``end_trace(start_trace(name, start, **roots[i]),
        end, status, grow=lambda r: grow(r, grow_args[i]), **end_attributes)``.
        A :data:`Reservation` closes the root :meth:`reserve_root` opened at
        its own start, with its reserved ids and sampling decision and its
        event as first child.  Either way the trace and span ids, counters,
        head-sampling decisions and shed/error retention equal those of the
        per-root calls in order.  It takes the lock once, never registers
        the roots as active, and keeps each retained root as a record that
        :meth:`traces` / :meth:`find_trace` turn into its Span on first read.
        """
        if not self.enabled or not roots:
            return
        keep_all = status != "ok"
        with self._lock:
            seq, seen, every = self._seq, self._roots_seen, self.sample_every
            reserved, completed = self._reserved, self._completed
            opened = closed = retained = 0
            for i, entry in enumerate(roots):
                if type(entry) is dict:
                    root_seq = seq + 1
                    seq += 2
                    keep = (seen + opened) % every == 0
                    opened += 1
                    root_start, attributes, event = start, entry, None
                else:
                    root_seq, root_start, attributes = entry[0], entry[1], entry[2]
                    keep = reserved.pop(root_seq, None)
                    if keep is None:
                        continue  # dropped by clear(), like an active root
                    event = (entry[3], entry[4])
                closed += 1
                if keep_all or keep:
                    completed.append(_ClosedRoot(
                        name, root_seq, root_start, end, status, attributes, event,
                        end_attributes, grow, grow_args[i] if grow is not None else None,
                    ))
                    retained += 1
            self._seq = seq
            self._roots_seen = seen + opened
            self.traces_started += opened
            self.traces_completed += closed
            self.traces_retained += retained

    def _roots_locked(self) -> List[Span]:
        """Retained roots, oldest first; records from complete_roots become Spans once."""
        completed = self._completed
        roots = [r.span() if type(r) is _ClosedRoot else r for r in completed]
        completed.clear()
        completed.extend(roots)
        return roots

    def _grown(self, roots: Iterable[Span]) -> None:
        """Run each root's pending ``grow`` once, before any reader sees it.

        Growth opens spans, which take ``_lock`` for their ids, so it runs
        under its own lock; a second reader waits here until the tree is
        whole instead of seeing it half grown.
        """
        with self._grow_lock:
            for root in roots:
                grow = root._grow
                if grow is not None:
                    root._grow = None
                    grow(root)

    # ------------------------------------------------------------------
    def traces(self) -> List[Span]:
        """Completed traces, oldest first (bounded by ``max_traces``)."""
        with self._lock:
            roots = self._roots_locked()
        self._grown(roots)
        return roots

    def find_trace(self, trace_id: str) -> Optional[Span]:
        """A completed or still-active trace by id."""
        with self._lock:
            root = self._active.get(trace_id)
            if root is not None:
                return root
            for candidate in self._roots_locked():
                if candidate.trace_id == trace_id:
                    root = candidate
                    break
        if root is not None:
            self._grown((root,))
        return root

    def active_count(self) -> int:
        """Open traces: started and not yet ended, reserved roots included."""
        with self._lock:
            return len(self._active) + len(self._reserved)

    def clear(self) -> None:
        """Drop all retained traces (counters survive, like a metrics reset)."""
        with self._lock:
            self._active.clear()
            self._reserved.clear()
            self._completed.clear()
            self._sampled_out.clear()

"""Virtual-clock-native span tracing for the simulated storage stack.

A :class:`Tracer` records **nested spans** and **point events** stamped
with ``(thread timeline, VirtualClock time)``.  Layers open a span when
an operation enters them and close it when the operation leaves, so one
``fsync`` shows up as a tree — VFS op → page cache → interconnect link →
firmware (write log / TxLog / log cleaning) → FTL → NAND chip — whose
leaf durations sum to the measured latency.  Parent ids propagate across
layer boundaries through a per-thread span stack, mirroring the
synchronous call stack of the simulation.

A span that covers one whole call of a layer-boundary method is not
written in the layer: it is one declaration in
:mod:`repro.trace.probes`, and a caller that knows it will trace a stack
(``run_workload``, the serving layer's ``run_shard``) builds and runs it
inside :func:`seam`, which puts the spanning wrappers on the declared
classes first.  An untraced stack runs the plain methods.  What stays
inline — a per-page span inside a pull loop, :func:`span_at`,
:func:`event`, :func:`note_wait` — reads the module-level
:data:`ENABLED` flag first, the same guard pattern as
:data:`repro.analysis.fssan.ENABLED`::

    from repro.trace import tracer as trace
    ...
    if trace.ENABLED:
        trace.event("firmware", "log_hit", lpa=lpa)

Tracing is deterministic: all timestamps come from the
:class:`~repro.sim.clock.VirtualClock`, span ids are sequential, and no
wall clock or ambient randomness is consulted anywhere (this module is
registered as a blessed clock consumer for the DET001 lint pass).
Identical seeds therefore produce byte-identical exported traces.

Set ``REPRO_TRACE=1`` in the environment to make the benchmark harness
attach a metrics-only tracer (spans aggregated into log-scaled
histograms, not retained) to every run it executes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from repro.trace.metrics import MetricsRegistry

#: Master switch read by every instrumented call site.  True only while
#: a tracer is activated; flip it via :func:`activate` / :func:`deactivate`.
ENABLED = False

#: The currently active tracer (``None`` when tracing is off).
_ACTIVE: Optional["Tracer"] = None

#: Environment opt-in: the bench harness attaches a metrics-only tracer
#: to every run when this is set (used by CI's traced tier-1 job).
AUTO = os.environ.get("REPRO_TRACE", "").lower() in ("1", "true", "yes", "on")

#: Synchronous spans consume their parent's time on the issuing thread.
LANE_SYNC = 0
#: Background spans model device-side work that overlaps the foreground
#: (flash programs behind the write buffer, GC, log-clean flushes).
LANE_BACKGROUND = 1


class Span:
    """One timed operation on one thread timeline.

    ``t_start``/``t_end`` are virtual nanoseconds on the thread's
    timeline; ``parent_id`` is 0 for root spans.  ``waits`` accumulates
    per-resource queueing delay observed inside the span (see
    :meth:`Tracer.note_wait`).
    """

    __slots__ = (
        "span_id", "parent_id", "tid", "layer", "op",
        "t_start", "t_end", "lane", "attrs", "waits",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        tid: int,
        layer: str,
        op: str,
        t_start: float,
        lane: int = LANE_SYNC,
        attrs: Optional[Dict] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid
        self.layer = layer
        self.op = op
        self.t_start = t_start
        self.t_end = t_start
        self.lane = lane
        self.attrs = attrs
        self.waits: Optional[Dict[str, float]] = None

    @property
    def duration_ns(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> Dict:
        out = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "tid": self.tid,
            "layer": self.layer,
            "op": self.op,
            "ts": self.t_start,
            "dur": self.duration_ns,
        }
        if self.lane != LANE_SYNC:
            out["lane"] = self.lane
        if self.attrs:
            out["attrs"] = self.attrs
        if self.waits:
            out["waits"] = self.waits
        return out


class PointEvent:
    """An instantaneous marker (cache miss, crash point, commit, ...)."""

    __slots__ = ("tid", "t", "layer", "name", "parent_id", "attrs")

    def __init__(
        self,
        tid: int,
        t: float,
        layer: str,
        name: str,
        parent_id: int,
        attrs: Optional[Dict] = None,
    ) -> None:
        self.tid = tid
        self.t = t
        self.layer = layer
        self.name = name
        self.parent_id = parent_id
        self.attrs = attrs

    def to_dict(self) -> Dict:
        out = {
            "type": "event",
            "tid": self.tid,
            "ts": self.t,
            "layer": self.layer,
            "name": self.name,
            "parent": self.parent_id,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Records spans and events against one :class:`VirtualClock`.

    ``keep_spans=False`` turns the tracer into a metrics-only probe:
    spans are still timed and aggregated into the log-scaled histogram
    registry (one histogram per ``layer.op``), but the span objects are
    discarded — bounded memory for hot paths and long runs.
    """

    def __init__(
        self,
        clock,
        keep_spans: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Span] = []        # completed spans, completion order
        self.events: List[PointEvent] = []
        self._stacks: List[List[Span]] = [
            [] for _ in range(clock.n_threads)
        ]
        self._next_id = 1
        #: resource waits observed with no span open (rare; kept so the
        #: attribution report never silently drops time)
        self.orphan_waits: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def begin(self, layer: str, op: str, **attrs) -> Span:
        """Open a span on the current thread's stack."""
        tid = self.clock.current_thread
        stack = self._stacks[tid]
        parent_id = stack[-1].span_id if stack else 0
        span = Span(
            self._next_id, parent_id, tid, layer, op,
            self.clock.now, LANE_SYNC, attrs or None,
        )
        self._next_id += 1
        stack.append(span)
        return span

    def end(self, span: Optional[Span] = None) -> Optional[Span]:
        """Close a span at the current thread's virtual time.

        With an explicit ``span`` argument, any deeper spans abandoned by
        an exception unwind are closed first, keeping the stack balanced.
        Ending against an empty stack is a no-op.
        """
        stack = self._stacks[self.clock.current_thread]
        if not stack:
            return None
        if span is not None:
            if span not in stack:
                return None
            while stack[-1] is not span:
                self._finish(stack.pop())
        return self._finish(stack.pop())

    def _finish(self, span: Span) -> Span:
        span.t_end = self.clock.now
        self.metrics.histogram(f"span.{span.layer}.{span.op}").record(
            span.duration_ns
        )
        if self.keep_spans:
            self.spans.append(span)
        return span

    def span_at(
        self,
        layer: str,
        op: str,
        t_start: float,
        t_end: float,
        background: bool = False,
        **attrs,
    ) -> Span:
        """Record an already-completed span with explicit times.

        Used for device work whose schedule comes from a resource
        timeline rather than the issuing thread (flash programs behind
        the write buffer, GC reads/erases) — background spans may extend
        past their parent's end.
        """
        tid = self.clock.current_thread
        stack = self._stacks[tid]
        parent_id = stack[-1].span_id if stack else 0
        span = Span(
            self._next_id, parent_id, tid, layer, op, t_start,
            LANE_BACKGROUND if background else LANE_SYNC, attrs or None,
        )
        self._next_id += 1
        span.t_end = t_end
        self.metrics.histogram(f"span.{layer}.{op}").record(t_end - t_start)
        if self.keep_spans:
            self.spans.append(span)
        return span

    def event(self, layer: str, name: str, **attrs) -> None:
        """Record an instantaneous point event at the current time."""
        tid = self.clock.current_thread
        stack = self._stacks[tid]
        parent_id = stack[-1].span_id if stack else 0
        self.metrics.bump(f"event.{layer}.{name}")
        if self.keep_spans:
            self.events.append(PointEvent(
                tid, self.clock.now, layer, name, parent_id, attrs or None
            ))

    def note_wait(self, key: str, wait_ns: float, service_ns: float) -> None:
        """Attribute queueing delay on resource ``key`` to the open span."""
        self.metrics.histogram(f"wait.{key}").record(wait_ns)
        stack = self._stacks[self.clock.current_thread]
        if not stack:
            self.orphan_waits[key] = self.orphan_waits.get(key, 0.0) + wait_ns
            return
        span = stack[-1]
        if span.waits is None:
            span.waits = {}
        span.waits[key] = span.waits.get(key, 0.0) + wait_ns

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def open_depth(self, tid: Optional[int] = None) -> int:
        if tid is None:
            tid = self.clock.current_thread
        return len(self._stacks[tid])

    def close_all(self) -> None:
        """Close any spans left open (end-of-run safety net)."""
        for tid in range(len(self._stacks)):
            stack = self._stacks[tid]
            while stack:
                self._finish(stack.pop())

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id == 0]


# ---------------------------------------------------------------------- #
# module-level activation and fast helpers
# ---------------------------------------------------------------------- #

def activate(tracer: Tracer) -> None:
    global ENABLED, _ACTIVE
    _ACTIVE = tracer
    ENABLED = True


def deactivate() -> None:
    global ENABLED, _ACTIVE
    ENABLED = False
    _ACTIVE = None


def active() -> Optional[Tracer]:
    return _ACTIVE


@contextmanager
def activated(tracer: Tracer):
    """Activate ``tracer`` for the duration of a block, then restore."""
    global ENABLED, _ACTIVE
    prev_enabled, prev_active = ENABLED, _ACTIVE
    activate(tracer)
    try:
        yield tracer
    finally:
        ENABLED, _ACTIVE = prev_enabled, prev_active


def seam(traced: bool):
    """The context a stack that may be traced is built and run in:
    :func:`repro.trace.probes.bound` when ``traced``, else nothing (and
    the probe table is not even imported)."""
    if not traced:
        return nullcontext()
    from repro.trace.probes import bound

    return bound()


def begin(layer: str, op: str, **attrs) -> Optional[Span]:
    """Open a span on the active tracer (callers guard on ENABLED)."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.begin(layer, op, **attrs)


def end(span: Optional[Span] = None) -> None:
    if _ACTIVE is not None:
        _ACTIVE.end(span)


def span_at(
    layer: str, op: str, t_start: float, t_end: float,
    background: bool = False, **attrs,
) -> None:
    if _ACTIVE is not None:
        _ACTIVE.span_at(layer, op, t_start, t_end, background, **attrs)


def event(layer: str, name: str, **attrs) -> None:
    if _ACTIVE is not None:
        _ACTIVE.event(layer, name, **attrs)


def note_wait(key: str, wait_ns: float, service_ns: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.note_wait(key, wait_ns, service_ns)

"""Span tracing over the simulated clock.

A *span* is one timed phase of work with a name, attributes, and
parent/child nesting: one verifier poll is a ``verifier.poll`` root span
whose children are the four protocol phases (challenge, quote-verify,
log-replay, policy-eval), which in turn nest the spans emitted by the
agent and the TPM quote verifier.

Two timelines are recorded per span:

* **Simulated time** (``sim_start``/``sim_end``) from the bound
  :class:`repro.common.clock.SimClock` -- *when* in the experiment the
  work happened.  Within one scheduler callback the simulated clock does
  not advance, so nested spans of a single poll share a timestamp.
* **Wall time** (``wall_start``/``wall_end`` via ``perf_counter``) --
  how long the reproduction actually spent computing, which is what the
  per-phase performance breakdowns report.

Everything in the simulation is synchronous, so a simple span stack
gives correct parentage; the tracer is not thread-safe by design.

Finished root traces stay in the tracer's bounded ring, the only place
a run keeps its traces; :class:`repro.obs.tracestore.SpanStore` is the
query side over it.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from types import MappingProxyType
from typing import Any, Iterator

#: Default cap on retained root spans (a 31-day run polls ~1,500 times;
#: the cap only matters for pathological million-poll runs).
DEFAULT_MAX_ROOTS = 20_000

#: W3C-style version prefix of the ``traceparent`` wire field.
TRACEPARENT_VERSION = "00"


def format_traceparent(span: "Span | None") -> str | None:
    """The ``traceparent`` string naming *span* as the remote parent.

    The shape follows the W3C Trace Context header
    (``version-traceid-spanid-flags``, ids in fixed-width lowercase
    hex) so an export is recognisable to standard tooling; ``None`` in
    (no open span, or a null span) yields ``None`` out (nothing to
    propagate).
    """
    trace_id = getattr(span, "trace_id", None)
    span_id = getattr(span, "span_id", None)
    if trace_id is None or span_id is None:
        return None
    return f"{TRACEPARENT_VERSION}-{trace_id:032x}-{span_id:016x}-01"


def parse_traceparent(text: str | None) -> tuple[int, int] | None:
    """Decode a traceparent into ``(trace_id, span_id)``.

    Returns ``None`` for anything malformed -- an absent, truncated, or
    tampered field never raises, it simply fails to link (the spans it
    would have joined are recorded as a detached trace instead).
    """
    if not isinstance(text, str):
        return None
    parts = text.split("-")
    if len(parts) != 4 or parts[0] != TRACEPARENT_VERSION:
        return None
    if len(parts[1]) != 32 or len(parts[2]) != 16:
        return None
    try:
        trace_id = int(parts[1], 16)
        span_id = int(parts[2], 16)
    except ValueError:
        return None
    if trace_id <= 0 or span_id <= 0:
        return None
    return trace_id, span_id


def exemplar_of(span) -> dict[str, int] | None:
    """A histogram exemplar reference for *span* (``None`` if unlinked).

    Accepts real spans and null spans alike, so instrumented call sites
    can pass ``exemplar_of(tracer.current)`` unconditionally.
    """
    trace_id = getattr(span, "trace_id", None)
    span_id = getattr(span, "span_id", None)
    if trace_id is None or span_id is None:
        return None
    return {"trace_id": trace_id, "span_id": span_id}


@dataclass
class Span:
    """One timed, attributed, nestable unit of work."""

    name: str
    span_id: int
    trace_id: int
    parent_id: int | None
    sim_start: float
    wall_start: float
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    sim_end: float | None = None
    wall_end: float | None = None
    status: str = "ok"

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    @property
    def sim_duration(self) -> float:
        """Simulated seconds covered by the span (0.0 while open)."""
        return (self.sim_end - self.sim_start) if self.sim_end is not None else 0.0

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds spent inside the span (0.0 while open)."""
        return (self.wall_end - self.wall_start) if self.wall_end is not None else 0.0

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def tree_lines(self, indent: int = 0) -> list[str]:
        """Human-readable rendering of the span tree."""
        pad = "  " * indent
        line = (
            f"{pad}{self.name}  sim={self.sim_duration:.1f}s "
            f"wall={self.wall_duration * 1000:.3f}ms"
        )
        if self.attributes:
            rendered = ", ".join(f"{k}={v}" for k, v in self.attributes.items())
            line += f"  [{rendered}]"
        lines = [line]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines


@dataclass
class SpanStats:
    """Aggregate over every finished span of one name."""

    count: int = 0
    wall_total: float = 0.0
    sim_total: float = 0.0

    @property
    def wall_mean(self) -> float:
        """Mean wall seconds per span."""
        return self.wall_total / self.count if self.count else 0.0


class _RemoteBoundary:
    """Stack marker for a serialised channel crossing.

    Spans opened while a boundary is on the stack take their parentage
    from the *propagated* traceparent, never from the spans the caller
    happens to have open -- exactly what a remote process would do.  In
    the in-process reproduction both sides share one tracer, so a
    traceparent that names a still-open local span re-attaches to it
    (the join the wire format exists to prove); anything else -- absent,
    malformed, or forged context -- yields a detached trace.
    """

    __slots__ = ("context", "resolved")

    def __init__(self, context: tuple[int, int] | None, resolved: Span | None) -> None:
        self.context = context
        self.resolved = resolved


class SpanTracer:
    """Records nested spans against a bindable simulated clock.

    Finished root traces are kept in a ring of ``max_roots``; query
    them through ``SpanStore(tracer.roots)``.  *on_drop* fires once per
    root evicted by the ring, so the owner can count silent trace loss
    into a metric.
    """

    def __init__(
        self,
        clock=None,
        max_roots: int = DEFAULT_MAX_ROOTS,
        on_drop=None,
    ) -> None:
        self._clock = clock
        self._stack: list[Span | _RemoteBoundary] = []
        self._roots: deque[Span] = deque(maxlen=max_roots)
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self.dropped_roots = 0
        self.on_drop = on_drop

    def bind_clock(self, clock) -> None:
        """Attach the simulated clock (anything with a ``.now`` float)."""
        self._clock = clock

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None``.

        A remote boundary hides the caller's spans: from inside one,
        ``current`` is the innermost span opened *within* the boundary
        (or ``None``), mirroring what a separate process would see.
        """
        for frame in reversed(self._stack):
            if isinstance(frame, _RemoteBoundary):
                return None
            return frame
        return None

    @property
    def roots(self) -> list[Span]:
        """Finished root spans, oldest first (bounded by ``max_roots``)."""
        return list(self._roots)

    def last_trace(self) -> Span | None:
        """The most recently finished root span."""
        return self._roots[-1] if self._roots else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a span; nests under the currently open span, if any.

        A span that exits via an exception is closed with
        ``status="error"`` and an ``error.type`` attribute naming the
        exception class, then the exception is re-raised -- the trace
        records the failure instead of losing it.
        """
        parent = self._stack[-1] if self._stack else None
        remote_detached = False
        if isinstance(parent, _RemoteBoundary):
            boundary = parent
            if boundary.resolved is not None:
                # The propagated traceparent names a live local span:
                # join it, exactly as if the call had never left the
                # process.
                parent = boundary.resolved
            elif boundary.context is not None:
                # Valid context for a span we cannot see (already
                # closed, or forged): record a detached root carrying
                # the claimed parentage, never graft onto a live tree.
                parent = None
                remote_detached = True
                span = Span(
                    name=name,
                    span_id=next(self._ids),
                    trace_id=boundary.context[0],
                    parent_id=boundary.context[1],
                    sim_start=self._now(),
                    wall_start=perf_counter(),
                    attributes=dict(attributes),
                )
                span.attributes["traceparent.resolved"] = False
            else:
                # No/malformed context: a fresh local trace, flagged so
                # the break in propagation is visible.
                parent = None
                span = Span(
                    name=name,
                    span_id=next(self._ids),
                    trace_id=next(self._traces),
                    parent_id=None,
                    sim_start=self._now(),
                    wall_start=perf_counter(),
                    attributes=dict(attributes),
                )
                span.attributes["traceparent.resolved"] = False
                remote_detached = True
        if not remote_detached:
            span = Span(
                name=name,
                span_id=next(self._ids),
                trace_id=parent.trace_id if parent is not None else next(self._traces),
                parent_id=parent.span_id if parent is not None else None,
                sim_start=self._now(),
                wall_start=perf_counter(),
                attributes=dict(attributes),
            )
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attributes["error.type"] = type(exc).__name__
            raise
        finally:
            span.sim_end = self._now()
            span.wall_end = perf_counter()
            self._stack.pop()
            if parent is None:
                if len(self._roots) == self._roots.maxlen:
                    self.dropped_roots += 1
                    if self.on_drop is not None:
                        self.on_drop()
                self._roots.append(span)

    def _open_span(self, span_id: int, trace_id: int) -> Span | None:
        """The still-open local span with the given ids, if any."""
        for frame in self._stack:
            if (
                isinstance(frame, Span)
                and frame.span_id == span_id
                and frame.trace_id == trace_id
            ):
                return frame
        return None

    @contextmanager
    def remote_context(self, traceparent: str | None) -> Iterator[None]:
        """Record the enclosed spans under a *propagated* trace context.

        Models the far side of a serialised channel: spans opened inside
        the block take their parentage from *traceparent* alone.  A
        traceparent naming a still-open local span re-attaches to it
        (the in-process join); any other value -- ``None``, malformed,
        or referencing an unknown span -- produces a detached trace
        whose roots carry ``traceparent.resolved=False``, so a tampered
        channel can break linkage but never graft spans onto a live
        trace it does not own.
        """
        context = parse_traceparent(traceparent)
        resolved = self._open_span(context[1], context[0]) if context else None
        self._stack.append(_RemoteBoundary(context, resolved))
        try:
            yield
        finally:
            self._stack.pop()

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, depth-first within each root trace."""
        for root in self._roots:
            yield from root.walk()

    def aggregate(self) -> dict[str, SpanStats]:
        """Per-name totals over every finished span."""
        stats: dict[str, SpanStats] = {}
        for span in self.iter_spans():
            entry = stats.setdefault(span.name, SpanStats())
            entry.count += 1
            entry.wall_total += span.wall_duration
            entry.sim_total += span.sim_duration
        return stats


class _NullSpan:
    """Context-manager stand-in returned while tracing is disabled.

    ``attributes`` and ``children`` are *immutable* sentinels (a
    mapping proxy and a tuple): the singleton is shared by every
    disabled-tracing call site, so a caller that tried to mutate them
    directly would otherwise leak state process-wide.  Mutation now
    raises instead of silently cross-contaminating call sites; the
    supported no-op path is :meth:`set_attribute`.
    """

    __slots__ = ()
    attributes: Any = MappingProxyType({})
    children: tuple = ()
    status: str = "ok"

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in used while telemetry is disabled."""

    __slots__ = ()
    dropped_roots = 0

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """No-op span (a shared singleton context manager)."""
        return _NULL_SPAN

    @contextmanager
    def remote_context(self, traceparent: str | None) -> Iterator[None]:
        """No-op boundary while tracing is disabled."""
        yield

    def bind_clock(self, clock) -> None:  # noqa: D102
        pass

    @property
    def current(self) -> None:  # noqa: D102
        return None

    @property
    def roots(self) -> list:  # noqa: D102
        return []

    def last_trace(self) -> None:  # noqa: D102
        return None

    def iter_spans(self) -> Iterator[Span]:  # noqa: D102
        return iter(())

    def aggregate(self) -> dict[str, SpanStats]:  # noqa: D102
        return {}


NULL_TRACER = NullTracer()

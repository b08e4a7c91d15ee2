"""A queryable view over finished traces.

:class:`repro.obs.tracing.SpanTracer` keeps a run's finished roots in
one bounded ring -- the only place a run keeps its traces.  A ring is
good enough for "print the last trace", useless for the questions an
incomplete attestation record (the paper's P2) makes urgent -- *which
polls were slow, which errored, what was agent X doing between t0 and
t1, and which trace does this p99 exemplar point at?*

:class:`SpanStore` answers those.  It is the read side, built from root
spans (``SpanStore(tracer.roots)``) or from the JSONL span records the
exporters emit (:meth:`SpanStore.from_records`), and it groups the
roots into per-trace entries in record order.  One trace may hold
several roots: an agent-side batch whose ``traceparent`` the tracer
could not verify is recorded detached, and :func:`build_spans` -- the
one rule that turns span records into trees -- keeps it detached too.
Entries round-trip through the same span records, and export to the
Chrome/Perfetto trace-event format for flamechart inspection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.obs.tracing import Span


def _coerce_trace_id(trace_id: int | str) -> int:
    """Accept a decimal int, decimal string, or 32-hex trace id."""
    if isinstance(trace_id, int):
        return trace_id
    text = str(trace_id).strip()
    if text.isdigit():
        return int(text)
    return int(text, 16)


@dataclass
class TraceEntry:
    """One trace: its root batches, in record order."""

    trace_id: int
    roots: list[Span] = field(default_factory=list)

    @property
    def primary(self) -> Span:
        """The trace's top span: the parentless root when one exists."""
        for root in self.roots:
            if root.parent_id is None:
                return root
        return self.roots[0]

    @property
    def name(self) -> str:
        """Name of the primary root span."""
        return self.primary.name

    @property
    def agent(self) -> str | None:
        """The ``agent`` attribute of the first span carrying one."""
        for span in self.walk():
            agent = span.attributes.get("agent")
            if agent is not None:
                return str(agent)
        return None

    @property
    def sim_start(self) -> float:
        """Earliest simulated start across the trace's batches."""
        return min(root.sim_start for root in self.roots)

    @property
    def sim_end(self) -> float:
        """Latest simulated end across the trace's batches."""
        ends = [root.sim_end for root in self.roots if root.sim_end is not None]
        return max(ends) if ends else self.sim_start

    @property
    def wall_duration(self) -> float:
        """Wall seconds of the primary root."""
        return self.primary.wall_duration

    @property
    def error(self) -> bool:
        """True when any span of the trace closed with an error status."""
        return any(span.status == "error" for span in self.walk())

    @property
    def span_count(self) -> int:
        """Total spans across every batch."""
        return sum(1 for _ in self.walk())

    def walk(self) -> Iterator[Span]:
        """Every span of every batch, depth-first within each root."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        """First span with the given name, searching every batch."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def heaviest(self, name: str) -> Span | None:
        """The longest-wall span of the given name, if any."""
        named = [span for span in self.walk() if span.name == name]
        if not named:
            return None
        return max(named, key=lambda span: span.wall_duration)

    def named_wall(self, name: str) -> float:
        """Wall seconds of the heaviest span with the given name (0.0 if none)."""
        span = self.heaviest(name)
        return span.wall_duration if span is not None else 0.0


class SpanStore:
    """Finished traces grouped by trace id, in record order.

    Build one from ``tracer.roots`` or an export's records and query
    it; every filter scans the entries directly.
    """

    def __init__(self, roots: Iterable[Span] = ()) -> None:
        self._entries: dict[int, TraceEntry] = {}
        for root in roots:
            entry = self._entries.get(root.trace_id)
            if entry is None:
                entry = self._entries[root.trace_id] = TraceEntry(root.trace_id)
            entry.roots.append(root)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def span_count(self) -> int:
        """Spans held, across every trace."""
        return sum(entry.span_count for entry in self._entries.values())

    # -- lookup ------------------------------------------------------------

    def get(self, trace_id: int | str) -> TraceEntry | None:
        """The entry for a trace id (int, decimal string, or hex)."""
        try:
            return self._entries.get(_coerce_trace_id(trace_id))
        except ValueError:
            return None

    def entries(self) -> list[TraceEntry]:
        """Every trace, oldest first."""
        return list(self._entries.values())

    def names(self) -> list[str]:
        """Distinct span names across every trace, sorted."""
        return sorted({
            span.name for entry in self._entries.values() for span in entry.walk()
        })

    def agents(self) -> list[str]:
        """Distinct trace agents, sorted."""
        agents = {entry.agent for entry in self._entries.values()}
        return sorted(agent for agent in agents if agent is not None)

    def query(
        self,
        name: str | None = None,
        agent: str | None = None,
        errors_only: bool = False,
        since: float | None = None,
        until: float | None = None,
        min_wall: float | None = None,
        limit: int | None = None,
    ) -> list[TraceEntry]:
        """Traces matching every given filter, oldest first.

        *name* matches any span of the trace, not just its root (a
        fleet batch trace is findable by ``verifier.poll`` though its
        root is ``fleet.poll_batch``).  *since*/*until* select on the
        simulated timeline (a trace matches when its
        ``[sim_start, sim_end]`` overlaps the window); *min_wall* is a
        wall-seconds floor on the primary root.
        """
        out: list[TraceEntry] = []
        for entry in self._entries.values():
            if name is not None and entry.find(name) is None:
                continue
            if agent is not None and entry.agent != agent:
                continue
            if errors_only and not entry.error:
                continue
            if since is not None and entry.sim_end < since:
                continue
            if until is not None and entry.sim_start > until:
                continue
            if min_wall is not None and entry.wall_duration < min_wall:
                continue
            out.append(entry)
            if limit is not None and len(out) >= limit:
                break
        return out

    def percentile(self, q: float, name: str | None = None) -> float:
        """Nearest-rank wall-duration percentile over matching traces.

        With *name*, the measured duration is the named span's (its
        heaviest occurrence per trace); without, the primary root's.
        """
        durations = sorted(
            entry.named_wall(name) if name is not None else entry.wall_duration
            for entry in self.query(name=name)
        )
        if not durations:
            return 0.0
        rank = min(int(q * len(durations)), len(durations) - 1)
        return durations[rank]

    def slowest(self, n: int = 5, name: str | None = None) -> list[TraceEntry]:
        """The *n* slowest matching traces, slowest first.

        With *name*, traces are ranked by the named span's wall time;
        without, by the primary root's.
        """
        matched = self.query(name=name)
        key = (
            (lambda entry: entry.named_wall(name))
            if name is not None
            else (lambda entry: entry.wall_duration)
        )
        matched.sort(key=key, reverse=True)
        return matched[:n]

    # -- persistence -------------------------------------------------------

    def to_records(self) -> list[dict[str, Any]]:
        """Flat span records (the exporters' JSONL shape), oldest first."""
        return [span_record(span) for entry in self.entries() for span in entry.walk()]

    def dump_jsonl(self) -> str:
        """One span record per line, loadable by :meth:`from_records`."""
        lines = [json.dumps(record, sort_keys=True) for record in self.to_records()]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_records(cls, records: Iterable[dict[str, Any]]) -> "SpanStore":
        """Rebuild a store from JSONL records (``type: span`` ones)."""
        return cls(build_spans(records))

    @classmethod
    def load_jsonl(cls, text: str) -> "SpanStore":
        """Rebuild a store from a :meth:`dump_jsonl` blob."""
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        return cls.from_records(records)


def span_record(span: Span) -> dict[str, Any]:
    """The JSONL dict for one span (the exporters' ``type: span`` shape)."""
    return {
        "type": "span",
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "sim_start": span.sim_start,
        "sim_end": span.sim_end,
        "sim_duration": span.sim_duration,
        "wall_ms": span.wall_duration * 1000.0,
        "status": span.status,
        "attributes": dict(span.attributes),
    }


def span_from_record(record: dict[str, Any]) -> Span:
    """One detached :class:`Span` from its JSONL record."""
    wall_ms = float(record.get("wall_ms", 0.0))
    sim_start = float(record.get("sim_start", 0.0))
    sim_end = record.get("sim_end")
    return Span(
        name=record["name"],
        span_id=int(record["span_id"]),
        trace_id=int(record["trace_id"]),
        parent_id=(
            int(record["parent_id"]) if record.get("parent_id") is not None else None
        ),
        sim_start=sim_start,
        wall_start=0.0,
        sim_end=float(sim_end) if sim_end is not None else sim_start,
        wall_end=wall_ms / 1000.0,
        attributes=dict(record.get("attributes", ())),
        status=record.get("status", "ok"),
    )


def build_spans(records: Iterable[dict[str, Any]]) -> list[Span]:
    """Reconstruct span trees from flat records; returns the roots.

    Non-span records are ignored, so a whole JSONL export can be fed
    straight in.  A span becomes a root of its own when its parent is
    absent from the records (a partial trace batch), or when it carries
    ``traceparent.resolved=False``: the tracer recorded it detached
    because its claimed parent could not be verified, and a rebuilt
    tree keeps it detached, even when the claimed parent is present.
    """
    spans: dict[int, Span] = {}
    ordered: list[Span] = []
    for record in records:
        if record.get("type", "span") != "span" or "span_id" not in record:
            continue
        span = span_from_record(record)
        spans[span.span_id] = span
        ordered.append(span)
    roots: list[Span] = []
    for span in ordered:
        parent = spans.get(span.parent_id) if span.parent_id is not None else None
        if (
            parent is not None
            and parent.trace_id == span.trace_id
            and span.attributes.get("traceparent.resolved") is not False
        ):
            parent.children.append(span)
        else:
            roots.append(span)
    return roots


# -- Chrome/Perfetto trace-event export -------------------------------------


def perfetto_trace(
    entries: Iterable[TraceEntry], time_scale_us: float = 1_000_000.0
) -> dict[str, Any]:
    """Chrome trace-event JSON for *entries* (Perfetto-loadable).

    Each trace is laid out at its simulated start time; spans within a
    trace are offset by their wall-clock position relative to the
    trace's primary root, so the flamechart shows both *when* in the
    experiment a poll ran and *where* its wall time went.  One thread
    lane per agent (lane 0 for agent-less traces), complete events
    (``ph: "X"``) with microsecond timestamps.
    """
    events: list[dict[str, Any]] = []
    lanes: dict[str, int] = {}
    for entry in entries:
        agent = entry.agent or "(none)"
        if agent not in lanes:
            lanes[agent] = len(lanes) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": lanes[agent],
                    "args": {"name": f"agent {agent}"},
                }
            )
        tid = lanes[agent]
        base_wall = entry.primary.wall_start
        base_ts = entry.sim_start * time_scale_us
        for span in entry.walk():
            offset_us = max(0.0, (span.wall_start - base_wall)) * 1_000_000.0
            events.append(
                {
                    "name": span.name,
                    "cat": "attestation",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": base_ts + offset_us,
                    "dur": span.wall_duration * 1_000_000.0,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "status": span.status,
                        "sim_start": span.sim_start,
                        **{str(k): v for k, v in span.attributes.items()},
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}

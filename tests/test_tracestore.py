"""Tests for the queryable span store and its exports."""

import json

from repro.common.clock import SimClock
from repro.obs.tracestore import (
    SpanStore,
    build_spans,
    perfetto_trace,
    span_from_record,
    span_record,
)
from repro.obs.tracing import SpanTracer, exemplar_of, format_traceparent


def _tracer():
    clock = SimClock()
    return SpanTracer(clock=clock), clock


def _record_poll(tracer, clock, agent="agent-a", fail=False):
    with tracer.span("verifier.poll", agent=agent) as span:
        with tracer.span("verifier.challenge"):
            clock.advance_by(1.0)
        if fail:
            span.status = "error"
    return span


class TestIngestionAndQuery:
    def test_traces_are_indexed_by_name_agent_and_error(self):
        tracer, clock = _tracer()
        _record_poll(tracer, clock, agent="agent-a")
        _record_poll(tracer, clock, agent="agent-b", fail=True)
        with tracer.span("mirror.sync"):
            pass

        store = SpanStore(tracer.roots)
        assert len(store) == 3
        assert store.names() == [
            "mirror.sync", "verifier.challenge", "verifier.poll",
        ]
        assert store.agents() == ["agent-a", "agent-b"]
        assert [e.agent for e in store.query(name="verifier.poll")] == [
            "agent-a", "agent-b",
        ]
        assert [e.agent for e in store.query(agent="agent-b")] == ["agent-b"]
        errors = store.query(errors_only=True)
        assert len(errors) == 1 and errors[0].agent == "agent-b"

    def test_child_names_are_queryable(self):
        """A trace is findable by any span it contains, not just its root."""
        tracer, clock = _tracer()
        with tracer.span("fleet.poll_batch"):
            with tracer.span("verifier.poll", agent="agent-a"):
                pass
        matched = SpanStore(tracer.roots).query(name="verifier.poll")
        assert len(matched) == 1
        assert matched[0].name == "fleet.poll_batch"

    def test_sim_time_window_query(self):
        tracer, clock = _tracer()
        for _ in range(4):
            clock.advance_by(1800.0)
            _record_poll(tracer, clock)
        store = SpanStore(tracer.roots)
        # Polls start at t=1800, 3601, 5402, 7203 (each poll advances
        # the clock by one second); only the second overlaps the window.
        matched = store.query(since=3600.0, until=5000.0)
        assert [e.sim_start for e in matched] == [3601.0]
        assert store.query(since=1e9) == []

    def test_min_wall_and_limit(self):
        tracer, clock = _tracer()
        for _ in range(3):
            _record_poll(tracer, clock)
        store = SpanStore(tracer.roots)
        assert store.query(min_wall=1e9) == []
        assert len(store.query(limit=2)) == 2

    def test_percentile_and_slowest(self):
        tracer, clock = _tracer()
        for _ in range(10):
            _record_poll(tracer, clock)
        store = SpanStore(tracer.roots)
        p99 = store.percentile(0.99, name="verifier.poll")
        assert p99 > 0.0
        slowest = store.slowest(3, name="verifier.poll")
        assert len(slowest) == 3
        walls = [e.named_wall("verifier.poll") for e in slowest]
        assert walls == sorted(walls, reverse=True)
        assert walls[0] >= p99

    def test_get_accepts_decimal_and_hex(self):
        tracer, clock = _tracer()
        span = _record_poll(tracer, clock)
        store = SpanStore(tracer.roots)
        assert store.get(span.trace_id) is not None
        assert store.get(str(span.trace_id)) is not None
        assert store.get(f"{span.trace_id:032x}") is not None
        assert store.get("not-a-trace-id") is None

    def test_resolve_exemplar(self):
        tracer, clock = _tracer()
        span = _record_poll(tracer, clock)
        exemplar = exemplar_of(span)
        entry = SpanStore(tracer.roots).get(exemplar["trace_id"])
        assert entry is not None and entry.trace_id == span.trace_id
        assert entry.find("verifier.poll") is span


class TestRemoteBatchMerging:
    def test_detached_batch_rejoins_by_parent_id(self):
        """Agent-side batches arriving before the poll root re-attach."""
        tracer, clock = _tracer()
        with tracer.span("verifier.challenge") as challenge:
            header = format_traceparent(challenge)
        # Simulate the remote batch arriving for the *closed* span: it
        # stays detached (never grafts onto a dead or absent parent).
        with tracer.remote_context(header):
            with tracer.span("agent.attest"):
                pass
        entry = SpanStore(tracer.roots).get(challenge.trace_id)
        assert len(entry.roots) == 2  # unverified linkage stays split
        assert entry.find("agent.attest") is not None

    def test_export_keeps_an_unverified_batch_detached(self):
        """The tracer's rule holds after a JSONL round trip: the
        claimed parent is in the records, yet the batch stays a root."""
        tracer, clock = _tracer()
        with tracer.span("verifier.challenge") as challenge:
            header = format_traceparent(challenge)
        with tracer.remote_context(header):
            with tracer.span("agent.attest"):
                pass
        dump = SpanStore(tracer.roots).dump_jsonl()
        entry = SpanStore.load_jsonl(dump).get(challenge.trace_id)
        assert [root.name for root in entry.roots] == [
            "verifier.challenge", "agent.attest",
        ]
        assert entry.primary.children == []

    def test_live_join_produces_one_tree(self):
        tracer, clock = _tracer()
        with tracer.span("verifier.poll", agent="agent-a") as poll:
            with tracer.span("verifier.challenge") as challenge:
                with tracer.remote_context(format_traceparent(challenge)):
                    with tracer.span("agent.attest"):
                        pass
        entry = SpanStore(tracer.roots).get(poll.trace_id)
        assert len(entry.roots) == 1
        assert [s.name for s in entry.primary.walk()] == [
            "verifier.poll", "verifier.challenge", "agent.attest",
        ]
        assert entry.span_count == 3


class TestPersistence:
    def test_span_record_roundtrip(self):
        tracer, clock = _tracer()
        span = _record_poll(tracer, clock, fail=True)
        record = span_record(span)
        assert record["status"] == "error"
        restored = span_from_record(record)
        assert restored.name == span.name
        assert restored.trace_id == span.trace_id
        assert restored.status == "error"
        assert abs(restored.wall_duration - span.wall_duration) < 1e-9
        assert restored.sim_start == span.sim_start

    def test_jsonl_roundtrip_preserves_queries(self):
        tracer, clock = _tracer()
        _record_poll(tracer, clock, agent="agent-a")
        _record_poll(tracer, clock, agent="agent-b", fail=True)
        store = SpanStore(tracer.roots)
        restored = SpanStore.load_jsonl(store.dump_jsonl())
        assert len(restored) == len(store)
        assert restored.names() == store.names()
        assert restored.agents() == store.agents()
        assert len(restored.query(errors_only=True)) == 1
        entry = restored.query(agent="agent-a")[0]
        assert [s.name for s in entry.primary.walk()] == [
            "verifier.poll", "verifier.challenge",
        ]

    def test_build_spans_ignores_non_span_records(self):
        records = [
            {"type": "metric", "name": "x"},
            {"type": "event", "kind": "y"},
        ]
        assert build_spans(records) == []


class TestPerfettoExport:
    def test_chrome_trace_shape(self):
        tracer, clock = _tracer()
        clock.advance_by(1800.0)
        _record_poll(tracer, clock, agent="agent-a")
        doc = perfetto_trace(SpanStore(tracer.roots).entries())
        text = json.dumps(doc)  # must be JSON-serialisable
        assert "traceEvents" in json.loads(text)
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert metas and metas[0]["args"]["name"] == "agent agent-a"
        completes = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in completes} == {
            "verifier.poll", "verifier.challenge",
        }
        poll = next(e for e in completes if e["name"] == "verifier.poll")
        assert poll["ts"] == 1800.0 * 1e6
        assert poll["dur"] > 0
        assert poll["args"]["status"] == "ok"
        assert poll["args"]["agent"] == "agent-a"

    def test_child_offsets_stay_within_parent(self):
        tracer, clock = _tracer()
        _record_poll(tracer, clock)
        events = perfetto_trace(SpanStore(tracer.roots).entries())["traceEvents"]
        completes = {e["name"]: e for e in events if e["ph"] == "X"}
        parent = completes["verifier.poll"]
        child = completes["verifier.challenge"]
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1.0

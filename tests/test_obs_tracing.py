"""Tests for span tracing against the simulated clock."""

import pytest

from repro.common.clock import SimClock
from repro.obs.tracing import (
    NULL_TRACER,
    SpanTracer,
    exemplar_of,
    format_traceparent,
    parse_traceparent,
)


class TestNesting:
    def test_parent_child_linkage(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.children == [inner]
        assert tracer.roots == [outer]

    def test_siblings_share_parent(self):
        tracer = SpanTracer()
        with tracer.span("poll"):
            with tracer.span("challenge"):
                pass
            with tracer.span("quote_verify"):
                pass
        root = tracer.last_trace()
        assert [child.name for child in root.children] == [
            "challenge", "quote_verify",
        ]

    def test_separate_roots_get_separate_traces(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        first, second = tracer.roots
        assert first.trace_id != second.trace_id

    def test_current_tracks_the_stack(self):
        tracer = SpanTracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_exception_still_closes_and_records(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current is None
        root = tracer.last_trace()
        assert root.name == "outer"
        assert root.wall_end is not None
        assert root.children[0].wall_end is not None


class TestSimClock:
    def test_sim_duration_follows_bound_clock(self):
        clock = SimClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance_by(120.0)
        assert span.sim_start == 0.0
        assert span.sim_end == 120.0
        assert span.sim_duration == 120.0
        assert span.wall_duration >= 0.0

    def test_bind_clock_after_construction(self):
        tracer = SpanTracer()
        clock = SimClock()
        clock.advance_by(5.0)
        tracer.bind_clock(clock)
        with tracer.span("work") as span:
            pass
        assert span.sim_start == 5.0

    def test_unbound_clock_reads_zero(self):
        tracer = SpanTracer()
        with tracer.span("work") as span:
            pass
        assert span.sim_start == 0.0 and span.sim_end == 0.0


class TestAttributes:
    def test_constructor_and_set_attribute(self):
        tracer = SpanTracer()
        with tracer.span("poll", agent="a1") as span:
            span.set_attribute("ok", True)
        assert span.attributes == {"agent": "a1", "ok": True}

    def test_find_and_walk(self):
        tracer = SpanTracer()
        with tracer.span("poll"):
            with tracer.span("challenge"):
                with tracer.span("quote"):
                    pass
        root = tracer.last_trace()
        assert [span.name for span in root.walk()] == ["poll", "challenge", "quote"]
        assert root.find("quote").name == "quote"
        assert root.find("missing") is None


class TestAggregation:
    def test_aggregate_counts_per_name(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("poll"):
                with tracer.span("challenge"):
                    pass
        stats = tracer.aggregate()
        assert stats["poll"].count == 3
        assert stats["challenge"].count == 3
        assert stats["poll"].wall_total >= stats["poll"].wall_mean

    def test_root_cap_drops_oldest(self):
        tracer = SpanTracer(max_roots=2)
        for index in range(4):
            with tracer.span(f"r{index}"):
                pass
        assert [root.name for root in tracer.roots] == ["r2", "r3"]
        assert tracer.dropped_roots == 2


class TestErrorStatus:
    def test_exception_marks_span_error(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("bad")
        root = tracer.last_trace()
        assert root.status == "error"
        assert root.attributes["error.type"] == "ValueError"
        inner = root.children[0]
        assert inner.status == "error"
        assert inner.attributes["error.type"] == "ValueError"

    def test_clean_exit_stays_ok(self):
        tracer = SpanTracer()
        with tracer.span("work"):
            pass
        assert tracer.last_trace().status == "ok"


class TestTraceparent:
    def test_format_parse_roundtrip(self):
        tracer = SpanTracer()
        with tracer.span("poll") as span:
            header = format_traceparent(span)
        assert header == f"00-{span.trace_id:032x}-{span.span_id:016x}-01"
        assert parse_traceparent(header) == (span.trace_id, span.span_id)

    def test_format_of_nothing_is_none(self):
        assert format_traceparent(None) is None
        with NULL_TRACER.span("x") as null_span:
            assert format_traceparent(null_span) is None

    @pytest.mark.parametrize("bad", [
        None, "", "garbage", "00-abc-def-01",
        "01-" + "0" * 31 + "1-" + "0" * 15 + "1-01",  # wrong version
        "00-" + "0" * 32 + "-" + "0" * 15 + "1-01",   # zero trace id
        "00-" + "0" * 31 + "1-" + "0" * 16 + "-01",   # zero span id
        "00-" + "z" * 32 + "-" + "0" * 15 + "1-01",   # non-hex
        "00-" + "0" * 30 + "1-" + "0" * 15 + "1-01",  # short trace id
    ])
    def test_malformed_traceparent_rejected(self, bad):
        assert parse_traceparent(bad) is None

    def test_exemplar_of(self):
        tracer = SpanTracer()
        with tracer.span("poll") as span:
            pass
        assert exemplar_of(span) == {
            "trace_id": span.trace_id, "span_id": span.span_id,
        }
        assert exemplar_of(None) is None
        with NULL_TRACER.span("x") as null_span:
            assert exemplar_of(null_span) is None


class TestRemoteContext:
    def test_honest_context_joins_the_open_trace(self):
        """A traceparent naming a live local span re-attaches to it."""
        tracer = SpanTracer()
        with tracer.span("verifier.challenge") as challenge:
            header = format_traceparent(challenge)
            with tracer.remote_context(header):
                with tracer.span("agent.attest") as attest:
                    pass
        assert attest.parent_id == challenge.span_id
        assert attest.trace_id == challenge.trace_id
        assert challenge.children == [attest]
        assert "traceparent.resolved" not in attest.attributes

    def test_boundary_hides_local_spans(self):
        """Inside a boundary, `current` is what a remote process sees."""
        tracer = SpanTracer()
        with tracer.span("verifier.challenge") as challenge:
            with tracer.remote_context(format_traceparent(challenge)):
                assert tracer.current is None
                with tracer.span("agent.attest") as attest:
                    assert tracer.current is attest
            assert tracer.current is challenge

    def test_forged_context_stays_detached(self):
        """A valid-shaped traceparent naming no live span never grafts."""
        tracer = SpanTracer()
        with tracer.span("victim") as victim:
            forged = f"00-{victim.trace_id:032x}-{9999:016x}-01"
            with tracer.remote_context(forged):
                with tracer.span("agent.attest") as attest:
                    pass
            assert victim.children == []
        assert attest.trace_id == victim.trace_id
        assert attest.parent_id == 9999
        assert attest.attributes["traceparent.resolved"] is False

    def test_absent_context_yields_fresh_flagged_trace(self):
        tracer = SpanTracer()
        with tracer.span("verifier.challenge") as challenge:
            with tracer.remote_context(None):
                with tracer.span("agent.attest") as attest:
                    pass
            assert challenge.children == []
        assert attest.trace_id != challenge.trace_id
        assert attest.parent_id is None
        assert attest.attributes["traceparent.resolved"] is False

    def test_detached_roots_are_recorded(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.remote_context("tampered-garbage"):
                with tracer.span("remote"):
                    pass
        names = [root.name for root in tracer.roots]
        assert names == ["remote", "outer"]


class TestStoreAndDropHooks:
    def test_on_drop_fires_per_evicted_root(self):
        drops = []
        tracer = SpanTracer(max_roots=2, on_drop=lambda: drops.append(1))
        for index in range(5):
            with tracer.span(f"r{index}"):
                pass
        assert len(drops) == 3
        assert tracer.dropped_roots == 3


class TestNullTracer:
    def test_null_span_is_a_context_manager(self):
        with NULL_TRACER.span("anything", a=1) as span:
            span.set_attribute("b", 2)
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.last_trace() is None
        assert NULL_TRACER.aggregate() == {}
        assert list(NULL_TRACER.iter_spans()) == []

    def test_null_span_state_is_immutable(self):
        """The shared singleton cannot be cross-contaminated."""
        with NULL_TRACER.span("a") as span:
            with pytest.raises(TypeError):
                span.attributes["leak"] = 1
            with pytest.raises(AttributeError):
                span.children.append(object())
        assert span.attributes == {}
        assert span.children == ()
        assert span.status == "ok"

    def test_null_remote_context_is_a_noop(self):
        with NULL_TRACER.remote_context("00-" + "1" * 32 + "-" + "1" * 16 + "-01"):
            with NULL_TRACER.span("inside"):
                pass
        assert NULL_TRACER.roots == []

"""Round-trip tests for the Prometheus, JSONL and console exporters."""

import os

import pytest

from repro.common.atomicfile import write_atomic
from repro.obs.exporters import (
    console_summary,
    jsonl_dump,
    load_jsonl,
    parse_prometheus_text,
    prometheus_text,
    write_text_atomic,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    polls = registry.counter("polls_total", "polls", ("result",))
    polls.labels(result="ok").inc(7)
    polls.labels(result="failed").inc(2)
    registry.gauge("nodes", "fleet size").set(3)
    hist = registry.histogram("latency_seconds", "poll latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    return registry


class TestPrometheus:
    def test_help_and_type_lines(self):
        text = prometheus_text(_populated_registry())
        assert "# HELP polls_total polls" in text
        assert "# TYPE polls_total counter" in text
        assert "# TYPE nodes gauge" in text
        assert "# TYPE latency_seconds histogram" in text

    def test_round_trip_values(self):
        text = prometheus_text(_populated_registry())
        samples = parse_prometheus_text(text)
        assert samples[("polls_total", (("result", "ok"),))] == 7
        assert samples[("polls_total", (("result", "failed"),))] == 2
        assert samples[("nodes", ())] == 3

    def test_histogram_exposition(self):
        samples = parse_prometheus_text(prometheus_text(_populated_registry()))
        assert samples[("latency_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("latency_seconds_bucket", (("le", "1"),))] == 2
        assert samples[("latency_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("latency_seconds_count", ())] == 3
        assert abs(samples[("latency_seconds_sum", ())] - 5.55) < 1e-9

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        tricky = 'quoted "path", with\nnewline\\slash'
        registry.counter("c", "h", ("path",)).labels(path=tricky).inc()
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples[("c", (("path", tricky),))] == 1


class TestExemplarExposition:
    def _registry_with_exemplar(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "latency_seconds", "poll latency", buckets=(0.1, 1.0)
        )
        hist.observe(0.5, exemplar={"trace_id": 258, "span_id": 16})
        hist.observe(5.0)
        return registry

    def test_bucket_line_carries_the_exemplar_suffix(self):
        text = prometheus_text(self._registry_with_exemplar())
        line = next(
            l for l in text.splitlines()
            if l.startswith('latency_seconds_bucket{le="1"')
        )
        sample, _, suffix = line.partition(" # ")
        assert sample.endswith(" 1")
        assert 'trace_id="' + "0" * 29 + '102"' in suffix
        assert 'span_id="' + "0" * 14 + '10"' in suffix
        assert suffix.endswith(" 0.5")
        # Buckets without an exemplar stay plain.
        assert 'le="+Inf"} 2\n' in text or text.endswith('le="+Inf"} 2')

    def test_parse_strips_exemplar_suffixes(self):
        registry = self._registry_with_exemplar()
        parsed = parse_prometheus_text(prometheus_text(registry))
        assert parsed[("latency_seconds_bucket", (("le", "1"),))] == 1.0
        assert parsed[("latency_seconds_bucket", (("le", "+Inf"),))] == 2.0

    def test_jsonl_metric_records_carry_exemplars(self):
        records = jsonl_dump(registry=self._registry_with_exemplar())
        metric = next(
            r for r in load_jsonl(records) if r["name"] == "latency_seconds"
        )
        assert metric["exemplars"]["1"]["trace_id"] == 258
        assert metric["exemplars"]["1"]["value"] == 0.5

    def test_span_records_carry_status(self):
        tracer = SpanTracer()
        try:
            with tracer.span("poll"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        records = load_jsonl(jsonl_dump(MetricsRegistry(), tracer=tracer))
        span = next(r for r in records if r.get("type") == "span")
        assert span["status"] == "error"


class TestJsonl:
    def test_metric_records_round_trip(self):
        records = load_jsonl(jsonl_dump(_populated_registry()))
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        ok = next(
            r for r in by_name["polls_total"] if r["labels"] == {"result": "ok"}
        )
        assert ok["kind"] == "counter" and ok["value"] == 7
        hist = by_name["latency_seconds"][0]
        assert hist["count"] == 3
        assert hist["buckets"][-1] == ["+Inf", 3]
        assert set(hist["quantiles"]) == {"0.5", "0.9", "0.99"}

    def test_span_records_preserve_the_tree(self):
        tracer = SpanTracer()
        with tracer.span("poll", agent="a1"):
            with tracer.span("challenge"):
                pass
        records = load_jsonl(jsonl_dump(MetricsRegistry(), tracer))
        spans = {record["name"]: record for record in records}
        assert spans["poll"]["parent_id"] is None
        assert spans["challenge"]["parent_id"] == spans["poll"]["span_id"]
        assert spans["challenge"]["trace_id"] == spans["poll"]["trace_id"]
        assert spans["poll"]["attributes"] == {"agent": "a1"}
        assert spans["poll"]["wall_ms"] >= 0.0

    def test_empty_dump_is_empty(self):
        assert jsonl_dump(MetricsRegistry()) == ""
        assert load_jsonl("") == []


class TestConsoleSummary:
    def test_lists_metrics_and_spans(self):
        tracer = SpanTracer()
        with tracer.span("poll"):
            pass
        text = console_summary(_populated_registry(), tracer)
        assert 'polls_total{result="ok"}: 7' in text
        assert "latency_seconds" in text and "p50=" in text
        assert "-- spans (per name) --" in text
        assert "-- last trace --" in text

    def test_empty_registry(self):
        assert "(no metrics recorded)" in console_summary(MetricsRegistry())


class TestHelpEscaping:
    def test_newlines_and_backslashes_in_help(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "line one\nline two \\ done").inc()
        text = prometheus_text(registry)
        assert "# HELP x_total line one\\nline two \\\\ done" in text
        # The exposition stays one-line-per-record parseable.
        assert parse_prometheus_text(text)[("x_total", ())] == 1

    def test_overflow_counter_is_exposed(self):
        registry = MetricsRegistry(max_label_sets=1)
        family = registry.counter("polls_total", "polls", ("agent",))
        family.labels(agent="a").inc()
        family.labels(agent="b").inc()
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples[(
            "telemetry_label_sets_overflowed_total", (("metric", "polls_total"),)
        )] == 1

    def test_no_overflow_counter_when_clean(self):
        text = prometheus_text(_populated_registry())
        assert "telemetry_label_sets_overflowed_total" not in text


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out" / "metrics.prom"
        target.parent.mkdir()
        write_text_atomic(str(target), "first\n")
        assert target.read_text() == "first\n"
        write_text_atomic(str(target), "second\n")
        assert target.read_text() == "second\n"
        # No temp files left behind in the target directory.
        assert [p.name for p in target.parent.iterdir()] == ["metrics.prom"]

    def test_failed_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "metrics.prom"
        with pytest.raises(TypeError):
            write_text_atomic(str(target), None)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "step", ["write", "flush", "fsync_file", "replace", "fsync_dir"]
    )
    def test_crash_at_each_step_leaves_old_or_new(self, tmp_path, monkeypatch, step):
        """A crash before the rename keeps the old bytes; one at the
        directory fsync already has the new bytes; no temp file stays."""
        target = tmp_path / "state.json"
        target.write_text("old\n")

        def crash(*_args):
            raise OSError(f"crash at {step}")

        real_fsync = os.fsync
        fsyncs = []

        def fsync(descriptor):
            fsyncs.append(descriptor)
            if (step, len(fsyncs)) in (("fsync_file", 1), ("fsync_dir", 2)):
                crash()
            real_fsync(descriptor)

        def write(handle):
            handle.write("new\n")
            if step == "write":
                crash()
            if step == "flush":
                handle.flush = crash

        monkeypatch.setattr(os, "fsync", fsync)
        if step == "replace":
            monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match=f"crash at {step}"):
            write_atomic(target, write)
        assert target.read_text() == ("new\n" if step == "fsync_dir" else "old\n")
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_fsyncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "state.json"
        real_fsync = os.fsync
        synced = []

        def fsync(descriptor):
            synced.append(os.path.samestat(os.fstat(descriptor), os.stat(tmp_path)))
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", fsync)
        write_atomic(target, lambda handle: handle.write("new\n"))
        assert synced == [False, True]


class TestEventAndAuditExport:
    def _full_dump(self) -> list[dict]:
        from repro.common.events import EventLog
        from repro.keylime.audit import AuditLog

        events = EventLog()
        events.emit(10.0, "keylime.verifier", "attestation.ok", agent="a")
        audit = AuditLog()
        audit.append(10.0, "a", True, {"kind": "poll"})
        extra = [{"type": "run_meta", "poll_interval": 1800.0}]
        return load_jsonl(jsonl_dump(
            _populated_registry(), events=events, audit=audit,
            extra_records=extra,
        ))

    def test_typed_records_present(self):
        records = self._full_dump()
        by_type = {}
        for record in records:
            by_type.setdefault(record.get("type", "metric"), []).append(record)
        assert len(by_type["event"]) == 1
        assert by_type["event"][0]["kind"] == "attestation.ok"
        assert len(by_type["audit"]) == 1
        assert by_type["audit"][0]["record_hash"]
        assert by_type["run_meta"][0]["poll_interval"] == 1800.0

    def test_audit_records_carry_the_chain_fields(self):
        [audit] = [r for r in self._full_dump() if r.get("type") == "audit"]
        assert set(audit) >= {
            "index", "time", "agent", "ok", "detail",
            "previous_hash", "record_hash",
        }


class TestStreamingJsonl:
    def test_jsonl_records_matches_jsonl_dump_exactly(self):
        import json

        from repro.common.events import EventLog
        from repro.obs.exporters import jsonl_records

        events = EventLog()
        events.emit(10.0, "keylime.verifier", "attestation.ok", agent="a")
        registry = _populated_registry()
        extra = [{"type": "run_meta", "seed": "x"}]
        dumped = jsonl_dump(registry, events=events, extra_records=extra)
        streamed = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in jsonl_records(
                registry, events=events, extra_records=extra)
        )
        assert streamed == dumped

    def test_write_jsonl_atomic_streams_a_generator(self, tmp_path):
        from repro.obs.exporters import write_jsonl_atomic

        target = tmp_path / "out.jsonl"

        def records():
            for i in range(1000):
                yield {"type": "x", "i": i}

        assert write_jsonl_atomic(str(target), records()) == 1000
        loaded = load_jsonl(target.read_text())
        assert len(loaded) == 1000
        assert loaded[-1] == {"type": "x", "i": 999}
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_crash_mid_stream_keeps_previous_file(self, tmp_path):
        import pytest

        from repro.obs.exporters import write_jsonl_atomic

        target = tmp_path / "out.jsonl"
        target.write_text('{"type": "old"}\n')

        def exploding():
            yield {"type": "new"}
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_jsonl_atomic(str(target), exploding())
        assert load_jsonl(target.read_text()) == [{"type": "old"}]
        assert list(tmp_path.iterdir()) == [target]

    def test_unserialisable_record_leaves_no_litter(self, tmp_path):
        import pytest

        from repro.obs.exporters import write_jsonl_atomic

        target = tmp_path / "out.jsonl"
        with pytest.raises(TypeError):
            write_jsonl_atomic(str(target), [{"bad": object()}])
        assert list(tmp_path.iterdir()) == []

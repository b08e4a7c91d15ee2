"""End-to-end telemetry: instrumented hot paths, CLI export."""

import pytest

from repro.cli import main
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.obs import runtime as obs_runtime
from repro.obs.exporters import load_jsonl, parse_prometheus_text
from repro.obs.tracestore import SpanStore


@pytest.fixture()
def telemetry():
    """An active telemetry bundle, always deactivated afterwards."""
    with obs_runtime.session() as bundle:
        yield bundle


class TestPollInstrumentation:
    def test_single_poll_produces_the_nested_phase_tree(self, telemetry):
        testbed = build_testbed(TestbedConfig(seed="obs-it", n_filler_packages=5))
        result = testbed.poll()
        assert result.ok

        root = telemetry.tracer.last_trace()
        assert root.name == "verifier.poll"
        phases = [child.name for child in root.children]
        assert phases == [
            "verifier.challenge",
            "verifier.quote_verify",
            "verifier.log_replay",
            "verifier.policy_eval",
        ]
        # The challenge round nests the agent's work, which nests the quote.
        assert root.find("agent.attest") is not None
        assert root.find("agent.quote") is not None
        assert root.find("tpm.verify_quote") is not None
        assert root.attributes["ok"] is True

    def test_poll_latency_histogram_and_counters(self, telemetry):
        testbed = build_testbed(TestbedConfig(seed="obs-it", n_filler_packages=5))
        testbed.poll()
        testbed.poll()

        registry = telemetry.registry
        hist = registry.get("verifier_poll_wall_seconds")._default_child()
        assert hist.count == 2
        assert hist.sum > 0.0
        polls = registry.get("verifier_polls_total")
        assert polls.labels(result="ok").value == 2
        assert registry.get("tpm_quote_verifications_total").labels(
            result="ok"
        ).value == 2
        assert registry.get("agent_attestations_total").labels(
            agent=testbed.agent_id
        ).value == 2

    def test_spans_carry_the_simulated_clock(self, telemetry):
        testbed = build_testbed(TestbedConfig(seed="obs-it", n_filler_packages=5))
        testbed.scheduler.clock.advance_by(3600.0)
        testbed.poll()
        root = telemetry.tracer.last_trace()
        assert root.sim_start == 3600.0


class TestImaInstrumentation:
    def test_cache_hit_metric_counts_p4_suppression(self, telemetry):
        testbed = build_testbed(TestbedConfig(seed="obs-it", n_filler_packages=5))
        package = next(
            pkg for pkg in testbed.mirror.packages() if pkg.has_executables
        )
        path = package.executables[0].path
        testbed.machine.exec_file(path)
        testbed.machine.exec_file(path)

        events = telemetry.registry.get("ima_events_total")
        assert events.labels(decision="measured").value == 1
        assert events.labels(decision="cache_hit").value == 1
        # boot_aggregate + the one real measurement.
        assert telemetry.registry.get("ima_measurements_total").value == 2


class TestExemplarAcceptance:
    """The ISSUE's acceptance bar: a p99 histogram bucket resolves to a
    stored trace through its exemplar."""

    def _run_polls(self, telemetry, n=6):
        testbed = build_testbed(TestbedConfig(seed="obs-ex", n_filler_packages=5))
        for _ in range(n):
            testbed.scheduler.clock.advance_by(1800.0)
            assert testbed.poll().ok
        return testbed

    def test_stage_p99_exemplar_resolves_in_the_store(self, telemetry):
        self._run_polls(telemetry)
        store = SpanStore(telemetry.tracer.roots)
        family = telemetry.registry.get("verifier_stage_wall_seconds")
        for labels, child in family.samples():
            exemplar = child.exemplar_for_quantile(0.99)
            assert exemplar is not None, f"stage {labels} lost its exemplar"
            entry = store.get(exemplar["trace_id"])
            assert entry is not None, f"stage {labels} exemplar unresolvable"
            assert entry.find("verifier.poll") is not None

    def test_poll_p99_exemplar_resolves_and_is_the_slow_trace(self, telemetry):
        self._run_polls(telemetry)
        child = telemetry.registry.get(
            "verifier_poll_wall_seconds"
        )._default_child()
        exemplar = child.exemplar_for_quantile(0.99)
        entry = SpanStore(telemetry.tracer.roots).get(exemplar["trace_id"])
        assert entry is not None
        assert entry.primary.name == "verifier.poll"

    def test_store_ingests_every_poll(self, telemetry):
        self._run_polls(telemetry, n=4)
        store = SpanStore(telemetry.tracer.roots)
        assert len(store.query(name="verifier.poll")) == 4
        assert store.percentile(0.5, name="verifier.poll") > 0.0

    def test_dropped_roots_exported_as_a_counter(self):
        from repro.obs.runtime import Telemetry
        from repro.obs.tracing import SpanTracer

        telemetry = Telemetry()
        dropped = telemetry.registry.get("obs_tracer_dropped_roots_total")
        telemetry.tracer = SpanTracer(max_roots=2, on_drop=dropped.inc)
        obs_runtime.activate(telemetry)
        try:
            for index in range(5):
                with telemetry.tracer.span(f"r{index}"):
                    pass
        finally:
            obs_runtime.deactivate()
        counter = telemetry.registry.get("obs_tracer_dropped_roots_total")
        assert counter.value == 3.0
        assert telemetry.tracer.dropped_roots == 3


class TestDisabledTelemetry:
    def test_hot_paths_run_without_an_active_session(self):
        assert obs_runtime.get() is obs_runtime.NULL_TELEMETRY
        testbed = build_testbed(TestbedConfig(seed="obs-off", n_filler_packages=5))
        assert testbed.poll().ok
        assert obs_runtime.get().registry.families() == []


class TestSession:
    def test_nested_session_restores_the_outer_bundle(self):
        before = obs_runtime.get()
        with obs_runtime.session() as outer:
            with obs_runtime.session() as inner:
                assert obs_runtime.get() is inner
            assert obs_runtime.get() is outer
        assert obs_runtime.get() is before


class TestCliObs:
    def test_fleet_export_files(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        jsonl_path = tmp_path / "telemetry.jsonl"
        code = main([
            "--fillers", "6", "--seed", "obs-cli",
            "obs", "fleet", "--days", "1", "--nodes", "2",
            "--prom", str(prom_path), "--jsonl", str(jsonl_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "== telemetry summary ==" in out
        assert "verifier.poll" in out

        samples = parse_prometheus_text(prom_path.read_text())
        assert samples[("verifier_polls_total", (("result", "ok"),))] > 0
        assert samples[("mirror_syncs_total", ())] > 0
        assert any(name == "ima_measurements_total" for name, _ in samples)

        records = load_jsonl(jsonl_path.read_text())
        names = {record["name"] for record in records}
        assert "verifier_polls_total" in names
        assert "verifier.poll" in names  # spans too
        # The CLI session was torn down on exit.
        assert obs_runtime.get() is obs_runtime.NULL_TELEMETRY

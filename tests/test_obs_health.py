"""Tests for the health detectors, SLO trackers and alert engine."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.events import EventLog
from repro.obs.alerts import (
    Alert,
    AlertEngine,
    BurnRateRule,
    SloTracker,
    standard_burn_rules,
    standard_slos,
)
from repro.obs.health import (
    CoverageGapDetector,
    Ewma,
    FailureRateDetector,
    HealthMonitor,
    HealthWatch,
    LatencyAnomalyDetector,
    SlidingWindow,
    render_dashboard,
)
from repro.obs.metrics import MetricsRegistry

HOUR = 3600.0
POLL = 1800.0


class TestEwma:
    def test_first_sample_seeds_the_average(self):
        ewma = Ewma(alpha=0.3)
        assert ewma.update(10.0) == 10.0
        assert ewma.samples == 1

    def test_smoothing(self):
        ewma = Ewma(alpha=0.5)
        ewma.update(0.0)
        assert ewma.update(1.0) == 0.5
        assert ewma.update(1.0) == 0.75


class TestSlidingWindow:
    def test_mean_and_std(self):
        window = SlidingWindow(8)
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            window.push(value)
        assert window.mean == pytest.approx(5.0)
        assert window.std == pytest.approx(2.0)

    def test_eviction_keeps_running_sums_consistent(self):
        window = SlidingWindow(3)
        for value in (100.0, 1.0, 2.0, 3.0):
            window.push(value)  # the 100 is evicted
        assert len(window) == 3
        assert window.mean == pytest.approx(2.0)

    def test_zscore_zero_when_flat(self):
        window = SlidingWindow(4)
        for _ in range(4):
            window.push(5.0)
        assert window.zscore(100.0) == 0.0

    def test_zscore_measures_deviation(self):
        window = SlidingWindow(8)
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            window.push(value)
        assert window.zscore(9.0) == pytest.approx(2.0)

    def test_no_catastrophic_cancellation_on_large_constants(self):
        """Regression: E[x^2] - E[x]^2 on ~1e9-scale near-constant
        samples leaves positive rounding noise that used to produce a
        tiny bogus sigma -- turning nanoseconds of jitter into huge
        z-scores.  The noise floor must report std == 0.0 here."""
        window = SlidingWindow(32)
        base = 1.0e9
        for i in range(32):
            # Jitter far below the cancellation error of the sums.
            window.push(base + (i % 2) * 1e-3)
        assert window.std == 0.0
        assert window.zscore(base + 1.0) == 0.0

    def test_real_spread_on_large_values_still_measured(self):
        window = SlidingWindow(32)
        for i in range(32):
            window.push(1.0e9 + (i % 2) * 1e6)
        assert window.std == pytest.approx(5e5)

    def test_resync_repairs_running_sum_drift(self):
        window = SlidingWindow(16)
        pushes = SlidingWindow.RESYNC_EVERY + 8
        for i in range(pushes):
            window.push(1.0e9 if i % 2 else 1.0e-9)
        # After many evictions of mixed-magnitude values the running
        # sums have been resynced from the retained window at least
        # once; mean/std must match a from-scratch computation.
        values = list(window._window)
        mean = sum(values) / len(values)
        assert window.mean == pytest.approx(mean)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        assert window.std == pytest.approx(variance**0.5, rel=1e-6)


class TestLatencyAnomalyDetector:
    def test_quiet_stream_never_alerts(self):
        detector = LatencyAnomalyDetector(min_samples=4)
        for tick in range(20):
            assert detector.observe(float(tick), 0.005) is None

    def test_spike_alerts_after_warmup(self):
        detector = LatencyAnomalyDetector(min_samples=4, threshold=3.0)
        for tick in range(8):
            detector.observe(float(tick), 0.005 + 0.0001 * (tick % 3))
        alert = detector.observe(8.0, 0.050)
        assert alert is not None
        assert alert.rule == "health.poll_latency_anomaly"
        assert alert.severity == "warning"
        assert alert.detail["zscore"] >= 3.0

    def test_no_alert_before_min_samples(self):
        detector = LatencyAnomalyDetector(min_samples=10)
        for tick in range(9):
            assert detector.observe(float(tick), 0.005) is None
        # Even a huge spike is withheld until the window is warm.
        assert detector.observe(9.0, 10.0) is None

    def test_min_ratio_suppresses_jitter_on_tight_streams(self):
        # Sigma is microscopic, so the z-score is huge -- but the value
        # is only 1.1x the mean and must not page.
        detector = LatencyAnomalyDetector(min_samples=4, min_ratio=1.5)
        for tick in range(8):
            detector.observe(float(tick), 0.005 + 1e-9 * tick)
        assert detector.observe(8.0, 0.0055) is None


class TestFailureRateDetector:
    def test_fires_on_sustained_failures(self):
        detector = FailureRateDetector(min_samples=3, threshold=0.5)
        assert detector.observe(0.0, 5, 10) is None
        assert detector.observe(1.0, 8, 10) is None
        alert = detector.observe(2.0, 9, 10)
        assert alert is not None
        assert alert.rule == "health.failure_rate"
        assert alert.severity == "critical"

    def test_empty_tick_is_not_a_sample(self):
        detector = FailureRateDetector(min_samples=1, threshold=0.5)
        assert detector.observe(0.0, 0, 0) is None
        assert detector.ewma.samples == 0


class TestCoverageGapDetector:
    def test_healthy_agent_never_gaps(self):
        gaps = CoverageGapDetector(gap_polls=3)
        gaps.watch("agent-a", POLL)
        for tick in range(1, 20):
            gaps.record_success("agent-a", tick * POLL)
            assert gaps.check(tick * POLL) == []

    def test_gap_fires_after_n_missed_polls(self):
        gaps = CoverageGapDetector(gap_polls=3)
        gaps.watch("agent-a", POLL)
        gaps.record_success("agent-a", 2 * POLL)
        assert gaps.check(5 * POLL) == []  # exactly 3 intervals: boundary holds
        alerts = gaps.check(5 * POLL + 1.0)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.rule == "health.coverage_gap"
        assert alert.severity == "critical"
        assert alert.agent == "agent-a"
        assert alert.detail["gap_started"] == 2 * POLL
        assert alert.detail["missed_polls"] >= 3

    def test_failed_polls_do_not_refresh_trust(self):
        # A fail-looping agent is still a gap: polling happens, but the
        # attestation history gains no fresh evidence.
        gaps = CoverageGapDetector(gap_polls=3)
        gaps.watch("agent-a", POLL)
        gaps.record_success("agent-a", POLL)
        for tick in range(2, 8):
            gaps.record_failure("agent-a", tick * POLL)
        alerts = gaps.check(7 * POLL)
        assert len(alerts) == 1
        assert alerts[0].detail["last_poll"] == 7 * POLL
        assert alerts[0].detail["last_ok"] == POLL

    def test_halt_is_recorded_in_the_alert(self):
        gaps = CoverageGapDetector(gap_polls=2)
        gaps.watch("agent-a", POLL)
        gaps.record_success("agent-a", POLL)
        gaps.record_halt("agent-a", 2 * POLL)
        [alert] = gaps.check(4 * POLL)
        assert alert.detail["polling_halted_at"] == 2 * POLL
        assert "halted" in alert.message

    def test_success_closes_the_gap(self):
        gaps = CoverageGapDetector(gap_polls=2)
        gaps.watch("agent-a", POLL)
        gaps.record_success("agent-a", POLL)
        assert gaps.check(5 * POLL)  # open
        gaps.record_success("agent-a", 5 * POLL)
        assert gaps.check(6 * POLL) == []

    def test_never_attested_agent_gaps_from_watch_start(self):
        gaps = CoverageGapDetector(gap_polls=2)
        gaps.watch("agent-a", POLL, now=10 * POLL)
        assert gaps.check(11 * POLL) == []
        [alert] = gaps.check(13 * POLL)
        assert alert.detail["gap_started"] == 10 * POLL

    def test_rejects_nonpositive_gap_polls(self):
        with pytest.raises(ValueError):
            CoverageGapDetector(gap_polls=0)


class TestSloTracker:
    def test_window_counts_and_burn_rate(self):
        slo = SloTracker("freshness", 0.99)
        for tick in range(10):
            slo.record(tick * POLL, good=tick % 2 == 0)
        total, bad = slo.window_counts(10 * POLL, 9 * POLL)
        assert (total, bad) == (10, 5)
        # bad fraction 0.5 against a 1% budget: 50 budgets burning.
        assert slo.burn_rate(10 * POLL, 9 * POLL) == pytest.approx(50.0)
        assert slo.budget_remaining(10 * POLL, 9 * POLL) == 0.0

    def test_old_samples_expire(self):
        slo = SloTracker("freshness", 0.99, max_window=HOUR)
        slo.record(0.0, good=False)
        slo.record(2 * HOUR, good=True)
        total, bad = slo.window_counts(10 * HOUR, 2 * HOUR)
        assert (total, bad) == (1, 0)
        assert slo.total == 2  # lifetime counters keep everything

    def test_objective_bounds(self):
        with pytest.raises(ConfigurationError):
            SloTracker("broken", 1.0)

    def test_registry_counts_samples_by_outcome(self):
        registry = MetricsRegistry()
        slo = SloTracker("s", 0.99, registry=registry)
        slo.record(1.0, True)
        slo.record(2.0, False)
        family = registry.get("slo_events_total")
        assert family.labels(slo="s", outcome="good").value == 1.0
        assert family.labels(slo="s", outcome="bad").value == 1.0


class TestBurnRateRule:
    def _burned_tracker(self, now: float) -> SloTracker:
        slo = SloTracker("s", 0.99)
        for tick in range(12):
            slo.record(now - tick * 60.0, good=False)
        return slo

    def test_fires_when_both_windows_burn(self):
        rule = BurnRateRule(
            "s.fast", self._burned_tracker(HOUR), long_window=HOUR,
            short_window=HOUR / 4, factor=14.4,
        )
        alert = rule.evaluate(HOUR)
        assert alert is not None and alert.rule == "s.fast"
        assert alert.detail["long_burn_rate"] >= 14.4

    def test_short_window_gate(self):
        # Burn long ago, recovered recently: sustained but not current.
        slo = SloTracker("s", 0.99)
        for tick in range(12):
            slo.record(tick * 60.0, good=False)
        for tick in range(12, 18):
            slo.record(tick * 60.0, good=True)
        rule = BurnRateRule(
            "s.fast", slo, long_window=18 * 60.0, short_window=5 * 60.0, factor=2.0
        )
        assert rule.evaluate(17 * 60.0) is None

    def test_min_samples_gate(self):
        slo = SloTracker("s", 0.99)
        slo.record(0.0, good=False)
        rule = BurnRateRule(
            "s.fast", slo, long_window=HOUR, short_window=HOUR / 4,
            factor=1.0, min_samples=6,
        )
        assert rule.evaluate(1.0) is None

    def test_inverted_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            BurnRateRule(
                "s.bad", SloTracker("s", 0.99),
                long_window=60.0, short_window=120.0, factor=1.0,
            )

    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            BurnRateRule(
                "s.bad", SloTracker("s", 0.99),
                long_window=120.0, short_window=60.0, factor=1.0,
                severity="page-everyone",
            )


class TestAlertEngine:
    def _signal(self, time: float, agent: str = "agent-a") -> Alert:
        return Alert(
            time=time, rule="health.coverage_gap", severity="critical",
            agent=agent, message="gap",
        )

    def test_fire_once_per_key(self):
        events = EventLog()
        engine = AlertEngine(events)
        assert len(engine.ingest([self._signal(1.0)], 1.0)) == 1
        assert engine.ingest([self._signal(2.0)], 2.0) == []
        assert len(engine.history) == 1
        assert engine.is_firing("health.coverage_gap", "agent-a")
        assert [e.kind for e in events.by_kind("alert.fired")] == ["alert.fired"]

    def test_absent_signal_resolves(self):
        events = EventLog()
        engine = AlertEngine(events)
        engine.ingest([self._signal(1.0)], 1.0)
        engine.ingest([], 5.0)
        assert not engine.is_firing("health.coverage_gap", "agent-a")
        [resolved] = events.by_kind("alert.resolved")
        assert resolved.details["active_seconds"] == 4.0

    def test_distinct_agents_are_distinct_alerts(self):
        engine = AlertEngine(EventLog())
        fired = engine.ingest(
            [self._signal(1.0, "agent-a"), self._signal(1.0, "agent-b")], 1.0
        )
        assert len(fired) == 2

    def test_evaluate_fires_and_resolves_burn_rules(self):
        events = EventLog()
        engine = AlertEngine(events)
        slo = SloTracker("s", 0.99)
        engine.add_rule(BurnRateRule(
            "s.fast", slo, long_window=HOUR, short_window=HOUR / 4, factor=2.0,
        ))
        for tick in range(10):
            slo.record(tick * 60.0, good=False)
        assert len(engine.evaluate(10 * 60.0)) == 1
        assert engine.evaluate(10 * 60.0) == []  # dedup
        for tick in range(10, 400):
            slo.record(tick * 60.0, good=True)
        engine.evaluate(400 * 60.0)
        assert not engine.is_firing("s.fast")
        assert len(events.by_kind("alert.resolved")) == 1

    def test_ingest_does_not_resolve_burn_rule_state(self):
        events = EventLog()
        engine = AlertEngine(events)
        slo = SloTracker("s", 0.99)
        engine.add_rule(BurnRateRule(
            "s.fast", slo, long_window=HOUR, short_window=HOUR / 4, factor=2.0,
        ))
        for tick in range(10):
            slo.record(tick * 60.0, good=False)
        engine.evaluate(10 * 60.0)
        engine.ingest([], 11 * 60.0)  # detector batch: must not touch s.fast
        assert engine.is_firing("s.fast")


class TestStandardDefinitions:
    def test_standard_slos_cover_the_four_objectives(self):
        slos = standard_slos()
        assert [t.name for t in slos.all()] == [
            "attestation_freshness", "poll_success", "detection_latency",
            "freshness_headroom",
        ]

    def test_burn_rule_windows_scale_with_poll_cadence(self):
        rules = standard_burn_rules(standard_slos(), poll_interval=POLL)
        by_name = {rule.name: rule for rule in rules}
        assert by_name["slo.freshness.fast_burn"].long_window == 4 * POLL
        assert by_name["slo.freshness.slow_burn"].long_window == 24 * POLL
        # A very fast cadence still gets the SRE floor windows.
        fast = standard_burn_rules(standard_slos(), poll_interval=10.0)
        assert {rule.long_window for rule in fast} == {3600.0, 6 * 3600.0}


class TestHealthMonitor:
    def _monitor(self, registry=None) -> tuple[EventLog, HealthMonitor]:
        events = EventLog()
        monitor = HealthMonitor(events, registry=registry, gap_polls=3)
        monitor.watch_agent("agent-a", POLL)
        return events, monitor

    def _ok(self, events: EventLog, time: float, agent: str = "agent-a") -> None:
        events.emit(time, "keylime.verifier", "attestation.ok", agent=agent)

    def test_event_intake_drives_the_gap_detector(self):
        events, monitor = self._monitor()
        self._ok(events, POLL)
        events.emit(
            2 * POLL, "keylime.verifier", "attestation.failed.policy",
            agent="agent-a", detail="nope",
        )
        events.emit(2 * POLL, "keylime.verifier", "polling.halted", agent="agent-a")
        alerts = monitor.check(5 * POLL)
        gap = [a for a in alerts if a.rule == "health.coverage_gap"]
        assert len(gap) == 1
        assert gap[0].detail["polling_halted_at"] == 2 * POLL
        # Both poll outcomes landed in the FP-budget SLO.
        assert monitor.slos.poll_success.total == 2
        assert monitor.slos.poll_success.total_bad == 1

    def test_unwatched_agents_are_ignored(self):
        events, monitor = self._monitor()
        self._ok(events, POLL, agent="agent-stranger")
        assert monitor.slos.poll_success.total == 0

    def test_detection_latency_slo_sampled_once_per_gap(self):
        events, monitor = self._monitor()
        self._ok(events, POLL)
        monitor.check(5 * POLL)
        monitor.check(6 * POLL)
        assert monitor.slos.detection_latency.total == 1

    def test_freshness_gauges_exported(self):
        registry = MetricsRegistry()
        events, monitor = self._monitor(registry=registry)
        self._ok(events, POLL)
        monitor.check(6 * POLL)
        age = registry.get("obs_agent_attestation_age_seconds")
        assert age.labels(agent="agent-a").value == 5 * POLL
        assert registry.get("obs_coverage_gaps_active").value == 1

    def test_slo_samples_reach_the_registry(self):
        registry = MetricsRegistry()
        events, monitor = self._monitor(registry=registry)
        self._ok(events, POLL)
        family = registry.get("slo_events_total")
        assert [labels for labels, _ in family.samples()] == [
            {"slo": "poll_success", "outcome": "good"}
        ]

    def test_close_unsubscribes(self):
        events, monitor = self._monitor()
        monitor.close()
        self._ok(events, POLL)
        assert monitor.slos.poll_success.total == 0


class TestHealthWatch:
    def _attached_watch(self) -> tuple[EventLog, HealthWatch]:
        events = EventLog()
        watch = HealthWatch(gap_polls=3, tick_interval=POLL)
        watch.attach(events, poll_interval=POLL)
        watch.watch_agent("agent-a")
        return events, watch

    def test_tick_builds_an_incident_per_new_alert(self):
        events, watch = self._attached_watch()
        events.emit(POLL, "keylime.verifier", "attestation.ok", agent="agent-a")
        assert watch.tick(2 * POLL) == []
        fired = watch.tick(5 * POLL)
        assert [a.rule for a in fired] == ["health.coverage_gap"]
        assert len(watch.incidents) == 1
        assert watch.incidents[0].agent_id == "agent-a"
        # The same gap does not mint a second incident.
        watch.tick(6 * POLL)
        assert len(watch.incidents) == 1

    def test_finalize_extends_the_open_incident_window(self):
        events, watch = self._attached_watch()
        events.emit(POLL, "keylime.verifier", "attestation.ok", agent="agent-a")
        watch.tick(5 * POLL)
        original = watch.incidents[0]
        assert original.window[1] == 5 * POLL
        # Evidence lands after detection, deep in the still-open gap.
        events.emit(8 * POLL, "attack.p2", "attack.backdoor_executed",
                    agent="agent-a", path="/usr/bin/backdoor")
        [refreshed] = watch.finalize(10 * POLL)
        assert len(watch.incidents) == 1
        assert refreshed.incident_id == original.incident_id
        assert refreshed.window[1] == 10 * POLL
        assert any(
            e["kind"] == "attack.backdoor_executed" for e in refreshed.events
        )

    def test_frames_are_emitted_on_cadence(self):
        frames = []
        events = EventLog()
        watch = HealthWatch(
            tick_interval=POLL,
            on_frame=lambda now, w: frames.append(now),
            frame_every=2,
        )
        watch.attach(events, poll_interval=POLL)
        for tick in range(1, 7):
            watch.tick(tick * POLL)
        assert frames == [2 * POLL, 4 * POLL, 6 * POLL]

    def test_dashboard_renders_state(self):
        events, watch = self._attached_watch()
        events.emit(POLL, "keylime.verifier", "attestation.ok", agent="agent-a")
        watch.tick(6 * POLL)
        text = render_dashboard(watch, 6 * POLL)
        assert "1 in coverage gap" in text
        assert "attestation_freshness" in text
        assert "health.coverage_gap" in text

"""Tests for tick-budget accounting and saturation detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import Scheduler, days
from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.distro.archive import UbuntuArchive
from repro.distro.mirror import LocalMirror
from repro.distro.workload import build_base_system
from repro.dynpolicy.generator import DynamicPolicyGenerator
from repro.keylime.faults import FaultKind, chaos_profile
from repro.keylime.fleet import Fleet
from repro.keylime.policy import IBM_STYLE_EXCLUDES
from repro.obs import runtime as obs_runtime
from repro.obs.capacity import (
    SaturationDetector,
    TickBudgetAccountant,
    publish_fleet_load,
    saturation_summary,
)
from repro.obs.health import HealthMonitor, HealthWatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.rules import ShareRule
from repro.obs.tsdb import TsdbStore
from repro.tpm.device import TpmManufacturer

POLL = 600.0


@pytest.fixture
def fresh_runtime():
    previous = obs_runtime.get()
    telemetry = obs_runtime.activate(clock=None)
    yield telemetry
    if previous.enabled:
        obs_runtime.activate(previous)
    else:
        obs_runtime.deactivate()


def _accountant(budget, events=None):
    acct = TickBudgetAccountant(events=events)
    acct.configure(budget=budget)
    return acct


class TestTickBudgetAccountant:
    def _tick(self, acct, registry, now, busy, n=3):
        return acct.observe_tick(
            now, wall_seconds=busy, registered=n, polled=n,
            registry=registry,
        )

    def test_budget_must_be_positive(self):
        acct = TickBudgetAccountant()
        with pytest.raises(ValueError):
            acct.configure(budget=0.0)
        with pytest.raises(ValueError):
            acct.configure(budget=-1.0)

    def test_budget_defaults_to_interval(self):
        acct = TickBudgetAccountant()
        acct.configure(interval=1800.0)
        assert acct.budget == 1800.0
        # An explicit budget is not overwritten by a later interval.
        acct2 = _accountant(2.0)
        acct2.configure(interval=1800.0)
        assert acct2.budget == 2.0

    def test_no_budget_means_no_utilization_and_no_overruns(self):
        acct = TickBudgetAccountant()
        record = self._tick(acct, MetricsRegistry(), 0.0, busy=5.0)
        assert record.utilization is None
        assert not record.overrun
        assert acct.overruns == 0

    def test_saturation_fires_on_third_consecutive_overrun(self):
        events = EventLog()
        registry = MetricsRegistry()
        acct = _accountant(1.0, events)
        acct.configure(interval=POLL)
        self._tick(acct, registry, 600.0, busy=0.5)
        for at in (1200.0, 1800.0, 2400.0):
            self._tick(acct, registry, at, busy=2.0)
        assert acct.overruns == 3
        assert acct.saturated and acct.saturated_since == 2400.0
        fired = [
            record for record in events.records_between(0.0, 1e9)
            if record.kind == "fleet.saturated"
        ]
        assert [record.time for record in fired] == [2400.0]
        assert fired[0].details["consecutive_overruns"] == 3
        publish_fleet_load(registry, [acct])
        assert registry.get("fleet_saturated").value == 1.0
        assert registry.get("fleet_tick_overruns_total").value == 3.0

        # One in-budget tick clears the state and says for how long.
        self._tick(acct, registry, 3000.0, busy=0.5)
        assert not acct.saturated
        cleared = [
            record for record in events.records_between(0.0, 1e9)
            if record.kind == "fleet.saturation_cleared"
        ]
        assert len(cleared) == 1
        assert cleared[0].details["saturated_seconds"] == 600.0
        publish_fleet_load(registry, [acct])
        assert registry.get("fleet_saturated").value == 0.0

    def test_interrupted_overrun_run_never_saturates(self):
        events = EventLog()
        registry = MetricsRegistry()
        acct = _accountant(1.0, events)
        for index, busy in enumerate((2.0, 2.0, 0.5, 2.0, 2.0, 0.5)):
            self._tick(acct, registry, 600.0 * (index + 1), busy=busy)
        assert acct.overruns == 4
        assert not acct.saturated
        assert not [
            record for record in events.records_between(0.0, 1e9)
            if record.kind == "fleet.saturated"
        ]

    def test_metric_families_written(self):
        registry = MetricsRegistry()
        acct = _accountant(1.0)
        acct.configure(interval=POLL)
        acct.observe_tick(
            600.0, wall_seconds=2.0, registered=5, polled=4, skipped=1,
            registry=registry, injected_delay_seconds=0.5,
        )
        assert registry.get("fleet_ticks_total").value == 1.0
        assert registry.get("fleet_tick_busy_seconds_total").value == 2.5
        assert registry.get("fleet_tick_budget_seconds_total").value == 1.0
        # The fleet-wide gauges have one writer, once per fleet tick.
        for name in (
            "fleet_saturated", "fleet_tick_utilization", "fleet_tick_budget_seconds",
        ):
            assert registry.get(name) is None
        publish_fleet_load(registry, [acct])
        assert registry.get("fleet_tick_utilization").value == 2.5
        assert registry.get("fleet_tick_budget_seconds").value == 1.0
        depth = registry.get("fleet_tick_queue_depth")
        assert {
            labels["phase"]: child.value for labels, child in depth.samples()
        } == {"registered": 5.0, "polled": 4.0, "skipped": 1.0}
        assert registry.get("fleet_tick_overruns_total").value == 1.0

    def test_lag_measured_against_interval(self):
        registry = MetricsRegistry()
        acct = _accountant(10.0)
        acct.configure(interval=POLL)
        self._tick(acct, registry, 600.0, busy=0.1)
        record = self._tick(acct, registry, 1500.0, busy=0.1)
        assert record.lag_seconds == pytest.approx(300.0)

    def test_chaos_delay_folds_into_busy_time(self):
        acct = _accountant(1.0)
        record = acct.observe_tick(
            600.0, wall_seconds=0.25, registered=2, polled=2,
            registry=MetricsRegistry(), injected_delay_seconds=3.0,
        )
        assert record.delay_seconds == 3.0
        assert record.busy_seconds == 3.25
        assert record.overrun


@given(
    wall=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    delay=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    budget=st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_utilization_in_unit_interval_iff_no_overrun(wall, delay, budget):
    """The accounting invariant: overrun <=> utilization > 1."""
    acct = _accountant(budget)
    record = acct.observe_tick(
        0.0, wall_seconds=wall, registered=1, polled=1,
        registry=MetricsRegistry(), injected_delay_seconds=delay,
    )
    assert record.busy_seconds == pytest.approx(wall + delay)
    if record.overrun:
        assert record.utilization > 1.0
    else:
        assert 0.0 <= record.utilization <= 1.0


class TestSaturationDetector:
    def test_silent_until_saturated(self):
        detector = SaturationDetector()
        assert detector.observe(600.0, saturated=False) is None

    def test_alert_shape(self):
        detector = SaturationDetector()
        alert = detector.observe(
            1800.0, saturated=True, utilization=1.8,
            overruns=3.0, ticks=3.0, budget=2.0,
        )
        assert alert.rule == "health.verifier_saturated"
        assert alert.severity == "critical"
        assert alert.detail["utilization"] == 1.8
        assert alert.detail["overruns_in_window"] == 3
        assert alert.detail["budget_seconds"] == 2.0


class TestShareRule:
    def test_shares_sum_to_one_over_positive_groups(self):
        store = TsdbStore()
        for at, (replay, quote) in ((600.0, (3.0, 1.0)), (1200.0, (9.0, 3.0))):
            store.append(
                "verifier_stage_wall_seconds_sum", {"stage": "log_replay"},
                replay, at, kind="counter",
            )
            store.append(
                "verifier_stage_wall_seconds_sum", {"stage": "quote_verify"},
                quote, at, kind="counter",
            )
        rule = ShareRule(
            "fleet:stage_cost_share", "verifier_stage_wall_seconds_sum",
            window=3600.0, by=("stage",),
        )
        assert rule.evaluate(store, 1200.0) == 2
        shares = {
            series.label("stage"): series.instant(1200.0)
            for series in store.select("fleet:stage_cost_share")
        }
        assert shares["log_replay"] == pytest.approx(0.75)
        assert shares["quote_verify"] == pytest.approx(0.25)

    def test_idle_window_writes_nothing(self):
        store = TsdbStore()
        rule = ShareRule(
            "fleet:stage_cost_share", "verifier_stage_wall_seconds_sum",
            window=3600.0, by=("stage",),
        )
        assert rule.evaluate(store, 1200.0) == 0
        assert store.select("fleet:stage_cost_share") == []


def _delay_saturated_fleet(n_nodes=3):
    """A small fleet whose every batch tick overruns its 2s budget.

    The ``delay`` chaos profile injects 0.6-1.8s per wire leg with
    probability 1 (always under the 2s attempt timeout, so every
    delivery succeeds).  With 3 nodes x 2 legs x >=0.6s a tick's
    injected delay alone is >=3.6s against a 2s budget -- saturation by
    construction, deterministic in sim-time.
    """
    rng = SeededRng("saturation-e2e")
    scheduler = Scheduler()
    events = EventLog()
    telemetry = obs_runtime.get()
    telemetry.bind_clock(scheduler.clock)
    archive = UbuntuArchive()
    base = build_base_system(
        rng.fork("base"), n_filler_packages=6, mean_exec_files=3,
    )
    archive.seed(base)
    mirror = LocalMirror(archive, events=events)
    mirror.sync(0.0)
    generator = DynamicPolicyGenerator(mirror, events=events, rng=rng.fork("gen"))
    policy, _ = generator.generate_full(
        list(IBM_STYLE_EXCLUDES), {"5.15.0-91-generic"}
    )
    plan = chaos_profile("delay", rng.fork("chaos"))
    fleet = Fleet(
        n_nodes, mirror, TpmManufacturer("Sat", rng.fork("tpm")),
        scheduler, rng.fork("fleet"), policy,
        events=events, fault_plan=plan,
    )
    fleet.accounting.configure(budget=2.0)
    return fleet, scheduler


def test_each_shard_is_charged_only_its_own_batch_delay(fresh_runtime):
    """In every tick of a sharded ``delay`` fleet -- one member killed
    mid-run, so an adopted shard starts a fresh accountant -- the
    shards' accounted delays sum to the delay the chaos layer injected
    in that tick (its ground-truth log, rounded to the millisecond)."""
    fleet, scheduler = _delay_saturated_fleet(n_nodes=6)
    fleet.shard(3, SeededRng("saturation-e2e").fork("shards"))
    for tick in range(5):
        if tick == 3:
            fleet.kill("verifier-1")
        scheduler.clock.advance_by(POLL)
        fleet.poll_all()
        now = scheduler.clock.now
        delays = [
            float(record.detail.rstrip("s"))
            for record in fleet.fault_plan.injections
            if record.kind is FaultKind.DELAY and record.time == now
        ]
        assert delays
        charged = [host.accounting.records[-1] for host in fleet.shards.values()]
        assert [record.at for record in charged] == [now] * len(charged)
        assert sum(record.delay_seconds for record in charged) == pytest.approx(
            sum(delays), abs=5e-4 * len(delays)
        )
    assert fleet.shards["verifier-1"].adoptions == 1


def test_fleet_load_gauges_see_every_shard(fresh_runtime):
    """On a sharded ``delay`` fleet the fleet-wide gauges read "any shard
    saturated" and the most utilized shard at every tick.  verifier-1
    saturates at tick 2 and stays saturated; verifier-2 saturates at
    tick 26 and clears at tick 27, so gauges written by whichever shard
    ticked last would read "not saturated" for ticks 27-29."""
    fleet, scheduler = _delay_saturated_fleet(n_nodes=6)
    fleet.shard(3, SeededRng("saturation-e2e").fork("shards"))
    for host in fleet.shards.values():
        host.accounting.configure(budget=5.0)
    registry = fresh_runtime.registry
    monitor = HealthMonitor(fleet.events, registry=registry)
    alerted = []
    for tick in range(30):
        scheduler.clock.advance_by(POLL)
        fleet.poll_all()
        accountants = [host.accounting for host in fleet.shards.values()]
        saturated = any(acct.saturated for acct in accountants)
        gauge = registry.get("fleet_saturated")
        assert (gauge is not None and gauge.value == 1.0) == saturated
        peak = max(accountants, key=lambda acct: acct.records[-1].utilization)
        assert registry.get("fleet_tick_utilization").value == (
            peak.records[-1].utilization
        )
        assert registry.get("fleet_tick_budget_seconds").value == 5.0
        if tick >= 27:
            assert fleet.shards["verifier-1"].accounting.saturated
            assert not fleet.shards["verifier-2"].accounting.saturated
        signals = monitor.check(scheduler.clock.now)
        if any(alert.rule == "health.verifier_saturated" for alert in signals):
            alerted.append(tick)
    assert alerted == list(range(2, 30))
    assert "** SATURATED **" in saturation_summary(registry)[0]


class TestChaosDelaySaturation:
    """End to end: injected wire latency saturates the batch scheduler,
    the accountant flags it, the health stack alerts and burns the
    freshness-headroom SLO, and the incident correlator files it."""

    @pytest.fixture(scope="class")
    def run(self):
        previous = obs_runtime.get()
        obs_runtime.activate(clock=None)
        try:
            fleet, scheduler = _delay_saturated_fleet()
            watch = HealthWatch(tick_interval=POLL)
            fleet.start_polling(POLL)
            fleet.watch_health(watch, POLL)
            scheduler.run_until(days(1))
            end = scheduler.clock.now
            watch.finalize(end)
            yield fleet, watch, end
        finally:
            if previous.enabled:
                obs_runtime.activate(previous)
            else:
                obs_runtime.deactivate()

    def test_nodes_stay_green_through_the_delays(self, run):
        fleet, _, _ = run
        assert set(fleet.status().values()) == {"attesting"}

    def test_every_tick_overran(self, run):
        fleet, _, _ = run
        acct = fleet.accounting
        assert acct.ticks > 0
        assert acct.overruns == acct.ticks
        assert all(record.overrun for record in acct.records)
        assert all(
            record.delay_seconds >= 3.6 for record in acct.records
        )

    def test_saturation_event_at_the_deterministic_tick(self, run):
        fleet, _, end = run
        fired = [
            record
            for record in fleet.events.records_between(0.0, end)
            if record.kind == "fleet.saturated"
        ]
        # Overrun ticks at 600/1200/1800 => detector (3 consecutive)
        # fires exactly at the third tick, once for the whole run.
        assert [record.time for record in fired] == [3 * POLL]
        assert fired[0].details["timer"] == "fleet-poll-batch"
        assert fleet.accounting.saturated

    def test_health_alert_and_incident(self, run):
        _, watch, _ = run
        rules = [alert.rule for alert in watch.engine.history]
        assert "health.verifier_saturated" in rules
        first = next(
            alert for alert in watch.engine.history
            if alert.rule == "health.verifier_saturated"
        )
        assert first.time == 3 * POLL  # same monitor tick the gauge rose
        assert any(
            report.alert["rule"] == "health.verifier_saturated"
            for report in watch.incidents
        )

    def test_freshness_headroom_slo_burns(self, run):
        _, watch, _ = run
        headroom = watch.monitor.slos.freshness_headroom
        assert headroom is not None
        assert headroom.total > 0
        assert headroom.total_bad == headroom.total  # every tick overran
        assert "slo.freshness_headroom.burn" in {
            alert.rule for alert in watch.engine.history
        }

    def test_accounting_metrics_reached_the_registry(self, run):
        fleet, watch, _ = run
        registry = watch.monitor.registry
        assert registry.get("fleet_saturated").value == 1.0
        ticks = registry.get("fleet_ticks_total").value
        assert ticks == fleet.accounting.ticks
        assert registry.get("fleet_tick_utilization").value > 1.0

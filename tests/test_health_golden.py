"""Golden pin of the health watch: alerts, SLO windows and incidents.

``golden/health_watch_history.json`` was recorded from a 3-node, 2-day
fleet run with the ``partition`` chaos profile on node 0 (seed
``equivalence``), back when two health paths existed: the watch that
samples the live registry and a twin that read everything back from
an embedded TSDB.  Both paths recorded the same history, and two
recordings in fresh interpreters matched each other, so this file is
the behaviour the one remaining path must keep.

Pinned per run: every alert record except ``health.poll_latency_anomaly``
(its z-score rides on wall-clock poll latency), the keys of the alerts
still active at the end, each SLO tracker's ``window_counts`` at four
trailing windows, and each incident's rule, agent and window.

Run this module as a script to print the observed history as JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.clock import days, hours
from repro.common.events import EventLog
from repro.distro.workload import ReleaseStreamConfig
from repro.experiments.fleet_run import DEFAULT_KERNEL, ChaosInjection
from repro.keylime.fleet import build_fleet, release_stream
from repro.obs import runtime as obs_runtime
from repro.obs.health import HealthWatch

GOLDEN = Path(__file__).resolve().parent / "golden" / "health_watch_history.json"

SEED = "equivalence"
N_NODES = 3
N_DAYS = 2
POLL = 1800.0
WINDOWS = (POLL, 6 * POLL, 86400.0, 7 * 86400.0)
CHAOS = ChaosInjection(
    profile="partition", chaos_seed="eq-chaos", node_indices=(0,),
)
#: Rules whose firing depends on wall-clock timings, not the simulation.
WALL_CLOCK_RULES = frozenset({"health.poll_latency_anomaly"})


def run_watch() -> tuple[HealthWatch, float]:
    """The golden scenario, watched; returns ``(watch, end_time)``."""
    node_ids = [f"agent-node-{i:03d}" for i in range(N_NODES)]
    obs_runtime.activate(clock=None)
    fleet = build_fleet(
        SEED, N_NODES, fillers=8, mean_exec_files=4.0,
        manufacturer="Infineon", events=EventLog(),
        kernel_version=DEFAULT_KERNEL, fault_plan=CHAOS.build_plan(node_ids),
        retry_policy=CHAOS.build_retry_policy(),
        quarantine_after=CHAOS.quarantine_after,
    )
    stream = release_stream(fleet, SEED, ReleaseStreamConfig(
        mean_packages_per_day=2.0, sd_packages_per_day=1.0,
        mean_exec_files_per_package=4.0, kernel_release_every_days=0,
    ))
    watch = HealthWatch(tick_interval=POLL)
    fleet.start_polling(POLL)
    fleet.watch_health(watch, POLL)
    for day in range(1, N_DAYS + 1):
        stream.generate_day(day - 1)
        fleet.scheduler.call_at(
            days(day) + hours(5.0), fleet.run_update_cycle,
            label=f"update-day{day}",
        )
    fleet.scheduler.run_until(days(N_DAYS + 1))
    end = fleet.scheduler.clock.now
    watch.finalize(end)
    return watch, end


def history(watch: HealthWatch, end: float) -> dict:
    """The pinned, simulation-determined fields of one watched run."""
    return {
        "alerts": [
            alert.to_record() for alert in watch.engine.history
            if alert.rule not in WALL_CLOCK_RULES
        ],
        "active": [
            list(alert.key) for alert in watch.engine.active()
            if alert.rule not in WALL_CLOCK_RULES
        ],
        "window_counts": {
            tracker.name: [
                list(tracker.window_counts(window, end)) for window in WINDOWS
            ]
            for tracker in watch.monitor.slos.all()
        },
        "incidents": [
            {
                "rule": incident.alert["rule"],
                "agent": incident.agent_id,
                "window": list(incident.window),
            }
            for incident in watch.incidents
            if incident.alert["rule"] not in WALL_CLOCK_RULES
        ],
    }


def observe() -> dict:
    """Run the scenario under its own telemetry; returns :func:`history`."""
    previous = obs_runtime.get()
    try:
        return json.loads(json.dumps(history(*run_watch())))
    finally:
        if previous.enabled:
            obs_runtime.activate(previous)
        else:
            obs_runtime.deactivate()


@pytest.fixture(scope="module")
def observed() -> dict:
    return observe()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "field", ("alerts", "active", "window_counts", "incidents")
)
def test_health_history_matches_golden(field, observed, golden):
    assert observed[field] == golden[field], f"golden field {field!r} diverged"


def test_golden_scenario_alerts(golden):
    """The pinned run exercises the gap detector and the SLO burn rules."""
    rules = {alert["rule"] for alert in golden["alerts"]}
    assert "health.coverage_gap" in rules
    assert {"slo.freshness.fast_burn", "slo.poll_success.slow_burn"} <= rules


if __name__ == "__main__":
    print(json.dumps(observe(), indent=1, sort_keys=True))

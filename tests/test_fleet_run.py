"""Tests for the continuous fleet scenario (experiments/fleet_run.py)."""

import pytest

from repro.common.clock import days, hours
from repro.experiments.fleet_run import P2Injection, run_fleet_scenario
from repro.obs.health import HealthWatch


@pytest.fixture(scope="module")
def plain_run():
    return run_fleet_scenario(
        seed="fleet-run", n_nodes=2, n_days=2, n_filler_packages=5
    )


class TestFleetScenario:
    def test_all_nodes_keep_attesting(self, plain_run):
        assert set(plain_run.status.values()) == {"attesting"}

    def test_polling_covers_the_whole_run(self, plain_run):
        # Two nodes, half-hourly polls, two+ days: the run starts at the
        # first interval and ends at day n+1.
        per_node = plain_run.total_polls / len(plain_run.fleet)
        assert per_node == pytest.approx((days(3) - 1800.0) // 1800.0, abs=2)

    def test_one_update_cycle_per_day(self, plain_run):
        assert len(plain_run.update_reports) == 2
        for report in plain_run.update_reports:
            assert report.nodes_updated in (0, 2)  # shared policy, all-or-none

    def test_sync_lands_the_previous_days_releases(self, plain_run):
        # Day d's 05:00 cycle syncs day d-1's releases, so every poll
        # after an upgrade still verifies: zero false positives.
        verifier = plain_run.fleet.verifier
        for node in plain_run.fleet.nodes:
            assert all(
                result.ok for result in verifier.results_of(node.agent.agent_id)
            )

    def test_polled_events_carry_state_counts(self, plain_run):
        ticks = plain_run.fleet.events.by_kind("fleet.polled")
        assert ticks
        assert ticks[-1].details["healthy"] == 2
        assert ticks[-1].details["attesting"] == 2
        assert ticks[-1].details["failed"] == 0


class TestP2Injection:
    def test_defaults_place_the_attack_inside_the_gap(self):
        p2 = P2Injection()
        assert p2.attack_time == p2.fp_time + p2.attack_delay
        assert p2.fp_time == days(1) + hours(6.5)

    def test_without_a_watch_the_attack_is_silent(self):
        result = run_fleet_scenario(
            seed="fleet-p2-stock", n_nodes=2, n_days=2, n_filler_packages=5,
            p2=P2Injection(),
        )
        victim = result.fleet.nodes[0]
        assert result.status[victim.name] == "failed"
        assert result.p2_node == victim.agent.agent_id
        # The verifier recorded nothing after the halt -- the gap.
        last = result.fleet.verifier.results_of(result.p2_node)[-1]
        assert last.time == result.p2.fp_time
        assert not last.ok
        # Yet the backdoor ran on the machine inside that gap.
        assert result.fleet.events.by_kind("attack.backdoor_executed")

    def test_watch_health_registers_every_node(self):
        watch = HealthWatch(tick_interval=1800.0)
        result = run_fleet_scenario(
            seed="fleet-p2-watched", n_nodes=2, n_days=2, n_filler_packages=5,
            p2=P2Injection(), watch=watch,
        )
        assert watch.attached
        assert watch.monitor.gaps.agents() == [
            node.agent.agent_id for node in result.fleet.nodes
        ]
        assert watch.engine.is_firing("health.coverage_gap", result.p2_node)

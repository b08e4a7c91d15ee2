"""Federated observatory runs and the mission-control SLO panel.

The health watch's alert/SLO/incident history is pinned separately,
by ``tests/test_health_golden.py``.
"""

import pytest

from repro.experiments.observatory import run_federated_observatory
from repro.obs import runtime as obs_runtime
from repro.obs.alerts import standard_slos
from repro.obs.dashboard import render_top, slo_burn, top_frame_record
from repro.obs.tsdb import TsdbStore

POLL = 1800.0


class TestFederatedObservatory:
    @pytest.fixture(scope="class")
    def result(self):
        previous = obs_runtime.get()
        try:
            yield run_federated_observatory(
                seed="test-fed", n_shards=2, nodes_per_shard=2, n_days=1,
                n_filler_packages=8,
            )
        finally:
            if previous.enabled:
                obs_runtime.activate(previous)
            else:
                obs_runtime.deactivate()

    def test_two_independent_telemetry_runtimes(self, result):
        shard_a, shard_b = result.shards
        assert shard_a.telemetry is not shard_b.telemetry
        assert shard_a.telemetry.registry is not shard_b.telemetry.registry
        # Both registries actually recorded their own fleet's activity.
        for shard in result.shards:
            family = shard.telemetry.registry.get("verifier_polls_total")
            assert family is not None

    def test_snapshots_flow_through_the_json_wire(self, result):
        shard_a, shard_b = result.shards
        assert shard_a.snapshots_sent > shard_b.snapshots_sent > 0
        assert result.hub.source("shard-0").snapshots == shard_a.snapshots_sent
        assert result.hub.source("shard-1").snapshots == shard_b.snapshots_sent

    def test_hub_store_holds_both_sources(self, result):
        store = result.hub.store
        end = result.end_time
        for source in ("shard-0", "shard-1"):
            series = store.select("verifier_polls_total", source=source)
            assert series, f"no federated series for {source}"
            assert any(s.instant(end) for s in series)
        # Fleet-level recording rules collapse the source label.
        assert store.instant("fleet:poll_rate", None, end) is not None
        nodes = store.select("fleet:nodes", state="attesting")
        assert nodes and nodes[0].instant(end) == 4.0

    def test_staleness_reflects_staggered_cadence(self, result):
        ages = result.hub.staleness(result.end_time)
        assert set(ages) == {"shard-0", "shard-1"}
        assert all(age is not None for age in ages.values())

    def test_dashboard_renders_rollups_from_both_registries(self, result):
        frame = render_top(
            result.hub.store, result.end_time,
            result.hub.staleness(result.end_time), poll_interval=POLL,
        )
        assert "sources: 2 federated" in frame
        assert "shard-0" in frame and "shard-1" in frame
        assert "fleet: 4 nodes" in frame
        assert "shard-0/agent-node-000" in frame
        assert "shard-1/agent-node-000" in frame
        assert "tsdb:" in frame

    def test_top_frame_record_is_json_shaped(self, result):
        import json

        record = top_frame_record(
            result.hub.store, result.end_time,
            result.hub.staleness(result.end_time), POLL,
        )
        assert record["type"] == "top_frame"
        assert record["fleet_nodes"].get("attesting") == 4
        assert set(record["sources"]) == {"shard-0", "shard-1"}
        assert len(record["attestation_age_seconds"]) == 4
        json.dumps(record)  # must be serialisable as exported

    def test_previous_runtime_restored(self, result):
        assert obs_runtime.get() is not result.shards[0].telemetry


class TestSloBurnPanel:
    def _store(self, slo: str, good: int, bad: int) -> TsdbStore:
        """``slo_events_total`` for one SLO, as a scrape would store it."""
        store = TsdbStore()
        for outcome, count in (("good", good), ("bad", bad)):
            labels = {"slo": slo, "outcome": outcome, "source": "shard-0"}
            store.append("slo_events_total", labels, 0.0, 0.0, kind="counter")
            store.append(
                "slo_events_total", labels, float(count), POLL, kind="counter"
            )
        return store

    def test_lists_the_freshness_headroom_slo(self):
        burns = slo_burn(self._store("freshness_headroom", 9, 1), POLL)
        assert [burn["slo"] for burn in burns] == ["freshness_headroom"]
        burn = burns[0]
        assert (burn["total"], burn["bad"]) == (10, 1)
        assert burn["objective"] == 0.95
        assert burn["burn_rate"] == pytest.approx(0.1 / 0.05)

    def test_objectives_are_the_standard_slos(self):
        for tracker in standard_slos().all():
            burns = slo_burn(self._store(tracker.name, 1, 0), POLL)
            assert [(b["slo"], b["objective"]) for b in burns] == [
                (tracker.name, tracker.objective)
            ]

    def test_render_top_shows_the_headroom_line(self):
        frame = render_top(self._store("freshness_headroom", 4, 0), POLL)
        assert "SLO burn" in frame
        assert "freshness_headroom" in frame

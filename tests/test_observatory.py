"""The federated sharded run behind ``obs top``, and its SLO burn panel.

The health watch's alert/SLO/incident history is pinned separately,
by ``tests/test_health_golden.py``; a dead member reading STALE on the
hub, by ``tests/test_failover.py::TestObservatorySeesTheFailover``.
"""

import pytest

from repro.experiments.shardfleet import run_shard_fleet
from repro.obs import runtime as obs_runtime
from repro.obs.alerts import standard_slos
from repro.obs.dashboard import render_top, slo_burn, top_frame_record
from repro.obs.tsdb import TsdbStore

POLL = 1800.0
MEMBERS = ("verifier-0", "verifier-1")


class TestFederatedObservatory:
    @pytest.fixture(scope="class")
    def result(self):
        return run_shard_fleet(
            seed="test-fed", n_nodes=4, n_verifiers=2, fillers=2, rounds=4,
            poll_interval=POLL,
        )

    def test_snapshots_flow_through_the_json_wire(self, result):
        # One snapshot per round from every live member and the fleet.
        for source in ("fleet",) + MEMBERS:
            assert result.hub.source(source).snapshots == result.rounds

    def test_hub_store_holds_both_sources(self, result):
        """Unsharded families ship under ``fleet``; each member ships
        the shard-labelled families of the shards it hosts."""
        store = result.hub.store
        end = result.end_time
        polls = store.select("verifier_polls_total", source="fleet")
        assert polls and any(s.instant(end) for s in polls)
        for member in MEMBERS:
            sizes = store.select("fleet_shard_agents", source=member)
            assert [s.instant(end) for s in sizes] == [2.0]
        # Fleet-level recording rules collapse the source label.
        assert store.instant("fleet:poll_rate", None, end) is not None
        nodes = store.select("fleet:nodes", state="attesting")
        assert nodes and nodes[0].instant(end) == 4.0

    def test_dashboard_renders_rollups_from_both_registries(self, result):
        frame = render_top(
            result.hub.store, result.end_time,
            result.hub.staleness(result.end_time), poll_interval=POLL,
        )
        assert "sources: 3 federated" in frame
        assert "verifier-0: 0m" in frame and "verifier-1: 0m" in frame
        assert "fleet: 4 nodes" in frame
        assert "-- shards (2), 2 live member(s)" in frame
        assert "fleet/agent-node-000" in frame
        assert "fleet/agent-node-003" in frame
        assert "tsdb:" in frame

    def test_top_frame_record_is_json_shaped(self, result):
        import json

        record = top_frame_record(
            result.hub.store, result.end_time,
            result.hub.staleness(result.end_time), POLL,
        )
        assert record["type"] == "top_frame"
        assert record["fleet_nodes"].get("attesting") == 4
        assert set(record["sources"]) == {"fleet", *MEMBERS}
        assert set(record["shards"]) == set(MEMBERS)
        assert len(record["attestation_age_seconds"]) == 4
        json.dumps(record)  # must be serialisable as exported

    def test_previous_runtime_restored(self):
        before = obs_runtime.get()
        with obs_runtime.session() as outer:
            result = run_shard_fleet(
                seed="test-fed", n_nodes=2, n_verifiers=1, fillers=2,
                rounds=1,
            )
            assert obs_runtime.get() is outer
            assert result.watch.monitor.registry is not outer.registry
        assert obs_runtime.get() is before


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

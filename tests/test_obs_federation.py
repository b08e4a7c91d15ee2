"""Tests for the snapshot wire pair and the federation hub."""

import pytest

from repro.common.errors import IntegrityError
from repro.obs.federation import (
    SNAPSHOT_TYPE,
    FederationHub,
    registry_snapshot,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.obs.metrics import MetricsRegistry


def _registry(polls=5, lat=(0.05, 0.5)):
    registry = MetricsRegistry()
    registry.counter("polls_total", "", ("result",)).labels(
        result="ok").inc(polls)
    registry.gauge("nodes", "").set(3)
    hist = registry.histogram("lat", "", buckets=(0.1, 1.0))
    for value in lat:
        hist.observe(value)
    return registry


class TestSnapshotWire:
    def test_roundtrip(self):
        snapshot = registry_snapshot(_registry(), "shard-0", 100.0)
        decoded = snapshot_from_json(snapshot_to_json(snapshot))
        assert decoded["type"] == SNAPSHOT_TYPE
        assert decoded["source"] == "shard-0"
        assert decoded["at"] == 100.0
        by_name = {entry["name"]: entry for entry in decoded["metrics"]}
        assert by_name["polls_total"]["value"] == 5.0
        assert by_name["polls_total"]["labels"] == {"result": "ok"}
        assert by_name["lat"]["count"] == 2.0
        assert ["+Inf", 2.0] in by_name["lat"]["buckets"]

    @pytest.mark.parametrize("blob", [
        "not json",
        "[]",
        '{"type": "other"}',
        '{"type": "obs_snapshot", "source": "", "at": 0, "metrics": []}',
        '{"type": "obs_snapshot", "source": "s", "at": "nope", "metrics": []}',
        '{"type": "obs_snapshot", "source": "s", "at": 0, "metrics": {}}',
        '{"type": "obs_snapshot", "source": "s", "at": 0, '
        '"metrics": [{"kind": "counter"}]}',
        '{"type": "obs_snapshot", "source": "s", "at": 0, '
        '"metrics": [{"name": "h", "kind": "histogram", "count": 1}]}',
        # A bucket bound that is neither +Inf nor a number.
        '{"type": "obs_snapshot", "source": "s", "at": 0, '
        '"metrics": [{"name": "verifier_poll_wall_seconds", '
        '"kind": "histogram", "labels": {}, "count": 1, "sum": 0.1, '
        '"buckets": [["abc", 1]]}]}',
        # A non-finite value would poison every rule sum it joins.
        '{"type": "obs_snapshot", "source": "s", "at": 0, '
        '"metrics": [{"name": "c", "kind": "counter", "labels": {}, '
        '"value": NaN}]}',
    ])
    def test_malformed_input_is_integrity_error(self, blob):
        with pytest.raises(IntegrityError):
            snapshot_from_json(blob)

    def test_label_overflow_travels(self):
        registry = MetricsRegistry(max_label_sets=2)
        family = registry.counter("chatty", "", ("who",))
        for i in range(10):
            family.labels(who=f"w{i}").inc()
        snapshot = snapshot_from_json(snapshot_to_json(
            registry_snapshot(registry, "s", 1.0)))
        assert snapshot["label_overflow"] == {"chatty": 8}


class TestFederationHub:
    def test_series_tagged_by_source(self):
        hub = FederationHub()
        hub.ingest_json(snapshot_to_json(
            registry_snapshot(_registry(polls=5), "shard-0", 60.0)))
        hub.ingest_json(snapshot_to_json(
            registry_snapshot(_registry(polls=9), "shard-1", 60.0)))
        assert hub.store.instant(
            "polls_total", {"result": "ok", "source": "shard-0"}, 60.0) == 5.0
        assert hub.store.instant(
            "polls_total", {"result": "ok", "source": "shard-1"}, 60.0) == 9.0
        # Fleet-level queries sum across sources.
        total = sum(
            series.instant(60.0)
            for series in hub.store.select("polls_total", result="ok")
        )
        assert total == 14.0
        # Histograms land exploded into cumulative per-le buckets.
        assert hub.store.instant(
            "lat_count", {"source": "shard-0"}, 60.0) == 2.0
        assert len(hub.store.select("lat_bucket", source="shard-0")) == 3
        assert hub.store.instant(
            "lat_bucket", {"le": "0.1", "source": "shard-0"}, 60.0) == 1.0
        assert hub.store.instant(
            "lat_bucket", {"le": "+Inf", "source": "shard-0"}, 60.0) == 2.0

    def test_out_of_order_snapshot_dropped_with_accounting(self):
        hub = FederationHub()
        registry = _registry()
        hub.ingest(registry_snapshot(registry, "s", 100.0))
        before = hub.store.total_samples()
        assert hub.ingest(registry_snapshot(registry, "s", 50.0)) == 0
        assert hub.ingest(registry_snapshot(registry, "s", 100.0)) == 0
        assert hub.store.total_samples() == before
        state = hub.source("s")
        assert state.snapshots == 1
        assert state.dropped == 2
        # Other sources are unaffected by one source's regression.
        assert hub.ingest(registry_snapshot(registry, "t", 50.0)) > 0

    def test_source_restart_counts_as_counter_reset(self):
        hub = FederationHub()
        hub.ingest(registry_snapshot(_registry(polls=50), "s", 60.0))
        hub.ingest(registry_snapshot(_registry(polls=3), "s", 120.0))
        assert hub.store.counter_resets > 0
        series = hub.store.select("polls_total", source="s")[0]
        # Reset-adjusted: 50 then restart at 3, never -47.
        assert series.increase(0.0, 120.0) == pytest.approx(53.0)

    def test_staleness_tracking(self):
        hub = FederationHub(poll_interval=60.0)
        hub.ingest(registry_snapshot(_registry(), "fresh", 100.0))
        hub.ingest(registry_snapshot(_registry(), "quiet", 40.0))
        ages = hub.staleness(160.0)
        assert ages["fresh"] == pytest.approx(60.0)
        assert ages["quiet"] == pytest.approx(120.0)
        assert hub.stale_sources(160.0, max_age=90.0) == ["quiet"]

    def test_rules_evaluate_over_merged_store(self):
        hub = FederationHub(poll_interval=60.0)
        for minute in range(1, 11):
            at = minute * 60.0
            for shard, step in (("a", 2), ("b", 3)):
                registry = _registry(polls=minute * step)
                hub.ingest(registry_snapshot(registry, shard, at))
        hub.evaluate(600.0)
        # verifier_polls_total is absent here; a node rollup still
        # derives from the merged gauge series.
        from repro.obs.rules import AggregateRule

        hub.engine.add(AggregateRule("fleet:all_nodes", "nodes", "sum"))
        hub.evaluate(600.0)
        assert hub.store.instant("fleet:all_nodes", None, 600.0) == 6.0

    def test_label_overflow_survives_merge(self):
        """A cardinality bug in any shard stays visible fleet-wide:
        per-source overflow series in the store, per-source counts on
        the source state, and a cross-source merged total."""
        hub = FederationHub()
        for name, cap, n in (("shard-0", 2, 10), ("shard-1", 3, 5)):
            registry = MetricsRegistry(max_label_sets=cap)
            family = registry.counter("chatty", "", ("who",))
            for i in range(n):
                family.labels(who=f"w{i}").inc()
            hub.ingest_json(snapshot_to_json(
                registry_snapshot(registry, name, 60.0)))
        assert hub.merged_label_overflow() == {"chatty": 8 + 2}
        assert hub.source("shard-0").label_overflow == {"chatty": 8}
        assert hub.store.instant(
            "telemetry_label_sets_overflowed_total",
            {"metric": "chatty", "source": "shard-0"}, 60.0) == 8.0
        assert hub.store.instant(
            "telemetry_label_sets_overflowed_total",
            {"metric": "chatty", "source": "shard-1"}, 60.0) == 2.0
        # And each shard's _overflow cell is exactly one merged series.
        assert len(hub.store.select("chatty", who="_overflow",
                                    source="shard-0")) == 1

    def test_overflow_cell_is_exactly_one_series_per_family(self):
        """The cardinality guard's ``_overflow`` cell must map to ONE
        TSDB series per family no matter how many label-sets collapsed
        into it -- and repeated ingests must not multiply it."""
        registry = MetricsRegistry(max_label_sets=3)
        family = registry.counter("chatty_total", "", ("who",))
        for i in range(50):
            family.labels(who=f"agent-{i}").inc()
        hub = FederationHub()
        hub.ingest(registry_snapshot(registry, "s", 1.0))
        hub.ingest(registry_snapshot(registry, "s", 2.0))
        overflow = hub.store.select("chatty_total", who="_overflow")
        assert len(overflow) == 1
        assert overflow[0].instant(2.0) == 47.0
        # 3 real cells + 1 overflow cell.
        assert len(hub.store.select("chatty_total")) == 4
        # The per-family overflow count is ingested as its own counter.
        assert hub.store.instant(
            "telemetry_label_sets_overflowed_total",
            {"metric": "chatty_total", "source": "s"}, 2.0,
        ) == 47.0

    def test_scrape_bookkeeping(self):
        hub = FederationHub()
        hub.ingest(registry_snapshot(_registry(), "a", 100.0))
        hub.ingest(registry_snapshot(_registry(), "b", 80.0))
        assert hub.store.scrapes == 2
        assert hub.store.last_scrape_at == 100.0
        assert [state.name for state in hub.sources()] == ["a", "b"]

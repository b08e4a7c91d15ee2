"""Tests for the embedded TSDB: tiers, budgets, resets, scraping, export."""

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.federation import (
    FLEET_SOURCE,
    FederationHub,
    registry_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import (
    Frame,
    Series,
    TsdbStore,
    format_le,
    label_key,
)

HOUR = 3600.0


class TestLabelKey:
    def test_sorted_and_stringified(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_empty_and_none_agree(self):
        assert label_key(None) == label_key({}) == ()


class TestSeriesBasics:
    def test_instant_at_and_before(self):
        store = TsdbStore()
        for t in range(5):
            store.append("g", None, float(t * 10), float(t))
        series = store.get_series("g")
        assert series.instant(2.0) == 20.0
        assert series.instant(2.5) == 20.0
        assert series.instant() == 40.0
        assert series.instant(-1.0) is None
        assert series.instant_before(2.0) == 10.0

    def test_out_of_order_sample_dropped(self):
        store = TsdbStore()
        store.append("g", None, 1.0, 10.0)
        store.append("g", None, 99.0, 5.0)  # older: dropped
        assert len(store.get_series("g")) == 1
        assert store.instant("g", None, 10.0) == 1.0

    def test_range_values_window_edges(self):
        store = TsdbStore()
        for t in range(10):
            store.append("g", None, float(t), float(t))
        points = store.range_values("g", None, 3.0, 6.0)
        assert [t for t, _ in points] == [3.0, 4.0, 5.0, 6.0]

    def test_unknown_kind_rejected(self):
        store = TsdbStore()
        with pytest.raises(ConfigurationError):
            Series("x", (), "summary", store)

    def test_select_filters_by_labels(self):
        store = TsdbStore()
        store.append("m", {"a": "1", "s": "x"}, 1.0, 0.0)
        store.append("m", {"a": "2", "s": "x"}, 1.0, 0.0)
        store.append("m", {"a": "1", "s": "y"}, 1.0, 0.0)
        store.append("other", {"a": "1"}, 1.0, 0.0)
        assert len(store.select("m")) == 3
        assert len(store.select("m", s="x")) == 2
        assert len(store.select("m", a="1", s="y")) == 1


class TestCounterIncrease:
    def test_increase_is_reset_adjusted(self):
        store = TsdbStore()
        # 1 -> 5 -> 9 -> reset -> 2 -> 4
        for t, v in enumerate([1.0, 5.0, 9.0, 2.0, 4.0]):
            store.append("c", None, v, float(t), kind="counter")
        series = store.get_series("c")
        assert series.resets == 1
        # 1 (from base 0) + 4 + 4, then reset restarts at 2, + 2.
        assert series.increase(0.0, 4.0) == pytest.approx(13.0)

    def test_window_base_is_strictly_before_start(self):
        store = TsdbStore()
        for t, v in enumerate([10.0, 20.0, 30.0, 40.0]):
            store.append("c", None, v, float(t), kind="counter")
        # Left-closed: the sample AT t=1 contributes against base t=0.
        assert store.increase("c", None, 1.0, 3.0) == pytest.approx(30.0)

    def test_rate(self):
        store = TsdbStore()
        for t in range(11):
            store.append("c", None, float(t * 6), float(t * 10), kind="counter")
        # Left-closed window: base is the sample strictly before t=40
        # (t=30, v=18), so the increase is 60-18=42 over 60 seconds.
        assert store.rate("c", None, 60.0, 100.0) == pytest.approx(0.7)
        with pytest.raises(ConfigurationError):
            store.get_series("c").rate(0.0, 100.0)

    def test_reset_bumps_store_and_hook(self):
        store = TsdbStore()
        store.append("c", None, 5.0, 0.0, kind="counter")
        store.append("c", None, 1.0, 1.0, kind="counter")
        assert store.counter_resets == 1

    def test_gauges_never_count_resets(self):
        store = TsdbStore()
        store.append("g", None, 5.0, 0.0, kind="gauge")
        store.append("g", None, 1.0, 1.0, kind="gauge")
        assert store.counter_resets == 0


class TestDownsamplingTiers:
    def _filled(self, n, cap=120, fold=10, kind="counter"):
        store = TsdbStore(max_samples=cap, fold=fold)
        for t in range(n):
            store.append("c", None, float(t), float(t), kind=kind)
        return store, store.get_series("c")

    def test_folding_preserves_counter_mass(self):
        store, series = self._filled(500)
        assert len(series.tier1) > 0 or len(series.tier2) > 0
        # Total increase survives downsampling exactly (0 -> 499).
        assert series.increase(0.0, 499.0) == pytest.approx(499.0)

    def test_frame_points_surface_last_value_at_end(self):
        store, series = self._filled(500)
        frame = (series.tier2 or series.tier1)[0]
        assert series.instant(frame.end) == pytest.approx(frame.v_last)
        # Instants inside old (folded) history are answerable, degraded
        # to the covering frame's resolution.
        mid = (frame.start + frame.end) / 2.0
        assert series.instant(mid) is not None

    def test_fold_carries_reset_mass_across_tiers(self):
        store = TsdbStore(max_samples=60, fold=5)
        values = []
        v = 0.0
        for t in range(400):
            if t % 97 == 96:
                v = 1.0  # reset
            else:
                v += 2.0
            values.append(v)
            store.append("c", None, v, float(t), kind="counter")
        series = store.get_series("c")
        expected = values[0]
        for prev, cur in zip(values, values[1:]):
            expected += cur - prev if cur >= prev else cur
        assert series.increase(0.0, 399.0) == pytest.approx(expected)

    def test_frame_roundtrip(self):
        frame = Frame(
            start=1.0, end=9.0, count=5, v_sum=15.0, v_min=1.0,
            v_max=5.0, v_first=1.0, v_last=5.0, inc=4.0, resets=1,
        )
        assert Frame.from_list(frame.to_list()) == frame
        assert frame.mean == pytest.approx(3.0)

    def test_budget_rebalances_as_series_appear(self):
        store = TsdbStore(max_samples=1000)
        store.append("a", None, 0.0, 0.0)
        wide = store.series_caps()
        for i in range(20):
            store.append(f"s{i}", None, 0.0, 0.0)
        narrow = store.series_caps()
        assert narrow[0] < wide[0]


class TestLongRunBudget:
    def test_66_day_run_stays_bounded_and_queryable(self):
        """The acceptance scenario: a 66-day longrun at 30-minute
        scrapes with a realistic series count stays under the sample
        cap throughout, and instant queries anywhere in history --
        raw, tier-1 and tier-2 ages -- still answer."""
        cap = 5000
        n_series = 60
        store = TsdbStore(max_samples=cap)
        scrape_interval = 1800.0
        n_scrapes = int(66 * 86400 / scrape_interval)  # 3168
        for i in range(n_scrapes):
            at = i * scrape_interval
            for s in range(n_series):
                store.append(f"m{s:02d}", None, float(i * (s + 1)), at,
                             kind="counter")
            if i % 500 == 0:
                assert store.total_samples() <= cap + n_series * store.fold
        assert store.total_samples() <= cap + n_series * store.fold
        end = (n_scrapes - 1) * scrape_interval
        series = store.get_series("m00")
        assert series.tier2, "66 days must reach tier 2"
        # Newest (raw), mid-age (tier 1), oldest retained (tier 2).
        assert series.instant(end) == pytest.approx(n_scrapes - 1)
        assert series.instant(series.tier1[0].end) is not None
        assert series.instant(series.tier2[0].end) is not None
        span = store.time_span()
        assert span is not None and span[1] == end
        # Increase across the whole retained horizon stays exact: the
        # counter is monotone, so mass = last - first retained base.
        assert series.increase(span[0], end) > 0


class TestExportImport:
    def _populated(self):
        store = TsdbStore(max_samples=200, fold=5)
        for t in range(300):
            store.append("c", {"k": "v"}, float(t), float(t), kind="counter")
            store.append("g", None, float(t % 7), float(t))
        store.scrapes = 300
        store.last_scrape_at = 299.0
        return store

    def test_roundtrip_is_exact(self):
        store = self._populated()
        rebuilt = TsdbStore.from_records(list(store.export_records()))
        assert rebuilt.max_samples == store.max_samples
        assert rebuilt.scrapes == store.scrapes
        assert len(rebuilt) == len(store)
        for original, copy in zip(store.series(), rebuilt.series()):
            assert copy.name == original.name
            assert copy.labels == original.labels
            assert copy.kind == original.kind
            assert list(copy.raw) == list(original.raw)
            assert list(copy.tier1) == list(original.tier1)
            assert list(copy.tier2) == list(original.tier2)
        assert rebuilt.increase("c", {"k": "v"}, 0.0, 299.0) == \
            store.increase("c", {"k": "v"}, 0.0, 299.0)

    def test_import_skips_foreign_records_and_handles_order(self):
        store = self._populated()
        records = list(store.export_records())
        # Series before meta, with foreign records mixed in.
        shuffled = [{"type": "metric", "name": "x"}] + records[1:] + \
            [records[0], {"type": "span"}]
        rebuilt = TsdbStore.from_records(shuffled)
        assert len(rebuilt) == len(store)
        assert rebuilt.scrapes == store.scrapes

    def test_import_of_nothing_yields_empty_store(self):
        rebuilt = TsdbStore.from_records([{"type": "metric"}])
        assert len(rebuilt) == 0


class TestFormatLe:
    def test_styles(self):
        assert format_le(float("inf")) == "+Inf"
        assert format_le(10.0) == "10"
        assert format_le(0.25) == "0.25"


class TestRegistryScraper:
    """Registry samples reach a store only as a snapshot ingested by a
    hub; these pin the series shapes that path writes."""

    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("polls_total", "", ("result",)).labels(
            result="ok").inc(5)
        registry.gauge("nodes", "").set(7)
        hist = registry.histogram("lat", "", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hub = FederationHub(rules=[])
        store = hub.store
        appended = hub.ingest(registry_snapshot(registry, FLEET_SOURCE, 100.0))
        assert appended > 0
        source = {"source": FLEET_SOURCE}
        assert store.instant(
            "polls_total", {"result": "ok", **source}, 100.0) == 5.0
        assert store.instant("nodes", source, 100.0) == 7.0
        assert store.instant("lat_count", source, 100.0) == 2.0
        assert store.instant(
            "lat_bucket", {"le": "0.1", **source}, 100.0) == 1.0
        assert store.instant(
            "lat_bucket", {"le": "+Inf", **source}, 100.0) == 2.0
        assert store.scrapes == 1 and store.last_scrape_at == 100.0


class TestStoreValidation:
    def test_bad_budget_and_fold(self):
        with pytest.raises(ConfigurationError):
            TsdbStore(max_samples=3)
        with pytest.raises(ConfigurationError):
            TsdbStore(fold=1)

    def test_stats_shape(self):
        store = TsdbStore()
        store.append("a", None, 1.0, 0.0)
        stats = store.stats()
        assert stats["series"] == 1
        assert stats["samples"] == 1
        assert set(stats["caps"]) == {"raw", "tier1", "tier2"}

"""Tests for recording rules."""

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.rules import (
    AggregateRule,
    IncreaseRule,
    QuantileOverTimeRule,
    RateRule,
    RatioRule,
    RuleEngine,
    histogram_quantile,
    standard_recording_rules,
)
from repro.obs.tsdb import TsdbStore

HOUR = 3600.0


class TestHistogramQuantile:
    def test_linear_interpolation(self):
        # 10 obs <= 1, 10 more in (1, 2].
        buckets = [(1.0, 10.0), (2.0, 20.0), (float("inf"), 20.0)]
        assert histogram_quantile(0.5, buckets) == pytest.approx(1.0)
        assert histogram_quantile(0.75, buckets) == pytest.approx(1.5)

    def test_inf_bucket_degrades_to_highest_finite_bound(self):
        buckets = [(1.0, 5.0), (float("inf"), 10.0)]
        assert histogram_quantile(0.99, buckets) == pytest.approx(1.0)

    def test_empty_window_is_none(self):
        assert histogram_quantile(0.5, []) is None
        assert histogram_quantile(0.5, [(1.0, 0.0)]) is None

    def test_quantile_validated(self):
        with pytest.raises(ConfigurationError):
            histogram_quantile(1.5, [(1.0, 1.0)])


def _counter_series(store, name, labels, step, n, interval=60.0):
    value = 0.0
    for i in range(n):
        value += step
        store.append(name, labels, value, i * interval, kind="counter")
    return (n - 1) * interval


class TestRecordingRules:
    def test_rate_rule_collapses_sources(self):
        store = TsdbStore()
        end = _counter_series(store, "polls", {"source": "a"}, 2.0, 61)
        _counter_series(store, "polls", {"source": "b"}, 1.0, 61)
        RateRule("fleet:pr", "polls", window=HOUR).evaluate(store, end)
        # 2/min + 1/min = 3/min = 0.05/s... per-source increase over the
        # hour is 2*60=120 and 60, integrated with the strictly-before
        # base sample: 61 deltas each.
        value = store.instant("fleet:pr", None, end)
        assert value == pytest.approx((61 * 2 + 61 * 1) / HOUR)

    def test_rate_rule_grouped_by_label(self):
        store = TsdbStore()
        end = _counter_series(store, "polls", {"result": "ok"}, 1.0, 61)
        _counter_series(store, "polls", {"result": "failed"}, 3.0, 61)
        RateRule("pr_by", "polls", HOUR, by=("result",)).evaluate(store, end)
        ok = store.instant("pr_by", {"result": "ok"}, end)
        failed = store.instant("pr_by", {"result": "failed"}, end)
        assert failed == pytest.approx(3 * ok)

    def test_increase_rule(self):
        store = TsdbStore()
        end = _counter_series(store, "faults", None, 1.0, 10)
        IncreaseRule("fleet:faults", "faults", window=HOUR).evaluate(store, end)
        assert store.instant("fleet:faults", None, end) == pytest.approx(10.0)

    def test_ratio_rule_skips_zero_denominator(self):
        store = TsdbStore()
        end = _counter_series(store, "lat_sum", None, 0.5, 10)
        _counter_series(store, "lat_count", None, 1.0, 10)
        store.append("lat_sum", {"g": "idle"}, 0.0, 0.0, kind="counter")
        store.append("lat_count", {"g": "idle"}, 0.0, 0.0, kind="counter")
        RatioRule(
            "lat_mean", "lat_sum", "lat_count", window=HOUR, by=("g",)
        ).evaluate(store, end)
        assert store.instant("lat_mean", {"g": ""}, end) == pytest.approx(0.5)
        assert store.instant("lat_mean", {"g": "idle"}, end) is None

    def test_quantile_over_time_rule(self):
        store = TsdbStore()
        # 30 fast (<=0.1s) then 10 slow (<=1s) observations.
        for i in range(40):
            at = float(i)
            fast = min(i + 1, 30)
            total = i + 1
            store.append("lat_bucket", {"le": "0.1"}, fast, at, kind="counter")
            store.append("lat_bucket", {"le": "1"}, total, at, kind="counter")
            store.append(
                "lat_bucket", {"le": "+Inf"}, total, at, kind="counter")
        QuantileOverTimeRule("lat_p95", "lat", 0.95, window=100.0).evaluate(
            store, 39.0)
        value = store.instant("lat_p95", None, 39.0)
        # p95 of 40 obs lands in the (0.1, 1] bucket.
        assert 0.1 < value <= 1.0

    def test_aggregate_rule_all_aggs(self):
        store = TsdbStore()
        for i, v in enumerate((1.0, 5.0, 3.0)):
            store.append("ages", {"agent": f"a{i}"}, v, 0.0)
        for agg, expected in (
            ("sum", 9.0), ("avg", 3.0), ("min", 1.0), ("max", 5.0),
            ("count", 3.0),
        ):
            AggregateRule(f"r_{agg}", "ages", agg).evaluate(store, 0.0)
            assert store.instant(f"r_{agg}", None, 0.0) == expected
        with pytest.raises(ConfigurationError):
            AggregateRule("r", "ages", "median")

    def test_engine_counts_evaluations(self):
        store = TsdbStore()
        engine = RuleEngine(store, [AggregateRule("r", "missing", "sum")])
        engine.add(AggregateRule("r2", "missing", "max"))
        assert engine.evaluate(0.0) == 0
        assert engine.evaluations == 1
        assert len(engine.rules) == 2

    def test_standard_rules_evaluate_cleanly_on_sparse_store(self):
        store = TsdbStore()
        store.append("verifier_polls_total", {"result": "ok"}, 5.0, 0.0,
                     kind="counter")
        engine = RuleEngine(store, standard_recording_rules(1800.0))
        written = engine.evaluate(1800.0)
        assert written > 0
        assert store.instant("fleet:poll_rate", None, 1800.0) is not None

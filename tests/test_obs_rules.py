"""Tests for recording rules."""

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.rules import (
    AggregateRule,
    RateRule,
    RatioRule,
    RuleEngine,
    standard_recording_rules,
)
from repro.obs.tsdb import TsdbStore

HOUR = 3600.0


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

    def test_ratio_rule_skips_zero_denominator(self):
        rule = RatioRule("lat_mean", "lat_sum", "lat_count", window=HOUR)
        store = TsdbStore()
        end = _counter_series(store, "lat_sum", None, 0.5, 10)
        _counter_series(store, "lat_count", None, 1.0, 10)
        assert rule.evaluate(store, end) == 1
        assert store.instant("lat_mean", None, end) == pytest.approx(0.5)

        idle = TsdbStore()
        idle.append("lat_sum", None, 0.0, 0.0, kind="counter")
        idle.append("lat_count", None, 0.0, 0.0, kind="counter")
        assert rule.evaluate(idle, 0.0) == 0
        assert idle.select("lat_mean") == []

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

"""Recording rules and the observatory that runs them.

The TSDB (:mod:`repro.obs.tsdb`) gives the telemetry layer *history*;
this module gives it *derivation*.  A recording rule reads raw scraped
series at evaluation time and writes a named derived series back into
the same store -- the Prometheus recording-rule shape -- so dashboards
and the federation hub consume one shared set of windows:

* :class:`RateRule` / :class:`IncreaseRule` -- reset-adjusted
  per-second rate / raw increase of a counter over a trailing window,
  optionally grouped by label (``by=("result",)`` keeps the ok/failed
  split; an empty ``by`` collapses every source and shard into one
  fleet-level number).
* :class:`RatioRule` -- rate(numerator)/rate(denominator); the mean
  poll latency is ``increase(_sum) / increase(_count)``.
* :class:`QuantileOverTimeRule` -- ``histogram_quantile`` over the
  windowed increase of the scraped ``_bucket`` series, with the usual
  linear interpolation inside the winning bucket.
* :class:`ShareRule` -- each group's fraction of the total windowed
  increase (the per-stage cost attribution behind
  ``fleet:stage_cost_share``).
* :class:`AggregateRule` -- instant sum/avg/min/max/count across the
  matching series (fleet node-state rollups across federated sources).

:class:`RuleEngine` evaluates a rule set against a store at a
timestamp; :func:`standard_recording_rules` is the default set the
observatory and the federation hub both run.

:class:`Observatory` bundles store + scraper + rule engine into the one
object a run attaches: ``bind(registry)``, then ``collect(now)`` each
tick (idempotent per timestamp, so a scheduled collector and a
health-watch tick landing on the same instant scrape once).  The health
detectors do not read it -- they sample the live registry
(:mod:`repro.obs.health`); the observatory's store is history to
export and render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.common.errors import ConfigurationError
from repro.obs.tsdb import (
    RegistryScraper,
    Series,
    TsdbStore,
    meta_registry_reset_hook,
)

#: Aggregations :class:`AggregateRule` understands.
AGGREGATIONS = ("sum", "avg", "min", "max", "count")


def _group_key(
    series: Series, by: tuple[str, ...]
) -> tuple[tuple[str, str], ...]:
    """The projected label identity of *series* under a ``by`` clause."""
    return tuple((name, series.label(name) or "") for name in by)


def histogram_quantile(
    q: float, buckets: list[tuple[float, float]]
) -> float | None:
    """Prometheus-style quantile over ``(le, windowed_count)`` buckets.

    *buckets* carry cumulative-in-``le`` counts (as scraped); linear
    interpolation inside the winning bucket, the ``+Inf`` bucket
    degrades to the highest finite bound.  ``None`` when the window
    holds no observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    finite = sorted(
        ((le, count) for le, count in buckets), key=lambda pair: pair[0]
    )
    if not finite:
        return None
    total = finite[-1][1]
    if total <= 0:
        return None
    rank = q * total
    previous_bound = 0.0
    previous_count = 0.0
    for bound, count in finite:
        if count >= rank:
            if bound == float("inf"):
                return previous_bound
            if count == previous_count:
                return bound
            fraction = (rank - previous_count) / (count - previous_count)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound = bound if bound != float("inf") else previous_bound
        previous_count = count
    return previous_bound


class _WindowRule:
    """Shared machinery for rules that group a source series set."""

    def _write(
        self,
        store: TsdbStore,
        record: str,
        groups: dict[tuple[tuple[str, str], ...], float],
        at: float,
    ) -> int:
        written = 0
        for key, value in sorted(groups.items()):
            store.append(record, dict(key), value, at, kind="gauge")
            written += 1
        return written


@dataclass(frozen=True)
class IncreaseRule(_WindowRule):
    """``record = sum by(by) (increase(source[window]))``."""

    record: str
    source: str
    window: float
    by: tuple[str, ...] = ()

    def evaluate(self, store: TsdbStore, at: float) -> int:
        groups: dict[tuple[tuple[str, str], ...], float] = {}
        for series in store.select(self.source):
            key = _group_key(series, self.by)
            groups[key] = groups.get(key, 0.0) + series.increase(
                at - self.window, at
            )
        return self._write(store, self.record, groups, at)


@dataclass(frozen=True)
class RateRule(_WindowRule):
    """``record = sum by(by) (rate(source[window]))`` (per second)."""

    record: str
    source: str
    window: float
    by: tuple[str, ...] = ()

    def evaluate(self, store: TsdbStore, at: float) -> int:
        groups: dict[tuple[tuple[str, str], ...], float] = {}
        for series in store.select(self.source):
            key = _group_key(series, self.by)
            groups[key] = groups.get(key, 0.0) + series.increase(
                at - self.window, at
            ) / self.window
        return self._write(store, self.record, groups, at)


@dataclass(frozen=True)
class RatioRule(_WindowRule):
    """``record = increase(num[window]) / increase(den[window])``.

    The canonical use is a histogram's windowed mean:
    ``_sum`` over ``_count``.  Groups with a zero denominator are
    skipped rather than written as 0 -- "no data" and "mean of zero"
    are different dashboard facts.
    """

    record: str
    numerator: str
    denominator: str
    window: float
    by: tuple[str, ...] = ()

    def evaluate(self, store: TsdbStore, at: float) -> int:
        start = at - self.window
        tops: dict[tuple[tuple[str, str], ...], float] = {}
        bottoms: dict[tuple[tuple[str, str], ...], float] = {}
        for series in store.select(self.numerator):
            key = _group_key(series, self.by)
            tops[key] = tops.get(key, 0.0) + series.increase(start, at)
        for series in store.select(self.denominator):
            key = _group_key(series, self.by)
            bottoms[key] = bottoms.get(key, 0.0) + series.increase(start, at)
        groups = {
            key: tops.get(key, 0.0) / bottom
            for key, bottom in bottoms.items()
            if bottom > 0
        }
        return self._write(store, self.record, groups, at)


@dataclass(frozen=True)
class QuantileOverTimeRule(_WindowRule):
    """``record = histogram_quantile(q, increase(hist_bucket[window]))``."""

    record: str
    histogram: str
    q: float
    window: float
    by: tuple[str, ...] = ()

    def evaluate(self, store: TsdbStore, at: float) -> int:
        start = at - self.window
        grouped: dict[
            tuple[tuple[str, str], ...], dict[float, float]
        ] = {}
        for series in store.select(f"{self.histogram}_bucket"):
            raw_le = series.label("le")
            if raw_le is None:
                continue
            bound = float("inf") if raw_le == "+Inf" else float(raw_le)
            key = _group_key(series, self.by)
            buckets = grouped.setdefault(key, {})
            buckets[bound] = buckets.get(bound, 0.0) + series.increase(
                start, at
            )
        groups: dict[tuple[tuple[str, str], ...], float] = {}
        for key, buckets in grouped.items():
            value = histogram_quantile(self.q, list(buckets.items()))
            if value is not None:
                groups[key] = value
        return self._write(store, self.record, groups, at)


@dataclass(frozen=True)
class ShareRule(_WindowRule):
    """``record = increase per group / total increase`` over the window.

    The per-stage cost attribution rule: grouping
    ``verifier_stage_wall_seconds_sum`` by ``stage`` yields each
    pipeline stage's fraction of the window's total attestation cost.
    Written only when the window saw any increase at all -- an idle
    window has no shares, not a division by zero.
    """

    record: str
    source: str
    window: float
    by: tuple[str, ...] = ()

    def evaluate(self, store: TsdbStore, at: float) -> int:
        start = at - self.window
        groups: dict[tuple[tuple[str, str], ...], float] = {}
        total = 0.0
        for series in store.select(self.source):
            key = _group_key(series, self.by)
            increase = series.increase(start, at)
            groups[key] = groups.get(key, 0.0) + increase
            total += increase
        if total <= 0:
            return 0
        shares = {
            key: value / total for key, value in groups.items() if value > 0
        }
        return self._write(store, self.record, shares, at)


@dataclass(frozen=True)
class AggregateRule(_WindowRule):
    """``record = agg by(by) (source)`` over instants at *at*."""

    record: str
    source: str
    agg: str = "sum"
    by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.agg not in AGGREGATIONS:
            raise ConfigurationError(
                f"unknown aggregation {self.agg!r}; choose from {AGGREGATIONS}"
            )

    def evaluate(self, store: TsdbStore, at: float) -> int:
        grouped: dict[tuple[tuple[str, str], ...], list[float]] = {}
        for series in store.select(self.source):
            value = series.instant(at)
            if value is None:
                continue
            grouped.setdefault(_group_key(series, self.by), []).append(value)
        reducers = {
            "sum": sum,
            "avg": lambda values: sum(values) / len(values),
            "min": min,
            "max": max,
            "count": len,
        }
        reduce = reducers[self.agg]
        groups = {
            key: float(reduce(values)) for key, values in grouped.items()
        }
        return self._write(store, self.record, groups, at)


@dataclass(frozen=True)
class BalanceRule(_WindowRule):
    """``record = avg(source) / max(source)`` across ``by`` groups.

    The shard-evenness rule: grouping ``fleet_shard_agents`` by
    ``shard`` yields the mean-over-max occupancy in ``(0, 1]`` -- the
    factor by which consistent-hash imbalance discounts the fleet's
    parallel speedup (a tick's critical path is its largest shard).
    Instants are summed within a group first, so a federated store
    where each source reports its own shards still reads per-shard
    totals.  Nothing is written when the source has no data or every
    group is empty -- "no shards" is absence, not balance 0.
    """

    record: str
    source: str
    by: tuple[str, ...] = ()

    def evaluate(self, store: TsdbStore, at: float) -> int:
        grouped: dict[tuple[tuple[str, str], ...], float] = {}
        for series in store.select(self.source):
            value = series.instant(at)
            if value is None:
                continue
            key = _group_key(series, self.by)
            grouped[key] = grouped.get(key, 0.0) + value
        if not grouped:
            return 0
        values = list(grouped.values())
        peak = max(values)
        if peak <= 0:
            return 0
        balance = (sum(values) / len(values)) / peak
        return self._write(store, self.record, {(): balance}, at)


RecordingRule = (
    IncreaseRule | RateRule | RatioRule | QuantileOverTimeRule
    | ShareRule | AggregateRule | BalanceRule
)


class RuleEngine:
    """Evaluates a recording-rule set against one store."""

    def __init__(
        self, store: TsdbStore, rules: Iterable[Any] | None = None
    ) -> None:
        self.store = store
        self.rules: list[Any] = list(rules or ())
        self.evaluations = 0

    def add(self, rule: Any) -> None:
        """Register one more rule."""
        self.rules.append(rule)

    def evaluate(self, at: float) -> int:
        """Run every rule at *at*; returns derived samples written."""
        written = 0
        for rule in self.rules:
            written += rule.evaluate(self.store, at)
        self.evaluations += 1
        return written


def standard_recording_rules(
    poll_interval: float = 1800.0,
) -> list[Any]:
    """The default derived-series set for attestation fleets.

    Windows are expressed in poll intervals (like the burn-rate rules)
    so the rules stay meaningful at any cadence; every rule collapses
    the federation ``source`` label unless it groups by something, so
    the same set works on a single-process store and on the hub.
    """
    window = max(4 * poll_interval, 3600.0)
    return [
        RateRule("fleet:poll_rate", "verifier_polls_total", window),
        RateRule(
            "fleet:poll_rate_by_result", "verifier_polls_total", window,
            by=("result",),
        ),
        IncreaseRule(
            "fleet:poll_failures", "verifier_polls_total", window,
            by=("result",),
        ),
        RatioRule(
            "fleet:poll_latency_mean",
            "verifier_poll_wall_seconds_sum",
            "verifier_poll_wall_seconds_count",
            window,
        ),
        QuantileOverTimeRule(
            "fleet:poll_latency_p95", "verifier_poll_wall_seconds",
            0.95, window,
        ),
        AggregateRule("fleet:nodes", "fleet_nodes", "sum", by=("state",)),
        AggregateRule(
            "fleet:quarantined_nodes", "fleet_quarantined_nodes", "sum"
        ),
        AggregateRule(
            "fleet:attestation_age_max",
            "obs_agent_attestation_age_seconds", "max",
        ),
        AggregateRule(
            "fleet:coverage_gaps_active", "obs_coverage_gaps_active", "sum"
        ),
        IncreaseRule(
            "fleet:chaos_faults", "transport_faults_injected_total", window,
        ),
        IncreaseRule(
            "fleet:degraded_rounds", "verifier_degraded_rounds_total", window,
        ),
        # Saturation / capacity set (repro.obs.capacity): windowed
        # busy-over-budget utilization, the overrun fraction, and the
        # per-stage share of attestation cost.
        RatioRule(
            "fleet:utilization",
            "fleet_tick_busy_seconds_total",
            "fleet_tick_budget_seconds_total",
            window,
        ),
        RatioRule(
            "fleet:tick_overrun_ratio",
            "fleet_tick_overruns_total",
            "fleet_ticks_total",
            window,
        ),
        ShareRule(
            "fleet:stage_cost_share",
            "verifier_stage_wall_seconds_sum",
            window,
            by=("stage",),
        ),
        # Sharded-fleet set: how evenly the consistent-hash ring spread
        # the agents (written only once shard gauges exist).
        BalanceRule("fleet:shard_balance", "fleet_shard_agents", by=("shard",)),
    ]


class Observatory:
    """Store + scraper + rule engine, bundled for one run.

    ``collect`` (scrape, then rules) is idempotent per timestamp -- a
    scheduled collector and a health-watch tick landing on the same sim
    instant scrape once.
    """

    def __init__(
        self,
        store: TsdbStore | None = None,
        registry=None,
        rules: Iterable[Any] | None = None,
        poll_interval: float = 1800.0,
    ) -> None:
        self.store = store if store is not None else TsdbStore()
        self.poll_interval = poll_interval
        self.engine = RuleEngine(
            self.store,
            rules if rules is not None
            else standard_recording_rules(poll_interval),
        )
        self.registry = None
        self.scraper: RegistryScraper | None = None
        self.collections = 0
        if registry is not None:
            self.bind(registry)

    def bind(self, registry) -> "Observatory":
        """Point the observatory at a live registry; returns self."""
        self.registry = registry
        self.store.on_counter_reset = meta_registry_reset_hook(registry)
        self.scraper = RegistryScraper(self.store)
        return self

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has been called."""
        return self.scraper is not None

    def collect(self, now: float) -> int:
        """One scrape + rule evaluation; returns samples appended.

        No-op (returns 0) when already collected at exactly *now* or
        when no registry is bound yet.
        """
        if self.scraper is None or self.store.last_scrape_at == now:
            return 0
        appended = self.scraper.scrape(self.registry, now)
        appended += self.engine.evaluate(now)
        self.collections += 1
        return appended

    def schedule(self, scheduler):
        """Collect every ``poll_interval`` on *scheduler*; returns stop."""
        return scheduler.every(
            self.poll_interval,
            lambda: self.collect(scheduler.clock.now),
            label="obs.observatory",
        )

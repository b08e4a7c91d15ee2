"""Tick-budget accounting, saturation detection and capacity planning.

The paper's central operational tension: continuous attestation must
keep every node's freshness window bounded while the verifier's
per-round cost grows with fleet size and log length.  The moment one
batch tick costs more than the poll interval it is supposed to fit in,
freshness guarantees quietly start slipping fleet-wide -- the most
important verifier failure mode that is *not* an integrity failure.
This module makes that headroom a first-class measured quantity:

* :class:`TickBudgetAccountant` -- per-tick cost accounting for the
  fleet's batch scheduler.  Each ``poll_batch`` tick reports its wall
  cost; the accountant folds in the chaos layer's injected wire delays
  (simulated seconds -- the rounds of a batch run back-to-back, so
  injected latency serialises), compares busy time against the
  configured **tick budget**, and maintains utilization, queue depth,
  inter-tick lag and a consecutive-overrun saturation state that emits
  ``fleet.saturated`` / ``fleet.saturation_cleared`` events.
* :class:`SaturationDetector` -- the health-monitor side.  Mirrors the
  anti-P2 coverage-gap shape: it signals a ``health.verifier_saturated``
  alert every monitor tick while the fleet-side accountant reports
  saturation, so the alert engine dedups/resolves it and the incident
  correlator builds a forensic report the moment it first fires.
* :class:`CapacityModel` / :func:`fit_capacity` -- least-squares fit of
  per-tick busy cost against polled-node count (``fixed + per_node *
  n``), answering the what-ifs: max sustainable nodes per verifier at a
  poll interval, projected verified nodes/sec at N verifiers, time to
  saturation under fleet growth, verifiers needed for a target fleet.
* :func:`capacity_pairs_from_store` / :func:`model_from_store` -- the
  same fit driven from TSDB history (live store or ``--replay`` of a
  JSONL export), using the reset-adjusted counter increases between
  scrape points, per federation source.

Utilization is ``busy / budget`` and an overrun is ``busy > budget``,
so by construction a tick without an overrun has utilization in
``[0, 1]`` -- the invariant the property suite pins down.

Metric families written by the accountant (all under the active
registry, so they scrape into the TSDB and federate like everything
else):

========================================  =======================================
``fleet_ticks_total``                     batch ticks observed (counter)
``fleet_tick_overruns_total``             ticks whose busy time exceeded budget
``fleet_timer_overruns_total{timer}``     the same, attributed per scheduler timer
``fleet_tick_busy_seconds_total``         cumulative busy seconds (wall + delays)
``fleet_tick_budget_seconds_total``       cumulative budget seconds
``fleet_polled_agents_total``             agents actually polled across ticks
``fleet_tick_wall_seconds``               per-tick wall histogram
``fleet_tick_lag_seconds``                inter-tick lag beyond the interval
``fleet_tick_utilization``                busy/budget gauge (last tick)
``fleet_tick_budget_seconds``             configured budget gauge
``fleet_tick_queue_depth{phase}``         registered / polled / skipped gauges
``fleet_saturated``                       1 while consecutive overruns persist
========================================  =======================================
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.obs.alerts import Alert

#: Consecutive overrunning ticks before the accountant declares saturation.
DEFAULT_OVERRUN_TICKS = 3

#: Source tag for accountant-emitted events.
CAPACITY_EVENT_SOURCE = "keylime.fleet"


@dataclass(frozen=True)
class TickRecord:
    """One batch tick, fully accounted."""

    at: float
    wall_seconds: float
    delay_seconds: float
    busy_seconds: float
    budget: float | None
    registered: int
    polled: int
    skipped: int
    lag_seconds: float
    utilization: float | None
    overrun: bool


class TickBudgetAccountant:
    """Accounts every batch tick against a configured tick budget.

    The scheduler's poll interval is *simulated* seconds while the tick
    cost is *wall* seconds, so the budget is independently
    configurable: production-shaped runs set ``budget == interval``
    (saturation means "cannot keep the advertised cadence"), while
    tests and benchmarks set a millisecond-scale budget so the knee is
    reachable without simulating a planet-sized fleet.  Injected chaos
    delays (``transport_injected_delay_seconds``) are folded into busy
    time -- a batch runs its rounds back-to-back, so modeled wire
    latency serialises and eats tick budget exactly like compute does.
    """

    def __init__(
        self,
        budget: float | None = None,
        interval: float | None = None,
        overrun_ticks: int = DEFAULT_OVERRUN_TICKS,
        events=None,
        timer: str = "fleet-poll-batch",
        max_records: int = 4096,
    ) -> None:
        if budget is not None and budget <= 0:
            raise ValueError(f"tick budget must be positive, got {budget}")
        self.budget = budget
        self.interval = interval
        self.overrun_ticks = max(1, int(overrun_ticks))
        self.events = events
        self.timer = timer
        self.enabled = True
        self.records: deque[TickRecord] = deque(maxlen=max_records)
        self.ticks = 0
        self.overruns = 0
        self.consecutive_overruns = 0
        self.saturated_since: float | None = None
        #: Wall seconds spent inside :meth:`observe_tick` itself -- the
        #: direct overhead measurement the acceptance gate divides by.
        self.self_wall_seconds = 0.0
        self._last_at: float | None = None
        self._delay_seen = 0.0

    def configure(
        self,
        interval: float | None = None,
        budget: float | None = None,
        timer: str | None = None,
    ) -> None:
        """Bind the accountant to a timer's cadence.

        The budget defaults to the interval when not set explicitly --
        "one tick must fit in one interval" is the production meaning
        of saturation.
        """
        if interval is not None:
            self.interval = interval
        if budget is not None:
            if budget <= 0:
                raise ValueError(f"tick budget must be positive, got {budget}")
            self.budget = budget
        elif self.budget is None and self.interval is not None:
            self.budget = self.interval
        if timer is not None:
            self.timer = timer

    @property
    def saturated(self) -> bool:
        """Whether the consecutive-overrun detector is currently firing."""
        return self.saturated_since is not None

    def _injected_delay_delta(self, registry) -> float:
        """New injected-delay seconds since the previous tick."""
        family = registry.get("transport_injected_delay_seconds")
        if family is None:
            return 0.0
        total = sum(child.sum for _, child in family.samples())
        delta = total - self._delay_seen
        self._delay_seen = total
        return max(0.0, delta)

    def observe_tick(
        self,
        now: float,
        wall_seconds: float,
        registered: int,
        polled: int,
        skipped: int = 0,
        registry=None,
        injected_delay_seconds: float | None = None,
    ) -> TickRecord | None:
        """Account one batch tick; returns the record (``None`` if off).

        *injected_delay_seconds* overrides the registry-sampled chaos
        delay delta (tests drive the accountant without a registry).
        """
        if not self.enabled:
            return None
        from time import perf_counter

        self_start = perf_counter()
        if registry is None:
            from repro.obs import runtime as obs_runtime

            registry = obs_runtime.get().registry
        if injected_delay_seconds is None:
            delay = self._injected_delay_delta(registry)
        else:
            delay = max(0.0, float(injected_delay_seconds))
        wall = max(0.0, float(wall_seconds))
        busy = wall + delay
        budget = self.budget
        utilization = busy / budget if budget else None
        overrun = budget is not None and busy > budget
        lag = 0.0
        if self._last_at is not None and self.interval:
            lag = max(0.0, (now - self._last_at) - self.interval)
        self._last_at = now

        record = TickRecord(
            at=now, wall_seconds=wall, delay_seconds=delay,
            busy_seconds=busy, budget=budget, registered=registered,
            polled=polled, skipped=skipped, lag_seconds=lag,
            utilization=utilization, overrun=overrun,
        )
        self.records.append(record)
        self.ticks += 1

        registry.counter(
            "fleet_ticks_total", "Fleet batch ticks accounted",
        ).inc()
        registry.counter(
            "fleet_tick_busy_seconds_total",
            "Cumulative busy seconds across batch ticks (wall + injected delay)",
        ).inc(busy)
        registry.counter(
            "fleet_polled_agents_total",
            "Agents polled across fleet batch ticks",
        ).inc(polled)
        registry.histogram(
            "fleet_tick_wall_seconds",
            "Wall-clock cost of one fleet batch tick",
        ).observe(wall)
        registry.histogram(
            "fleet_tick_lag_seconds",
            "Inter-tick lag beyond the configured interval",
        ).observe(lag)
        depth = registry.gauge(
            "fleet_tick_queue_depth",
            "Batch queue depth at the last tick, by phase",
            ("phase",),
        )
        depth.labels(phase="registered").set(registered)
        depth.labels(phase="polled").set(polled)
        depth.labels(phase="skipped").set(skipped)
        if budget is not None:
            registry.counter(
                "fleet_tick_budget_seconds_total",
                "Cumulative tick budget granted across batch ticks",
            ).inc(budget)
            registry.gauge(
                "fleet_tick_budget_seconds", "Configured tick budget",
            ).set(budget)
            registry.gauge(
                "fleet_tick_utilization",
                "busy/budget utilization of the last batch tick",
            ).set(utilization)
        if overrun:
            self.overruns += 1
            self.consecutive_overruns += 1
            registry.counter(
                "fleet_tick_overruns_total",
                "Batch ticks whose busy time exceeded the tick budget",
            ).inc()
            registry.counter(
                "fleet_timer_overruns_total",
                "Tick-budget overruns attributed per scheduler timer",
                ("timer",),
            ).labels(timer=self.timer).inc()
            if (
                self.consecutive_overruns >= self.overrun_ticks
                and self.saturated_since is None
            ):
                self.saturated_since = now
                registry.gauge(
                    "fleet_saturated",
                    "1 while the consecutive-overrun saturation detector fires",
                ).set(1)
                if self.events is not None:
                    self.events.emit(
                        now, CAPACITY_EVENT_SOURCE, "fleet.saturated",
                        timer=self.timer,
                        budget=budget,
                        busy_seconds=round(busy, 6),
                        utilization=round(utilization, 4),
                        consecutive_overruns=self.consecutive_overruns,
                        registered=registered,
                    )
        else:
            self.consecutive_overruns = 0
            if self.saturated_since is not None:
                since = self.saturated_since
                self.saturated_since = None
                registry.gauge(
                    "fleet_saturated",
                    "1 while the consecutive-overrun saturation detector fires",
                ).set(0)
                if self.events is not None:
                    self.events.emit(
                        now, CAPACITY_EVENT_SOURCE, "fleet.saturation_cleared",
                        timer=self.timer, saturated_seconds=now - since,
                    )
        self.self_wall_seconds += perf_counter() - self_start
        return record

    def pairs(self) -> list[tuple[float, float]]:
        """``(polled_nodes, busy_seconds)`` per retained tick."""
        return [
            (float(record.polled), record.busy_seconds)
            for record in self.records
        ]

    def model(self) -> "CapacityModel | None":
        """Fit the per-node cost model from the retained ticks."""
        return fit_capacity(self.pairs())


class SaturationDetector:
    """Signals a saturation alert while the accountant reports one.

    Follows the coverage-gap detector's contract: :meth:`observe`
    returns an alert on *every* monitor tick the condition holds and
    ``None`` once it clears, so :class:`repro.obs.alerts.AlertEngine`
    keeps one firing state and emits the resolve -- the same shape as
    the anti-P2 alarm, and it correlates into incidents identically.
    """

    rule = "health.verifier_saturated"

    def observe(
        self,
        now: float,
        saturated: bool,
        utilization: float | None = None,
        overruns: float = 0.0,
        ticks: float = 0.0,
        budget: float | None = None,
    ) -> Alert | None:
        """One monitor tick's view of the accountant state."""
        if not saturated:
            return None
        util = f" at {utilization:.0%} utilization" if utilization else ""
        detail: dict[str, Any] = {
            "utilization": round(utilization, 4) if utilization else None,
            "overruns_in_window": int(round(overruns)),
            "ticks_in_window": int(round(ticks)),
        }
        if budget is not None:
            detail["budget_seconds"] = budget
        return Alert(
            time=now,
            rule=self.rule,
            severity="critical",
            message=(
                "verifier saturated: batch ticks exceeding their budget"
                f"{util} "
                f"({int(round(overruns))}/{int(round(ticks))} ticks overran "
                "since the last check)"
            ),
            detail=detail,
        )


# ---------------------------------------------------------------------------
# Capacity model + planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityModel:
    """``busy(n) = fixed_seconds + per_node_seconds * n`` per tick."""

    fixed_seconds: float
    per_node_seconds: float
    samples: int
    r_squared: float

    def tick_cost(self, nodes: float) -> float:
        """Projected busy seconds for one tick over *nodes* nodes."""
        return self.fixed_seconds + self.per_node_seconds * nodes

    def utilization(self, nodes: float, budget: float) -> float:
        """Projected busy/budget utilization."""
        return self.tick_cost(nodes) / budget

    def max_nodes(self, budget: float) -> float:
        """Max nodes one verifier sustains inside *budget* per tick."""
        if budget <= self.fixed_seconds:
            return 0.0
        if self.per_node_seconds <= 0:
            return math.inf
        return (budget - self.fixed_seconds) / self.per_node_seconds

    def nodes_per_second(self, interval: float, verifiers: int = 1) -> float:
        """Attested nodes/sec at full utilization across *verifiers*."""
        capacity = self.max_nodes(interval)
        if math.isinf(capacity):
            return math.inf
        return verifiers * capacity / interval

    def verifiers_needed(
        self, nodes: float, interval: float, headroom: float = 0.8
    ) -> int:
        """Verifiers needed for *nodes* at *headroom* target utilization."""
        per_verifier = self.max_nodes(interval) * headroom
        if per_verifier <= 0:
            return 0 if nodes <= 0 else 10**9
        if math.isinf(per_verifier):
            return 1
        return max(1, math.ceil(nodes / per_verifier))

    def time_to_saturation(
        self,
        current_nodes: float,
        growth_per_day: float,
        interval: float,
        verifiers: int = 1,
    ) -> float:
        """Days until the fleet outgrows *verifiers*; ``inf`` if never."""
        capacity = verifiers * self.max_nodes(interval)
        if current_nodes >= capacity:
            return 0.0
        if growth_per_day <= 0 or math.isinf(capacity):
            return math.inf
        return (capacity - current_nodes) / growth_per_day

    # -- sharded what-ifs --------------------------------------------------

    def sharded_tick_cost(self, shard_sizes: Iterable[float]) -> float:
        """One sharded tick's critical path: the largest shard's cost.

        Shard verifiers run concurrently, so the tick is as slow as its
        biggest shard -- the quantity ``fleet:shard_balance`` discounts.
        Accepts either bare sizes or a ``{shard: size}`` mapping (the
        shape :meth:`repro.keylime.fleet.Fleet.shard_sizes`
        returns).
        """
        if hasattr(shard_sizes, "values"):
            shard_sizes = shard_sizes.values()
        sizes = list(shard_sizes)
        if not sizes:
            return 0.0
        return self.tick_cost(max(sizes))

    def sharded_max_nodes(
        self, budget: float, verifiers: int, balance: float = 1.0
    ) -> float:
        """Max fleet size *verifiers* shards sustain inside *budget*.

        *balance* is the ring's mean-over-max occupancy (from
        :func:`repro.keylime.sharding.shard_balance` or the
        ``fleet:shard_balance`` series): with balance ``b`` the largest
        shard holds ``nodes / (verifiers * b)``, so capacity scales by
        ``verifiers * b``, not ``verifiers``.
        """
        if verifiers < 1 or balance <= 0:
            return 0.0
        return self.max_nodes(budget) * verifiers * min(1.0, balance)

    def sharded_speedup(self, verifiers: int, balance: float = 1.0) -> float:
        """Projected throughput multiple over a single verifier."""
        if verifiers < 1 or balance <= 0:
            return 0.0
        return verifiers * min(1.0, balance)


def fit_capacity(
    pairs: Iterable[tuple[float, float]]
) -> CapacityModel | None:
    """Least-squares fit of ``(nodes, busy_seconds)`` tick samples.

    Degenerate inputs degrade gracefully: a single node count cannot
    separate fixed from marginal cost, so everything is attributed to
    the marginal term (the conservative choice for ``max_nodes``).
    Returns ``None`` with no samples at all.
    """
    points = [(float(n), float(busy)) for n, busy in pairs]
    if not points:
        return None
    count = len(points)
    sx = sum(n for n, _ in points)
    sy = sum(busy for _, busy in points)
    sxx = sum(n * n for n, _ in points)
    sxy = sum(n * busy for n, busy in points)
    denom = count * sxx - sx * sx
    if abs(denom) < 1e-12:
        mean_n = sx / count
        slope = (sy / count) / mean_n if mean_n > 0 else 0.0
        intercept = 0.0
    else:
        slope = (count * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / count
        if intercept < 0.0:
            # Negative fixed cost is measurement noise; refit through
            # the origin so projections stay physical.
            intercept = 0.0
            slope = sxy / sxx if sxx > 0 else 0.0
    slope = max(0.0, slope)
    if slope < 1e-15:
        # Sub-femtosecond per-node cost is float noise from a constant
        # fit; snap to zero so max_nodes reports "unbounded" cleanly.
        slope = 0.0
    mean_y = sy / count
    ss_tot = sum((busy - mean_y) ** 2 for _, busy in points)
    ss_res = sum(
        (busy - (intercept + slope * n)) ** 2 for n, busy in points
    )
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return CapacityModel(
        fixed_seconds=intercept,
        per_node_seconds=slope,
        samples=count,
        r_squared=max(0.0, min(1.0, r_squared)),
    )


def capacity_pairs_from_store(
    store, start: float = -math.inf, end: float = math.inf
) -> list[tuple[float, float]]:
    """``(nodes/tick, busy_seconds/tick)`` pairs from TSDB history.

    Walks the scrape points of each federation source's
    ``fleet_ticks_total`` series and takes reset-adjusted increases of
    the polled-agents and busy-seconds counters between consecutive
    scrapes -- so the fit runs identically on a live store and on a
    ``--replay`` of a JSONL export.
    """
    pairs: list[tuple[float, float]] = []
    for ticks_series in store.select("fleet_ticks_total"):
        source = ticks_series.label("source")
        filters = {"source": source} if source else {}
        polled = store.select("fleet_polled_agents_total", **filters)
        busy = store.select("fleet_tick_busy_seconds_total", **filters)
        if not polled or not busy:
            continue
        polled_series, busy_series = polled[0], busy[0]
        stamps = [
            at for at, _ in ticks_series.range_values(start, end)
        ]

        def delta(series, t0: float, t1: float) -> float:
            # Instants, not `increase`: that window is left-closed, so
            # it would double-count the sample sitting exactly on t0.
            v0 = series.instant(t0) or 0.0
            v1 = series.instant(t1) or 0.0
            # A drop is a counter reset; the post-reset value is all
            # fresh increase.
            return v1 if v1 < v0 else v1 - v0

        for t0, t1 in zip(stamps, stamps[1:]):
            d_ticks = delta(ticks_series, t0, t1)
            if d_ticks <= 0:
                continue
            d_polled = delta(polled_series, t0, t1)
            d_busy = delta(busy_series, t0, t1)
            pairs.append((d_polled / d_ticks, d_busy / d_ticks))
    return pairs


def model_from_store(
    store, start: float = -math.inf, end: float = math.inf
) -> CapacityModel | None:
    """Fit the capacity model from a store's scraped tick counters."""
    return fit_capacity(capacity_pairs_from_store(store, start, end))


@dataclass(frozen=True)
class CapacityPlan:
    """The planner's answers for one what-if configuration."""

    model: CapacityModel
    interval: float
    verifiers: int
    current_nodes: float
    growth_per_day: float
    max_nodes_per_verifier: float
    fleet_capacity: float
    nodes_per_second: float
    utilization_now: float | None
    days_to_saturation: float
    verifiers_needed: int | None

    def to_record(self) -> dict[str, Any]:
        """Machine-readable summary (``--json-summary``)."""
        def finite(value: float) -> float | None:
            return None if math.isinf(value) else round(value, 4)

        return {
            "type": "capacity_plan",
            "fixed_seconds": round(self.model.fixed_seconds, 6),
            "per_node_seconds": round(self.model.per_node_seconds, 6),
            "r_squared": round(self.model.r_squared, 4),
            "samples": self.model.samples,
            "interval": self.interval,
            "verifiers": self.verifiers,
            "current_nodes": self.current_nodes,
            "growth_per_day": self.growth_per_day,
            "max_nodes_per_verifier": finite(self.max_nodes_per_verifier),
            "fleet_capacity": finite(self.fleet_capacity),
            "nodes_per_second": finite(self.nodes_per_second),
            "utilization_now": (
                round(self.utilization_now, 4)
                if self.utilization_now is not None else None
            ),
            "days_to_saturation": finite(self.days_to_saturation),
            "verifiers_needed": self.verifiers_needed,
        }


def plan_capacity(
    model: CapacityModel,
    interval: float,
    verifiers: int = 1,
    current_nodes: float = 0.0,
    growth_per_day: float = 0.0,
    target_nodes: float | None = None,
) -> CapacityPlan:
    """Answer the standard what-ifs for one configuration."""
    per_verifier = model.max_nodes(interval)
    capacity = per_verifier * verifiers
    utilization = None
    if current_nodes > 0 and verifiers > 0:
        utilization = model.utilization(current_nodes / verifiers, interval)
    return CapacityPlan(
        model=model,
        interval=interval,
        verifiers=verifiers,
        current_nodes=current_nodes,
        growth_per_day=growth_per_day,
        max_nodes_per_verifier=per_verifier,
        fleet_capacity=capacity,
        nodes_per_second=model.nodes_per_second(interval, verifiers),
        utilization_now=utilization,
        days_to_saturation=model.time_to_saturation(
            current_nodes, growth_per_day, interval, verifiers
        ),
        verifiers_needed=(
            model.verifiers_needed(target_nodes, interval)
            if target_nodes is not None else None
        ),
    )


def render_capacity_plan(plan: CapacityPlan) -> str:
    """Console rendering of one :class:`CapacityPlan`."""
    model = plan.model

    def fmt(value: float, suffix: str = "") -> str:
        if math.isinf(value):
            return "unbounded"
        return f"{value:,.1f}{suffix}"

    def fmt_seconds(value: float) -> str:
        if value < 1.0:
            return f"{value * 1000:.1f}ms"
        return f"{value:,.1f}s"

    lines = [
        "== capacity plan ==",
        (
            f"  model: busy(n) = {model.fixed_seconds * 1000:.3f}ms "
            f"+ {model.per_node_seconds * 1000:.3f}ms/node "
            f"(r2={model.r_squared:.3f}, {model.samples} tick samples)"
        ),
        (
            f"  max sustainable nodes/verifier @ {fmt_seconds(plan.interval)} "
            f"interval: {fmt(plan.max_nodes_per_verifier)}"
        ),
        (
            f"  fleet capacity @ {plan.verifiers} verifier(s): "
            f"{fmt(plan.fleet_capacity)} nodes "
            f"({fmt(plan.nodes_per_second, ' nodes/sec')} attested)"
        ),
    ]
    if plan.utilization_now is not None:
        lines.append(
            f"  projected utilization at {plan.current_nodes:.0f} "
            f"current node(s): {plan.utilization_now:.1%}"
        )
    if plan.growth_per_day > 0 or plan.current_nodes > 0:
        when = plan.days_to_saturation
        if when == 0.0:
            verdict = "ALREADY SATURATED"
        elif math.isinf(when):
            verdict = "never (no growth or unbounded capacity)"
        else:
            verdict = f"{when:.1f} days"
        lines.append(
            f"  time to saturation (+{plan.growth_per_day:.1f} nodes/day): "
            f"{verdict}"
        )
    if plan.verifiers_needed is not None:
        lines.append(
            f"  verifiers needed for target fleet: {plan.verifiers_needed} "
            "(at 80% target utilization)"
        )
    return "\n".join(lines)


def saturation_summary(registry) -> list[str]:
    """Dashboard lines for the accountant state under *registry*.

    Empty when no batch ticks have been accounted, so existing
    dashboards render unchanged on runs without a fleet scheduler.
    """
    if registry is None:
        return []
    ticks_family = registry.get("fleet_ticks_total")
    if ticks_family is None:
        return []
    try:
        ticks = ticks_family.value
    except Exception:
        return []

    def gauge_value(name: str) -> float | None:
        family = registry.get(name)
        if family is None:
            return None
        try:
            return family.value
        except Exception:
            return None

    def counter_value(name: str) -> float:
        family = registry.get(name)
        if family is None:
            return 0.0
        try:
            return family.value
        except Exception:
            return 0.0

    overruns = counter_value("fleet_tick_overruns_total")
    utilization = gauge_value("fleet_tick_utilization")
    budget = gauge_value("fleet_tick_budget_seconds")
    saturated = (gauge_value("fleet_saturated") or 0.0) >= 1.0
    parts = [f"{int(overruns)} overruns/{int(ticks)} ticks"]
    if utilization is not None:
        parts.insert(0, f"utilization={utilization:.1%}")
    if budget is not None:
        parts.append(f"budget={budget:.3f}s")
    line = "  verifier load: " + ", ".join(parts)
    if saturated:
        line += "  ** SATURATED **"
    return [line]

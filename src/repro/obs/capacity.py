"""Tick-budget accounting and saturation detection.

The paper's central operational tension: continuous attestation must
keep every node's freshness window bounded while the verifier's
per-round cost grows with fleet size and log length.  The moment one
batch tick costs more than the poll interval it is supposed to fit in,
freshness guarantees quietly start slipping fleet-wide -- the most
important verifier failure mode that is *not* an integrity failure.
This module makes that headroom a first-class measured quantity:

* :class:`TickBudgetAccountant` -- per-tick cost accounting for one
  shard of the fleet.  Each ``poll_batch`` tick reports its wall cost
  and the chaos layer's wire delay injected during that batch
  (simulated seconds -- the rounds of a batch run back-to-back, so
  injected latency serialises); the accountant compares busy time
  against the configured **tick budget**, and maintains utilization,
  queue depth, inter-tick lag and a consecutive-overrun saturation
  state that emits ``fleet.saturated`` / ``fleet.saturation_cleared``
  events.
* :class:`SaturationDetector` -- the health-monitor side.  Mirrors the
  anti-P2 coverage-gap shape: it signals a ``health.verifier_saturated``
  alert every monitor tick while the fleet-side accountant reports
  saturation, so the alert engine dedups/resolves it and the incident
  correlator builds a forensic report the moment it first fires.

Utilization is ``busy / budget`` and an overrun is ``busy > budget``,
so by construction a tick without an overrun has utilization in
``[0, 1]`` -- the invariant the property suite pins down.

Metric families written by the accountants, the last four once per
fleet tick by :func:`publish_fleet_load` (all under the active
registry, so they scrape into the TSDB and federate like everything
else):

========================================  =======================================
``fleet_ticks_total``                     batch ticks observed (counter)
``fleet_tick_overruns_total``             ticks whose busy time exceeded budget
``fleet_tick_busy_seconds_total``         cumulative busy seconds (wall + delays)
``fleet_tick_budget_seconds_total``       cumulative budget seconds
``fleet_tick_wall_seconds``               per-tick wall histogram
``fleet_tick_lag_seconds``                inter-tick lag beyond the interval
``fleet_tick_queue_depth{phase}``         registered / polled / skipped, all shards
``fleet_tick_utilization``                busy/budget of the most utilized shard
``fleet_tick_budget_seconds``             that shard's budget
``fleet_saturated``                       1 while any shard's overruns persist
========================================  =======================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.obs.alerts import Alert

#: Consecutive overrunning ticks before the accountant declares saturation.
OVERRUN_TICKS = 3

#: The scheduler timer every accounted tick runs on.
POLL_TIMER = "fleet-poll-batch"

#: Tick records one accountant retains.
MAX_RECORDS = 4096

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


def injected_delay_total(registry) -> float:
    """Chaos wire delay injected so far under *registry*, in seconds."""
    family = registry.get("transport_injected_delay_seconds")
    if family is None:
        return 0.0
    return sum(child.sum for _, child in family.samples())


class TickBudgetAccountant:
    """Accounts every batch tick against a configured tick budget.

    The scheduler's poll interval is *simulated* seconds while the tick
    cost is *wall* seconds, so the budget is independently
    configurable (:meth:`configure`): production-shaped runs keep
    ``budget == interval`` (saturation means "cannot keep the
    advertised cadence"), while tests set a budget their injected
    delays overrun.  Injected chaos delays
    (``transport_injected_delay_seconds``) are folded into busy time --
    a batch runs its rounds back-to-back, so modeled wire latency
    serialises and eats tick budget exactly like compute does.
    """

    def __init__(self, events=None) -> None:
        self.budget: float | None = None
        self.interval: float | None = None
        self.events = events
        self.records: deque[TickRecord] = deque(maxlen=MAX_RECORDS)
        self.ticks = 0
        self.overruns = 0
        self.consecutive_overruns = 0
        self.saturated_since: float | None = None
        #: Wall seconds spent accounting: :meth:`observe_tick` itself
        #: plus this accountant's share of :func:`publish_fleet_load` --
        #: the direct overhead measurement the acceptance gate divides by.
        self.self_wall_seconds = 0.0
        self._last_at: float | None = None

    def configure(
        self, interval: float | None = None, budget: float | None = None
    ) -> None:
        """Bind the accountant to a timer's cadence and/or set its budget.

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

    @property
    def saturated(self) -> bool:
        """Whether the consecutive-overrun detector is currently firing."""
        return self.saturated_since is not None

    def observe_tick(
        self,
        now: float,
        wall_seconds: float,
        registered: int,
        polled: int,
        registry,
        skipped: int = 0,
        injected_delay_seconds: float = 0.0,
    ) -> TickRecord:
        """Account one batch tick and return its record.

        *injected_delay_seconds* is the chaos delay injected during
        this tick's batch alone.
        """
        self_start = perf_counter()
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
        registry.histogram(
            "fleet_tick_wall_seconds",
            "Wall-clock cost of one fleet batch tick",
        ).observe(wall)
        registry.histogram(
            "fleet_tick_lag_seconds",
            "Inter-tick lag beyond the configured interval",
        ).observe(lag)
        if budget is not None:
            registry.counter(
                "fleet_tick_budget_seconds_total",
                "Cumulative tick budget granted across batch ticks",
            ).inc(budget)
        if overrun:
            self.overruns += 1
            self.consecutive_overruns += 1
            registry.counter(
                "fleet_tick_overruns_total",
                "Batch ticks whose busy time exceeded the tick budget",
            ).inc()
            if (
                self.consecutive_overruns >= OVERRUN_TICKS
                and self.saturated_since is None
            ):
                self.saturated_since = now
                if self.events is not None:
                    self.events.emit(
                        now, CAPACITY_EVENT_SOURCE, "fleet.saturated",
                        timer=POLL_TIMER,
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
                if self.events is not None:
                    self.events.emit(
                        now, CAPACITY_EVENT_SOURCE, "fleet.saturation_cleared",
                        timer=POLL_TIMER, saturated_seconds=now - since,
                    )
        self.self_wall_seconds += perf_counter() - self_start
        return record


def publish_fleet_load(registry, accountants) -> None:
    """Write the fleet-wide load gauges from every shard's accountant.

    Called once per fleet tick, after every shard's batch.
    ``fleet_tick_queue_depth{phase}`` sums the shards' latest tick
    records; ``fleet_saturated`` is 1 while any accountant is saturated
    (it appears once one first is, and reads 0 again when none is);
    ``fleet_tick_utilization`` and ``fleet_tick_budget_seconds`` are
    those of the latest tick record with the highest utilization.  The
    gauges are not labeled by shard, so per-shard writes would leave
    whichever shard ticked last and hide the others.  This call's wall
    time is split evenly across the accountants' ``self_wall_seconds``,
    so their sum is the fleet's whole accounting cost.
    """
    self_start = perf_counter()
    latest = [acct.records[-1] for acct in accountants]
    depth = registry.gauge(
        "fleet_tick_queue_depth",
        "Batch queue depth at the last tick across every shard, by phase",
        ("phase",),
    )
    depth.labels(phase="registered").set(sum(r.registered for r in latest))
    depth.labels(phase="polled").set(sum(r.polled for r in latest))
    depth.labels(phase="skipped").set(sum(r.skipped for r in latest))
    saturated = any(acct.saturated for acct in accountants)
    if saturated or registry.get("fleet_saturated") is not None:
        registry.gauge(
            "fleet_saturated",
            "1 while any shard's consecutive-overrun saturation detector fires",
        ).set(1 if saturated else 0)
    budgeted = [record for record in latest if record.utilization is not None]
    if budgeted:
        peak = max(budgeted, key=lambda record: record.utilization)
        registry.gauge(
            "fleet_tick_budget_seconds",
            "Tick budget of the most utilized shard's last batch tick",
        ).set(peak.budget)
        registry.gauge(
            "fleet_tick_utilization",
            "busy/budget utilization of the most utilized shard's last batch tick",
        ).set(peak.utilization)
    share = (perf_counter() - self_start) / len(accountants)
    for acct in accountants:
        acct.self_wall_seconds += share


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


def saturation_summary(registry) -> list[str]:
    """Dashboard lines for the accountant state under *registry*.

    Empty when no batch ticks have been accounted, so existing
    dashboards render unchanged on runs without a fleet scheduler.
    Every family read here is unlabeled.
    """
    if registry is None:
        return []

    def read(name: str) -> float | None:
        family = registry.get(name)
        return None if family is None else family.value

    ticks = read("fleet_ticks_total")
    if ticks is None:
        return []
    overruns = read("fleet_tick_overruns_total") or 0.0
    utilization = read("fleet_tick_utilization")
    budget = read("fleet_tick_budget_seconds")
    saturated = (read("fleet_saturated") or 0.0) >= 1.0
    parts = [f"{int(overruns)} overruns/{int(ticks)} ticks"]
    if utilization is not None:
        parts.insert(0, f"utilization={utilization:.1%}")
    if budget is not None:
        parts.append(f"budget={budget:.3f}s")
    line = "  verifier load: " + ", ".join(parts)
    if saturated:
        line += "  ** SATURATED **"
    return [line]

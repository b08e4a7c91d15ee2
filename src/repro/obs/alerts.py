"""SLO tracking and burn-rate alerting over the attestation telemetry.

The paper's P2 failure mode is, operationally, an *alerting* failure:
the verifier halts, nothing watches the resulting silence, and the
attestation history goes dark exactly when an attacker wants it to.
This module provides the rule layer that turns telemetry streams into
structured :class:`Alert` events:

* :class:`SloTracker` -- a windowed good/bad sample store for one
  service-level objective (attestation freshness, poll success a.k.a.
  the false-positive budget, detection latency).  ``burn_rate`` follows
  the SRE convention: the rate at which the error budget is being
  consumed, where 1.0 means "exactly on budget".
* :class:`BurnRateRule` -- the multi-window burn-rate alert shape: fire
  only when both a long window (sustained burn) and a short window
  (still happening right now) exceed the factor, which keeps one
  transient false positive from paging while a sustained burn alerts
  within minutes.
* :class:`AlertEngine` -- evaluates rules, deduplicates firing state,
  and emits ``alert.fired`` / ``alert.resolved`` records into the
  shared :class:`repro.common.events.EventLog`, where the incident
  correlator (:mod:`repro.obs.incidents`) picks them up.

Detector signals from :mod:`repro.obs.health` enter through
:meth:`AlertEngine.ingest`, so anomaly detections and SLO burn alerts
flow through one deduplicated pipeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.common.errors import ConfigurationError

#: Alert severities, mildest first.
SEVERITIES = ("info", "warning", "critical")

ALERT_SOURCE = "obs.alerts"

#: How far back an :class:`SloTracker` keeps samples (seconds).
SLO_MAX_WINDOW = 7 * 86400.0


@dataclass(frozen=True)
class Alert:
    """One structured alert, as emitted into the EventLog."""

    time: float
    rule: str
    severity: str
    message: str
    agent: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str | None]:
        """Deduplication identity: one firing state per (rule, agent)."""
        return (self.rule, self.agent)

    def to_record(self) -> dict[str, Any]:
        """Dict form used for JSONL export."""
        return {
            "type": "alert",
            "time": self.time,
            "rule": self.rule,
            "severity": self.severity,
            "agent": self.agent,
            "message": self.message,
            "detail": self.detail,
        }


class SloTracker:
    """Windowed good/bad samples for one service-level objective.

    *objective* is the target good fraction (0.999 = "three nines");
    the error budget is ``1 - objective``.  Samples older than
    *max_window* are discarded, so memory stays bounded over a long
    simulated run.

    When a *registry* is supplied, each sample also bumps
    ``slo_events_total{slo,outcome}``, so a scrape or a federation
    snapshot carries SLO activity to a TSDB-backed dashboard
    (``repro-cli obs top`` renders its burn panel from that counter).
    """

    def __init__(
        self,
        name: str,
        objective: float,
        description: str = "",
        max_window: float = SLO_MAX_WINDOW,
        registry=None,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ConfigurationError(
                f"SLO objective must be in (0, 1), got {objective}"
            )
        self.name = name
        self.objective = objective
        self.description = description
        self.max_window = max_window
        self.registry = registry
        self._samples: deque[tuple[float, bool]] = deque()
        self._event_counters: dict[bool, Any] = {}
        self.total = 0
        self.total_bad = 0

    @property
    def error_budget(self) -> float:
        """The allowed bad fraction, ``1 - objective``."""
        return 1.0 - self.objective

    def record(self, now: float, good: bool) -> None:
        """Record one sample at *now* and expire anything out of window."""
        good = bool(good)
        self._samples.append((now, good))
        self.total += 1
        if not good:
            self.total_bad += 1
        if self.registry is not None:
            counter = self._event_counters.get(good)
            if counter is None:
                counter = self._event_counters[good] = self.registry.counter(
                    "slo_events_total",
                    "SLO samples recorded, by objective and outcome",
                    ("slo", "outcome"),
                ).labels(slo=self.name, outcome="good" if good else "bad")
            counter.inc()
        horizon = now - self.max_window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def window_counts(self, window: float, now: float) -> tuple[int, int]:
        """``(total, bad)`` over the trailing *window* seconds."""
        start = now - window
        total = bad = 0
        for time, good in reversed(self._samples):
            if time < start:
                break
            total += 1
            if not good:
                bad += 1
        return total, bad

    def bad_fraction(self, window: float, now: float) -> float:
        """Fraction of bad samples over the trailing window (0.0 if empty)."""
        total, bad = self.window_counts(window, now)
        return bad / total if total else 0.0

    def burn_rate(self, window: float, now: float) -> float:
        """How many error budgets the trailing window is consuming."""
        return self.bad_fraction(window, now) / self.error_budget

    def budget_remaining(self, window: float, now: float) -> float:
        """Fraction of the error budget left over the trailing window."""
        return 1.0 - min(1.0, self.bad_fraction(window, now) / self.error_budget)


@dataclass
class BurnRateRule:
    """A multi-window, multi-burn-rate alert rule over one SLO.

    Fires while the burn rate exceeds *factor* over **both** windows:
    the long window proves the burn is sustained, the short window
    proves it is still happening.  *min_samples* suppresses evaluation
    until the long window holds enough samples to mean anything.
    """

    name: str
    tracker: SloTracker
    long_window: float
    short_window: float
    factor: float
    severity: str = "warning"
    min_samples: int = 6

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"unknown severity {self.severity!r}; choose from {SEVERITIES}"
            )
        if self.short_window > self.long_window:
            raise ConfigurationError(
                f"rule {self.name!r}: short window {self.short_window} exceeds "
                f"long window {self.long_window}"
            )

    def evaluate(self, now: float) -> Alert | None:
        """The alert this rule is firing at *now*, or ``None``."""
        total, _ = self.tracker.window_counts(self.long_window, now)
        if total < self.min_samples:
            return None
        long_burn = self.tracker.burn_rate(self.long_window, now)
        short_burn = self.tracker.burn_rate(self.short_window, now)
        if long_burn < self.factor or short_burn < self.factor:
            return None
        return Alert(
            time=now,
            rule=self.name,
            severity=self.severity,
            message=(
                f"SLO {self.tracker.name!r} burning {long_burn:.1f}x budget "
                f"over {self.long_window / 3600.0:.1f}h "
                f"({short_burn:.1f}x over {self.short_window / 3600.0:.1f}h)"
            ),
            detail={
                "slo": self.tracker.name,
                "objective": self.tracker.objective,
                "long_window": self.long_window,
                "short_window": self.short_window,
                "long_burn_rate": round(long_burn, 3),
                "short_burn_rate": round(short_burn, 3),
                "factor": self.factor,
            },
        )


@dataclass
class SloSet:
    """The attestation SLOs the paper's setting implies."""

    freshness: SloTracker
    poll_success: SloTracker
    detection_latency: SloTracker
    # Saturation headroom: one sample per fleet batch tick, bad when
    # the tick overran its budget.
    freshness_headroom: SloTracker

    def all(self) -> tuple[SloTracker, ...]:
        """The trackers, in declaration order."""
        return (
            self.freshness, self.poll_success, self.detection_latency,
            self.freshness_headroom,
        )


def standard_slos(registry=None) -> SloSet:
    """The default SLO definitions.

    * **attestation freshness** (99%): at every monitor tick, every
      watched agent has a successful attestation no older than its
      freshness target -- the direct anti-P2 objective.
    * **poll success / FP budget** (99.5%): attestation rounds that
      pass.  A benign-workload run burning this budget is the paper's
      E1 false-positive problem showing up operationally.
    * **detection latency** (95%): gap/anomaly alerts raised within
      their target after the underlying condition began.
    * **freshness headroom** (95%): fleet batch ticks that finished
      inside their tick budget.  A burning headroom budget means the
      verifier is *about* to start missing freshness -- the capacity
      early-warning the saturation study (PR 7) adds.

    *registry* is handed to every tracker (see :class:`SloTracker`).
    """
    return SloSet(
        freshness=SloTracker(
            "attestation_freshness", 0.99,
            "watched agents have a fresh successful attestation",
            registry=registry,
        ),
        poll_success=SloTracker(
            "poll_success", 0.995,
            "attestation rounds that verify clean (FP budget)",
            registry=registry,
        ),
        detection_latency=SloTracker(
            "detection_latency", 0.95,
            "alerts raised within their detection-latency target",
            registry=registry,
        ),
        freshness_headroom=SloTracker(
            "freshness_headroom", 0.95,
            "fleet batch ticks that finished inside their tick budget",
            registry=registry,
        ),
    )


def standard_burn_rules(
    slos: SloSet, poll_interval: float = 1800.0
) -> list[BurnRateRule]:
    """Multi-window burn-rate rules scaled to the poll cadence.

    The classic SRE page/ticket windows (1h/5m at 14.4x, 6h/30m at 6x)
    assume request volumes; attestation emits one sample per agent per
    poll, so windows are expressed in poll intervals to keep the sample
    counts meaningful at any cadence.
    """
    fast_long = max(4 * poll_interval, 3600.0)
    slow_long = max(24 * poll_interval, 6 * 3600.0)
    return [
        BurnRateRule(
            "slo.freshness.fast_burn", slos.freshness,
            long_window=fast_long, short_window=fast_long / 4.0,
            factor=14.4, severity="critical",
        ),
        BurnRateRule(
            "slo.freshness.slow_burn", slos.freshness,
            long_window=slow_long, short_window=slow_long / 12.0,
            factor=6.0, severity="warning",
        ),
        BurnRateRule(
            "slo.poll_success.fast_burn", slos.poll_success,
            long_window=fast_long, short_window=fast_long / 4.0,
            factor=14.4, severity="critical",
        ),
        BurnRateRule(
            "slo.poll_success.slow_burn", slos.poll_success,
            long_window=slow_long, short_window=slow_long / 12.0,
            factor=6.0, severity="warning",
        ),
        BurnRateRule(
            "slo.detection_latency.burn", slos.detection_latency,
            long_window=slow_long, short_window=slow_long / 4.0,
            factor=4.0, severity="warning", min_samples=2,
        ),
        # One sample per batch tick, so the fast window holds only ~4
        # samples -- a lower factor and min_samples keep the rule
        # responsive without firing on a single noisy tick.
        BurnRateRule(
            "slo.freshness_headroom.burn", slos.freshness_headroom,
            long_window=fast_long, short_window=fast_long / 4.0,
            factor=4.0, severity="warning", min_samples=3,
        ),
    ]


class AlertEngine:
    """Deduplicating rule evaluator that emits alerts into the EventLog.

    Two inputs feed it: :meth:`ingest` takes detector signals already
    shaped as :class:`Alert` (from :class:`repro.obs.health
    .HealthMonitor`), and :meth:`evaluate` runs the registered
    burn-rate rules.  Either way, a (rule, agent) pair fires once,
    stays active until it stops matching, then emits a resolve -- so a
    31-day run with a stuck agent produces one alert, not 1,400.
    """

    def __init__(self, events, source: str = ALERT_SOURCE) -> None:
        self.events = events
        self.source = source
        self.rules: list[BurnRateRule] = []
        self.history: list[Alert] = []
        self._active: dict[tuple[str, str | None], Alert] = {}

    def add_rule(self, rule: BurnRateRule) -> None:
        """Register a burn-rate rule for :meth:`evaluate`."""
        self.rules.append(rule)

    def add_rules(self, rules: Iterable[BurnRateRule]) -> None:
        """Register several rules at once."""
        for rule in rules:
            self.add_rule(rule)

    def active(self) -> list[Alert]:
        """Currently firing alerts, in firing order."""
        return list(self._active.values())

    def is_firing(self, rule: str, agent: str | None = None) -> bool:
        """Whether the (rule, agent) pair is currently active."""
        return (rule, agent) in self._active

    def _fire(self, alert: Alert) -> bool:
        if alert.key in self._active:
            return False
        self._active[alert.key] = alert
        self.history.append(alert)
        self.events.emit(
            alert.time, self.source, "alert.fired",
            rule=alert.rule, severity=alert.severity,
            agent=alert.agent, message=alert.message, **alert.detail,
        )
        return True

    def _resolve(self, key: tuple[str, str | None], now: float) -> None:
        alert = self._active.pop(key)
        self.events.emit(
            now, self.source, "alert.resolved",
            rule=alert.rule, agent=alert.agent,
            active_seconds=now - alert.time,
        )

    def ingest(self, alerts: Iterable[Alert], now: float) -> list[Alert]:
        """Feed detector-produced alerts; returns the newly fired ones.

        A detector signals *current* conditions: signals repeat while a
        condition holds and stop when it clears, so any previously
        ingested (rule, agent) absent from this batch is resolved.
        Burn-rule state (managed by :meth:`evaluate`) is untouched.
        """
        fired = []
        seen: set[tuple[str, str | None]] = set()
        rule_names = {rule.name for rule in self.rules}
        for alert in alerts:
            seen.add(alert.key)
            if self._fire(alert):
                fired.append(alert)
        for key in list(self._active):
            if key[0] in rule_names or key in seen:
                continue
            self._resolve(key, now)
        return fired

    def evaluate(self, now: float) -> list[Alert]:
        """Run every burn-rate rule; returns the newly fired alerts."""
        fired = []
        for rule in self.rules:
            alert = rule.evaluate(now)
            key = (rule.name, None)
            if alert is not None:
                if self._fire(alert):
                    fired.append(alert)
            elif key in self._active:
                self._resolve(key, now)
        return fired

"""Streaming health detectors over the attestation telemetry.

PR 1 made the system *emit* telemetry; this module *watches* it.  Three
detector families run on every monitor tick:

* :class:`LatencyAnomalyDetector` -- sliding-window z-score over the
  per-tick mean verifier poll latency, sampled as deltas from the
  ``verifier_poll_wall_seconds`` histogram in the metrics registry.
* :class:`FailureRateDetector` -- EWMA of the per-tick quote-verify /
  policy failure fraction, sampled as deltas from the
  ``verifier_polls_total`` counter family.
* :class:`CoverageGapDetector` -- the anti-P2 detector.  The paper's
  worst observability failure is a verifier that halts polling after a
  self-induced false positive, leaving a *silent gap* in the
  attestation history for an adaptive attacker to act in.  This
  detector tracks the last successful attestation per watched agent
  and fires when an agent has gone ``gap_polls`` expected poll
  intervals without one -- detecting the silence itself, not any
  particular failure.

:class:`HealthMonitor` wires the detectors to a run: it subscribes to
the :class:`repro.common.events.EventLog` for per-agent attestation
outcomes, samples the metrics registry for rates, records into the SLO
trackers (:mod:`repro.obs.alerts`), and turns detector findings into
:class:`~repro.obs.alerts.Alert` values on :meth:`check`.

:class:`HealthWatch` is the one-stop bundle the scenarios and the
``repro-cli obs watch`` command attach to a run: monitor + alert
engine + incident correlator + periodic tick.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.alerts import (
    Alert,
    AlertEngine,
    standard_burn_rules,
    standard_slos,
)
from repro.obs.capacity import SaturationDetector, saturation_summary
from repro.obs.incidents import IncidentCorrelator, IncidentReport

#: Default number of missed poll intervals before a coverage gap fires.
DEFAULT_GAP_POLLS = 3

#: An agent counts as fresh (freshness SLO) while its last successful
#: attestation is at most this many poll intervals old.
FRESHNESS_TARGET_POLLS = 2.0

#: A coverage gap detected within this many poll intervals of its start
#: is a good detection-latency SLO sample.
DETECTION_TARGET_POLLS = 4.0

#: How many poll intervals of history an incident report looks back.
INCIDENT_LOOKBACK_POLLS = 8.0


class Ewma:
    """Exponentially weighted moving average with a sample counter."""

    def __init__(self, alpha: float = 0.3) -> None:
        self.alpha = alpha
        self.value = 0.0
        self.samples = 0

    def update(self, observation: float) -> float:
        """Fold one observation in; returns the new average."""
        if self.samples == 0:
            self.value = observation
        else:
            self.value = self.alpha * observation + (1.0 - self.alpha) * self.value
        self.samples += 1
        return self.value


class SlidingWindow:
    """Bounded window with O(1) mean/std via running sums.

    The running-sums variance ``E[x^2] - E[x]^2`` cancels
    catastrophically on near-constant large samples: both terms are
    ~1e18 for 1e9-scale latencies, their true difference is ~0, and
    the float subtraction leaves pure rounding noise.  Clamping at
    zero is not enough -- *positive* noise yields a tiny bogus sigma
    that turns nanoseconds of jitter into huge z-scores.  Two guards:
    a relative noise floor (variance below the cancellation error of
    the inputs is reported as exactly 0.0), and a periodic recompute
    of the running sums from the retained window so drift from
    evicted samples cannot accumulate over a long run.
    """

    #: Pushes between full recomputations of the running sums.
    RESYNC_EVERY = 4096

    def __init__(self, size: int) -> None:
        self._window: deque[float] = deque(maxlen=size)
        self._sum = 0.0
        self._sum_sq = 0.0
        self._pushes = 0

    def __len__(self) -> int:
        return len(self._window)

    def push(self, value: float) -> None:
        """Add a value, evicting the oldest when full."""
        if len(self._window) == self._window.maxlen:
            evicted = self._window[0]
            self._sum -= evicted
            self._sum_sq -= evicted * evicted
        self._window.append(value)
        self._sum += value
        self._sum_sq += value * value
        self._pushes += 1
        if self._pushes % self.RESYNC_EVERY == 0:
            self._sum = sum(self._window)
            self._sum_sq = sum(v * v for v in self._window)

    @property
    def mean(self) -> float:
        """Window mean (0.0 when empty)."""
        return self._sum / len(self._window) if self._window else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the window."""
        n = len(self._window)
        if n < 2:
            return 0.0
        mean_sq = self.mean**2
        variance = self._sum_sq / n - mean_sq
        # Anything below the cancellation error of the two ~equal terms
        # is numerical noise, not spread.
        noise_floor = 16.0 * sys.float_info.epsilon * max(
            self._sum_sq / n, mean_sq
        )
        if variance <= noise_floor:
            return 0.0
        return math.sqrt(variance)

    def zscore(self, value: float) -> float:
        """How many window standard deviations *value* sits from the mean."""
        sigma = self.std
        if sigma == 0.0:
            return 0.0
        return (value - self.mean) / sigma


class LatencyAnomalyDetector:
    """Z-score anomaly detection on a latency stream.

    Each observation is compared against the sliding window *before*
    being folded in, so a spike is judged against history rather than
    against itself.
    """

    def __init__(
        self,
        window: int = 32,
        threshold: float = 3.0,
        min_samples: int = 8,
        min_ratio: float = 1.5,
    ) -> None:
        self.window = SlidingWindow(window)
        self.threshold = threshold
        self.min_samples = min_samples
        # A z-score alone over-fires on a quiet stream (tiny sigma makes
        # microsecond jitter look like many sigmas); require the value
        # to also exceed the mean by a real margin.
        self.min_ratio = min_ratio

    def observe(self, now: float, value: float) -> Alert | None:
        """Feed one observation; returns an alert when it is anomalous."""
        anomaly = None
        if len(self.window) >= self.min_samples:
            z = self.window.zscore(value)
            if z >= self.threshold and value >= self.window.mean * self.min_ratio:
                anomaly = Alert(
                    time=now,
                    rule="health.poll_latency_anomaly",
                    severity="warning",
                    message=(
                        f"poll latency {value * 1000:.2f}ms is {z:.1f} sigma above "
                        f"the trailing mean {self.window.mean * 1000:.2f}ms"
                    ),
                    detail={
                        "value_seconds": value,
                        "zscore": round(z, 2),
                        "window_mean_seconds": self.window.mean,
                        "window_std_seconds": self.window.std,
                    },
                )
        self.window.push(value)
        return anomaly


class FailureRateDetector:
    """EWMA threshold detection on a failure-fraction stream."""

    def __init__(
        self, alpha: float = 0.3, threshold: float = 0.5, min_samples: int = 3
    ) -> None:
        self.ewma = Ewma(alpha)
        self.threshold = threshold
        self.min_samples = min_samples

    def observe(self, now: float, failed: int, total: int) -> Alert | None:
        """Feed one tick's (failed, total) poll counts."""
        if total <= 0:
            return None
        smoothed = self.ewma.update(failed / total)
        if self.ewma.samples < self.min_samples or smoothed < self.threshold:
            return None
        return Alert(
            time=now,
            rule="health.failure_rate",
            severity="critical",
            message=(
                f"attestation failure rate EWMA at {smoothed:.0%} "
                f"(threshold {self.threshold:.0%})"
            ),
            detail={
                "ewma": round(smoothed, 4),
                "threshold": self.threshold,
                "failed": failed,
                "total": total,
            },
        )


@dataclass
class _WatchedAgent:
    agent_id: str
    poll_interval: float
    watched_since: float
    last_ok: float | None = None
    last_poll: float | None = None
    halted_at: float | None = None
    gap_open_since: float | None = None
    # Degraded-mode context: how many rounds degraded on transport
    # faults, and when the verifier marked the node SUSPECT (None while
    # healthy).  A coverage gap with these set is *explained* -- the
    # verifier kept polling, the wire kept failing -- which is exactly
    # the distinction the paper's P2 verifier cannot make.
    degraded_rounds: int = 0
    suspect_since: float | None = None
    quarantined_at: float | None = None


class CoverageGapDetector:
    """Fires when a watched agent's attestation history goes silent.

    The reference point is the last *successful* attestation (or the
    watch start): a halted verifier, a crashed agent, and a
    fail-looping restart cycle all look identical from the trust
    history -- no fresh evidence -- and all must alert.  That is
    exactly the gap the paper's P2 attacker hides in.
    """

    def __init__(self, gap_polls: float = DEFAULT_GAP_POLLS) -> None:
        if gap_polls <= 0:
            raise ValueError(f"gap_polls must be positive, got {gap_polls}")
        self.gap_polls = gap_polls
        self._agents: dict[str, _WatchedAgent] = {}

    def watch(self, agent_id: str, poll_interval: float, now: float = 0.0) -> None:
        """Start expecting attestations from *agent_id* every interval."""
        self._agents[agent_id] = _WatchedAgent(
            agent_id=agent_id, poll_interval=poll_interval, watched_since=now
        )

    def agents(self) -> list[str]:
        """Watched agent ids, in watch order."""
        return list(self._agents)

    def record_success(self, agent_id: str, now: float) -> None:
        """Note a successful attestation (resets any open gap)."""
        agent = self._agents.get(agent_id)
        if agent is None:
            return
        agent.last_ok = now
        agent.last_poll = now
        agent.gap_open_since = None
        agent.halted_at = None

    def record_failure(self, agent_id: str, now: float) -> None:
        """Note a failed attestation (polling happened, trust did not)."""
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.last_poll = now

    def record_halt(self, agent_id: str, now: float) -> None:
        """Note that the verifier stopped polling the agent (P2)."""
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.halted_at = now

    def record_degraded(self, agent_id: str, now: float) -> None:
        """Note a degraded round: polling happened, the wire did not.

        Counts toward the gap *explanation*, not the gap itself -- the
        reference point stays the last successful attestation, so a
        wire that fails for long enough still opens a coverage gap; the
        alert just carries the transport context.
        """
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.last_poll = now
            agent.degraded_rounds += 1

    def record_suspect(self, agent_id: str, now: float) -> None:
        """Note that the verifier marked the node SUSPECT."""
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.suspect_since = now

    def record_recovered(self, agent_id: str, now: float) -> None:
        """Note that a SUSPECT node attested clean again."""
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.suspect_since = None

    def record_quarantined(self, agent_id: str, now: float) -> None:
        """Note a quarantine: polling stops, but announced, not silent."""
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.quarantined_at = now
            agent.halted_at = now

    def suspects(self) -> list[str]:
        """Agents currently marked SUSPECT, in watch order."""
        return [
            agent.agent_id for agent in self._agents.values()
            if agent.suspect_since is not None
        ]

    def freshness(self, agent_id: str, now: float) -> float:
        """Seconds since the agent's last successful attestation."""
        agent = self._agents[agent_id]
        reference = agent.last_ok if agent.last_ok is not None else agent.watched_since
        return now - reference

    def check(self, now: float) -> list[Alert]:
        """Evaluate every watched agent; returns gap alerts (one per tick
        while the gap persists, so the engine keeps the firing state)."""
        alerts = []
        for agent in self._agents.values():
            threshold = self.gap_polls * agent.poll_interval
            age = self.freshness(agent.agent_id, now)
            if age <= threshold:
                continue
            reference = (
                agent.last_ok if agent.last_ok is not None else agent.watched_since
            )
            if agent.gap_open_since is None:
                agent.gap_open_since = reference + threshold
            detail: dict[str, Any] = {
                "last_ok": agent.last_ok,
                "last_poll": agent.last_poll,
                "poll_interval": agent.poll_interval,
                "missed_polls": int(age // agent.poll_interval),
                "gap_started": reference,
                "gap_detected": agent.gap_open_since,
            }
            if agent.halted_at is not None:
                detail["polling_halted_at"] = agent.halted_at
            if agent.degraded_rounds:
                detail["degraded_rounds"] = agent.degraded_rounds
            if agent.suspect_since is not None:
                detail["suspect_since"] = agent.suspect_since
            if agent.quarantined_at is not None:
                detail["quarantined_at"] = agent.quarantined_at
            if agent.quarantined_at is not None:
                why = ", node quarantined"
            elif agent.suspect_since is not None:
                why = ", node suspect (transport degraded)"
            elif agent.halted_at is not None:
                why = ", polling halted"
            else:
                why = ""
            alerts.append(
                Alert(
                    time=now,
                    rule="health.coverage_gap",
                    severity="critical",
                    agent=agent.agent_id,
                    message=(
                        f"no successful attestation from {agent.agent_id} for "
                        f"{age / 3600.0:.1f}h "
                        f"(~{int(age // agent.poll_interval)} missed polls"
                        + why
                        + ")"
                    ),
                    detail=detail,
                )
            )
        return alerts


class HealthMonitor:
    """Wires the detectors to one run's EventLog and metrics registry.

    The SLO trackers record into *registry* as well (the
    ``slo_events_total`` counter), so scrapes and federation snapshots
    of the registry carry SLO activity.
    """

    def __init__(
        self,
        events,
        registry=None,
        gap_polls: float = DEFAULT_GAP_POLLS,
    ) -> None:
        self.events = events
        self.registry = registry
        self.slos = standard_slos(registry=registry)
        self.gaps = CoverageGapDetector(gap_polls=gap_polls)
        self.latency = LatencyAnomalyDetector()
        self.failure_rate = FailureRateDetector()
        self.saturation = SaturationDetector()
        self.last_check: float | None = None
        self._sampled: dict[str, float] = {}
        self._latency_sampled_gaps: set[tuple[str | None, float]] = set()
        self._unsubscribe = events.subscribe(self._on_event)

    def close(self) -> None:
        """Stop listening to the EventLog."""
        self._unsubscribe()

    # -- event intake ------------------------------------------------------

    def _on_event(self, record) -> None:
        if record.source != "keylime.verifier":
            return
        agent = record.details.get("agent")
        if agent is None or agent not in self.gaps.agents():
            return
        if record.kind == "attestation.ok":
            self.gaps.record_success(agent, record.time)
            self.slos.poll_success.record(record.time, True)
        elif record.kind.startswith("attestation.failed"):
            self.gaps.record_failure(agent, record.time)
            self.slos.poll_success.record(record.time, False)
        elif record.kind == "attestation.degraded":
            # A degraded round burns poll-success budget (the FP study's
            # operational-noise cost) without counting as an integrity
            # failure anywhere.
            self.gaps.record_degraded(agent, record.time)
            self.slos.poll_success.record(record.time, False)
        elif record.kind == "node.suspect":
            self.gaps.record_suspect(agent, record.time)
        elif record.kind == "node.recovered":
            self.gaps.record_recovered(agent, record.time)
        elif record.kind == "node.quarantined":
            self.gaps.record_quarantined(agent, record.time)
        elif record.kind == "polling.halted":
            self.gaps.record_halt(agent, record.time)

    # -- agent registration ------------------------------------------------

    def watch_agent(self, agent_id: str, poll_interval: float, now: float = 0.0) -> None:
        """Watch one agent's attestation cadence from *now* on."""
        self.gaps.watch(agent_id, poll_interval, now=now)

    # -- telemetry sampling ------------------------------------------------
    #
    # The monitor reads the live registry's current values and keeps
    # the delta bookkeeping (previous cumulative value per sampled key).

    def _child(self, name: str, **labels: str):
        """The registry child for *labels*, ``None`` when it does not exist.

        Looked up through ``family.samples()``: ``family.labels()`` would
        create a zero child (a ``result="failed"`` poll counter in every
        clean run) just by reading it.
        """
        family = self.registry.get(name) if self.registry is not None else None
        if family is None:
            return None
        for child_labels, child in family.samples():
            if child_labels == labels:
                return child
        return None

    def _value(self, name: str) -> float | None:
        """Current value of an unlabeled counter or gauge, if present."""
        child = self._child(name)
        return None if child is None else child.value

    def _counter_delta(self, name: str, **labels: str) -> float:
        child = self._child(name, **labels)
        if child is None:
            return 0.0
        current = child.value
        key = name + "".join(f"|{k}={v}" for k, v in sorted(labels.items()))
        delta = current - self._sampled.get(key, 0.0)
        self._sampled[key] = current
        return delta

    def _histogram_delta(self, name: str) -> tuple[float, float]:
        child = self._child(name)
        if child is None:
            return 0.0, 0.0
        count, total = child.count, child.sum
        d_count = count - self._sampled.get(name + "|count", 0.0)
        d_sum = total - self._sampled.get(name + "|sum", 0.0)
        self._sampled[name + "|count"] = count
        self._sampled[name + "|sum"] = total
        return d_count, d_sum

    # -- the tick ----------------------------------------------------------

    def check(self, now: float) -> list[Alert]:
        """One monitor tick: sample, detect, record SLOs, gauge health."""
        alerts: list[Alert] = []

        # Poll-latency stream: per-tick mean from the histogram deltas.
        d_count, d_sum = self._histogram_delta("verifier_poll_wall_seconds")
        if d_count > 0:
            anomaly = self.latency.observe(now, d_sum / d_count)
            if anomaly is not None:
                alerts.append(anomaly)

        # Failure-rate stream: per-tick fractions from the counters.
        failed = self._counter_delta("verifier_polls_total", result="failed")
        ok = self._counter_delta("verifier_polls_total", result="ok")
        spike = self.failure_rate.observe(now, int(failed), int(failed + ok))
        if spike is not None:
            alerts.append(spike)

        # Saturation stream: the batch scheduler's tick-budget
        # accounting (repro.obs.capacity).  Counter deltas give this
        # tick's activity; the gauges give the accountant's current
        # state.
        ticks = self._counter_delta("fleet_ticks_total")
        overruns = self._counter_delta("fleet_tick_overruns_total")
        congestion = self.saturation.observe(
            now,
            saturated=bool(self._value("fleet_saturated")),
            utilization=self._value("fleet_tick_utilization"),
            overruns=overruns,
            ticks=ticks,
            budget=self._value("fleet_tick_budget_seconds"),
        )
        if congestion is not None:
            alerts.append(congestion)
        if ticks > 0:
            # One headroom sample per accounted tick, bad per overrun.
            total = min(int(round(ticks)), 10_000)
            bad = min(int(round(overruns)), total)
            for index in range(total):
                self.slos.freshness_headroom.record(now, index >= bad)

        # Coverage gaps + the freshness SLO.
        gap_alerts = self.gaps.check(now)
        firing = {alert.agent for alert in gap_alerts}
        for alert in gap_alerts:
            # Detection-latency SLO: sampled once per gap, at detection
            # time -- good when the silence was caught within target.
            key = (alert.agent, alert.detail.get("gap_started", 0.0))
            if key not in self._latency_sampled_gaps:
                self._latency_sampled_gaps.add(key)
                latency = now - alert.detail["gap_started"]
                target = DETECTION_TARGET_POLLS * alert.detail["poll_interval"]
                self.slos.detection_latency.record(now, latency <= target)
        alerts.extend(gap_alerts)

        for agent_id in self.gaps.agents():
            interval = self.gaps._agents[agent_id].poll_interval
            age = self.gaps.freshness(agent_id, now)
            fresh = age <= FRESHNESS_TARGET_POLLS * interval
            self.slos.freshness.record(now, fresh)
            if self.registry is not None:
                self.registry.gauge(
                    "obs_agent_attestation_age_seconds",
                    "Seconds since the agent's last successful attestation",
                    ("agent",),
                ).labels(agent=agent_id).set(age)
        if self.registry is not None:
            self.registry.gauge(
                "obs_coverage_gaps_active",
                "Watched agents currently inside a coverage gap",
            ).set(len(firing - {None}))

        self.last_check = now
        return alerts


class HealthWatch:
    """Monitor + alert engine + incident correlator for one run.

    Scenarios accept an (optional) instance and call :meth:`attach`
    once the run's EventLog/scheduler/audit exist, then :meth:`tick`
    on a periodic schedule.  Every alert that fires builds an incident
    report on the spot, so the forensic timeline is assembled while
    the run is still warm.
    """

    def __init__(
        self,
        gap_polls: float = DEFAULT_GAP_POLLS,
        tick_interval: float = 1800.0,
        on_frame: Callable[[float, "HealthWatch"], None] | None = None,
        frame_every: int = 0,
        observatory=None,
    ) -> None:
        self.gap_polls = gap_polls
        self.tick_interval = tick_interval
        self.on_frame = on_frame
        self.frame_every = frame_every
        # An optional repro.obs.rules.Observatory, collected (scrape +
        # recording rules) at the top of each tick so the run's TSDB
        # history can be exported; no detector reads it.
        self.observatory = observatory
        self.monitor: HealthMonitor | None = None
        self.engine: AlertEngine | None = None
        self.correlator: IncidentCorrelator | None = None
        self.incidents: list[IncidentReport] = []
        self.poll_interval: float = tick_interval
        self._ticks = 0
        self._incident_index: dict[tuple[str, str | None], int] = {}

    @property
    def attached(self) -> bool:
        """Whether :meth:`attach` has been called."""
        return self.monitor is not None

    def attach(
        self, events, registry=None, tracer=None, audit=None,
        poll_interval: float = 1800.0, now: float = 0.0,
    ) -> "HealthWatch":
        """Bind to a run's plumbing; returns self for chaining."""
        self.poll_interval = poll_interval
        if (
            self.observatory is not None and registry is not None
            and not self.observatory.bound
        ):
            self.observatory.bind(registry)
        self.monitor = HealthMonitor(
            events, registry=registry, gap_polls=self.gap_polls
        )
        self.engine = AlertEngine(events)
        self.engine.add_rules(
            standard_burn_rules(self.monitor.slos, poll_interval=poll_interval)
        )
        self.correlator = IncidentCorrelator(events, tracer=tracer, audit=audit)
        return self

    def watch_agent(self, agent_id: str, poll_interval: float | None = None,
                    now: float = 0.0) -> None:
        """Register one agent's expected cadence with the gap detector."""
        self.monitor.watch_agent(
            agent_id,
            poll_interval if poll_interval is not None else self.poll_interval,
            now=now,
        )

    def schedule(self, scheduler) -> Callable[[], None]:
        """Tick on *scheduler* every ``tick_interval``; returns the stop."""
        return scheduler.every(
            self.tick_interval,
            lambda: self.tick(scheduler.clock.now),
            label="obs.health_watch",
        )

    def tick(self, now: float) -> list[Alert]:
        """One watch cycle: detect, alert, correlate; returns new alerts."""
        if self.observatory is not None:
            self.observatory.collect(now)
        signals = self.monitor.check(now)
        fired = self.engine.ingest(signals, now)
        fired.extend(self.engine.evaluate(now))
        for alert in fired:
            self._incident_index[alert.key] = len(self.incidents)
            self.incidents.append(self._correlate(alert, now))
        self._ticks += 1
        if self.on_frame is not None and self.frame_every > 0:
            if self._ticks % self.frame_every == 0:
                self.on_frame(now, self)
        return fired

    def _correlate(self, alert: Alert, now: float) -> IncidentReport:
        lookback = INCIDENT_LOOKBACK_POLLS * self.poll_interval
        # Gap incidents should span from *before* the silence began.
        gap_started = alert.detail.get("gap_started")
        if gap_started is not None:
            lookback = max(lookback, alert.time - gap_started + self.poll_interval)
        return self.correlator.build(
            alert, lookback=lookback, lookahead=max(0.0, now - alert.time)
        )

    def finalize(self, now: float) -> list[IncidentReport]:
        """End-of-run sweep: re-correlate every still-active alert.

        An incident is first built at detection time, but a P2 attacker
        acts *after* detection would have fired on a stock stack -- the
        backdoor lands deep in the still-open gap.  Extending each
        active alert's window through *now* puts that late evidence in
        the report; the refreshed report keeps its incident id and
        replaces the detection-time snapshot.
        """
        refreshed: list[IncidentReport] = []
        if self.engine is None:
            return refreshed
        for alert in self.engine.active():
            report = self._correlate(alert, now)
            index = self._incident_index.get(alert.key)
            if index is not None:
                report.incident_id = self.incidents[index].incident_id
                self.incidents[index] = report
            else:
                self._incident_index[alert.key] = len(self.incidents)
                self.incidents.append(report)
            refreshed.append(report)
        return refreshed


def pipeline_stage_breakdown(registry) -> list[str]:
    """Per-stage verifier pipeline lines for dashboards and reports.

    Reads the ``verifier_stage_wall_seconds{stage}`` histogram and the
    ``verifier_verdict_cache_total{result}`` counters recorded by
    :class:`repro.keylime.pipeline.VerificationPipeline`; returns an
    empty list when no pipeline has run under this registry.
    """
    if registry is None:
        return []
    family = registry.get("verifier_stage_wall_seconds")
    if family is None:
        return []
    lines = ["  -- verification pipeline (wall per stage) --"]
    for labels, child in family.samples():
        stage = labels.get("stage", "?")
        lines.append(
            f"    {stage:<14s} n={child.count:<8d} "
            f"mean={child.mean * 1000.0:8.4f}ms total={child.sum * 1000.0:10.2f}ms"
        )
    cache = registry.get("verifier_verdict_cache_total")
    if cache is not None:
        counts = {labels.get("result"): child.value for labels, child in cache.samples()}
        hits = counts.get("hit", 0)
        misses = counts.get("miss", 0)
        total = hits + misses
        if total:
            lines.append(
                f"    verdict cache: {hits:.0f} hits / {misses:.0f} misses "
                f"({hits / total:.1%} hit ratio)"
            )
    return lines


def render_dashboard(watch: HealthWatch, now: float) -> str:
    """A console snapshot of the watch state: health, SLOs, alerts."""
    lines = [f"== obs watch @ t={now / 3600.0:.1f}h (day {now / 86400.0:.2f}) =="]
    monitor, engine = watch.monitor, watch.engine
    agents = monitor.gaps.agents()
    fresh = stale = 0
    for agent_id in agents:
        interval = monitor.gaps._agents[agent_id].poll_interval
        if monitor.gaps.freshness(agent_id, now) <= watch.gap_polls * interval:
            fresh += 1
        else:
            stale += 1
    lines.append(
        f"  agents: {len(agents)} watched, {fresh} fresh, "
        f"{stale} in coverage gap"
    )
    suspects = monitor.gaps.suspects()
    degraded_total = sum(
        agent.degraded_rounds for agent in monitor.gaps._agents.values()
    )
    if suspects or degraded_total:
        lines.append(
            f"  degraded transport: {degraded_total} degraded rounds, "
            f"{len(suspects)} node(s) currently suspect"
        )
    lines.extend(saturation_summary(monitor.registry))
    lines.append("  -- SLOs (error budget over trailing day) --")
    for tracker in monitor.slos.all():
        total, bad = tracker.window_counts(86400.0, now)
        remaining = tracker.budget_remaining(86400.0, now)
        lines.append(
            f"    {tracker.name:<22s} objective={tracker.objective:.3f} "
            f"samples={total:<6d} bad={bad:<4d} budget_left={remaining:6.1%}"
        )
    active = engine.active()
    if active:
        lines.append("  -- active alerts --")
        for alert in active:
            who = f" agent={alert.agent}" if alert.agent else ""
            lines.append(
                f"    [{alert.severity.upper():8s}] {alert.rule}{who} "
                f"(since t={alert.time / 3600.0:.1f}h)"
            )
    else:
        lines.append("  -- no active alerts --")
    lines.extend(pipeline_stage_breakdown(monitor.registry))
    if watch.incidents:
        lines.append(f"  incidents on file: {len(watch.incidents)}")
    return "\n".join(lines)

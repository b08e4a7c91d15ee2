"""Incident correlation: from an alert to a forensic timeline.

When an alert fires (a coverage gap, a failure-rate spike, an SLO
burn), the question the paper's P2 makes urgent is *what happened
while nobody was looking?*  The correlator answers it by assembling,
for the alert's window, everything the run recorded:

* **EventLog records** via ``records_between`` -- attestation
  outcomes, policy pushes, mirror syncs, attack steps, alert state
  changes;
* **spans** from the tracer -- the traced polls (and their absence)
  across the window, on the simulated timeline;
* **AuditLog records** -- the tamper-evident trust history, cited by
  chain index and record hash so the report's claims can be checked
  against the hash chain after the fact.

The product is an :class:`IncidentReport`: a structured object that
serialises to JSON (for ``obs report`` and the JSONL export) and
renders to a readable timeline (for the console).

Post-hoc use: :func:`reports_from_export` rebuilds reports from a
``repro-cli obs watch --jsonl`` export -- directly when the export
contains incident records, otherwise by replaying the exported events
through a fresh detection pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.common.events import EventLog
from repro.obs.exporters import audit_record
from repro.obs.profiling import critical_path, self_wall
from repro.obs.tracestore import build_spans, span_record

#: Cap on records per section of one report, so a month-long window
#: cannot produce a megabyte of timeline.
MAX_SECTION_RECORDS = 200


@dataclass
class IncidentReport:
    """One correlated incident: the alert plus its forensic window."""

    incident_id: str
    created_at: float
    alert: dict[str, Any]
    agent_id: str | None
    window: tuple[float, float]
    events: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    audit_records: list[dict[str, Any]] = field(default_factory=list)
    audit_chain: dict[str, Any] = field(default_factory=dict)
    truncated: dict[str, int] = field(default_factory=dict)
    #: The heaviest-child chain of the window's last relevant poll --
    #: where the wall time of the round that preceded the alert went.
    critical_path: list[dict[str, Any]] = field(default_factory=list)

    def to_record(self) -> dict[str, Any]:
        """Dict form for the JSONL export (``type: incident``)."""
        return {
            "type": "incident",
            "incident_id": self.incident_id,
            "created_at": self.created_at,
            "alert": self.alert,
            "agent": self.agent_id,
            "window": list(self.window),
            "events": self.events,
            "spans": self.spans,
            "audit_records": self.audit_records,
            "audit_chain": self.audit_chain,
            "truncated": self.truncated,
            "critical_path": self.critical_path,
        }

    def to_json(self) -> str:
        """The report as one JSON document."""
        return json.dumps(self.to_record(), sort_keys=True, indent=2)

    @staticmethod
    def from_record(record: dict[str, Any]) -> "IncidentReport":
        """Rebuild a report from its :meth:`to_record` dict."""
        return IncidentReport(
            incident_id=record["incident_id"],
            created_at=record["created_at"],
            alert=record["alert"],
            agent_id=record.get("agent"),
            window=tuple(record["window"]),
            events=list(record.get("events", ())),
            spans=list(record.get("spans", ())),
            audit_records=list(record.get("audit_records", ())),
            audit_chain=dict(record.get("audit_chain", ())),
            truncated=dict(record.get("truncated", ())),
            critical_path=list(record.get("critical_path", ())),
        )

    # -- rendering ---------------------------------------------------------

    def timeline(self) -> list[tuple[float, str, str]]:
        """Merged ``(time, tag, line)`` entries, time-ordered."""
        entries: list[tuple[float, str, str]] = []
        for event in self.events:
            details = event.get("details", {})
            rendered = ", ".join(f"{k}={v}" for k, v in details.items() if v is not None)
            entries.append(
                (event["time"], "EVT",
                 f"{event['source']} {event['kind']}"
                 + (f" [{rendered}]" if rendered else ""))
            )
        for span in self.spans:
            if span.get("parent_id") is not None:
                continue  # roots only; phases are summarised by the root
            entries.append(
                (span["sim_start"], "SPAN",
                 f"{span['name']} wall={span.get('wall_ms', 0.0):.2f}ms "
                 f"attrs={span.get('attributes', {})}")
            )
        for record in self.audit_records:
            entries.append(
                (record["time"], "AUDIT",
                 f"chain[{record['index']}] ok={record['ok']} "
                 f"hash={record['record_hash'][:16]}...")
            )
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return entries

    def render_text(self, include_timeline: bool = True) -> str:
        """The human-readable incident report.

        *include_timeline* off renders just the header block -- the
        right shape for fleet-wide SLO burns whose full timeline lives
        in the JSONL export.
        """
        t0, t1 = self.window
        alert = self.alert
        lines = [
            f"==== incident {self.incident_id} ====",
            f"alert:    {alert.get('rule')} [{alert.get('severity')}] "
            f"at t={alert.get('time', 0.0) / 3600.0:.2f}h",
            f"message:  {alert.get('message', '')}",
            f"agent:    {self.agent_id or '(fleet-wide)'}",
            f"window:   t={t0 / 3600.0:.2f}h .. t={t1 / 3600.0:.2f}h "
            f"({(t1 - t0) / 3600.0:.1f}h)",
        ]
        gap_started = alert.get("detail", {}).get("gap_started")
        if gap_started is not None:
            silent = self.created_at - gap_started
            lines.append(
                f"gap:      silent since t={gap_started / 3600.0:.2f}h "
                f"({silent / 3600.0:.1f}h dark at detection)"
            )
        if self.audit_chain:
            chain = self.audit_chain
            lines.append(
                "audit:    "
                f"{chain.get('records_in_window', 0)} chained records in window "
                f"(indices {chain.get('first_index', '-')}..{chain.get('last_index', '-')}), "
                f"chain_verified={chain.get('verified')}, "
                f"head={str(chain.get('head', ''))[:16]}..."
            )
        lines.append(
            f"evidence: {len(self.events)} events, {len(self.spans)} spans, "
            f"{len(self.audit_records)} audit records"
        )
        for section, dropped in sorted(self.truncated.items()):
            lines.append(f"          ({section}: {dropped} older records truncated)")
        if self.critical_path:
            lines.append("-- critical path (last poll before the alert) --")
            for depth, step in enumerate(self.critical_path):
                pad = "  " * depth
                lines.append(
                    f"  {pad}{step['name']}  wall={step['wall_ms']:.3f}ms "
                    f"self={step['self_ms']:.3f}ms  ({step['share'] * 100:5.1f}%)"
                )
        if include_timeline:
            lines.append("-- timeline --")
            for time, tag, text in self.timeline():
                lines.append(f"  t={time / 3600.0:8.2f}h  [{tag:<5s}] {text}")
        else:
            lines.append(f"(timeline omitted: {len(self.timeline())} entries, "
                         "full record in the JSONL export)")
        return "\n".join(lines)


class IncidentCorrelator:
    """Builds :class:`IncidentReport` objects from a run's sources.

    Live use passes the run's ``EventLog``, ``SpanTracer`` and
    ``AuditLog``; post-hoc use (``obs report``) passes the
    reconstructed event log plus raw span/audit dicts from the export.
    Spans are read as flat records either way -- a live tracer's spans
    become the records its export would hold -- so a live report and
    one rebuilt from the export select the same spans.
    """

    def __init__(
        self,
        events: EventLog,
        tracer=None,
        audit=None,
        spans: list[dict[str, Any]] | None = None,
        audit_records: list[dict[str, Any]] | None = None,
    ) -> None:
        self.events = events
        self.tracer = tracer
        self.audit = audit
        self._raw_spans = spans
        self._raw_audit = audit_records
        self._sequence = 0

    # -- source views ------------------------------------------------------

    def _spans_in_window(
        self, t0: float, t1: float, agent: str | None
    ) -> list[dict[str, Any]]:
        if self.tracer is not None:
            raw = [span_record(span) for span in self.tracer.iter_spans()]
        else:
            raw = self._raw_spans or []
        roots = [span for span in raw if span.get("parent_id") is None]
        children: dict[int, list[dict[str, Any]]] = {}
        for span in raw:
            if span.get("parent_id") is not None:
                children.setdefault(span["trace_id"], []).append(span)

        selected: list[dict[str, Any]] = []
        for root in roots:
            end = root.get("sim_end")
            if end is None:
                end = root["sim_start"]
            if end < t0 or root["sim_start"] > t1:
                continue
            root_agent = (root.get("attributes") or {}).get("agent")
            if agent is not None and root_agent is not None and root_agent != agent:
                continue
            selected.append(root)
            selected.extend(children.get(root["trace_id"], ()))
        return selected

    def _audit_in_window(
        self, t0: float, t1: float, agent: str | None
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        if self.audit is not None:
            all_records = [audit_record(record) for record in self.audit.records()]
            head = self.audit.head_hash
            try:
                self.audit.verify_chain()
                verified = True
            except Exception:
                verified = False
        else:
            all_records = sorted(
                self._raw_audit or (), key=lambda record: record["index"]
            )
            head = all_records[-1]["record_hash"] if all_records else None
            verified = _verify_exported_chain(all_records)

        in_window = [
            record for record in all_records
            if t0 <= record["time"] <= t1
            and (agent is None or record["agent"] == agent)
        ]
        chain = {
            "head": head,
            "verified": verified,
            "records_in_window": len(in_window),
            "first_index": in_window[0]["index"] if in_window else None,
            "last_index": in_window[-1]["index"] if in_window else None,
        }
        return in_window, chain

    # -- building ----------------------------------------------------------

    def build(
        self,
        alert,
        lookback: float = 4 * 3600.0,
        lookahead: float = 0.0,
    ) -> IncidentReport:
        """Correlate one alert into a report.

        *alert* is an :class:`repro.obs.alerts.Alert` or its dict form.
        The window is ``[alert.time - lookback, alert.time + lookahead]``
        clamped at zero.
        """
        record = alert.to_record() if hasattr(alert, "to_record") else dict(alert)
        agent = record.get("agent")
        now = record.get("time", 0.0)
        t0 = max(0.0, now - lookback)
        t1 = now + lookahead

        truncated: dict[str, int] = {}

        events = []
        for event in self.events.records_between(t0, t1):
            details = event.details
            event_agent = details.get("agent")
            if agent is not None and event_agent not in (None, agent):
                continue
            events.append(
                {
                    "type": "event",
                    "time": event.time,
                    "source": event.source,
                    "kind": event.kind,
                    "details": details,
                }
            )
        if len(events) > MAX_SECTION_RECORDS:
            truncated["events"] = len(events) - MAX_SECTION_RECORDS
            events = events[-MAX_SECTION_RECORDS:]

        spans = self._spans_in_window(t0, t1, agent)
        if len(spans) > MAX_SECTION_RECORDS:
            truncated["spans"] = len(spans) - MAX_SECTION_RECORDS
            spans = spans[-MAX_SECTION_RECORDS:]

        path = _poll_critical_path(spans, agent)

        audit_records, chain = self._audit_in_window(t0, t1, agent)
        if len(audit_records) > MAX_SECTION_RECORDS:
            truncated["audit_records"] = len(audit_records) - MAX_SECTION_RECORDS
            audit_records = audit_records[-MAX_SECTION_RECORDS:]

        self._sequence += 1
        return IncidentReport(
            incident_id=f"INC-{self._sequence:04d}",
            created_at=now,
            alert=record,
            agent_id=agent,
            window=(t0, t1),
            events=events,
            spans=spans,
            audit_records=audit_records,
            audit_chain=chain,
            truncated=truncated,
            critical_path=path,
        )


def _poll_critical_path(
    spans: list[dict[str, Any]], agent: str | None
) -> list[dict[str, Any]]:
    """Critical path of the last ``verifier.poll`` among *spans*.

    Rebuilds span trees from the window's flat span dicts, picks the
    most recent poll matching *agent* (any agent when ``None``) --
    wherever it sits in its tree: fleet runs nest polls inside
    ``fleet.poll_batch`` roots -- and returns its heaviest-child chain
    as serialisable steps.
    """
    polls = [
        span
        for root in build_spans(spans)
        for span in root.walk()
        if span.name == "verifier.poll"
        and (agent is None or span.attributes.get("agent") == agent)
    ]
    if not polls:
        return []
    root = max(polls, key=lambda span: span.sim_start)
    return [
        {
            "name": step.span.name,
            "wall_ms": step.span.wall_duration * 1000.0,
            "self_ms": self_wall(step.span) * 1000.0,
            "share": round(step.share, 4),
        }
        for step in critical_path(root)
    ]


def _verify_exported_chain(records: list[dict[str, Any]]) -> bool:
    """Recompute hash links over exported audit dicts.

    Verifies whatever contiguous run of indices the export holds: each
    record's hash must recompute from its content, and consecutive
    indices must link previous-hash to record-hash.
    """
    from repro.keylime.audit import AuditRecord

    previous: dict[str, Any] | None = None
    for record in records:
        expected = AuditRecord.compute_hash(
            record["index"], record["time"], record["agent"], record["ok"],
            record["detail"], record["previous_hash"],
        )
        if expected != record["record_hash"]:
            return False
        if (
            previous is not None
            and record["index"] == previous["index"] + 1
            and record["previous_hash"] != previous["record_hash"]
        ):
            return False
        previous = record
    return bool(records)


# -- post-hoc reconstruction ------------------------------------------------


def split_export(records: list[dict[str, Any]]) -> dict[str, list[dict[str, Any]]]:
    """Group a JSONL export's records by their ``type`` field."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        groups.setdefault(record.get("type", "metric"), []).append(record)
    return groups


def reports_from_export(records: list[dict[str, Any]]) -> list[IncidentReport]:
    """Incident reports from an ``obs watch --jsonl`` export.

    Uses the embedded incident records when present; otherwise replays
    the exported events through a fresh detection pipeline (needs the
    export's ``run_meta`` record for agent cadences).
    """
    groups = split_export(records)
    if groups.get("incident"):
        return [IncidentReport.from_record(record) for record in groups["incident"]]
    return replay_incidents(groups)


def replay_incidents(groups: dict[str, list[dict[str, Any]]]) -> list[IncidentReport]:
    """Re-run gap detection over exported events; returns the reports."""
    from repro.obs.health import HealthWatch  # local: health imports this module

    meta_records = groups.get("run_meta", ())
    meta = meta_records[0] if meta_records else {}
    poll_interval = float(meta.get("poll_interval", 1800.0))
    agents = list(meta.get("agents", ()))

    event_records = sorted(groups.get("event", ()), key=lambda r: r["time"])
    if not event_records:
        return []
    events = EventLog()
    watch = HealthWatch(tick_interval=poll_interval)
    watch.attach(events, poll_interval=poll_interval)
    watch.correlator = IncidentCorrelator(
        events,
        spans=groups.get("span", []),
        audit_records=groups.get("audit", []),
    )
    if not agents:
        agents = sorted(
            {
                record["details"].get("agent")
                for record in event_records
                if record["source"] == "keylime.verifier"
                and record["details"].get("agent")
            }
        )
    for agent in agents:
        watch.watch_agent(agent, poll_interval)

    end = event_records[-1]["time"] + poll_interval
    tick_at = poll_interval
    index = 0
    while tick_at <= end:
        while index < len(event_records) and event_records[index]["time"] <= tick_at:
            record = event_records[index]
            events.emit(
                record["time"], record["source"], record["kind"],
                **record.get("details", {}),
            )
            index += 1
        watch.tick(tick_at)
        tick_at += poll_interval
    return watch.incidents

"""Mission-control rendering of a (possibly federated) TSDB store.

``repro-cli obs top`` is the fleet-over-time counterpart to the
point-in-time ``obs watch`` dashboard: every line is answered from
:class:`~repro.obs.tsdb.TsdbStore` queries -- instants for the current
state, ranges for the sparkline trends, windowed increases for the SLO
burn -- so the same renderer works live against a
:class:`~repro.obs.federation.FederationHub` (one source or N merged
registries) or post-hoc against a store rebuilt from a JSONL export.

Rendering is plain console text in the existing ``render_dashboard``
idiom; :func:`top_frame_record` is the machine-readable twin for
``--jsonl`` output, carrying the same numbers as typed records.
"""

from __future__ import annotations

from typing import Any

from repro.obs.alerts import standard_slos
from repro.obs.tsdb import TsdbStore

#: Unicode block glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Freshness heat glyphs: index = whole missed poll intervals, capped.
HEAT_GLYPHS = ("·", "▁", "▂", "▄", "▅", "▆", "▇", "█")


def sparkline(values: list[float], width: int = 32) -> str:
    """Render *values* as a fixed-width unicode sparkline.

    The series is resampled to *width* points (last value per cell);
    a flat series renders as a line of the lowest glyph.
    """
    if not values:
        return " " * width
    if len(values) > width:
        step = len(values) / width
        values = [values[min(int((i + 1) * step) - 1, len(values) - 1)]
                  for i in range(width)]
    low = min(values)
    high = max(values)
    span = high - low
    out = []
    for value in values:
        if span <= 0:
            out.append(SPARK_GLYPHS[0])
        else:
            index = int((value - low) / span * (len(SPARK_GLYPHS) - 1))
            out.append(SPARK_GLYPHS[index])
    return "".join(out).ljust(width)


def heat_row(ages: list[float | None], poll_interval: float) -> str:
    """Freshness glyphs for one agent: one cell per sampled instant.

    Each cell encodes the attestation age at that instant in whole
    missed poll intervals -- ``·`` fresh, darkening blocks as the gap
    grows, a space where the store holds no data yet.
    """
    cells = []
    for age in ages:
        if age is None:
            cells.append(" ")
            continue
        missed = int(age // poll_interval) if poll_interval > 0 else 0
        cells.append(HEAT_GLYPHS[min(missed, len(HEAT_GLYPHS) - 1)])
    return "".join(cells)


def _series_total(store: TsdbStore, name: str, at: float, **filters) -> float:
    """Sum of instants at *at* across matching series (0.0 when none)."""
    total = 0.0
    for series in store.select(name, **filters):
        value = series.instant(at)
        if value is not None:
            total += value
    return total


def _grouped_instants(
    store: TsdbStore, name: str, label: str, at: float
) -> dict[str, float]:
    """``{label_value: summed instant}`` across matching series."""
    out: dict[str, float] = {}
    for series in store.select(name):
        value = series.instant(at)
        if value is None:
            continue
        key = series.label(label) or ""
        out[key] = out.get(key, 0.0) + value
    return out


def slo_burn(
    store: TsdbStore, now: float, window: float = 86400.0
) -> list[dict[str, Any]]:
    """Burn-rate summary per standard SLO from store history.

    Reads the ``slo_events_total{slo,outcome}`` counters each
    :class:`~repro.obs.alerts.SloTracker` bumps in its registry, as a
    scrape or a federation hub stores them; objectives come from
    :func:`~repro.obs.alerts.standard_slos`.
    """
    start = now - window
    out = []
    objectives = sorted(
        (tracker.name, tracker.objective) for tracker in standard_slos().all()
    )
    for name, objective in objectives:
        total = sum(
            series.increase(start, now)
            for series in store.select("slo_events_total", slo=name)
        )
        bad = sum(
            series.increase(start, now)
            for series in store.select(
                "slo_events_total", slo=name, outcome="bad"
            )
        )
        if total <= 0:
            continue
        bad_fraction = bad / total
        burn = bad_fraction / (1.0 - objective)
        out.append({
            "slo": name,
            "objective": objective,
            "window": window,
            "total": int(round(total)),
            "bad": int(round(bad)),
            "burn_rate": round(burn, 3),
            "budget_remaining": round(1.0 - min(1.0, burn), 4),
        })
    return out


def _agent_heat(
    store: TsdbStore, now: float, poll_interval: float, width: int
) -> list[tuple[str, str, float | None]]:
    """``(agent, heat_glyphs, current_age)`` rows, worst-first."""
    span = width * poll_interval
    ticks = [now - span + (i + 1) * poll_interval for i in range(width)]
    by_agent: dict[str, list] = {}
    for series in store.select("obs_agent_attestation_age_seconds"):
        agent = series.label("agent")
        if agent is None:
            continue
        # Name the federation source that reported the row.
        origin = series.label("source")
        if origin:
            agent = f"{origin}/{agent}"
        by_agent.setdefault(agent, []).append(series)
    rows = []
    for agent, serieses in sorted(by_agent.items()):
        ages: list[float | None] = []
        for tick in ticks:
            best: float | None = None
            for series in serieses:
                value = series.instant(tick)
                if value is not None and (best is None or value > best):
                    best = value
            ages.append(best)
        rows.append((agent, heat_row(ages, poll_interval), ages[-1]))
    rows.sort(key=lambda row: -(row[2] if row[2] is not None else -1.0))
    return rows


def _series_max(store: TsdbStore, name: str, at: float) -> float | None:
    """Max instant at *at* across matching series (``None`` when none)."""
    best: float | None = None
    for series in store.select(name):
        value = series.instant(at)
        if value is not None and (best is None or value > best):
            best = value
    return best


def _saturation_panel(
    store: TsdbStore, now: float, span: float, width: int
) -> list[str]:
    """Verifier-load lines for :func:`render_top` (empty without data)."""
    ticks = _series_total(store, "fleet_ticks_total", now)
    if ticks <= 0:
        return []
    lines = ["  -- verifier load --"]
    points = store.range_values("fleet:utilization", None, now - span, now)
    values = [value for _, value in points]
    utilization = store.instant("fleet:utilization", None, now)
    if utilization is None and values:
        utilization = values[-1]
    current = f"{utilization:8.1%}" if utilization is not None else "      --"
    lines.append(f"  utilization  {sparkline(values, width)} {current}")
    overruns = _series_total(store, "fleet_tick_overruns_total", now)
    overrun_ratio = store.instant("fleet:tick_overrun_ratio", None, now)
    budget = _series_max(store, "fleet_tick_budget_seconds", now)
    saturated_sources = sum(
        1 for series in store.select("fleet_saturated")
        if (series.instant(now) or 0.0) >= 1.0
    )
    parts = [f"{int(overruns)} overruns/{int(ticks)} ticks"]
    if overrun_ratio is not None:
        parts.append(f"overrun_ratio={overrun_ratio:.1%}")
    if budget is not None:
        parts.append(f"budget={budget:.3f}s")
    if saturated_sources:
        parts.append(f"{saturated_sources} source(s) SATURATED")
    lines.append("  " + ", ".join(parts))
    shares = _grouped_instants(store, "fleet:stage_cost_share", "stage", now)
    total_share = sum(shares.values())
    if total_share > 0:
        # Summing across federated sources can exceed 1.0; renormalise
        # so the row always reads as a fleet-wide share.
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        rendered = " ".join(
            f"{stage}={share / total_share:.0%}" for stage, share in ranked[:6]
        )
        lines.append(f"  stage cost share: {rendered}")
    return lines


def _shard_rows(store: TsdbStore, now: float) -> list[tuple[str, float, str]]:
    """``(shard, agents, host)`` rows from the shard gauges."""
    # Freshest series per shard, NOT a sum across label sets: after a
    # failover the dead member's stale per-source series would double
    # the shard with the adopter's live one.
    sizes: dict[str, float] = {}
    size_at: dict[str, float] = {}
    for series in store.select("fleet_shard_agents"):
        value = series.instant(now)
        shard = series.label("shard")
        if value is None or shard is None:
            continue
        last_at = series.raw[-1][0] if series.raw else float("-inf")
        if shard not in sizes or last_at > size_at[shard]:
            sizes[shard], size_at[shard] = value, last_at
    hosts: dict[str, tuple[float, str]] = {}
    for series in store.select("fleet_shard_hosted"):
        value = series.instant(now)
        shard = series.label("shard")
        host = series.label("host")
        if value is None or value < 1.0 or shard is None or host is None:
            continue
        # A dead member stops federating, so its pre-failover hosted=1
        # sample lingers in the store; the freshest sample is the
        # member actually answering for the shard now.
        last_at = series.raw[-1][0] if series.raw else float("-inf")
        if shard not in hosts or last_at > hosts[shard][0]:
            hosts[shard] = (last_at, host)
    return [
        (shard, count, hosts.get(shard, (0.0, shard))[1])
        for shard, count in sorted(sizes.items())
    ]


def _shard_panel(store: TsdbStore, now: float) -> list[str]:
    """Shard layout lines for :func:`render_top` (empty without data).

    One row per shard with its agent count and hosting member --
    adopted shards (host differs from the shard's home member) are
    flagged, since a lasting adoption means a verifier is still down.
    The header carries the ``fleet:shard_balance`` recording rule and
    the cumulative failover/migration counters.
    """
    rows = _shard_rows(store, now)
    if not rows:
        return []
    members = None
    member_instants = [
        value for series in store.select("fleet_shard_members")
        if (value := series.instant(now)) is not None
    ]
    if member_instants:
        # A gauge, not a counter: the freshest source wins (in a local
        # store there is exactly one series; federated, one per hub).
        members = member_instants[-1]
    balance = store.instant("fleet:shard_balance", None, now)
    failovers = _series_total(store, "fleet_shard_failovers_total", now)
    migrations = _series_total(store, "fleet_shard_migrations_total", now)
    header = f"  -- shards ({len(rows)})"
    if members is not None:
        header += f", {int(members)} live member(s)"
    if balance is not None:
        header += f", balance={balance:.2f}"
    header += " --"
    lines = [header]
    for shard, count, host in rows:
        marker = "" if host == shard else f"  host={host} (adopted)"
        lines.append(f"    {shard:<14s} {int(count):4d} agents{marker}")
    lines.append(
        f"    failovers={int(failovers)} migrations={int(migrations)}"
    )
    return lines


def render_top(
    store: TsdbStore,
    now: float,
    staleness: dict[str, float | None] | None = None,
    poll_interval: float = 1800.0,
    width: int = 32,
    max_heat_rows: int = 12,
) -> str:
    """One full mission-control frame as console text."""
    lines = [
        f"== obs top @ t={now / 3600.0:.1f}h (day {now / 86400.0:.2f}) =="
    ]

    # Federation sources and their staleness.
    if staleness:
        parts = []
        for name, age in sorted(staleness.items()):
            if age is None:
                parts.append(f"{name}: never")
            elif age > 2 * poll_interval:
                parts.append(f"{name}: {age / 60.0:.0f}m STALE")
            else:
                parts.append(f"{name}: {age / 60.0:.0f}m")
        lines.append(f"  sources: {len(staleness)} federated [{', '.join(parts)}]")

    # Fleet rollup: nodes by verifier state, summed across sources.
    states = _grouped_instants(store, "fleet_nodes", "state", now)
    if states:
        total = sum(states.values())
        by_state = " ".join(
            f"{state}={int(count)}" for state, count in sorted(states.items())
        )
        quarantined = _series_total(store, "fleet_quarantined_nodes", now)
        lines.append(
            f"  fleet: {int(total)} nodes [{by_state}] "
            f"quarantined={int(quarantined)}"
        )
    gaps = _series_total(store, "fleet:coverage_gaps_active", now) or \
        _series_total(store, "obs_coverage_gaps_active", now)
    age_max = _series_total(store, "fleet:attestation_age_max", now)
    lines.append(
        f"  coverage: {int(gaps)} open gap(s), "
        f"oldest attestation {age_max / 3600.0:.1f}h"
    )

    # Trend sparklines from the recording-rule series.
    span = width * poll_interval
    for title, name, scale, unit in (
        ("poll rate", "fleet:poll_rate", 3600.0, "/h"),
        ("poll latency", "fleet:poll_latency_mean", 1000.0, "ms"),
    ):
        points = store.range_values(name, None, now - span, now)
        values = [value * scale for _, value in points]
        current = f"{values[-1]:8.2f}{unit}" if values else "      --"
        lines.append(f"  {title:<13s}{sparkline(values, width)} {current}")

    # Verifier load / saturation, from the capacity accounting series.
    lines.extend(_saturation_panel(store, now, span, width))

    # Shard layout (present once a multi-verifier fleet reports).
    lines.extend(_shard_panel(store, now))

    # SLO burn over the trailing day.
    burns = slo_burn(store, now, window=86400.0)
    if burns:
        lines.append("  -- SLO burn (trailing day) --")
        for burn in burns:
            marker = " !!" if burn["burn_rate"] >= 1.0 else ""
            lines.append(
                f"    {burn['slo']:<22s} burn={burn['burn_rate']:6.2f}x "
                f"bad={burn['bad']}/{burn['total']} "
                f"budget_left={burn['budget_remaining']:6.1%}{marker}"
            )

    # Chaos / degraded-mode counters (cumulative, all sources).
    faults = _grouped_instants(
        store, "transport_faults_injected_total", "kind", now
    )
    degraded = _series_total(store, "verifier_degraded_rounds_total", now)
    if faults or degraded:
        by_kind = " ".join(
            f"{kind}={int(count)}" for kind, count in sorted(faults.items())
        )
        lines.append(
            f"  chaos: {int(sum(faults.values()))} faults injected "
            f"[{by_kind}] degraded_rounds={int(degraded)}"
        )

    # Per-agent freshness heatmap, worst first.
    rows = _agent_heat(store, now, poll_interval, width)
    if rows:
        lines.append(
            f"  -- attestation freshness (last {span / 3600.0:.0f}h, "
            f"{poll_interval / 60.0:.0f}m cells; darker = staler) --"
        )
        for agent, heat, current in rows[:max_heat_rows]:
            age = f"{current / 3600.0:5.1f}h" if current is not None else "    --"
            lines.append(f"    {agent:<24s} {heat} {age}")
        if len(rows) > max_heat_rows:
            lines.append(f"    ... {len(rows) - max_heat_rows} more agents")

    stats = store.stats()
    lines.append(
        f"  tsdb: {stats['series']} series, {stats['samples']} samples "
        f"(budget {stats['budget']}), {stats['scrapes']} scrapes, "
        f"{stats['counter_resets']} counter resets"
    )
    return "\n".join(lines)


def top_frame_record(
    store: TsdbStore,
    now: float,
    staleness: dict[str, float | None] | None = None,
    poll_interval: float = 1800.0,
) -> dict[str, Any]:
    """The machine-readable twin of :func:`render_top` (``--jsonl``)."""
    states = _grouped_instants(store, "fleet_nodes", "state", now)
    faults = _grouped_instants(
        store, "transport_faults_injected_total", "kind", now
    )
    agents = {}
    for series in store.select("obs_agent_attestation_age_seconds"):
        agent = series.label("agent")
        value = series.instant(now)
        if agent is None or value is None:
            continue
        origin = series.label("source")
        if origin:
            agent = f"{origin}/{agent}"
        agents[agent] = max(value, agents.get(agent, 0.0))
    return {
        "type": "top_frame",
        "time": now,
        "sources": dict(staleness or {}),
        "fleet_nodes": {state: int(count) for state, count in states.items()},
        "quarantined": int(_series_total(store, "fleet_quarantined_nodes", now)),
        "coverage_gaps_active": int(
            _series_total(store, "fleet:coverage_gaps_active", now)
            or _series_total(store, "obs_coverage_gaps_active", now)
        ),
        "poll_rate_per_hour": (
            (store.instant("fleet:poll_rate", None, now) or 0.0) * 3600.0
        ),
        "poll_latency_mean_ms": (
            (store.instant("fleet:poll_latency_mean", None, now) or 0.0)
            * 1000.0
        ),
        "ticks_total": int(_series_total(store, "fleet_ticks_total", now)),
        "tick_overruns_total": int(
            _series_total(store, "fleet_tick_overruns_total", now)
        ),
        "utilization": store.instant("fleet:utilization", None, now),
        "tick_overrun_ratio": store.instant(
            "fleet:tick_overrun_ratio", None, now
        ),
        "stage_cost_share": _grouped_instants(
            store, "fleet:stage_cost_share", "stage", now
        ),
        "shards": {
            shard: {"agents": int(count), "host": host}
            for shard, count, host in _shard_rows(store, now)
        },
        "shard_balance": store.instant("fleet:shard_balance", None, now),
        "shard_failovers": int(
            _series_total(store, "fleet_shard_failovers_total", now)
        ),
        "shard_migrations": int(
            _series_total(store, "fleet_shard_migrations_total", now)
        ),
        "saturated_sources": sum(
            1 for series in store.select("fleet_saturated")
            if (series.instant(now) or 0.0) >= 1.0
        ),
        "slo_burn": slo_burn(store, now, window=86400.0),
        "chaos_faults": {kind: int(count) for kind, count in faults.items()},
        "degraded_rounds": int(
            _series_total(store, "verifier_degraded_rounds_total", now)
        ),
        "attestation_age_seconds": agents,
        "tsdb": store.stats(),
    }

"""Saturation probe: sweep fleet sizes to find the utilization knee.

The capacity planner (:mod:`repro.obs.capacity`) fits per-node round
cost from observed tick accounting; this experiment *generates* those
observations under controlled conditions.  For each fleet size it
builds an identically provisioned fleet, primes the verdict cache (the
first round replays whole logs and would otherwise dominate the fit),
then drives N batch ticks and keeps every
:class:`~repro.obs.capacity.TickRecord`.

The tick **budget** needs care: batch cost is wall seconds while the
poll interval is simulated seconds, so a production-shaped budget can
never saturate a millisecond-scale bench fleet.  When no budget is
given the sweep calibrates one from its own fitted model -- the busy
cost projected at the sweep's midpoint size -- which lands the measured
knee inside the sweep on any hardware.  The measured knee is then the
interpolated fleet size whose mean busy time crosses the budget, and
the planner's prediction (``model.max_nodes(budget)``) is validated
against it by the acceptance bench (±20%).

Used by ``repro-cli obs capacity`` (live mode) and
``benchmarks/bench_saturation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.clock import Scheduler
from repro.keylime.fleet import Fleet, build_fleet
from repro.obs.capacity import CapacityModel, TickRecord, fit_capacity

DEFAULT_SIZES = (4, 8, 16, 28)


@dataclass(frozen=True)
class SaturationPoint:
    """Aggregated tick accounting for one sweep size."""

    nodes: int
    ticks: int
    busy_mean_seconds: float
    busy_max_seconds: float
    wall_mean_seconds: float
    delay_mean_seconds: float
    utilization: float | None = None
    overruns: int = 0


@dataclass
class SaturationSweep:
    """The full sweep result: points, fitted model, knee, prediction."""

    sizes: tuple[int, ...]
    ticks_per_size: int
    budget: float
    budget_calibrated: bool
    points: list[SaturationPoint]
    model: CapacityModel
    knee_nodes: float | None
    predicted_max_nodes: float
    records: list[TickRecord] = field(default_factory=list)

    @property
    def prediction_error(self) -> float | None:
        """|predicted - measured| / measured, ``None`` without a knee."""
        if self.knee_nodes is None or self.knee_nodes <= 0:
            return None
        return abs(self.predicted_max_nodes - self.knee_nodes) / self.knee_nodes


def build_probe_fleet(
    size: int,
    seed: str = "saturation",
    n_filler_packages: int = 12,
    tick_budget: float | None = None,
) -> tuple[Fleet, Scheduler]:
    """One bench-scale fleet for tick-cost probing."""
    fleet = build_fleet(
        f"{seed}-{size}", size, fillers=n_filler_packages, mean_exec_files=5,
        manufacturer="Probe", tick_budget=tick_budget,
    )
    return fleet, fleet.scheduler


def probe_tick_cost(
    size: int,
    ticks: int = 6,
    seed: str = "saturation",
    n_filler_packages: int = 12,
    poll_interval: float = 1800.0,
    tick_budget: float | None = None,
    warmup_ticks: int = 1,
) -> list[TickRecord]:
    """Measured tick records for one fleet size (warmup discarded).

    Accounting runs on the fleet's own
    :class:`~repro.obs.capacity.TickBudgetAccountant`; with a
    *tick_budget* the overrun/saturation machinery is live, without one
    the probe just measures cost.
    """
    fleet, scheduler = build_probe_fleet(
        size, seed=seed, n_filler_packages=n_filler_packages,
        tick_budget=tick_budget,
    )
    accountant = fleet.accounting
    accountant.configure(interval=poll_interval, budget=tick_budget)
    for _ in range(warmup_ticks):
        scheduler.clock.advance_by(poll_interval)
        fleet.poll_all()
    accountant.records.clear()
    for _ in range(ticks):
        scheduler.clock.advance_by(poll_interval)
        fleet.poll_all()
    return list(accountant.records)


def _point(size: int, records: list[TickRecord], budget: float | None) -> SaturationPoint:
    busy = [record.busy_seconds for record in records]
    mean = sum(busy) / len(busy)
    return SaturationPoint(
        nodes=size,
        ticks=len(records),
        busy_mean_seconds=mean,
        busy_max_seconds=max(busy),
        wall_mean_seconds=sum(r.wall_seconds for r in records) / len(records),
        delay_mean_seconds=sum(r.delay_seconds for r in records) / len(records),
        utilization=mean / budget if budget else None,
        overruns=sum(1 for value in busy if budget is not None and value > budget),
    )


def _interpolate_knee(
    points: list[SaturationPoint], budget: float
) -> float | None:
    """Fleet size where measured mean busy crosses the budget.

    Linear interpolation between the bracketing sweep sizes; ``None``
    when even the largest size stays under budget (the sweep never
    saturated) or the smallest is already over it with nothing below.
    """
    ordered = sorted(points, key=lambda point: point.nodes)
    previous = None
    for point in ordered:
        if point.busy_mean_seconds > budget:
            if previous is None:
                return None
            rise = point.busy_mean_seconds - previous.busy_mean_seconds
            if rise <= 0:
                return float(point.nodes)
            fraction = (budget - previous.busy_mean_seconds) / rise
            return previous.nodes + fraction * (point.nodes - previous.nodes)
        previous = point
    return None


def run_saturation_sweep(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    ticks: int = 6,
    budget: float | None = None,
    seed: str = "saturation",
    n_filler_packages: int = 12,
    poll_interval: float = 1800.0,
    warmup_ticks: int = 1,
) -> SaturationSweep:
    """Sweep *sizes*, fit the cost model and locate the knee."""
    sizes = tuple(sorted(set(int(size) for size in sizes)))
    if len(sizes) < 2:
        raise ValueError("a saturation sweep needs at least two fleet sizes")
    per_size: dict[int, list[TickRecord]] = {}
    for size in sizes:
        per_size[size] = probe_tick_cost(
            size, ticks=ticks, seed=seed,
            n_filler_packages=n_filler_packages,
            poll_interval=poll_interval, warmup_ticks=warmup_ticks,
        )
    all_records = [record for records in per_size.values() for record in records]
    model = fit_capacity(
        (record.polled, record.busy_seconds) for record in all_records
    )
    calibrated = budget is None
    if budget is None:
        # Aim the knee at the sweep midpoint so it is measurable on any
        # hardware: budget = projected busy cost at the midpoint size.
        midpoint = (sizes[0] + sizes[-1]) / 2.0
        budget = model.tick_cost(midpoint)
    points = [
        _point(size, records, budget) for size, records in per_size.items()
    ]
    return SaturationSweep(
        sizes=sizes,
        ticks_per_size=ticks,
        budget=budget,
        budget_calibrated=calibrated,
        points=points,
        model=model,
        knee_nodes=_interpolate_knee(points, budget),
        predicted_max_nodes=model.max_nodes(budget),
        records=all_records,
    )


def render_sweep(sweep: SaturationSweep) -> str:
    """Console table + knee summary for one sweep."""
    lines = [
        (
            f"== saturation sweep (sizes={list(sweep.sizes)}, "
            f"{sweep.ticks_per_size} ticks/size, "
            f"budget={sweep.budget * 1000:.3f}ms"
            f"{' calibrated' if sweep.budget_calibrated else ''}) =="
        ),
        "  nodes  busy_mean   busy_max   util    overruns",
    ]
    for point in sorted(sweep.points, key=lambda p: p.nodes):
        util = (
            f"{point.utilization:6.1%}" if point.utilization is not None
            else "    --"
        )
        lines.append(
            f"  {point.nodes:5d}  {point.busy_mean_seconds * 1000:8.3f}ms"
            f"  {point.busy_max_seconds * 1000:8.3f}ms  {util}"
            f"  {point.overruns:4d}/{point.ticks}"
        )
    knee = (
        f"{sweep.knee_nodes:.1f} nodes" if sweep.knee_nodes is not None
        else "not reached in sweep"
    )
    lines.append(f"  measured knee: {knee}")
    lines.append(
        f"  planner prediction: {sweep.predicted_max_nodes:.1f} nodes "
        f"(fit r2={sweep.model.r_squared:.3f})"
    )
    error = sweep.prediction_error
    if error is not None:
        lines.append(f"  prediction error vs measured knee: {error:.1%}")
    return "\n".join(lines)

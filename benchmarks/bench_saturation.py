"""Acceptance bench: saturation knee vs the capacity planner.

Two claims from the saturation-observability issue are checked here.

**Prediction.** The planner's whole value is answering "how many nodes
before my verifier can't keep its poll interval" *before* the fleet gets
there.  The bench sweeps fleet sizes with
:func:`repro.experiments.saturation.run_saturation_sweep`, measures
the knee (the interpolated size whose mean busy time crosses the tick
budget) and asserts the model's ``max_nodes(budget)`` lands within
±20% of it.  The budget is auto-calibrated to the sweep midpoint so the
knee is real measured data on any hardware, not a hard-coded constant
that only saturates one machine.

**Overhead.** Tick accounting rides inside every shard's batch; it
must not meaningfully tax the loop it measures.  The accountant times
its own ``observe_tick`` bodies (``self_wall_seconds``), so the cost is
measured directly in-loop -- same reasoning as the TSDB bench: on a
shared CI box the difference of two separately-timed multi-second loops
drifts by more than the quantity under test.  Acceptance: ≤1% of the
50-node attestation loop.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the sweep and the loop and skips both assertions -- a
3-point, 2-tick sweep has too few samples for the fit bound to be
meaningful.
"""

from __future__ import annotations

from time import perf_counter

from common import bench_mode, pick
from repro.experiments.saturation import (
    build_probe_fleet,
    render_sweep,
    run_saturation_sweep,
)
from repro.obs.perf import BenchMetric, register_bench

MODE = bench_mode()
POLL_INTERVAL = 1800.0

#: Planner prediction must land within ±20% of the measured knee.
MAX_PREDICTION_ERROR = 0.20

#: Accounting self-cost over the bare attestation loop.
MAX_ACCOUNTING_OVERHEAD = 0.01


def _sweep_params(mode: str) -> tuple[tuple[int, ...], int]:
    """(sweep sizes, measured ticks/size) for the knee fit."""
    return pick(mode, ((3, 6, 10), 2), ((4, 8, 16, 28), 6))


def _loop_params(mode: str) -> tuple[int, int]:
    """(fleet size, ticks) for the accounting-overhead loop."""
    return pick(mode, (6, 4), (50, 24))


def _accounting_overhead(
    loop_size: int, loop_ticks: int, seed: str
) -> tuple[float, float, float]:
    """(overhead ratio, loop ms/tick, accounting ms/tick).

    The loop runs with accounting fully live (budget set, so the
    overrun/saturation path executes too) and divides the accountant's
    own measured wall time by the rest of the same loop.
    """
    fleet, scheduler = build_probe_fleet(
        loop_size, seed=f"{seed}-overhead", n_filler_packages=20,
    )
    accountant = fleet.accounting
    accountant.configure(interval=POLL_INTERVAL, budget=POLL_INTERVAL)
    fleet.poll_all()  # prime: first poll replays the whole log
    accountant.self_wall_seconds = 0.0
    start = perf_counter()
    for _ in range(loop_ticks):
        scheduler.clock.advance_by(POLL_INTERVAL)
        results = fleet.poll_all()
    elapsed = perf_counter() - start
    assert all(result.ok for result in results.values())
    self_s = accountant.self_wall_seconds
    bare = elapsed - self_s
    return (
        self_s / bare, bare / loop_ticks * 1e3, self_s / loop_ticks * 1e3
    )


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: sweep the knee and price the accounting layer.

    ``knee_nodes`` / ``prediction_error`` are absent in smoke mode (a
    2-tick sweep rarely crosses its budget), which the record schema
    allows -- absent metrics simply are not scored.
    """
    sweep_sizes, sweep_ticks = _sweep_params(mode)
    loop_size, loop_ticks = _loop_params(mode)
    sweep = run_saturation_sweep(
        sizes=sweep_sizes, ticks=sweep_ticks, seed=seed,
        poll_interval=POLL_INTERVAL,
    )
    overhead, loop_ms, accounting_ms = _accounting_overhead(
        loop_size, loop_ticks, seed
    )
    values: dict[str, float] = {
        "per_node_ms": sweep.model.per_node_seconds * 1e3,
        "loop_ms_per_tick": loop_ms,
        "accounting_ms_per_tick": accounting_ms,
        "accounting_overhead": overhead,
        "predicted_max_nodes": sweep.predicted_max_nodes,
    }
    if sweep.knee_nodes is not None:
        values["knee_nodes"] = sweep.knee_nodes
    if sweep.prediction_error is not None:
        values["prediction_error"] = sweep.prediction_error
    return values


register_bench(
    "saturation",
    [
        BenchMetric("per_node_ms", "ms", "lower",
                    "fitted per-node busy cost from the sweep"),
        BenchMetric("loop_ms_per_tick", "ms", "lower",
                    "accounted attestation loop cost per tick"),
        BenchMetric("accounting_ms_per_tick", "ms", "lower",
                    "tick-accounting self cost per tick"),
        BenchMetric("accounting_overhead", "ratio", "lower",
                    "accounting self cost over the bare loop"),
        BenchMetric("predicted_max_nodes", "nodes", "higher",
                    "planner max_nodes at the calibrated budget"),
        BenchMetric("knee_nodes", "nodes", "higher",
                    "measured saturation knee (full mode only)"),
        BenchMetric("prediction_error", "ratio", "lower",
                    "planner error vs the measured knee (full mode only)"),
    ],
    run_bench,
    seed="saturation-bench",
    description="Saturation knee vs capacity planner + accounting cost",
)


def test_saturation_knee_and_accounting_overhead(benchmark, emit):
    sweep_sizes, sweep_ticks = _sweep_params(MODE)
    loop_size, loop_ticks = _loop_params(MODE)
    smoke = MODE == "smoke"
    sweep = run_saturation_sweep(
        sizes=sweep_sizes, ticks=sweep_ticks, seed="saturation-bench",
        poll_interval=POLL_INTERVAL,
    )
    overhead, loop_ms, accounting_ms = _accounting_overhead(
        loop_size, loop_ticks, "saturation"
    )

    # One extra probe at the largest sweep size so the pytest-benchmark
    # JSON carries a real wall number for an accounted batch tick.
    from repro.experiments.saturation import probe_tick_cost

    benchmark.pedantic(
        lambda: probe_tick_cost(
            sweep_sizes[-1], ticks=1, seed="saturation-bench",
            poll_interval=POLL_INTERVAL,
        ),
        rounds=1, iterations=1,
    )

    emit()
    emit(render_sweep(sweep))
    emit()
    emit(f"accounting overhead ({loop_size} nodes, {loop_ticks} ticks"
         f"{', smoke' if smoke else ''})")
    emit(f"  attestation loop: {loop_ms:8.2f} ms/tick")
    emit(f"  + tick accounting: {accounting_ms:8.3f} ms/tick "
         f"({overhead:+.3%})")
    emit(f"  acceptance: prediction within ±{MAX_PREDICTION_ERROR:.0%} "
         f"of knee, accounting ≤{MAX_ACCOUNTING_OVERHEAD:.0%} of loop"
         f"{' (not asserted in smoke)' if smoke else ''}")

    benchmark.extra_info["saturation"] = {
        "smoke": smoke,
        "sweep_sizes": list(sweep.sizes),
        "budget_seconds": round(sweep.budget, 6),
        "knee_nodes": (
            round(sweep.knee_nodes, 2) if sweep.knee_nodes is not None
            else None
        ),
        "predicted_max_nodes": round(sweep.predicted_max_nodes, 2),
        "prediction_error": (
            round(sweep.prediction_error, 4)
            if sweep.prediction_error is not None else None
        ),
        "fit_r_squared": round(sweep.model.r_squared, 4),
        "per_node_ms": round(sweep.model.per_node_seconds * 1e3, 4),
        "loop_ms_per_tick": round(loop_ms, 3),
        "accounting_ms_per_tick": round(accounting_ms, 4),
        "accounting_overhead": round(overhead, 5),
    }

    if not smoke:
        assert sweep.knee_nodes is not None, (
            "calibrated sweep never crossed its budget; "
            f"points={[(p.nodes, p.busy_mean_seconds) for p in sweep.points]}"
        )
        error = sweep.prediction_error
        assert error is not None and error <= MAX_PREDICTION_ERROR, (
            f"planner predicted {sweep.predicted_max_nodes:.1f} nodes vs "
            f"measured knee {sweep.knee_nodes:.1f} "
            f"({error:.1%} > {MAX_PREDICTION_ERROR:.0%})"
        )
        assert overhead <= MAX_ACCOUNTING_OVERHEAD, (
            f"tick accounting overhead {overhead:.3%} exceeds "
            f"{MAX_ACCOUNTING_OVERHEAD:.0%} ceiling"
        )

"""Acceptance bench: the cost of tick accounting.

Tick accounting rides inside every shard's batch; it must not
meaningfully tax the loop it measures.  The accountant times every
accounting write: its own ``observe_tick`` bodies and its share of the
once-per-tick ``publish_fleet_load`` (``self_wall_seconds``), so the
cost is measured directly in-loop -- same reasoning as the TSDB bench:
on a shared CI box the difference of two separately-timed multi-second
loops drifts by more than the quantity under test.  Acceptance: ≤1% of
the 50-node attestation loop.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the loop and skips the assertion.
"""

from __future__ import annotations

from time import perf_counter

from common import BenchMetric, bench_mode, pick, register_bench
from repro.keylime.fleet import build_fleet

MODE = bench_mode()
POLL_INTERVAL = 1800.0

#: Accounting self-cost over the bare attestation loop.
MAX_ACCOUNTING_OVERHEAD = 0.01


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
    fleet = build_fleet(
        f"{seed}-overhead-{loop_size}", loop_size, fillers=20,
        mean_exec_files=5, manufacturer="Probe",
    )
    accountant = fleet.accounting
    accountant.configure(interval=POLL_INTERVAL)
    fleet.poll_all()  # prime: first poll replays the whole log
    accountant.self_wall_seconds = 0.0
    start = perf_counter()
    for _ in range(loop_ticks):
        fleet.scheduler.clock.advance_by(POLL_INTERVAL)
        results = fleet.poll_all()
    elapsed = perf_counter() - start
    assert all(result.ok for result in results.values())
    self_s = accountant.self_wall_seconds
    bare = elapsed - self_s
    return (
        self_s / bare, bare / loop_ticks * 1e3, self_s / loop_ticks * 1e3
    )


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: price the accounting layer."""
    overhead, loop_ms, accounting_ms = _accounting_overhead(
        *_loop_params(mode), seed
    )
    return {
        "loop_ms_per_tick": loop_ms,
        "accounting_ms_per_tick": accounting_ms,
        "accounting_overhead": overhead,
    }


register_bench(
    "saturation",
    [
        BenchMetric("loop_ms_per_tick", "ms", "lower",
                    "accounted attestation loop cost per tick"),
        BenchMetric("accounting_ms_per_tick", "ms", "lower",
                    "tick-accounting self cost per tick"),
        BenchMetric("accounting_overhead", "ratio", "lower",
                    "accounting self cost over the bare loop"),
    ],
    run_bench,
    seed="saturation-bench",
    description="Tick-accounting cost inside the attestation loop",
)


def test_accounting_overhead(benchmark, emit):
    loop_size, loop_ticks = _loop_params(MODE)
    smoke = MODE == "smoke"
    overhead, loop_ms, accounting_ms = benchmark.pedantic(
        lambda: _accounting_overhead(loop_size, loop_ticks, "saturation"),
        rounds=1, iterations=1,
    )

    emit()
    emit(f"accounting overhead ({loop_size} nodes, {loop_ticks} ticks"
         f"{', smoke' if smoke else ''})")
    emit(f"  attestation loop: {loop_ms:8.2f} ms/tick")
    emit(f"  + tick accounting: {accounting_ms:8.3f} ms/tick "
         f"({overhead:+.3%})")
    emit(f"  acceptance: accounting ≤{MAX_ACCOUNTING_OVERHEAD:.0%} of loop"
         f"{' (not asserted in smoke)' if smoke else ''}")

    benchmark.extra_info["saturation"] = {
        "smoke": smoke,
        "loop_ms_per_tick": round(loop_ms, 3),
        "accounting_ms_per_tick": round(accounting_ms, 4),
        "accounting_overhead": round(overhead, 5),
    }

    if not smoke:
        assert overhead <= MAX_ACCOUNTING_OVERHEAD, (
            f"tick accounting overhead {overhead:.3%} exceeds "
            f"{MAX_ACCOUNTING_OVERHEAD:.0%} ceiling"
        )

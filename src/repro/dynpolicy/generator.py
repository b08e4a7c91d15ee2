"""The dynamic policy generator.

Measures package executables straight from the mirror and folds them
into the runtime policy.  Three behaviours from Section III-C:

* **Incremental append.**  Only new/changed packages are measured; the
  existing policy entries are retained so the machine stays in-policy
  during the brief update window (old binaries may still execute until
  every process restarts).  :meth:`DynamicPolicyGenerator.dedupe` runs
  after the update settles.
* **Kernel handling.**  Module paths under ``/lib/modules/<kver>/`` are
  only admitted for the *allowed kernels* -- normally just the running
  one.  A newly installed kernel is excluded until
  :meth:`prepare_for_reboot` admits it, immediately before the reboot
  that activates it (and drops the old kernel's modules).
* **SNAP scrubbing.**  Solution (a) for the SNAP false positives:
  :meth:`scrub_snap_prefixes` post-processes the policy, duplicating
  every ``/snap/<name>/<rev>/...`` entry under its confinement-relative
  (truncated) path so the measured entries match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.distro.mirror import LocalMirror
from repro.distro.package import (
    Package,
    is_kernel_package,
    kernel_version_of,
)
from repro.dynpolicy.costmodel import GeneratorCostModel
from repro.keylime.policy import RuntimePolicy
from repro.obs import runtime as obs

_MODULE_PATH = re.compile(r"^/lib/modules/([^/]+)/")
_SNAP_PATH = re.compile(r"^/snap/[^/]+/[^/]+(/.*)$")


@dataclass(frozen=True)
class PolicyUpdateReport:
    """One generator run -- the row unit of Figs 3-5 and Table I.

    Attributes:
        time: when the run started (simulated seconds).
        duration_seconds: modelled generator runtime (Fig 3).
        packages_high: new/changed packages with executables, high
            priority (Fig 4 / Table I).
        packages_low: same, low priority.
        entries_added: policy lines appended (Fig 5).
        bytes_added: policy size growth (Section III-D's 0.16 MB).
        policy_lines_after: total policy size after the update.
        kernels_deferred: kernel versions seen but not yet admitted.
    """

    time: float
    duration_seconds: float
    packages_high: int
    packages_low: int
    entries_added: int
    bytes_added: int
    policy_lines_after: int
    kernels_deferred: tuple[str, ...] = field(default_factory=tuple)

    @property
    def packages_total(self) -> int:
        """Packages with executables in this update."""
        return self.packages_high + self.packages_low


class DynamicPolicyGenerator:
    """Measures mirror packages into runtime policies."""

    def __init__(
        self,
        mirror: LocalMirror,
        cost_model: GeneratorCostModel | None = None,
        events: EventLog | None = None,
        rng: SeededRng | None = None,
    ) -> None:
        self.mirror = mirror
        self.cost_model = cost_model if cost_model is not None else GeneratorCostModel(
            rng=rng.fork("cost") if rng is not None else None
        )
        self.events = events if events is not None else EventLog()

    # -- measurement core ---------------------------------------------------

    def measure_packages(
        self, packages: list[Package], allowed_kernels: set[str]
    ) -> tuple[dict[str, str], set[str]]:
        """path -> sha256 for the executables of *packages*.

        Kernel-module paths for kernels outside *allowed_kernels* are
        skipped; the versions seen-but-skipped are returned so the
        orchestrator knows a pre-reboot policy refresh is pending.
        """
        measurements: dict[str, str] = {}
        deferred: set[str] = set()
        for package in packages:
            for pf in package.executables:
                match = _MODULE_PATH.match(pf.path)
                if match and match.group(1) not in allowed_kernels:
                    deferred.add(match.group(1))
                    continue
                if pf.path.startswith("/boot/"):
                    kver = kernel_version_of(package)
                    if kver is not None and kver not in allowed_kernels:
                        deferred.add(kver)
                        continue
                measurements[pf.path] = package.sha256_of(pf.path)
        return measurements, deferred

    def generate_full(
        self,
        excludes: list[str],
        allowed_kernels: set[str],
        name: str = "dynamic-policy",
    ) -> tuple[RuntimePolicy, PolicyUpdateReport]:
        """Build the initial policy from the whole mirror (day-0 run)."""
        with obs.get().tracer.span("dynpolicy.generate", mode="full") as span:
            packages = self.mirror.packages()
            policy = RuntimePolicy(excludes=excludes, name=name)
            measurements, deferred = self.measure_packages(packages, allowed_kernels)
            added = policy.merge_measurements(measurements)
            report = self._report(
                packages, added, policy, deferred,
                duration=self.cost_model.batch_seconds(packages),
            )
            span.set_attribute("packages", report.packages_total)
            span.set_attribute("entries_added", added)
        return policy, report

    def generate_update(
        self,
        policy: RuntimePolicy,
        changed_packages: list[Package],
        allowed_kernels: set[str],
    ) -> PolicyUpdateReport:
        """Append measurements for one update batch to *policy* in place."""
        with obs.get().tracer.span("dynpolicy.generate", mode="update") as span:
            measurements, deferred = self.measure_packages(
                changed_packages, allowed_kernels
            )
            size_before = policy.size_bytes()
            added = policy.merge_measurements(measurements)
            report = self._report(
                changed_packages, added, policy, deferred,
                duration=self.cost_model.batch_seconds(changed_packages),
                size_before=size_before,
            )
            span.set_attribute("packages", report.packages_total)
            span.set_attribute("entries_added", added)
        self.events.emit(
            report.time, "dynpolicy", "policy.generated",
            packages=report.packages_total, entries=added,
            duration=report.duration_seconds,
        )
        return report

    def generate_update_from_manifests(
        self,
        policy: RuntimePolicy,
        changed_packages: list[Package],
        trusted_key,
        allowed_kernels: set[str],
    ) -> PolicyUpdateReport:
        """Append one update batch using maintainer-signed manifests.

        The Section V pipeline: for each changed package, fetch its
        signed manifest from the archive (via the mirror), verify, and
        merge -- no download/decompress/hash.  Packages without a
        manifest (or with an invalid one) fall back to the operator
        hashing path, so a partially-signed archive still updates.
        *trusted_key* is the pinned
        :class:`repro.crypto.rsa.RsaPublicKey` of the manifest
        authority.
        """
        from repro.dynpolicy.signedhashes import merge_signed_manifests

        with obs.get().tracer.span("dynpolicy.generate", mode="manifests") as span:
            manifests = []
            fallback: list[Package] = []
            for package in changed_packages:
                manifest = self.mirror.archive.manifest_for(package)
                if manifest is None:
                    fallback.append(package)
                else:
                    manifests.append((package, manifest))

            size_before = policy.size_bytes()
            added, rejected = merge_signed_manifests(
                policy, [manifest for _pkg, manifest in manifests],
                trusted_key, allowed_kernels,
            )
            rejected_packages = {manifest.package for manifest in rejected}
            fallback.extend(
                package for package, manifest in manifests
                if manifest.package in rejected_packages
            )
            deferred: set[str] = set()
            if fallback:
                measurements, deferred = self.measure_packages(fallback, allowed_kernels)
                added += policy.merge_measurements(measurements)
            for package in changed_packages:
                for pf in package.executables:
                    match = _MODULE_PATH.match(pf.path)
                    if match and match.group(1) not in allowed_kernels:
                        deferred.add(match.group(1))

            duration = self.cost_model.manifest_batch_seconds(len(manifests))
            if fallback:
                duration += self.cost_model.batch_seconds(
                    fallback, include_refresh=False
                )
            report = self._report(
                changed_packages, added, policy, deferred,
                duration=duration, size_before=size_before,
            )
            span.set_attribute("packages", report.packages_total)
            span.set_attribute("fallback", len(fallback))
        self.events.emit(
            report.time, "dynpolicy", "policy.generated.manifests",
            packages=report.packages_total, entries=added,
            fallback=len(fallback), rejected=len(rejected),
        )
        return report

    def _report(
        self,
        packages: list[Package],
        added: int,
        policy: RuntimePolicy,
        deferred: set[str],
        duration: float,
        size_before: int | None = None,
    ) -> PolicyUpdateReport:
        with_exec = [pkg for pkg in packages if pkg.has_executables]
        high = sum(1 for pkg in with_exec if pkg.priority.is_high)
        size_after = policy.size_bytes()
        registry = obs.get().registry
        registry.counter("dynpolicy_runs_total", "Generator runs executed").inc()
        registry.counter(
            "dynpolicy_packages_measured_total",
            "Packages with executables measured into policies",
        ).inc(len(with_exec))
        registry.counter(
            "dynpolicy_entries_added_total", "Policy lines appended by the generator",
        ).inc(added)
        registry.histogram(
            "dynpolicy_generate_sim_seconds",
            "Modelled generator runtime per run (simulated seconds, Fig 3)",
            buckets=(1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0),
        ).observe(duration)
        registry.gauge(
            "dynpolicy_policy_lines", "Runtime policy size after the last run",
        ).set(policy.line_count())
        return PolicyUpdateReport(
            time=self.mirror.last_sync_time or 0.0,
            duration_seconds=duration,
            packages_high=high,
            packages_low=len(with_exec) - high,
            entries_added=added,
            bytes_added=size_after - (size_before if size_before is not None else 0),
            policy_lines_after=policy.line_count(),
            kernels_deferred=tuple(sorted(deferred)),
        )

    # -- kernel lifecycle -------------------------------------------------

    def prepare_for_reboot(self, policy: RuntimePolicy, new_kernel: str) -> int:
        """Admit *new_kernel* to the policy just before the reboot.

        Measures the kernel package from the mirror with the new kernel
        allowed.  Old-kernel module entries are left in place for the
        update window; post-reboot dedup can drop them.  Returns the
        number of entries added.
        """
        kernel_packages = [
            pkg for pkg in self.mirror.packages()
            if is_kernel_package(pkg) and kernel_version_of(pkg) == new_kernel
        ]
        measurements, _ = self.measure_packages(kernel_packages, {new_kernel})
        return policy.merge_measurements(measurements)

    # -- post-update cleanup --------------------------------------------------

    def dedupe(self, policy: RuntimePolicy, installed: dict[str, Package]) -> int:
        """Drop superseded digests once the update has settled.

        For every path shipped by the currently installed package set,
        keep only the installed version's digest (when two packages
        ship a path, the later one in *installed* order wins).  Only a
        contested path -- one holding more than one digest -- can lose
        a digest, so only the installed files at those paths are
        hashed.  The hashing follows the update; the pass over the
        policy's buckets and the installed file lists still grows with
        the installed system.  Returns the number of digests removed.
        """
        contested = policy.contested_paths()
        if not contested:
            return 0
        owners: dict[str, Package] = {}
        for package in installed.values():
            for pf in package.files:
                if pf.path in contested and pf.executable:
                    owners[pf.path] = package
        return policy.dedupe_for_paths(
            {path: package.sha256_of(path) for path, package in owners.items()}
        )

    # -- SNAP handling ---------------------------------------------------------

    @staticmethod
    def scrub_snap_prefixes(policy: RuntimePolicy) -> int:
        """Duplicate SNAP entries under their truncated measured paths.

        Returns the number of entries added.  (Solution (b), disabling
        SNAP, is simply not installing SNAPs -- nothing to implement.)
        """
        added = 0
        for path, digests in list(policy.digests.items()):
            match = _SNAP_PATH.match(path)
            if not match:
                continue
            truncated = match.group(1)
            for digest in digests:
                if policy.add_digest(truncated, digest):
                    added += 1
        return added

"""Synthetic release stream and benign-operations workload.

We obviously cannot replay Canonical's actual February--June 2024
archive, so this module generates a synthetic stand-in calibrated to the
statistics the paper reports for exactly that window:

* packages with executables per daily update: mean 16.5, sd 26.8
  (heavy-tailed; modelled log-normal) -- Fig 4;
* high-priority packages per daily update: mean 0.9, sd 2.2 (most days
  zero, occasional bursts; modelled as a Poisson mixture) -- Fig 4;
* policy entries added per daily update: mean ~1,271 -- Fig 5 -- which
  pins the executables-per-package distribution at mean ~77;
* a new kernel roughly every two weeks (Section III-C's kernel-module
  handling exists because of these).

The :class:`BenignWorkload` drives the prover through the paper's
"normal operations": executing system binaries, running scripts both
ways, and (optionally) running SNAP applications.  The workload is what
turns a stale policy into *fired* false positives: an updated file only
mismatches the policy once something executes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.clock import days, hours
from repro.common.rng import SeededRng
from repro.distro.archive import Release, UbuntuArchive
from repro.distro.package import (
    Package,
    PackageFile,
    Priority,
    make_kernel_package,
)
from repro.kernelsim.kernel import ExecResult, Machine

#: The kernel every provisioned machine boots unless the caller picks
#: another: the base system ships it and the initial policy allows it.
DEFAULT_KERNEL = "5.15.0-91-generic"

#: Directory mix for generated executables (weight, template).
_EXEC_DIRS = (
    (0.25, "/usr/bin/{pkg}-{i}"),
    (0.05, "/usr/sbin/{pkg}d-{i}"),
    (0.40, "/usr/lib/{pkg}/helper-{i}"),
    (0.25, "/usr/lib/x86_64-linux-gnu/lib{pkg}-{i}.so"),
    (0.05, "/usr/libexec/{pkg}/exec-{i}"),
)


def _pick_exec_path(rng: SeededRng, pkg: str, index: int) -> str:
    roll = rng.random()
    cumulative = 0.0
    for weight, template in _EXEC_DIRS:
        cumulative += weight
        if roll <= cumulative:
            return template.format(pkg=pkg, i=index)
    return _EXEC_DIRS[-1][1].format(pkg=pkg, i=index)


def _make_package(
    rng: SeededRng,
    name: str,
    version: str,
    priority: Priority,
    repository: str,
    exec_files: int,
) -> Package:
    """Build a package with *exec_files* executables plus support files."""
    files: list[PackageFile] = []
    for index in range(exec_files):
        files.append(
            PackageFile(
                path=_pick_exec_path(rng, name, index),
                executable=True,
                size=max(1024, int(rng.lognormal(math.log(60_000), 1.2))),
            )
        )
    for index in range(rng.randint(1, 6)):  # docs, configs, changelogs
        files.append(
            PackageFile(
                path=f"/usr/share/doc/{name}/file-{index}",
                executable=False,
                size=rng.randint(200, 20_000),
            )
        )
    return Package(
        name=name,
        version=version,
        priority=priority,
        files=tuple(files),
        repository=repository,
    )


def _exec_file_count(rng: SeededRng, mean: float) -> int:
    """Per-package executable count: log-normal with the given mean."""
    sigma = 0.9
    mu = math.log(mean) - sigma * sigma / 2.0
    return max(1, min(600, round(rng.lognormal(mu, sigma))))


#: Canonical packages every machine needs, with fixed well-known paths.
#: The interpreter paths are load-bearing: P5 scenarios execute
#: ``/usr/bin/python3`` and ``/bin/bash`` explicitly.
def essential_packages() -> list[Package]:
    """The hand-written core of the base system."""

    def pkg(name, version, priority, files):
        return Package(
            name=name, version=version, priority=priority,
            files=tuple(files), repository="main",
        )

    return [
        pkg("bash", "5.1-6ubuntu1", Priority.ESSENTIAL, [
            PackageFile("/bin/bash", True, 1_200_000),
            PackageFile("/usr/bin/bash", True, 1_200_000),
        ]),
        pkg("dash", "0.5.11", Priority.ESSENTIAL, [
            PackageFile("/bin/sh", True, 120_000),
        ]),
        pkg("coreutils", "8.32-4.1ubuntu1", Priority.REQUIRED, [
            PackageFile(f"/usr/bin/{tool}", True, 100_000)
            for tool in ("ls", "cat", "cp", "mv", "rm", "chmod", "mkdir", "touch", "sha256sum")
        ]),
        pkg("python3.10", "3.10.6-1~22.04", Priority.IMPORTANT, [
            PackageFile("/usr/bin/python3", True, 5_900_000),
            PackageFile("/usr/bin/python3.10", True, 5_900_000),
        ]),
        pkg("perl-base", "5.34.0-3ubuntu1", Priority.ESSENTIAL, [
            PackageFile("/usr/bin/perl", True, 2_100_000),
        ]),
        pkg("tar", "1.34+dfsg-1", Priority.REQUIRED, [
            PackageFile("/usr/bin/tar", True, 450_000),
        ]),
        pkg("gzip", "1.10-4ubuntu4", Priority.REQUIRED, [
            PackageFile("/usr/bin/gzip", True, 90_000),
        ]),
        pkg("gcc-12", "12.1.0-2ubuntu1", Priority.OPTIONAL, [
            PackageFile("/usr/bin/gcc", True, 1_000_000),
            PackageFile("/usr/bin/make", True, 240_000),
            PackageFile("/usr/bin/ld", True, 1_800_000),
        ]),
        pkg("insmod-tools", "29-1ubuntu1", Priority.IMPORTANT, [
            PackageFile("/usr/sbin/insmod", True, 80_000),
            PackageFile("/usr/sbin/rmmod", True, 80_000),
        ]),
        pkg("wget", "1.21.2-2ubuntu1", Priority.STANDARD, [
            PackageFile("/usr/bin/wget", True, 500_000),
        ]),
    ]


def build_base_system(
    rng: SeededRng,
    n_filler_packages: int = 120,
    mean_exec_files: float = 12.0,
    kernel_version: str = DEFAULT_KERNEL,
) -> list[Package]:
    """The initial installed system: essentials + filler + a kernel.

    ``n_filler_packages`` controls scale.  The paper's machine produced
    a 323,734-line initial policy (~4,200 packages at ~77 executables
    each); the default here is a scaled-down system that keeps the unit
    suite fast, and the long-run experiments pass larger values.
    """
    packages = essential_packages()
    stream_rng = rng.fork("base")
    for index in range(n_filler_packages):
        name = f"lib{_syllables(stream_rng.fork(str(index)))}{index}"
        priority = (
            Priority.STANDARD if stream_rng.bernoulli(0.06) else
            (Priority.OPTIONAL if stream_rng.bernoulli(0.85) else Priority.EXTRA)
        )
        packages.append(
            _make_package(
                stream_rng.fork(f"pkg{index}"),
                name=name,
                version="1.0.0",
                priority=priority,
                repository="main",
                exec_files=_exec_file_count(stream_rng, mean_exec_files),
            )
        )
    packages.append(make_kernel_package(kernel_version).package)
    return packages


def _syllables(rng: SeededRng) -> str:
    consonants = "bcdfghklmnprstvz"
    vowels = "aeiou"
    return "".join(
        rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 3))
    )


@dataclass
class ReleaseStreamConfig:
    """Calibration knobs for the synthetic archive releases.

    Defaults reproduce the paper's daily-update statistics; tests use
    smaller values.
    """

    mean_packages_per_day: float = 16.5
    sd_packages_per_day: float = 26.8
    high_priority_burst_probability: float = 0.10
    high_priority_burst_mean: float = 6.0
    high_priority_quiet_mean: float = 0.3
    mean_exec_files_per_package: float = 77.0
    new_package_fraction: float = 0.15
    kernel_release_every_days: int = 14
    release_hour_min: float = 6.0   # releases land between these local hours
    release_hour_max: float = 22.0
    security_fraction: float = 0.25  # fraction of updates landing in "security"


class SyntheticReleaseStream:
    """Generates and schedules archive releases day by day."""

    def __init__(
        self,
        archive: UbuntuArchive,
        base_packages: list[Package],
        rng: SeededRng,
        config: ReleaseStreamConfig | None = None,
    ) -> None:
        self.archive = archive
        self.rng = rng
        self.config = config if config is not None else ReleaseStreamConfig()
        self._population: dict[str, Package] = {
            pkg.name: pkg for pkg in base_packages
        }
        self._new_counter = 0
        self._kernel_counter = 91
        # Log-normal parameters from the target mean/sd.
        mean = self.config.mean_packages_per_day
        sd = self.config.sd_packages_per_day
        cv2 = (sd / mean) ** 2
        self._ln_sigma = math.sqrt(math.log(1 + cv2))
        self._ln_mu = math.log(mean) - self._ln_sigma**2 / 2

    def _daily_package_count(self, day_rng: SeededRng) -> int:
        return max(0, min(400, round(day_rng.lognormal(self._ln_mu, self._ln_sigma))))

    def _daily_high_priority_count(self, day_rng: SeededRng, total: int) -> int:
        cfg = self.config
        if day_rng.bernoulli(cfg.high_priority_burst_probability):
            count = day_rng.poisson(cfg.high_priority_burst_mean)
        else:
            count = day_rng.poisson(cfg.high_priority_quiet_mean)
        return min(count, total)

    def generate_day(self, day_index: int) -> Release:
        """Create (and schedule) the release for simulated day *day_index*."""
        cfg = self.config
        day_rng = self.rng.fork(f"day{day_index}")
        total = self._daily_package_count(day_rng)
        high = self._daily_high_priority_count(day_rng, total)

        packages: list[Package] = []
        updatable = sorted(self._population)
        for slot in range(total):
            repo = "security" if day_rng.bernoulli(cfg.security_fraction) else "updates"
            # The high-priority mixture is the *sole* source of
            # high-priority updates (the calibration target is the
            # per-update count the paper reports, mean 0.9/day); all
            # other slots are explicitly low priority, matching how
            # real archives skew -- essential packages update rarely.
            if slot < high:
                priority = day_rng.choice(
                    [Priority.REQUIRED, Priority.IMPORTANT, Priority.STANDARD]
                )
            else:
                priority = (
                    Priority.EXTRA if day_rng.bernoulli(0.1) else Priority.OPTIONAL
                )
            if updatable and not day_rng.bernoulli(cfg.new_package_fraction):
                name = day_rng.choice(updatable)
                base = self._population[name]
                updated = Package(
                    name=base.name,
                    version=f"{base.version.split('+')[0]}+u{day_index}.{slot}",
                    priority=priority,
                    files=base.files,
                    repository=repo,
                )
            else:
                self._new_counter += 1
                name = f"new{_syllables(day_rng.fork(f'name{slot}'))}{self._new_counter}"
                updated = _make_package(
                    day_rng.fork(f"new{slot}"),
                    name=name,
                    version=f"0.{day_index}.1",
                    priority=priority,
                    repository=repo,
                    exec_files=_exec_file_count(day_rng, cfg.mean_exec_files_per_package),
                )
            self._population[updated.name] = updated
            packages.append(updated)

        if cfg.kernel_release_every_days and day_index > 0 and (
            day_index % cfg.kernel_release_every_days == 0
        ):
            self._kernel_counter += 1
            kernel = make_kernel_package(f"5.15.0-{self._kernel_counter}-generic")
            self._population[kernel.package.name] = kernel.package
            packages.append(kernel.package)

        hour = day_rng.uniform(cfg.release_hour_min, cfg.release_hour_max)
        release = Release(
            time=days(day_index) + hours(hour),
            packages=tuple(packages),
            label=f"daily-{day_index}",
        )
        self.archive.schedule_release(release)
        return release

    def generate_days(self, start_day: int, n_days: int) -> list[Release]:
        """Generate consecutive daily releases."""
        return [self.generate_day(start_day + offset) for offset in range(n_days)]


class BenignWorkload:
    """The paper's "normal operations only" workload.

    Executes a rotating sample of the machine's installed executables,
    runs scripts both by shebang and through the interpreter, and pokes
    SNAP applications when present.  Nothing here is malicious; any
    attestation failure while only this workload runs is a false
    positive by definition.
    """

    def __init__(self, machine: Machine, rng: SeededRng) -> None:
        self.machine = machine
        self.rng = rng
        self._snaps: list = []

    def register_snap(self, snap) -> None:
        """Include an installed SNAP in the daily rotation."""
        self._snaps.append(snap)

    def _executables(self) -> list[str]:
        vfs = self.machine.vfs
        return vfs.executables("/bin") + vfs.executables("/usr")

    def run_session(self, n_execs: int = 25) -> list[ExecResult]:
        """One interactive session: execute a sample of system binaries."""
        candidates = self._executables()
        if not candidates:
            return []
        count = min(n_execs, len(candidates))
        results = []
        for path in self.rng.sample(candidates, count):
            results.append(self.machine.exec_file(path))
        return results

    def exec_updated_files(self, report, limit: int = 200) -> list[ExecResult]:
        """Execute the executables an update just replaced.

        This models daemons restarting and users running refreshed
        tools -- the step that actually surfaces stale-policy
        mismatches as alerts.
        """
        results = []
        executed = 0
        for package in report.packages:
            for pf in package.executables:
                results.append(self.machine.exec_file(pf.path))
                executed += 1
                if executed >= limit:
                    return results
        return results

    def run_scripts(self) -> list[ExecResult]:
        """Run a maintenance script both ways (shebang and interpreter)."""
        script = "/usr/local/bin/maintenance.py"
        if not self.machine.vfs.exists(script):
            self.machine.install_file(
                script, b"#!/usr/bin/python3\nprint('rotate logs')\n", executable=True
            )
        results = [
            self.machine.exec_shebang_script(script, "/usr/bin/python3"),
            self.machine.run_with_interpreter("/usr/bin/python3", script),
        ]
        return results

    def run_snaps(self) -> list[ExecResult]:
        """Execute each registered SNAP's first binary under confinement."""
        results = []
        for snap in self._snaps:
            results.append(snap.run(self.machine, snap.binaries[0]))
        return results

    def daily(self, n_execs: int = 25) -> list[ExecResult]:
        """One day of benign activity."""
        results = self.run_session(n_execs=n_execs)
        results.extend(self.run_scripts())
        results.extend(self.run_snaps())
        return results

"""Tests for the synthetic release stream and benign workload."""

import pytest

from repro.common.clock import days
from repro.common.rng import SeededRng
from repro.distro.archive import UbuntuArchive
from repro.distro.package import is_kernel_package
from repro.distro.workload import (
    BenignWorkload,
    ReleaseStreamConfig,
    SyntheticReleaseStream,
    build_base_system,
    essential_packages,
)
from repro.kernelsim.vfs import FilesystemType


class TestBaseSystem:
    def test_essentials_include_interpreters(self):
        paths = {
            pf.path
            for pkg in essential_packages()
            for pf in pkg.files
        }
        assert "/usr/bin/python3" in paths
        assert "/bin/bash" in paths
        assert "/bin/sh" in paths

    def test_base_system_size_scales(self):
        rng = SeededRng(0)
        small = build_base_system(rng.fork("a"), n_filler_packages=10)
        large = build_base_system(rng.fork("b"), n_filler_packages=50)
        assert len(large) > len(small)

    def test_base_system_includes_kernel(self):
        base = build_base_system(SeededRng(0), n_filler_packages=5)
        assert any(is_kernel_package(pkg) for pkg in base)

    def test_base_system_deterministic(self):
        a = build_base_system(SeededRng(1), n_filler_packages=10)
        b = build_base_system(SeededRng(1), n_filler_packages=10)
        assert [pkg.key for pkg in a] == [pkg.key for pkg in b]

    def test_unique_package_names(self):
        base = build_base_system(SeededRng(0), n_filler_packages=50)
        names = [pkg.name for pkg in base]
        assert len(names) == len(set(names))


class TestReleaseStream:
    def _stream(self, config: ReleaseStreamConfig | None = None):
        archive = UbuntuArchive()
        base = build_base_system(SeededRng("base"), n_filler_packages=20)
        archive.seed(base)
        return archive, SyntheticReleaseStream(
            archive, base, SeededRng("stream"),
            config or ReleaseStreamConfig(
                mean_packages_per_day=5.0, sd_packages_per_day=5.0,
                mean_exec_files_per_package=6.0,
            ),
        )

    def test_release_scheduled_on_archive(self):
        archive, stream = self._stream()
        release = stream.generate_day(1)
        assert archive.releases_between(0.0, days(2)) == [release]

    def test_release_time_within_day(self):
        _, stream = self._stream()
        release = stream.generate_day(3)
        assert days(3) <= release.time < days(4)

    def test_deterministic(self):
        _, a = self._stream()
        _, b = self._stream()
        ra = a.generate_day(1)
        rb = b.generate_day(1)
        assert [p.key for p in ra.packages] == [p.key for p in rb.packages]

    def test_kernel_release_cadence(self):
        config = ReleaseStreamConfig(
            mean_packages_per_day=2.0, sd_packages_per_day=2.0,
            mean_exec_files_per_package=4.0, kernel_release_every_days=3,
        )
        _, stream = self._stream(config)
        releases = stream.generate_days(1, 6)
        kernel_days = [
            index + 1 for index, release in enumerate(releases)
            if any(is_kernel_package(pkg) for pkg in release.packages)
        ]
        assert kernel_days == [3, 6]

    def test_kernel_release_disabled(self):
        config = ReleaseStreamConfig(
            mean_packages_per_day=2.0, sd_packages_per_day=2.0,
            mean_exec_files_per_package=4.0, kernel_release_every_days=0,
        )
        _, stream = self._stream(config)
        releases = stream.generate_days(1, 6)
        assert not any(
            is_kernel_package(pkg) for release in releases for pkg in release.packages
        )

    def test_calibration_approaches_paper_stats(self):
        """With paper defaults, the long-run means land near Fig 4's."""
        archive = UbuntuArchive()
        base = build_base_system(SeededRng("cal"), n_filler_packages=60)
        archive.seed(base)
        stream = SyntheticReleaseStream(
            archive, base, SeededRng("cal-stream"), ReleaseStreamConfig()
        )
        releases = stream.generate_days(1, 200)
        counts = [len(release.packages_with_executables) for release in releases]
        mean = sum(counts) / len(counts)
        assert 10 < mean < 25  # paper: 16.5

    def test_updated_packages_change_version(self):
        _, stream = self._stream()
        release = stream.generate_day(1)
        for package in release.packages:
            if not package.name.startswith("new") and not is_kernel_package(package):
                assert "+u1." in package.version


class TestBenignWorkload:
    def test_daily_runs_clean_on_fresh_machine(self, small_testbed):
        results = small_testbed.workload.daily(5)
        assert results
        poll = small_testbed.poll()
        assert poll.ok

    def test_sample_population_is_every_executable(self, small_testbed):
        """Past 50,000 executables the later paths still get sampled."""
        workload = small_testbed.workload
        before = workload._executables()
        extra = [f"/usr/lib/x86_64-linux-gnu/extra/tool{i:05d}" for i in range(50_000)]
        for path in extra:
            small_testbed.machine.install_file(path, b"\x7fELF", executable=True)
        candidates = workload._executables()
        assert len(candidates) == len(before) + len(extra)
        assert sorted(candidates) == sorted(before + extra)

    def test_sample_is_drawn_from_the_walk_order(self, small_testbed):
        """The population is the walk's executables, element for element,
        so the seeded sample draws the same paths."""
        machine, workload = small_testbed.machine, small_testbed.workload
        vfs = machine.vfs

        def walked() -> list[str]:
            return [
                stat.path
                for prefix in ("/bin", "/usr")
                for stat in vfs.walk(prefix)
                if stat.executable
            ]

        cleared = walked()[0]
        vfs.chmod(cleared, False)
        machine.install_file("/usr/x/hidden", b"\x7fELF", executable=True)
        vfs.mount("/usr/x", FilesystemType.TMPFS)
        machine.install_file("/usr/x/tool", b"\x7fELF", executable=True)
        # Walked before the /usr/x mount's entries, though it sorts after.
        machine.install_file("/usr/y/tool", b"\x7fELF", executable=True)

        oracle = walked()
        assert cleared not in oracle and "/usr/x/hidden" not in oracle
        assert oracle[-2:] == ["/usr/y/tool", "/usr/x/tool"]
        assert workload._executables() == oracle

        probe = SeededRng()
        probe.setstate(workload.rng.getstate())
        expected = probe.sample(oracle, 5)
        assert [result.path for result in workload.run_session(5)] == expected

    def test_run_session_executes_existing_binaries(self, small_testbed):
        results = small_testbed.workload.run_session(3)
        assert len(results) == 3

    def test_scripts_run_both_ways(self, small_testbed):
        results = small_testbed.workload.run_scripts()
        assert len(results) == 2

    def test_exec_updated_files(self, small_testbed):
        testbed = small_testbed
        testbed.stream.generate_day(1)
        testbed.archive.apply_releases_until(days(2))
        report = testbed.apt.upgrade_from(testbed.archive.latest_index())
        results = testbed.workload.exec_updated_files(report)
        assert len(results) == sum(len(p.executables) for p in report.packages)

"""Tests for the dynamic policy generator, cost model, orchestrator."""

import pytest

from repro.common.clock import days, hours
from repro.common.rng import SeededRng
from repro.distro.archive import Release, UbuntuArchive
from repro.distro.mirror import LocalMirror
from repro.distro.package import (
    Package,
    PackageFile,
    Priority,
    make_kernel_package,
)
from repro.dynpolicy.costmodel import CostModelConfig, GeneratorCostModel
from repro.dynpolicy.generator import DynamicPolicyGenerator
from repro.keylime.policy import IBM_STYLE_EXCLUDES, RuntimePolicy


def _pkg(name: str, version: str, priority=Priority.OPTIONAL, repo="main") -> Package:
    return Package(
        name=name, version=version, priority=priority,
        files=(
            PackageFile(f"/usr/bin/{name}", True, 10_000),
            PackageFile(f"/usr/share/doc/{name}", False, 1_000),
        ),
        repository=repo,
    )


@pytest.fixture()
def world():
    archive = UbuntuArchive()
    archive.seed([_pkg("a", "1.0"), _pkg("b", "1.0", priority=Priority.REQUIRED)])
    mirror = LocalMirror(archive)
    mirror.sync(0.0)
    generator = DynamicPolicyGenerator(mirror)
    return archive, mirror, generator


class TestCostModel:
    def test_deterministic_without_rng(self):
        model = GeneratorCostModel()
        package = _pkg("a", "1.0")
        assert model.package_seconds(package) == model.package_seconds(package)

    def test_batch_includes_refresh(self):
        model = GeneratorCostModel()
        assert model.batch_seconds([]) == model.config.mirror_refresh_seconds
        assert model.batch_seconds([], include_refresh=False) == 0.0

    def test_more_packages_cost_more(self):
        model = GeneratorCostModel()
        one = model.batch_seconds([_pkg("a", "1")])
        two = model.batch_seconds([_pkg("a", "1"), _pkg("b", "1")])
        assert two > one

    def test_bigger_payload_costs_more(self):
        model = GeneratorCostModel()
        small = Package(
            name="s", version="1", priority=Priority.OPTIONAL,
            files=(PackageFile("/usr/bin/s", True, 1_000),),
        )
        big = Package(
            name="b", version="1", priority=Priority.OPTIONAL,
            files=(PackageFile("/usr/bin/b", True, 100_000_000),),
        )
        assert model.package_seconds(big) > model.package_seconds(small)

    def test_jitter_applied_with_rng(self):
        model = GeneratorCostModel(rng=SeededRng("jitter"))
        base = GeneratorCostModel()
        package = _pkg("a", "1")
        jittered = {model.batch_seconds([package]) for _ in range(5)}
        assert len(jittered) > 1  # varies run to run
        assert all(value > 0 for value in jittered)

    def test_config_override(self):
        config = CostModelConfig(mirror_refresh_seconds=0.0, jitter_sigma=0.0)
        model = GeneratorCostModel(config)
        assert model.batch_seconds([]) == 0.0


class TestGenerator:
    def test_full_generation_covers_mirror_executables(self, world):
        _, mirror, generator = world
        policy, report = generator.generate_full(
            list(IBM_STYLE_EXCLUDES), {"5.15.0-91-generic"}
        )
        assert policy.covers_path("/usr/bin/a")
        assert policy.covers_path("/usr/bin/b")
        assert not policy.covers_path("/usr/share/doc/a")
        assert report.packages_total == 2
        assert report.packages_high == 1

    def test_update_appends_only_changed(self, world):
        archive, mirror, generator = world
        policy, _ = generator.generate_full(list(IBM_STYLE_EXCLUDES), set())
        lines_before = policy.line_count()
        archive.schedule_release(Release(time=10.0, packages=(_pkg("a", "2.0", repo="updates"),)))
        sync = mirror.sync(20.0)
        report = generator.generate_update(
            policy, list(sync.changed_packages), set()
        )
        assert report.entries_added == 1
        assert policy.line_count() == lines_before + 1
        # Both versions acceptable during the update window.
        assert len(policy.digests_for("/usr/bin/a")) == 2

    def test_update_report_counts_priorities(self, world):
        archive, mirror, generator = world
        policy = RuntimePolicy()
        batch = [
            _pkg("x", "1", priority=Priority.IMPORTANT),
            _pkg("y", "1", priority=Priority.OPTIONAL),
            _pkg("z", "1", priority=Priority.EXTRA),
        ]
        report = generator.generate_update(policy, batch, set())
        assert report.packages_high == 1
        assert report.packages_low == 2

    def test_kernel_modules_deferred(self, world):
        _, mirror, generator = world
        kernel = make_kernel_package("6.0.0-new", module_count=3)
        policy = RuntimePolicy()
        report = generator.generate_update(
            policy, [kernel.package], allowed_kernels={"5.15.0-old"}
        )
        assert report.kernels_deferred == ("6.0.0-new",)
        assert not any(
            path.startswith("/lib/modules/6.0.0-new") for path in policy.digests
        )

    def test_current_kernel_modules_admitted(self, world):
        _, mirror, generator = world
        kernel = make_kernel_package("5.15.0-old", module_count=3)
        policy = RuntimePolicy()
        report = generator.generate_update(
            policy, [kernel.package], allowed_kernels={"5.15.0-old"}
        )
        assert report.kernels_deferred == ()
        assert any(
            path.startswith("/lib/modules/5.15.0-old") for path in policy.digests
        )

    def test_prepare_for_reboot_admits_new_kernel(self, world):
        archive, mirror, generator = world
        kernel = make_kernel_package("6.0.0-new", module_count=3)
        archive.schedule_release(Release(time=10.0, packages=(kernel.package,)))
        mirror.sync(20.0)
        policy = RuntimePolicy()
        added = generator.prepare_for_reboot(policy, "6.0.0-new")
        assert added > 0
        assert any(
            path.startswith("/lib/modules/6.0.0-new") for path in policy.digests
        )

    def test_dedupe_removes_superseded(self, world):
        archive, mirror, generator = world
        policy, _ = generator.generate_full(list(IBM_STYLE_EXCLUDES), set())
        new_a = _pkg("a", "2.0", repo="updates")
        archive.schedule_release(Release(time=10.0, packages=(new_a,)))
        sync = mirror.sync(20.0)
        generator.generate_update(policy, list(sync.changed_packages), set())
        removed = generator.dedupe(policy, {"a": new_a})
        assert removed == 1
        assert policy.digests_for("/usr/bin/a") == (new_a.sha256_of("/usr/bin/a"),)

    def test_dedupe_matches_hashing_every_installed_executable(self):
        """Deduping only the contested paths gives exactly what keeping
        every installed executable's digest gives: the same digests in
        the same order, the same count removed, the same generation."""

        def shipping(name, version, *paths):
            return Package(
                name=name, version=version, priority=Priority.OPTIONAL,
                files=tuple(PackageFile(path, True) for path in paths),
            )

        def full_keep_dedupe(policy, installed):
            keep = {}
            for package in installed.values():
                for pf in package.executables:
                    keep[pf.path] = package.sha256_of(pf.path)
            return policy.dedupe_for_paths(keep)

        history = [
            shipping("a", "1", "/usr/bin/a", "/usr/lib/liba.so"),
            shipping("b", "1", "/usr/bin/b"),
            # c and d both ship /usr/bin/shared; d is later in installed order.
            shipping("c", "1", "/usr/bin/c", "/usr/bin/shared"),
            shipping("d", "1", "/usr/bin/d", "/usr/bin/shared"),
            shipping("e", "1", "/usr/bin/e"),
            shipping("gone", "1", "/usr/bin/gone"),
            shipping("a", "2", "/usr/bin/a", "/usr/lib/liba.so"),
            shipping("c", "2", "/usr/bin/c", "/usr/bin/shared"),
            shipping("e", "2", "/usr/bin/e"),
            shipping("gone", "2", "/usr/bin/gone"),
        ]
        installed = {
            "a": history[6],
            "b": history[1],
            "c": history[7],
            "d": history[3],
            # e=3 was never measured: /usr/bin/e must stay contested.
            "e": shipping("e", "3", "/usr/bin/e"),
        }

        def build():
            policy = RuntimePolicy()
            for package in history:
                policy.merge_measurements(package.measurements())
            return policy

        expected, actual = build(), build()
        removed = full_keep_dedupe(expected, installed)
        assert DynamicPolicyGenerator(mirror=None).dedupe(actual, installed) == removed
        assert list(actual.digests.items()) == list(expected.digests.items())
        assert actual.generation == expected.generation
        assert (actual.line_count(), actual.size_bytes()) == (
            expected.line_count(), expected.size_bytes()
        )
        assert removed == 5  # a, liba.so, c, shared (2 of 3); not e, not gone
        assert actual.digests_for("/usr/bin/shared") == (
            history[3].sha256_of("/usr/bin/shared"),
        )
        assert actual.contested_paths() == {"/usr/bin/e", "/usr/bin/gone"}
        # Nothing left to settle: a second pass removes nothing.
        generation = actual.generation
        assert DynamicPolicyGenerator(mirror=None).dedupe(actual, installed) == 0
        assert actual.generation == generation

    def test_scrub_snap_prefixes(self):
        policy = RuntimePolicy()
        digest = "ab" * 32
        policy.add_digest("/snap/core20/1974/usr/bin/tool", digest)
        added = DynamicPolicyGenerator.scrub_snap_prefixes(policy)
        assert added == 1
        assert policy.digests_for("/usr/bin/tool") == (digest,)

    def test_scrub_ignores_non_snap_paths(self):
        policy = RuntimePolicy()
        policy.add_digest("/usr/bin/tool", "ab" * 32)
        assert DynamicPolicyGenerator.scrub_snap_prefixes(policy) == 0


class TestOrchestrator:
    def test_cycle_keeps_machine_in_policy(self, small_testbed):
        testbed = small_testbed
        testbed.stream.generate_day(1)
        testbed.scheduler.clock.advance_to(days(2))
        testbed.orchestrator.run_cycle()
        testbed.workload.daily(5)
        assert testbed.poll().ok

    def test_policy_pushed_before_upgrade(self, small_testbed):
        """The ordering invariant: generate+push precedes apt."""
        testbed = small_testbed
        testbed.stream.generate_day(1)
        testbed.scheduler.clock.advance_to(days(2))
        order = []
        original_push = testbed.tenant.push_policy
        original_upgrade = testbed.apt.upgrade_from

        def spy_push(agent_id, policy):
            order.append("push")
            return original_push(agent_id, policy)

        def spy_upgrade(*args, **kwargs):
            order.append("upgrade")
            return original_upgrade(*args, **kwargs)

        testbed.tenant.push_policy = spy_push
        testbed.apt.upgrade_from = spy_upgrade
        testbed.orchestrator.run_cycle()
        assert order.index("push") < order.index("upgrade")

    def test_official_source_bypasses_mirror(self, small_testbed):
        testbed = small_testbed
        testbed.stream.generate_day(1)
        testbed.scheduler.clock.advance_to(days(1) + hours(5))
        report = testbed.orchestrator.run_cycle(from_official=True)
        assert report.source == "official"

    def test_reports_accumulate(self, small_testbed):
        testbed = small_testbed
        for day in (1, 2):
            testbed.stream.generate_day(day)
        testbed.orchestrator.schedule_cycles(start_day=1, n_cycles=2)
        testbed.scheduler.run_until(days(3))
        assert len(testbed.orchestrator.reports) == 2
        assert [report.day for report in testbed.orchestrator.reports] == [1, 2]

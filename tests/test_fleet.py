"""Tests for fleet management."""

import pytest

from repro.common.clock import Scheduler, days
from repro.common.errors import StateError
from repro.common.rng import SeededRng
from repro.distro.archive import UbuntuArchive
from repro.distro.mirror import LocalMirror
from repro.distro.workload import (
    ReleaseStreamConfig,
    SyntheticReleaseStream,
    build_base_system,
)
from repro.dynpolicy.generator import DynamicPolicyGenerator
from repro.keylime.fleet import Fleet
from repro.keylime.policy import IBM_STYLE_EXCLUDES
from repro.tpm.device import TpmManufacturer


@pytest.fixture()
def world(manufacturer: TpmManufacturer):
    rng = SeededRng("fleet-tests")
    scheduler = Scheduler()
    archive = UbuntuArchive()
    base = build_base_system(rng.fork("base"), n_filler_packages=12, mean_exec_files=4)
    archive.seed(base)
    stream = SyntheticReleaseStream(
        archive, base, rng.fork("stream"),
        ReleaseStreamConfig(
            mean_packages_per_day=3.0, sd_packages_per_day=2.0,
            mean_exec_files_per_package=4.0, kernel_release_every_days=0,
        ),
    )
    mirror = LocalMirror(archive)
    mirror.sync(0.0)
    generator = DynamicPolicyGenerator(mirror, rng=rng.fork("gen"))
    policy, _ = generator.generate_full(
        list(IBM_STYLE_EXCLUDES), {"5.15.0-91-generic"}
    )
    fleet = Fleet(4, mirror, manufacturer, scheduler, rng.fork("fleet"), policy)
    return fleet, stream, scheduler


class TestProvisioning:
    def test_fleet_size(self, world):
        fleet, _, _ = world
        assert len(fleet) == 4
        assert fleet.healthy_count() == 4

    def test_nodes_identically_provisioned(self, world):
        fleet, _, _ = world
        versions = [
            sorted((name, pkg.version) for name, pkg in node.apt.installed.items())
            for node in fleet.nodes
        ]
        assert all(version_set == versions[0] for version_set in versions)

    def test_each_node_has_own_tpm(self, world):
        fleet, _, _ = world
        fingerprints = {
            node.machine.tpm.ek_public.fingerprint() for node in fleet.nodes
        }
        assert len(fingerprints) == len(fleet)

    def test_node_lookup(self, world):
        fleet, _, _ = world
        assert fleet.node("node-001").name == "node-001"
        with pytest.raises(KeyError):
            fleet.node("node-999")

    def test_minimum_size(self, world):
        fleet, _, _ = world
        with pytest.raises(ValueError):
            Fleet(
                0, fleet.mirror, TpmManufacturer("X", SeededRng("x")),
                fleet.scheduler, SeededRng("y"), fleet.policy,
            )


class TestAttestation:
    def test_all_nodes_attest_green(self, world):
        fleet, _, _ = world
        results = fleet.poll_all()
        assert len(results) == 4
        assert all(result.ok for result in results.values())

    def test_compromise_isolated_to_one_node(self, world):
        fleet, _, _ = world
        fleet.poll_all()
        victim = fleet.node("node-002")
        victim.machine.install_file("/usr/bin/implant", b"x", executable=True)
        victim.machine.exec_file("/usr/bin/implant")
        fleet.poll_all()
        status = fleet.status()
        assert status["node-002"] == "failed"
        assert [s for name, s in status.items() if name != "node-002"] == ["attesting"] * 3
        assert fleet.healthy_count() == 3

    def test_compromised_node_quarantined(self, world):
        fleet, _, _ = world
        victim = fleet.node("node-000")
        victim.machine.install_file("/usr/bin/implant", b"x", executable=True)
        victim.machine.exec_file("/usr/bin/implant")
        fleet.poll_all()
        assert fleet.quarantine.is_quarantined("agent-node-000")

    def test_audit_records_every_poll(self, world):
        fleet, _, _ = world
        fleet.poll_all()
        fleet.poll_all()
        fleet.audit.verify_chain()
        assert len(fleet.audit) == 8

    def test_periodic_fleet_polling(self, world):
        fleet, _, scheduler = world
        fleet.start_polling(600.0)
        scheduler.run_until(1900.0)
        for node in fleet.nodes:
            assert len(fleet.verifier.results_of(node.agent.agent_id)) == 3


class TestFleetUpdates:
    def test_update_cycle_keeps_fleet_green(self, world):
        fleet, stream, scheduler = world
        stream.generate_day(1)
        scheduler.clock.advance_to(days(2))
        report = fleet.run_update_cycle()
        assert report.nodes_updated == len(fleet)
        results = fleet.poll_all()
        assert all(result.ok for result in results.values())

    def test_generator_work_independent_of_fleet_size(self, world):
        """One sync + one generation covers every node."""
        fleet, stream, scheduler = world
        stream.generate_day(1)
        scheduler.clock.advance_to(days(2))
        report = fleet.run_update_cycle()
        # The policy delta is computed once; files fan out per node.
        assert report.files_written_total >= report.policy_report.entries_added
        assert report.nodes_updated == 4

    def test_empty_update_cycle(self, world):
        fleet, _, scheduler = world
        scheduler.clock.advance_to(days(1))
        report = fleet.run_update_cycle()
        assert report.nodes_updated == 0
        assert all(result.ok for result in fleet.poll_all().values())


def _run_common_workload(fleet, limit: int = 20) -> list[str]:
    """Execute the same binaries on every node (they are identically
    provisioned, so the measured digests coincide)."""
    paths = [
        stat.path
        for stat in fleet.nodes[0].machine.vfs.walk("/")
        if stat.executable
    ][:limit]
    for node in fleet.nodes:
        for path in paths:
            node.machine.exec_file(path)
    return paths


class TestSharedVerdictCache:
    def test_first_sweep_shares_verdicts_across_nodes(self, world):
        """Same-distro nodes measure the same files: node one misses,
        the other three hit the shared cache."""
        fleet, _, _ = world
        paths = _run_common_workload(fleet)
        results = fleet.poll_all()
        assert all(result.ok for result in results.values())
        cache = fleet.verdict_cache
        assert fleet.verifier.verdict_cache is cache
        # Every node past the first re-uses the first node's verdicts;
        # only the per-node boot aggregates stay unshared.
        assert cache.hits == (len(fleet) - 1) * len(paths)
        assert cache.misses == len(paths) + len(fleet)

    def test_second_sweep_with_no_new_entries_is_free(self, world):
        fleet, _, _ = world
        fleet.poll_all()
        hits, misses = fleet.verdict_cache.hits, fleet.verdict_cache.misses
        fleet.poll_all()  # no new measurements: nothing to evaluate
        assert fleet.verdict_cache.misses == misses
        assert fleet.verdict_cache.hits == hits

    def test_batch_scheduler_registers_every_agent(self, world):
        fleet, _, _ = world
        assert list(fleet.shards["verifier-0"].verifier._slots) == fleet.agent_ids

    def test_stop_polling_idempotent(self, world):
        fleet, _, scheduler = world
        fleet.start_polling(600.0)
        scheduler.run_until(1900.0)
        fleet.stop_polling()
        fleet.stop_polling()  # second stop: no error
        counts = [
            len(fleet.verifier.results_of(node.agent.agent_id))
            for node in fleet.nodes
        ]
        scheduler.run_until(4000.0)
        assert [
            len(fleet.verifier.results_of(node.agent.agent_id))
            for node in fleet.nodes
        ] == counts

    def test_batch_skips_failed_nodes(self, world):
        fleet, _, _ = world
        victim = fleet.node("node-001")
        victim.machine.install_file("/usr/bin/implant", b"x", executable=True)
        victim.machine.exec_file("/usr/bin/implant")
        fleet.poll_all()
        results = fleet.poll_all()
        assert victim.agent.agent_id not in results  # FAILED: not re-polled
        assert len(results) == len(fleet) - 1

    def test_register_deduplicates_and_keeps_batch_order(self, world):
        fleet, _, _ = world
        host = fleet.shards["verifier-0"]
        fleet.poll_all()
        before = list(host.verifier._slots)
        histories = {
            agent_id: list(host.verifier._slot(agent_id).results)
            for agent_id in before
        }
        # Re-enrolling an attested agent is refused: a fresh slot would
        # erase its history, and the slot must not move in the batch.
        for agent_id in (before[0], before[-1]):
            with pytest.raises(StateError, match="already attests"):
                Fleet._enroll(host, host.verifier._slot(agent_id).agent, fleet.policy)
        assert list(host.verifier._slots) == before
        assert {
            agent_id: host.verifier._slot(agent_id).results
            for agent_id in before
        } == histories
        # One tick polls every agent exactly once, in batch order.
        assert list(fleet.poll_all()) == before

    def test_skipped_nodes_are_accounted(self, world):
        from repro.obs import runtime as obs_runtime

        fleet, _, _ = world
        victim = fleet.node("node-003")
        victim.machine.install_file("/usr/bin/implant", b"x", executable=True)
        victim.machine.exec_file("/usr/bin/implant")
        fleet.poll_all()
        previous = obs_runtime.get()
        telemetry = obs_runtime.activate(clock=None)
        try:
            fleet.poll_all()
            span = telemetry.tracer.last_trace()
            assert span.name == "fleet.poll_batch"
            assert span.attributes["skipped"] == 1
            skipped = telemetry.registry.get("fleet_poll_skipped_total")
            assert skipped is not None and skipped.value == 1.0
        finally:
            if previous.enabled:
                obs_runtime.activate(previous)
            else:
                obs_runtime.deactivate()
        record = fleet.accounting.records[-1]
        assert record.skipped == 1
        assert record.registered == len(fleet)
        assert record.polled == len(fleet) - 1

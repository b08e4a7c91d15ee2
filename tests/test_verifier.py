"""Tests for the verifier's attestation loop."""

import pytest

from repro.common.clock import Scheduler
from repro.common.errors import StateError
from repro.common.rng import SeededRng
from repro.keylime.agent import KeylimeAgent
from repro.keylime.policy import build_policy_from_machine
from repro.keylime.registrar import KeylimeRegistrar
from repro.keylime.verifier import (
    AgentState,
    FailureKind,
    KeylimeVerifier,
)
from repro.kernelsim.kernel import Machine
from repro.tpm.device import TpmManufacturer


@pytest.fixture()
def rig(machine: Machine, manufacturer: TpmManufacturer):
    scheduler = Scheduler(machine.clock)
    registrar = KeylimeRegistrar([manufacturer.root_certificate])
    verifier = KeylimeVerifier(registrar, scheduler, SeededRng("verifier-tests"))
    agent = KeylimeAgent("a1", machine)
    registrar.register(agent)
    machine.install_file("/usr/bin/tool", b"tool-v1", executable=True)
    policy = build_policy_from_machine(machine)
    verifier.add_agent(agent, policy)
    return machine, agent, verifier, policy, scheduler


class TestHappyPath:
    def test_clean_poll(self, rig):
        machine, agent, verifier, policy, _ = rig
        result = verifier.poll("a1")
        assert result.ok
        assert result.entries_processed == 1  # boot aggregate

    def test_incremental_polls(self, rig):
        machine, agent, verifier, policy, _ = rig
        verifier.poll("a1")
        machine.exec_file("/usr/bin/tool")
        result = verifier.poll("a1")
        assert result.ok
        assert result.entries_processed == 1  # only the new entry

    def test_no_new_entries(self, rig):
        machine, agent, verifier, policy, _ = rig
        verifier.poll("a1")
        result = verifier.poll("a1")
        assert result.ok
        assert result.entries_processed == 0

    def test_unknown_agent_rejected(self, rig):
        _, _, verifier, _, _ = rig
        from repro.common.errors import NotFoundError

        with pytest.raises(NotFoundError):
            verifier.poll("ghost")

    def test_re_adding_an_attested_agent_is_refused(self, rig):
        """A second add_agent would erase the history without an event;
        re-onboarding is restart_attestation."""
        machine, agent, verifier, policy, _ = rig
        machine.exec_file("/usr/bin/tool")
        verifier.poll("a1")
        slot = verifier._slot("a1")
        before = (list(slot.results), slot.verified_entries, slot.replay_aggregate)
        events = len(verifier.events)
        with pytest.raises(StateError, match="already attests"):
            verifier.add_agent(agent, policy)
        assert verifier._slot("a1") is slot
        assert (slot.results, slot.verified_entries, slot.replay_aggregate) == before
        assert len(verifier.events) == events
        verifier.restart_attestation("a1")
        assert list(verifier.events)[-1].kind == "attestation.restarted"
        assert (len(slot.results), slot.verified_entries) == (1, 0)


class TestPolicyFailures:
    def test_unknown_executable_fails(self, rig):
        machine, agent, verifier, policy, _ = rig
        machine.install_file("/usr/bin/evil", b"evil", executable=True)
        machine.exec_file("/usr/bin/evil")
        result = verifier.poll("a1")
        assert not result.ok
        assert result.failures[0].kind is FailureKind.POLICY
        assert result.failures[0].policy_failure.path == "/usr/bin/evil"

    def test_hash_mismatch_fails(self, rig):
        machine, agent, verifier, policy, _ = rig
        machine.install_file("/usr/bin/tool", b"tool-v2", executable=True)
        machine.exec_file("/usr/bin/tool")
        result = verifier.poll("a1")
        assert not result.ok
        assert "hash mismatch" in result.failures[0].detail

    def test_failure_halts_agent(self, rig):
        machine, agent, verifier, policy, _ = rig
        machine.install_file("/usr/bin/evil", b"x", executable=True)
        machine.exec_file("/usr/bin/evil")
        verifier.poll("a1")
        assert verifier.state_of("a1") is AgentState.FAILED

    def test_halt_skips_rest_of_batch(self, rig):
        """P2: evaluation stops at the first failing entry."""
        machine, agent, verifier, policy, _ = rig
        machine.install_file("/usr/bin/evil1", b"1", executable=True)
        machine.install_file("/usr/bin/evil2", b"2", executable=True)
        machine.exec_file("/usr/bin/evil1")
        machine.exec_file("/usr/bin/evil2")
        result = verifier.poll("a1")
        assert not result.ok
        assert len(result.failures) == 1
        assert result.entries_skipped == 1

    def test_continue_on_failure_sees_everything(self, rig):
        """M2: the whole batch is evaluated and polling continues."""
        machine, agent, verifier, policy, _ = rig
        verifier.continue_on_failure = True
        machine.install_file("/usr/bin/evil1", b"1", executable=True)
        machine.install_file("/usr/bin/evil2", b"2", executable=True)
        machine.exec_file("/usr/bin/evil1")
        machine.exec_file("/usr/bin/evil2")
        result = verifier.poll("a1")
        assert not result.ok
        assert len(result.failures) == 2
        assert verifier.state_of("a1") is AgentState.ATTESTING

    def test_restart_replays_from_scratch(self, rig):
        """An unresolved failure halts the restarted attestation again."""
        machine, agent, verifier, policy, _ = rig
        machine.install_file("/usr/bin/evil", b"x", executable=True)
        machine.exec_file("/usr/bin/evil")
        verifier.poll("a1")
        verifier.restart_attestation("a1")
        result = verifier.poll("a1")
        assert not result.ok
        assert verifier.state_of("a1") is AgentState.FAILED

    def test_excluded_paths_do_not_fail(self, rig):
        machine, agent, verifier, policy, _ = rig
        machine.install_file("/tmp/whatever", b"x", executable=True)
        machine.exec_file("/tmp/whatever")
        assert verifier.poll("a1").ok


class TestLogIntegrity:
    def test_tampered_log_line_detected(self, rig, monkeypatch):
        machine, agent, verifier, policy, _ = rig
        machine.exec_file("/usr/bin/tool")
        real_attest = agent.attest

        def tampered_attest(nonce, offset=0, **kwargs):
            evidence = real_attest(nonce, offset, **kwargs)
            lines = list(evidence.ima_log_lines)
            if lines:
                # Swap the recorded path on the last entry.
                lines[-1] = lines[-1].rsplit(" ", 1)[0] + " /usr/bin/benign"
            return type(evidence)(
                quote=evidence.quote, ima_log_lines=tuple(lines),
                offset=evidence.offset, total_entries=evidence.total_entries,
            )

        monkeypatch.setattr(agent, "attest", tampered_attest)
        result = verifier.poll("a1")
        assert not result.ok
        assert result.failures[0].kind is FailureKind.LOG_TAMPERED

    def test_dropped_log_entry_detected(self, rig, monkeypatch):
        machine, agent, verifier, policy, _ = rig
        machine.exec_file("/usr/bin/tool")
        real_attest = agent.attest

        def truncating_attest(nonce, offset=0, **kwargs):
            evidence = real_attest(nonce, offset, **kwargs)
            return type(evidence)(
                quote=evidence.quote,
                ima_log_lines=evidence.ima_log_lines[:-1],
                offset=evidence.offset,
                total_entries=evidence.total_entries - 1,
            )

        monkeypatch.setattr(agent, "attest", truncating_attest)
        result = verifier.poll("a1")
        assert not result.ok
        assert result.failures[0].kind is FailureKind.PCR_MISMATCH

    def test_malformed_log_line_detected(self, rig, monkeypatch):
        machine, agent, verifier, policy, _ = rig
        real_attest = agent.attest

        def garbage_attest(nonce, offset=0, **kwargs):
            evidence = real_attest(nonce, offset, **kwargs)
            return type(evidence)(
                quote=evidence.quote,
                ima_log_lines=("garbage line",),
                offset=evidence.offset,
                total_entries=evidence.total_entries,
            )

        monkeypatch.setattr(agent, "attest", garbage_attest)
        result = verifier.poll("a1")
        assert not result.ok
        assert result.failures[0].kind is FailureKind.LOG_TAMPERED


class TestRebootHandling:
    def test_reboot_resets_replay(self, rig):
        machine, agent, verifier, policy, _ = rig
        machine.exec_file("/usr/bin/tool")
        assert verifier.poll("a1").ok
        machine.reboot()
        machine.exec_file("/usr/bin/tool")
        result = verifier.poll("a1")
        assert result.ok
        # boot aggregate + tool re-measured after reboot
        assert result.entries_processed == 2

    def test_multiple_reboots(self, rig):
        machine, agent, verifier, policy, _ = rig
        for _ in range(3):
            assert verifier.poll("a1").ok
            machine.reboot()
        assert verifier.poll("a1").ok


class TestPolling:
    def test_periodic_polling(self, rig):
        machine, agent, verifier, policy, scheduler = rig
        verifier.start_polling("a1", 10.0)
        scheduler.run_until(machine.clock.now + 35.0)
        assert len(verifier.results_of("a1")) == 3

    def test_polling_stops_after_failure(self, rig):
        """P2's operational half: no polls happen after the halt."""
        machine, agent, verifier, policy, scheduler = rig
        machine.install_file("/usr/bin/evil", b"x", executable=True)
        machine.exec_file("/usr/bin/evil")
        verifier.start_polling("a1", 10.0)
        scheduler.run_until(machine.clock.now + 55.0)
        results = verifier.results_of("a1")
        assert len(results) == 1  # the failing one; then silence
        assert not results[0].ok

    def test_stop_polling(self, rig):
        machine, agent, verifier, policy, scheduler = rig
        verifier.start_polling("a1", 10.0)
        scheduler.run_until(machine.clock.now + 15.0)
        verifier.stop_polling("a1")
        scheduler.run_until(machine.clock.now + 50.0)
        assert len(verifier.results_of("a1")) == 1
        assert verifier.state_of("a1") is AgentState.STOPPED

    def test_update_policy_applies_to_new_entries(self, rig):
        machine, agent, verifier, policy, _ = rig
        verifier.poll("a1")
        machine.install_file("/usr/bin/newtool", b"new", executable=True)
        machine.exec_file("/usr/bin/newtool")
        updated = build_policy_from_machine(machine)
        verifier.update_policy("a1", updated)
        assert verifier.poll("a1").ok

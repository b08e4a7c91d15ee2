"""Tests for the staged verification pipeline and verdict caching.

Covers the pipeline decomposition of the attestation round (stage
objects, the P2/M2 switch each round reads), the generation-stamped
verdict cache (no stale verdicts after a policy push or a reboot), the
idempotent ``stop_polling``, and the per-stage / cache telemetry.
"""

import pytest

from repro.common.clock import Scheduler
from repro.common.rng import SeededRng
from repro.keylime.agent import KeylimeAgent
from repro.keylime.pipeline import (
    ChallengeStage,
    LogReplayStage,
    MeasuredBootStage,
    PolicyEvalStage,
    QuoteVerifyStage,
    default_stages,
)
from repro.keylime.policy import (
    RuntimePolicy,
    VerdictCache,
    build_policy_from_machine,
)
from repro.keylime.registrar import KeylimeRegistrar
from repro.keylime.verifier import AgentState, FailureKind, KeylimeVerifier
from repro.kernelsim.kernel import Machine
from repro.obs import runtime as obs_runtime
from repro.tpm.device import TpmManufacturer


@pytest.fixture()
def rig(machine: Machine, manufacturer: TpmManufacturer):
    scheduler = Scheduler(machine.clock)
    registrar = KeylimeRegistrar([manufacturer.root_certificate])
    verifier = KeylimeVerifier(registrar, scheduler, SeededRng("pipeline-tests"))
    agent = KeylimeAgent("a1", machine)
    registrar.register(agent)
    machine.install_file("/usr/bin/tool", b"tool-v1", executable=True)
    policy = build_policy_from_machine(machine)
    verifier.add_agent(agent, policy)
    return machine, agent, verifier, policy, scheduler


class TestStageComposition:
    def test_default_stage_order(self, rig):
        _, _, verifier, _, _ = rig
        assert verifier.pipeline.stage_names() == [
            "challenge", "quote_verify", "measured_boot",
            "log_replay", "policy_eval",
        ]

    def test_default_stages_are_fresh_instances(self):
        first, second = default_stages(), default_stages()
        assert [type(s) for s in first] == [
            ChallengeStage, QuoteVerifyStage, MeasuredBootStage,
            LogReplayStage, PolicyEvalStage,
        ]
        assert all(a is not b for a, b in zip(first, second))

    def test_m2_continue_on_failure_collects_all(self, rig):
        machine, _, verifier, _, _ = rig
        verifier.continue_on_failure = True
        machine.install_file("/usr/bin/evil1", b"evil-1", executable=True)
        machine.install_file("/usr/bin/evil2", b"evil-2", executable=True)
        machine.exec_file("/usr/bin/evil1")
        machine.exec_file("/usr/bin/evil2")
        result = verifier.poll("a1")
        assert not result.ok
        failed = {f.policy_failure.path for f in result.failures}
        assert failed == {"/usr/bin/evil1", "/usr/bin/evil2"}
        # M2: the round completes, the agent keeps attesting.
        assert verifier.state_of("a1") is AgentState.ATTESTING

    def test_p2_halts_at_first_failure(self, rig):
        machine, _, verifier, _, _ = rig
        machine.install_file("/usr/bin/evil1", b"evil-1", executable=True)
        machine.install_file("/usr/bin/evil2", b"evil-2", executable=True)
        machine.exec_file("/usr/bin/evil1")
        machine.exec_file("/usr/bin/evil2")
        result = verifier.poll("a1")
        assert not result.ok
        assert len(result.failures) == 1  # halt-on-first (P2)
        assert verifier.state_of("a1") is AgentState.FAILED


class TestVerdictCache:
    def test_repeat_evaluation_hits_cache(self, rig):
        machine, _, verifier, _, _ = rig
        cache = verifier.verdict_cache
        assert cache is not None
        machine.exec_file("/usr/bin/tool")
        assert verifier.poll("a1").ok
        misses = cache.misses
        verifier.restart_attestation("a1")
        assert verifier.poll("a1").ok
        assert cache.misses == misses  # full replay answered from cache
        assert cache.hits > 0

    def test_update_policy_invalidates_cached_verdicts(self, rig):
        """A verdict cached before ``update_policy`` must not leak past
        the generation bump (satellite c)."""
        machine, _, verifier, policy, _ = rig
        machine.exec_file("/usr/bin/tool")
        assert verifier.poll("a1").ok  # ACCEPT verdicts now cached
        empty = RuntimePolicy(excludes=list(policy.excludes), name="empty")
        verifier.update_policy("a1", empty)
        verifier.restart_attestation("a1")
        result = verifier.poll("a1")
        assert not result.ok
        assert result.failures[0].policy_failure.path == "/usr/bin/tool"

    def test_mutating_installed_policy_invalidates(self, rig):
        machine, _, verifier, policy, _ = rig
        machine.exec_file("/usr/bin/tool")
        assert verifier.poll("a1").ok
        # The same policy object mutates in place (the dynamic
        # generator's append): the bump must outdate cached verdicts.
        generation = policy.generation
        policy.add_exclude(r"^/usr/bin/tool$")
        assert policy.generation > generation
        verifier.restart_attestation("a1")
        before = verifier.verdict_cache.misses
        assert verifier.poll("a1").ok
        assert verifier.verdict_cache.misses > before  # re-evaluated

    def test_reboot_restarts_replay_without_stale_verdicts(self, rig):
        """Reboot mid-run (reset_count change) must restart the replay
        and re-verify, not serve verdicts for entries that no longer
        exist in the fresh log (satellite c)."""
        machine, _, verifier, _, _ = rig
        machine.exec_file("/usr/bin/tool")
        assert verifier.poll("a1").ok
        machine.reboot()
        machine.exec_file("/usr/bin/tool")
        result = verifier.poll("a1")
        assert result.ok
        # Fresh log: boot aggregate + the one post-reboot measurement.
        assert result.entries_processed == 2

    def test_reboot_with_changed_binary_fails(self, rig):
        machine, _, verifier, _, _ = rig
        machine.exec_file("/usr/bin/tool")
        assert verifier.poll("a1").ok
        machine.reboot()
        machine.install_file("/usr/bin/tool", b"tool-tampered", executable=True)
        machine.exec_file("/usr/bin/tool")
        result = verifier.poll("a1")
        assert not result.ok
        assert "hash mismatch" in result.failures[0].detail

    def test_cache_disabled_verifier_still_polls(self, machine, manufacturer):
        scheduler = Scheduler(machine.clock)
        registrar = KeylimeRegistrar([manufacturer.root_certificate])
        verifier = KeylimeVerifier(registrar, scheduler, SeededRng("nocache"))
        verifier.verdict_cache = None
        agent = KeylimeAgent("a1", machine)
        registrar.register(agent)
        machine.install_file("/usr/bin/tool", b"tool-v1", executable=True)
        verifier.add_agent(agent, build_policy_from_machine(machine))
        assert verifier.verdict_cache is None
        machine.exec_file("/usr/bin/tool")
        assert verifier.poll("a1").ok

    def test_shared_cache_across_verifiers(self, machine, manufacturer):
        """Two verifiers handed the same VerdictCache share verdicts --
        the fleet's same-distro de-duplication in miniature."""
        shared = VerdictCache()
        machine.install_file("/usr/bin/tool", b"tool-v1", executable=True)
        policy = build_policy_from_machine(machine)
        results = []
        for label in ("left", "right"):
            scheduler = Scheduler(machine.clock)
            registrar = KeylimeRegistrar([manufacturer.root_certificate])
            verifier = KeylimeVerifier(
                registrar, scheduler, SeededRng(label), verdict_cache=shared,
            )
            agent = KeylimeAgent(f"a-{label}", machine)
            registrar.register(agent)
            verifier.add_agent(agent, policy)
            results.append(verifier.poll(f"a-{label}"))
        assert all(result.ok for result in results)
        assert shared.hits > 0  # second verifier reused the first's work


class TestStopPollingIdempotent:
    def test_double_stop_is_noop(self, rig):
        _, _, verifier, _, scheduler = rig
        verifier.start_polling("a1", interval=60.0)
        scheduler.run_for(130.0)
        verifier.stop_polling("a1")
        assert verifier.state_of("a1") is AgentState.STOPPED
        verifier.stop_polling("a1")  # second cancel: no error, no change
        assert verifier.state_of("a1") is AgentState.STOPPED

    def test_stop_never_scheduled_is_noop(self, rig):
        _, _, verifier, _, _ = rig
        verifier.stop_polling("a1")  # never scheduled: nothing to cancel
        assert verifier.state_of("a1") is AgentState.ATTESTING

    def test_double_cancel_keeps_failed_state(self, rig):
        """Double-cancel must not flip a FAILED agent to STOPPED."""
        machine, _, verifier, _, scheduler = rig
        verifier.start_polling("a1", interval=60.0)
        machine.install_file("/usr/bin/evil", b"evil", executable=True)
        machine.exec_file("/usr/bin/evil")
        scheduler.run_for(70.0)
        assert verifier.state_of("a1") is AgentState.FAILED
        verifier.stop_polling("a1")
        verifier.stop_polling("a1")
        assert verifier.state_of("a1") is AgentState.FAILED

    def test_slot_callback_is_typed(self, rig):
        _, _, verifier, _, _ = rig
        slot = verifier._slot("a1")
        assert slot.stop_polling is None
        verifier.start_polling("a1", interval=60.0)
        assert callable(slot.stop_polling)
        verifier.stop_polling("a1")
        assert slot.stop_polling is None


class TestPipelineTelemetry:
    def test_stage_histogram_and_cache_counters(self, rig):
        machine, _, verifier, _, _ = rig
        machine.exec_file("/usr/bin/tool")
        with obs_runtime.session(clock=machine.clock) as telemetry:
            assert verifier.poll("a1").ok
            verifier.restart_attestation("a1")
            assert verifier.poll("a1").ok
            family = telemetry.registry.get("verifier_stage_wall_seconds")
            stages = {labels["stage"] for labels, _ in family.samples()}
            assert stages == {
                "challenge", "quote_verify", "measured_boot",
                "log_replay", "policy_eval",
            }
            cache_family = telemetry.registry.get("verifier_verdict_cache_total")
            counts = {
                labels["result"]: child.value
                for labels, child in cache_family.samples()
            }
            assert counts.get("miss", 0) > 0
            assert counts.get("hit", 0) > 0  # second poll replayed from cache

    def test_pipeline_spans_nest_under_poll(self, rig):
        machine, _, verifier, _, _ = rig
        machine.exec_file("/usr/bin/tool")
        with obs_runtime.session(clock=machine.clock) as telemetry:
            assert verifier.poll("a1").ok
            spans = {span.name: span for span in telemetry.tracer.iter_spans()}
            root = spans["verifier.poll"]
            for stage in ("challenge", "quote_verify", "log_replay", "policy_eval"):
                span = spans[f"verifier.{stage}"]
                assert span.parent_id == root.span_id
            eval_span = spans["verifier.policy_eval"]
            assert eval_span.attributes["cache_misses"] > 0

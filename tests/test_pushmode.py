"""Push-mode attestation: session lifecycle, rejection, equivalence.

The push exchange inverts the paper's pull loop -- the agent initiates
negotiate -> submit -> verdict against the verifier's endpoints -- but
must stay *verdict-equivalent* to pull on the same seed, because both
modes share the verification pipeline and the nonce stream.  These
tests pin the session lifecycle, the protocol-level rejection rule (a
submission must name its agent's open session: loud otherwise, and
never charged to the agent's attestation record), the reaper's anti-P2
accounting, and the equivalence property itself, down to the round
telemetry and the health alerts.
"""

import json
from collections import Counter

import pytest

from repro.common.errors import IntegrityError, StateError
from repro.common.rng import SeededRng
from repro.experiments.testbed import build_testbed
from repro.kernelsim.kernel import Machine
from repro.keylime.agent import KeylimeAgent
from repro.keylime.transport import (
    negotiation_reply_from_json,
    negotiation_to_json,
    submission_to_json,
    verdict_from_json,
)
from repro.keylime.verifier import PUSH_SESSION_TTL, AgentState, FailureKind
from repro.obs import runtime as obs_runtime
from repro.obs.tracestore import SpanStore
from repro.tpm.device import TpmManufacturer

from tests.conftest import small_config


@pytest.fixture()
def testbed():
    return build_testbed(small_config("pushmode"))


def _negotiate(testbed):
    """Run step 1 by hand; returns the decoded reply."""
    blob = negotiation_to_json(testbed.agent_id, testbed.agent.capabilities())
    return negotiation_reply_from_json(testbed.verifier.negotiate_push(blob))


def _submit_blob(testbed, reply):
    evidence = testbed.agent.attest(
        reply.nonce, offset=reply.offset,
        pcr_selection=list(reply.pcr_selection),
    )
    return submission_to_json(reply.session_id, testbed.agent_id, evidence)


def _with_fields(blob, **fields) -> str:
    """*blob* with some top-level submission fields rewritten."""
    return json.dumps(dict(json.loads(blob), **fields))


def _other_agent(testbed) -> KeylimeAgent:
    """A second agent the testbed's verifier attests, on its own TPM."""
    manufacturer = TpmManufacturer("Nuvoton", SeededRng("pushmode/other").fork("tpm"))
    testbed.registrar.trusted_roots.append(manufacturer.root_certificate)
    machine = Machine(
        "other", manufacturer.manufacture(), clock=testbed.scheduler.clock
    )
    machine.boot()
    agent = KeylimeAgent("agent-other", machine)
    testbed.registrar.register(agent)
    testbed.verifier.add_agent(agent, testbed.policy)
    return agent


def _consumed(testbed):
    blob = _submit_blob(testbed, _negotiate(testbed))
    assert verdict_from_json(testbed.verifier.submit_push(blob)).ok
    return blob


def _superseded(testbed):
    blob = _submit_blob(testbed, _negotiate(testbed))
    _negotiate(testbed)
    return blob


def _discarded_by_restart(testbed):
    blob = _submit_blob(testbed, _negotiate(testbed))
    testbed.verifier.restart_attestation(testbed.agent_id)
    return blob


def _expired_and_reaped(testbed):
    blob = _submit_blob(testbed, _negotiate(testbed))
    testbed.scheduler.clock.advance_by(PUSH_SESSION_TTL + 1.0)
    assert len(testbed.verifier.reap_push_sessions()) == 1
    return blob


def _never_issued(testbed):
    blob = _submit_blob(testbed, _negotiate(testbed))
    return _with_fields(blob, session_id="ps-never-issued")


def _another_agents_session(testbed):
    blob = _submit_blob(testbed, _negotiate(testbed))
    other = _other_agent(testbed)
    reply = negotiation_reply_from_json(testbed.verifier.negotiate_push(
        negotiation_to_json(other.agent_id, other.capabilities())
    ))
    return _with_fields(blob, session_id=reply.session_id)


def _unknown_agent(testbed):
    blob = _submit_blob(testbed, _negotiate(testbed))
    return _with_fields(blob, agent_id="agent-somebody-else")


#: Every non-open session a one-verifier testbed can build; each
#: builder returns a submission naming it.
NON_OPEN_SESSIONS = {
    "consumed": _consumed,
    "superseded": _superseded,
    "discarded-by-restart": _discarded_by_restart,
    "expired-and-reaped": _expired_and_reaped,
    "never-issued": _never_issued,
    "another-agents-session": _another_agents_session,
    "unknown-agent": _unknown_agent,
}


def _round_counts(registry) -> dict[str, int] | None:
    """``verifier_polls_total`` by result (``None`` when never recorded)."""
    family = registry.get("verifier_polls_total")
    if family is None:
        return None
    return {labels["result"]: int(child.value) for labels, child in family.samples()}


class TestPushSessionLifecycle:
    def test_negotiate_opens_a_session(self, testbed):
        reply = _negotiate(testbed)
        session = testbed.verifier.open_push_session_of(testbed.agent_id)
        assert session is not None
        [event] = testbed.events.by_kind("push.session.negotiated")
        assert event.details["session"] == reply.session_id
        assert session.session_id == reply.session_id
        assert session.nonce == reply.nonce
        assert reply.offset == 0
        assert reply.algorithm == "sha256"

    def test_clean_exchange_verifies(self, testbed):
        with obs_runtime.session() as telemetry:
            reply = _negotiate(testbed)
            verdict = verdict_from_json(
                testbed.verifier.submit_push(_submit_blob(testbed, reply))
            )
            verified = telemetry.registry.get(
                "verifier_push_sessions_total"
            ).labels(outcome="verified").value
        assert verdict.ok
        assert verdict.state == "attesting"
        assert verified == 1
        assert testbed.verifier.open_push_session_of(testbed.agent_id) is None

    def test_push_round_matches_manual_exchange(self, testbed):
        result = testbed.push_round()
        assert result is not None and result.ok
        assert len(testbed.verifier.results_of(testbed.agent_id)) == 1

    @pytest.mark.parametrize("build", NON_OPEN_SESSIONS.values(), ids=NON_OPEN_SESSIONS)
    def test_session_replay_rejected_without_charging_the_agent(self, testbed, build):
        """A submission naming anything but its agent's open session is a
        protocol IntegrityError and must not touch the agent's record:
        an attacker replaying captured traffic cannot fail the agent."""
        blob = build(testbed)
        verifier, agent_id = testbed.verifier, testbed.agent_id

        def record():
            return (
                verifier.results_of(agent_id),
                verifier.state_of(agent_id),
                verifier.open_push_session_of(agent_id),
            )

        before = record()
        with pytest.raises(IntegrityError, match="not the open session"):
            verifier.submit_push(blob)
        assert record() == before

    def test_unknown_session_rejected(self, testbed):
        reply = _negotiate(testbed)
        blob = _submit_blob(testbed, reply)
        payload = json.loads(blob)
        payload["session_id"] = "ps-never-issued"
        with pytest.raises(IntegrityError, match="'ps-never-issued' is not the open"):
            testbed.verifier.submit_push(json.dumps(payload))

    def test_agent_session_mismatch_rejected(self, testbed):
        reply = _negotiate(testbed)
        payload = json.loads(_submit_blob(testbed, reply))
        payload["agent_id"] = "agent-somebody-else"
        with pytest.raises(IntegrityError, match="attests .'agent-somebody-else'"):
            testbed.verifier.submit_push(json.dumps(payload))

    def test_expired_session_rejected(self, testbed):
        reply = _negotiate(testbed)
        blob = _submit_blob(testbed, reply)
        testbed.scheduler.clock.advance_by(PUSH_SESSION_TTL + 1.0)
        with pytest.raises(IntegrityError, match="expired"):
            testbed.verifier.submit_push(blob)

    def test_renegotiation_supersedes_the_open_session(self, testbed):
        first = _negotiate(testbed)
        stale_blob = _submit_blob(testbed, first)
        second = _negotiate(testbed)
        assert second.session_id != first.session_id
        assert (
            testbed.verifier.open_push_session_of(testbed.agent_id).session_id
            == second.session_id
        )
        with pytest.raises(IntegrityError):
            testbed.verifier.submit_push(stale_blob)
        # The unanswered first session is a degraded round, not a gap.
        [superseded] = testbed.events.by_kind("push.session.superseded")
        assert superseded.details["session"] == first.session_id
        results = testbed.verifier.results_of(testbed.agent_id)
        assert len(results) == 1 and results[0].transient
        assert "superseded unanswered" in results[0].transport_error
        assert testbed.verifier.state_of(testbed.agent_id) is AgentState.SUSPECT
        # The superseding session still works, and recovers the node.
        assert verdict_from_json(
            testbed.verifier.submit_push(_submit_blob(testbed, second))
        ).ok
        assert testbed.verifier.state_of(testbed.agent_id) is AgentState.ATTESTING

    def test_negotiation_for_halted_agent_refused(self, testbed):
        testbed.machine.install_file("/usr/bin/evil", b"x", executable=True)
        testbed.machine.exec_file("/usr/bin/evil")
        result = testbed.push_round()
        assert result is not None and not result.ok
        assert testbed.verifier.state_of(testbed.agent_id) is AgentState.FAILED
        blob = negotiation_to_json(
            testbed.agent_id, testbed.agent.capabilities()
        )
        with pytest.raises(StateError, match="push negotiation refused"):
            testbed.verifier.negotiate_push(blob)

    def test_failed_verdict_closes_the_session_failed(self, testbed):
        testbed.machine.install_file("/usr/bin/evil", b"x", executable=True)
        testbed.machine.exec_file("/usr/bin/evil")
        with obs_runtime.session() as telemetry:
            reply = _negotiate(testbed)
            verdict = verdict_from_json(
                testbed.verifier.submit_push(_submit_blob(testbed, reply))
            )
            failed = telemetry.registry.get(
                "verifier_push_sessions_total"
            ).labels(outcome="failed").value
        assert not verdict.ok
        assert "policy" in verdict.failures
        assert failed == 1
        assert testbed.verifier.open_push_session_of(testbed.agent_id) is None

    def test_no_sha256_bank_refused(self, testbed):
        payload = json.loads(
            negotiation_to_json(testbed.agent_id, testbed.agent.capabilities())
        )
        payload["hash_algorithms"] = ["sha1"]
        with pytest.raises(IntegrityError, match="sha256"):
            testbed.verifier.negotiate_push(json.dumps(payload))


class TestRestartDiscardsSessions:
    """Satellite: a stale nonce must never verify after a reboot reset."""

    def test_restart_attestation_discards_the_open_session(self, testbed):
        reply = _negotiate(testbed)
        stale_blob = _submit_blob(testbed, reply)
        testbed.verifier.restart_attestation(testbed.agent_id)
        assert testbed.verifier.open_push_session_of(testbed.agent_id) is None
        [discarded] = testbed.events.by_kind("push.session.discarded")
        assert discarded.details["agent"] == testbed.agent_id
        with pytest.raises(IntegrityError):
            testbed.verifier.submit_push(stale_blob)

    def test_post_restart_negotiation_starts_at_offset_zero(self, testbed):
        testbed.workload.daily(3)
        assert testbed.push_round().ok
        assert testbed.verifier.verified_entries_of(testbed.agent_id) > 0
        testbed.verifier.restart_attestation(testbed.agent_id)
        assert _negotiate(testbed).offset == 0


class TestPushReaper:
    def test_expired_session_degrades_the_round(self, testbed):
        _negotiate(testbed)
        testbed.scheduler.clock.advance_by(PUSH_SESSION_TTL + 1.0)
        reaped = testbed.verifier.reap_push_sessions()
        assert len(reaped) == 1
        [expired] = testbed.events.by_kind("push.session.expired")
        assert [expired.details["session"]] == reaped
        results = testbed.verifier.results_of(testbed.agent_id)
        assert len(results) == 1 and results[0].transient
        assert "expired unanswered" in results[0].transport_error
        # The silence surfaced as a SUSPECT window, not a quiet gap.
        assert testbed.verifier.state_of(testbed.agent_id) is AgentState.SUSPECT

    def test_repeated_suspect_windows_escalate_to_quarantine(self, testbed):
        """Expired sessions burn the same suspect-window budget a flaky
        pull wire does: the quarantine_after-th window quarantines."""

        def expire_one_session():
            _negotiate(testbed)
            testbed.scheduler.clock.advance_by(PUSH_SESSION_TTL + 1.0)
            testbed.verifier.reap_push_sessions()

        for _ in range(testbed.verifier.quarantine_after - 1):
            expire_one_session()
            assert (
                testbed.verifier.state_of(testbed.agent_id)
                is AgentState.SUSPECT
            )
            # A clean exchange recovers the node but the window count
            # sticks -- reliability debt, exactly like pull mode.
            assert testbed.push_round().ok
            assert (
                testbed.verifier.state_of(testbed.agent_id)
                is AgentState.ATTESTING
            )
        expire_one_session()
        assert (
            testbed.verifier.state_of(testbed.agent_id)
            is AgentState.QUARANTINED
        )

    def test_superseding_into_quarantine_refuses_the_negotiation(self, testbed):
        """Superseded sessions burn the same suspect-window budget; the
        negotiation that quarantines the node opens no new session."""
        for _ in range(testbed.verifier.quarantine_after - 1):
            _negotiate(testbed)
            assert testbed.push_round().ok
        _negotiate(testbed)
        assert testbed.push_round() is None
        assert (
            testbed.verifier.state_of(testbed.agent_id)
            is AgentState.QUARANTINED
        )
        assert testbed.verifier.open_push_session_of(testbed.agent_id) is None
        client = testbed.verifier.push_client(testbed.agent_id)
        assert client.rounds_abandoned == 1

    def test_reap_is_idempotent(self, testbed):
        _negotiate(testbed)
        testbed.scheduler.clock.advance_by(PUSH_SESSION_TTL + 1.0)
        assert len(testbed.verifier.reap_push_sessions()) == 1
        assert testbed.verifier.reap_push_sessions() == []
        assert len(testbed.verifier.results_of(testbed.agent_id)) == 1

    def test_live_session_not_reaped(self, testbed):
        _negotiate(testbed)
        assert testbed.verifier.reap_push_sessions() == []
        assert testbed.verifier.open_push_session_of(testbed.agent_id) is not None


class TestPushObservability:
    def test_push_round_feeds_the_coverage_gap_gauges(self, testbed):
        """Anti-P2: HealthWatch's gap detector reads the same last-seen
        gauges in push mode as in pull mode."""
        with obs_runtime.session() as telemetry:
            assert testbed.push_round().ok
            seen = telemetry.registry.get(
                "verifier_agent_last_poll_sim_seconds"
            ).labels(agent=testbed.agent_id).value
            ok_seen = telemetry.registry.get(
                "verifier_agent_last_ok_sim_seconds"
            ).labels(agent=testbed.agent_id).value
            sessions = telemetry.registry.get(
                "verifier_push_sessions_total"
            ).labels(outcome="verified").value
        assert seen == testbed.scheduler.clock.now
        assert ok_seen == seen
        assert sessions == 1

    def test_push_round_is_recorded_as_a_poll(self, testbed):
        """One round record for both modes: a push submission counts in
        ``verifier_polls_total``, is timed in ``verifier_poll_wall_seconds``
        and is verified under a ``verifier.poll`` span, which the
        histogram's exemplar points at."""
        with obs_runtime.session() as telemetry:
            assert testbed.push_round().ok
            polls = _round_counts(telemetry.registry)
            [(_, latency)] = telemetry.registry.get(
                "verifier_poll_wall_seconds"
            ).samples()
            [trace] = SpanStore(telemetry.tracer.roots).query(
                name="verifier.poll"
            )
        assert polls == {"ok": 1}
        assert latency.count == 1
        span = trace.find("verifier.poll")
        assert span.attributes["agent"] == testbed.agent_id
        [exemplar] = latency.exemplars.values()
        assert (exemplar["trace_id"], exemplar["span_id"]) == (
            span.trace_id, span.span_id,
        )


class TestPushPullEquivalence:
    """The tentpole property: same seed, same verdicts, either mode."""

    @staticmethod
    def _run_rounds(seed: str, push: bool, n_rounds: int = 4):
        testbed = build_testbed(small_config(seed))
        results = []
        for day in range(n_rounds):
            testbed.workload.daily(day)
            testbed.scheduler.clock.advance_by(1800.0)
            results.append(
                testbed.push_round() if push else testbed.poll()
            )
        return testbed, results

    def test_clean_rounds_identical(self):
        _, pull = self._run_rounds("push-eq", push=False)
        _, push = self._run_rounds("push-eq", push=True)
        assert pull == push
        assert all(result.ok for result in pull)

    @pytest.mark.parametrize("m2", [False, True], ids=["P2", "M2"])
    def test_detection_identical(self, m2):
        """Two unknown binaries: P2 halts at the first in either mode, M2
        reports both and keeps attesting in either mode."""
        binaries = ["/usr/bin/backdoor", "/usr/bin/dropper"]

        def attack(seed, push):
            testbed = build_testbed(small_config(seed))
            # Flipped after construction, as mitigations.apply does.
            testbed.verifier.continue_on_failure = m2
            round_fn = testbed.push_round if push else testbed.poll
            assert round_fn().ok
            for path in binaries:
                testbed.machine.install_file(path, path.encode(), executable=True)
                testbed.machine.exec_file(path)
            return round_fn(), testbed.verifier.state_of(testbed.agent_id)

        pull, pull_state = attack("push-detect", push=False)
        push, push_state = attack("push-detect", push=True)
        assert pull == push
        assert pull_state is push_state
        assert not push.ok
        assert all(failure.kind is FailureKind.POLICY for failure in push.failures)
        failed = [failure.policy_failure.path for failure in push.failures]
        if m2:
            assert failed == binaries
            assert push_state is AgentState.ATTESTING
        else:
            assert failed == binaries[:1]
            assert push_state is AgentState.FAILED

    def test_audit_chains_identical(self):
        pull_bed, _ = self._run_rounds("push-audit", push=False)
        push_bed, _ = self._run_rounds("push-audit", push=True)
        pull_audit = pull_bed.verifier.audit.export_records()
        push_audit = push_bed.verifier.audit.export_records()
        assert pull_audit == push_audit

    def test_attack_trial_equivalence(self):
        """E7 in push mode: one sample, identical trial outcome."""
        from repro.attacks.framework import AttackMode, all_attacks
        from repro.experiments.fn_matrix import run_attack_trial

        sample = all_attacks()[0]
        pull = run_attack_trial(
            sample, AttackMode.BASIC, mitigated=False, seed="e7-push",
            config=small_config("e7-push"), push=False,
        )
        push = run_attack_trial(
            sample, AttackMode.BASIC, mitigated=False, seed="e7-push",
            config=small_config("e7-push"), push=True,
        )
        assert pull == push


class TestFleetPushMode:
    """The scheduler side: ``start_polling`` ticks push-mode fleets too.

    Each tick runs every agent's negotiate -> submit -> verdict exchange
    in batch order, then the verifier's reap -- the same batch the
    sharded push fleet and ``state save --push`` use.
    """

    @staticmethod
    def _scenario(push_mode: bool):
        from repro.experiments.fleet_run import run_fleet_scenario

        return run_fleet_scenario(
            seed="fleet-push-eq", n_nodes=2, n_days=1,
            n_filler_packages=6, push_mode=push_mode,
        )

    def test_fleet_equivalence(self):
        pull = self._scenario(push_mode=False)
        push = self._scenario(push_mode=True)
        assert push.total_polls == pull.total_polls > 0
        assert push.status == pull.status
        for node in pull.fleet.nodes:
            agent_id = node.agent.agent_id
            assert (
                push.fleet.verifier.results_of(agent_id)
                == pull.fleet.verifier.results_of(agent_id)
            )

    @pytest.fixture(scope="class")
    def flaky_runs(self):
        """The flaky-wire scenario in each mode: ``{push: (result, registry)}``."""
        from repro.experiments.fleet_run import ChaosInjection, run_fleet_scenario

        runs = {}
        for push_mode in (False, True):
            with obs_runtime.session() as telemetry:
                result = run_fleet_scenario(
                    seed="equiv", n_nodes=3, n_days=1, n_filler_packages=5,
                    push_mode=push_mode, chaos=ChaosInjection("flaky"),
                )
            runs[push_mode] = result, telemetry.registry
        return runs

    @pytest.mark.parametrize(
        ("push_mode", "expected"),
        [
            (False, {"ok": 282, "degraded": 6}),
            # One fewer: node-002's last abandoned session is still
            # inside its TTL when the run ends.
            (True, {"ok": 282, "degraded": 5}),
        ],
        ids=["pull", "push"],
    )
    def test_round_counter_equals_the_verifier_results(
        self, flaky_runs, push_mode, expected
    ):
        """Every round the verifier records -- a push submission or an
        unanswered push session included -- counts once in
        ``verifier_polls_total``, under its outcome."""
        result, registry = flaky_runs[push_mode]
        verifier = result.fleet.verifier
        outcomes = Counter(
            "ok" if r.ok else ("degraded" if r.transient else "failed")
            for node in result.fleet.nodes
            for r in verifier.results_of(node.agent.agent_id)
        )
        assert outcomes == expected
        assert _round_counts(registry) == expected

    def test_flaky_wire_never_escapes_the_retry_policy(self, flaky_runs):
        """Every push leg -- the attest leg included -- runs under the
        client's retry policy, so an injected transient is retried (or
        abandons the round) instead of escaping and killing the run, and
        every abandoned round lands on the verifier's record as a
        degraded round once the next negotiation supersedes it."""
        result, _ = flaky_runs[True]
        verifier = result.fleet.verifier
        abandoned = 0
        for node in result.fleet.nodes:
            agent_id = node.agent.agent_id
            client = verifier.push_client(agent_id)
            rounds = verifier.results_of(agent_id)
            awaiting = 1 if verifier.open_push_session_of(agent_id) else 0
            assert all(r.ok or r.transient for r in rounds)
            # No coverage gap: every round the agent ran is a result or
            # the one session still inside its TTL at the end.
            assert (
                len(rounds) + awaiting
                == client.rounds_completed + client.rounds_abandoned
            )
            degraded = sum(1 for r in rounds if r.transient)
            assert degraded == client.rounds_abandoned - awaiting
            abandoned += client.rounds_abandoned
        assert abandoned > 0
        assert "failed" not in result.status.values()

    def test_push_fleet_leaves_no_dangling_sessions(self):
        push = self._scenario(push_mode=True)
        for node in push.fleet.nodes:
            agent_id = node.agent.agent_id
            assert (
                push.fleet.verifier.open_push_session_of(agent_id) is None
            )


class TestHealthWatchEquivalence:
    """The P2 scenario watched in each mode raises the same alerts.

    Every consumer of the round record -- the failure-rate detector,
    the SLO trackers, the incident correlator -- reads one counter, one
    histogram and one span name, so none of them can tell the modes
    apart.
    """

    @pytest.fixture(scope="class")
    def watched(self):
        """``{push: (registry, watch)}`` for the P2 scenario."""
        from repro.experiments.fleet_run import P2Injection, run_fleet_scenario
        from repro.obs.health import HealthWatch

        runs = {}
        for push_mode in (False, True):
            with obs_runtime.session() as telemetry:
                watch = HealthWatch(tick_interval=1800.0)
                run_fleet_scenario(
                    seed="equiv", n_nodes=3, n_days=2, p2=P2Injection(),
                    watch=watch, push_mode=push_mode,
                )
            runs[push_mode] = telemetry.registry, watch
        return runs

    def test_round_counts_identical(self, watched):
        for registry, _ in watched.values():
            assert _round_counts(registry) == {"ok": 348, "failed": 1}

    def test_alerts_slos_and_incidents_identical(self, watched):
        def history(watch):
            end = watch.monitor.last_check
            return {
                "alerts": [alert.to_record() for alert in watch.engine.history],
                "window_counts": {
                    tracker.name: [
                        tracker.window_counts(window, end)
                        for window in (1800.0, 10800.0, 86400.0)
                    ]
                    for tracker in watch.monitor.slos.all()
                },
                "incidents": [
                    (report.alert["rule"], report.agent_id, report.window)
                    for report in watch.incidents
                ],
            }

        pull, push = (history(watch) for _, watch in watched.values())
        assert pull["alerts"], "the P2 scenario must raise alerts"
        assert pull == push

    def test_freshness_incidents_carry_the_push_round_path(self, watched):
        """A push incident's critical path decomposes the last
        ``verifier.poll`` span, as a pull incident's does."""
        _, watch = watched[True]
        freshness = [
            report for report in watch.incidents
            if report.alert["rule"].startswith("slo.freshness.")
        ]
        assert freshness
        for report in freshness:
            assert report.critical_path
            assert report.critical_path[0]["name"] == "verifier.poll"

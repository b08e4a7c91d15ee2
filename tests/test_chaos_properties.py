"""The seeded chaos harness: system-wide invariants under injected faults.

Three invariants, each phrased over the fault plan's ground-truth
injection log joined against the verifier's verdict stream:

1. **No false positives from noise.**  Under a transient-only profile
   (drops, delays, duplicates, partitions -- any seed, any
   probability), no node ever reaches a FAILED verdict and no round
   ever records an attestation failure.  Transient weather degrades
   rounds; it must never be mistaken for tampering (the paper's FP
   study inverted).
2. **No masking of tampering.**  Any round during which a corrupt or
   replay fault actually fired must fail -- ``ok=False`` with real
   failures, never ``transient`` -- because retrying an integrity
   error would hand an attacker a laundering primitive (tamper, get
   re-asked, serve clean bytes).  One carve-out keeps the property
   honest: if an attempt-aborting transient fault fired *after* the
   integrity fault in the same round (e.g. the request nonce was
   flipped but the response was then dropped), the tampered payload
   never reached verification -- the verifier observed only a
   transport error, and re-asking is sound.  The test distinguishes
   the two by replaying the injection record order.
3. **No silent gaps.**  Over a full fleet run under chaos, every batch
   tick polls every pollable node: a node with no attestation event at
   a tick must have a prior *explaining* event (``node.quarantined`` or
   ``polling.halted``).  This is the anti-P2 invariant -- the
   attestation history may degrade, but it never goes dark without
   saying why.

The case grid is (profile x seed); ``REPRO_CHAOS_SEEDS`` scales the
seeds-per-profile axis (default 24, x9 profiles = 216 cases -- the CI
fast grid).  Each case runs a fresh verifier over a shared rig, so the
grid costs seconds, not minutes.
"""

from __future__ import annotations

import os

import pytest

from repro.common.rng import SeededRng
from repro.keylime.audit import AuditLog
from repro.keylime.faults import CHAOS_PROFILES, INTEGRITY_KINDS, chaos_profile
from repro.keylime.retrypolicy import RetryPolicy
from repro.keylime.verifier import POLLABLE_STATES, AgentState, KeylimeVerifier

#: Seeds per profile; 24 x 9 profiles = 216 cases in the default grid.
CHAOS_SEEDS = int(os.environ.get("REPRO_CHAOS_SEEDS", "24"))
POLLS_PER_CASE = 8

CASES = [
    (profile, seed)
    for profile in sorted(CHAOS_PROFILES)
    for seed in range(CHAOS_SEEDS)
]


@pytest.fixture(scope="module")
def rig():
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import small_config
    from repro.experiments.testbed import build_testbed

    return build_testbed(small_config("chaos-rig"))


def run_case(rig, profile: str, seed: int, quarantine_after: int = 3):
    """One chaos case: fresh verifier + fault plan over the shared rig.

    Returns ``(verifier, plan, rounds)`` where *rounds* is a list of
    ``(result, injections)`` pairs -- the injections that fired during
    that specific round.
    """
    plan = chaos_profile(profile, SeededRng(f"chaos/{profile}/{seed}"))
    plan.bind_clock(rig.scheduler.clock)
    verifier = KeylimeVerifier(
        rig.registrar,
        rig.scheduler,
        SeededRng(f"verifier/{profile}/{seed}"),
        audit=AuditLog(),
        retry_policy=RetryPolicy(max_attempts=4),
        quarantine_after=quarantine_after,
    )
    verifier.add_agent(plan.wrap(rig.agent), rig.policy)
    rounds = []
    for _ in range(POLLS_PER_CASE):
        if verifier.state_of(rig.agent_id) not in POLLABLE_STATES:
            break
        seen = len(plan.injections)
        result = verifier.poll(rig.agent_id)
        rounds.append((result, plan.injections[seen:]))
    return verifier, plan, rounds


def _aborts_attempt(record, attempt_timeout: float) -> bool:
    """Whether a transient injection record killed its delivery attempt.

    Drops and partitions always do; a delay only when it exceeded the
    per-attempt timeout (the injected duration is in the record detail).
    Sub-timeout delays and duplicates deliver the payload unchanged.
    """
    from repro.keylime.faults import FaultKind

    if record.kind in (FaultKind.DROP, FaultKind.PARTITION):
        return True
    if record.kind is FaultKind.DELAY:
        return float(record.detail.rstrip("s")) > attempt_timeout
    return False


def _masked_by_weather(injected, index, attempt_timeout: float) -> bool:
    """True when injection *index* never reached verification: a later
    fault in the same round aborted the delivery attempt carrying it."""
    return any(
        _aborts_attempt(record, attempt_timeout)
        for record in injected[index + 1:]
    )


@pytest.mark.parametrize("profile,seed", CASES)
def test_chaos_invariants(rig, profile, seed):
    transient_only = CHAOS_PROFILES[profile]
    verifier, plan, rounds = run_case(rig, profile, seed)
    state = verifier.state_of(rig.agent_id)

    # Invariant 3 (single-node form): every loop iteration produced a
    # result until the node left the pollable states -- no silent skip.
    expected = POLLS_PER_CASE if state in POLLABLE_STATES else len(rounds)
    assert len(rounds) == expected

    for result, injected in rounds:
        delivered_integrity = [
            record
            for index, record in enumerate(injected)
            if record.kind in INTEGRITY_KINDS
            and not _masked_by_weather(injected, index, plan.attempt_timeout)
        ]
        if transient_only:
            # Invariant 1: transient weather never becomes a verdict.
            assert all(r.kind not in INTEGRITY_KINDS for r in injected)
            assert result.failures == ()
            assert result.ok or result.transient
        if delivered_integrity:
            # Invariant 2: a corrupt/replay fault that reached the
            # verifier must fail the round -- not be retried away, not
            # be degraded away.
            assert not result.ok
            assert not result.transient
            assert result.failures

    if transient_only:
        # Invariant 1, state form: noise may suspend or quarantine a
        # node, never FAIL it.
        assert state is not AgentState.FAILED
        assert all(
            record.kind not in INTEGRITY_KINDS for record in plan.injections
        )


@pytest.mark.parametrize("seed", range(min(CHAOS_SEEDS, 8)))
def test_quarantine_only_after_budget(rig, seed):
    """A quarantined node got exactly its budget of suspect windows."""
    verifier, plan, rounds = run_case(rig, "partition", seed, quarantine_after=2)
    slot = verifier._slot(rig.agent_id)
    state = verifier.state_of(rig.agent_id)
    if state is AgentState.QUARANTINED:
        assert slot.suspect_windows == 2
    # Partition is total: every completed round degraded.
    assert all(result.transient for result, _ in rounds)
    assert all(result.failures == () for result, _ in rounds)


def _fleet_tick_coverage(result):
    """Invariant 3 over a full fleet run: join ticks against events."""
    events = list(result.fleet.events)
    tick_times = sorted(
        {event.time for event in events if event.kind == "fleet.polled"}
    )
    assert tick_times, "fleet run recorded no fleet ticks"
    per_node_attested = {}
    per_node_explained = {}
    for event in events:
        agent = event.details.get("agent")
        if agent is None:
            continue
        if event.kind.startswith("attestation.") and event.kind != "attestation.restarted":
            per_node_attested.setdefault(agent, set()).add(event.time)
        if event.kind in ("node.quarantined", "polling.halted"):
            per_node_explained.setdefault(agent, []).append(event.time)
    for node in result.fleet.nodes:
        agent_id = node.agent.agent_id
        attested = per_node_attested.get(agent_id, set())
        explained = per_node_explained.get(agent_id, [])
        for tick in tick_times:
            if tick in attested:
                continue
            # A missing poll is only legal after an explaining event.
            assert any(when <= tick for when in explained), (
                f"{agent_id} silently skipped the tick at t={tick}: no "
                f"attestation event and no quarantine/halt before it"
            )


@pytest.mark.parametrize("profile,chaos_seed", [
    ("transient-mixed", "fleet-a"),
    ("mixed", "fleet-b"),
    ("partition", "fleet-c"),
])
def test_fleet_ticks_never_silently_skip(profile, chaos_seed):
    from repro.experiments.fleet_run import ChaosInjection, run_fleet_scenario

    result = run_fleet_scenario(
        seed="chaos-fleet",
        n_nodes=3,
        n_days=1,
        n_filler_packages=8,
        chaos=ChaosInjection(
            profile=profile, chaos_seed=chaos_seed, quarantine_after=2
        ),
    )
    _fleet_tick_coverage(result)
    if CHAOS_PROFILES[profile]:
        # Invariant 1 at fleet scale: no FAILED state from noise.
        assert "failed" not in result.status.values()


def test_fleet_partition_window_recovers():
    """A bounded partition suspends nodes, then polling heals them."""
    from repro.common.clock import hours
    from repro.experiments.fleet_run import ChaosInjection, run_fleet_scenario

    result = run_fleet_scenario(
        seed="chaos-heal",
        n_nodes=2,
        n_days=1,
        n_filler_packages=8,
        chaos=ChaosInjection(
            profile="partition",
            chaos_seed="heal",
            start=hours(2),
            end=hours(4),
            quarantine_after=10,  # large budget: must not quarantine
        ),
    )
    kinds = [event.kind for event in result.fleet.events]
    assert "node.suspect" in kinds
    assert "node.recovered" in kinds
    assert "node.quarantined" not in kinds
    # Everyone healed: polling continued straight through the window.
    assert set(result.status.values()) == {"attesting"}
    _fleet_tick_coverage(result)

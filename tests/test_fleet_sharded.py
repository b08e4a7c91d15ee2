"""One fleet type: an unsharded fleet is the one-member case.

Sharding used to live in a second class wrapping a fully enrolled
fleet, with its own ``poll_all``, status and rollups; the copies
drifted.  These tests pin the single code path: the sharded rollups
match the single-verifier ones, the single-verifier accessors refuse a
sharded fleet instead of answering for an idle verifier, and an
unsharded fleet attaches no ring and takes no checkpoint.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.common.errors import StateError
from repro.common.rng import SeededRng
from repro.experiments.shardfleet import build_shard_fleet, build_shard_rig
from repro.keylime import fleet as fleet_module
from repro.obs import runtime as obs_runtime

sys.path.insert(0, os.path.dirname(__file__))

from resume_helpers import (  # noqa: E402
    assert_fingerprints_equal,
    vfleet_fingerprint,
)

INTERVAL = 1800.0


def _tick(fleet):
    fleet.scheduler.clock.advance_by(INTERVAL)
    return fleet.poll_all()


@pytest.fixture()
def telemetry():
    previous = obs_runtime.get()
    try:
        yield obs_runtime.activate(clock=None)
    finally:
        if previous.enabled:
            obs_runtime.activate(previous)
        else:
            obs_runtime.deactivate()


def test_sharded_rollups_count_the_quarantined_node(telemetry):
    """A quarantined node shows on the sharded fleet's gauges, and the
    ``fleet.polled`` event's ``healthy`` is the healthy-node count."""
    fleet = build_shard_fleet("q", 6, 3)
    fleet.poll_all()
    victim = fleet.nodes[0]
    victim.machine.install_file("/usr/bin/implant", b"x", executable=True)
    victim.machine.exec_file("/usr/bin/implant")
    fleet.poll_all()

    quarantined = telemetry.registry.get("fleet_quarantined_nodes")
    assert quarantined is not None and quarantined.value == 1.0
    polled = [record for record in fleet.events if record.kind == "fleet.polled"]
    assert polled[-1].details["healthy"] == fleet.healthy_count() == 5


def test_unsharded_fleet_attaches_no_ring_and_takes_no_checkpoint():
    fleet = build_shard_rig("one-member", 2, fillers=2)
    _tick(fleet)
    _tick(fleet)
    assert fleet.ring is None
    assert fleet.probe() == []
    assert list(fleet.shards) == ["verifier-0"]
    assert fleet.shards["verifier-0"].checkpoint is None
    assert fleet.verifier is fleet.shards["verifier-0"].verifier
    assert fleet.audit is fleet.shards["verifier-0"].verifier.audit
    assert not any(record.kind.startswith("shard.") for record in fleet.events)


def test_sharded_fleet_has_no_single_verifier():
    fleet = build_shard_fleet("no-sole", 4, 2)
    for accessor in ("verifier", "accounting", "audit"):
        with pytest.raises(StateError):
            getattr(fleet, accessor)
    # Per-agent access still answers for every node.
    for agent_id in fleet.agent_ids:
        assert fleet.verifier_for(agent_id) is fleet.shards[
            fleet.shard_of(agent_id)
        ].verifier


def _checkpoints(fleet) -> dict:
    """Each shard's checkpoint and host."""
    return {
        shard_id: (host.host, host.checkpoint)
        for shard_id, host in fleet.shards.items()
    }


@pytest.mark.parametrize("push_mode", (False, True), ids=("pull", "push"))
def test_start_polling_ticks_a_sharded_fleet_like_poll_all(push_mode):
    """The scheduled tick is ``poll_all``: a sharded fleet driven by
    ``start_polling`` (with a member killed between ticks) ends exactly
    where the same rig driven tick by tick ends."""
    timed = build_shard_fleet("timer", 6, 3, push_mode=push_mode)
    timed.start_polling(INTERVAL)
    timed.scheduler.run_until(2.5 * INTERVAL)
    timed.kill("verifier-0")
    timed.scheduler.run_until(5 * INTERVAL)
    timed.stop_polling()

    stepped = build_shard_fleet("timer", 6, 3, push_mode=push_mode)
    for round_index in range(5):
        if round_index == 2:
            stepped.kill("verifier-0")
        _tick(stepped)

    assert timed.shards["verifier-0"].host != "verifier-0"  # failed over
    assert_fingerprints_equal(
        vfleet_fingerprint(timed), vfleet_fingerprint(stepped)
    )
    assert _checkpoints(timed) == _checkpoints(stepped)
    assert all(
        len(timed.verifier_for(agent_id).results_of(agent_id)) == 5
        for agent_id in timed.agent_ids
    )


def test_shard_runs_before_the_first_round_only():
    fleet = build_shard_rig("late-shard", 2, fillers=2)
    _tick(fleet)
    with pytest.raises(StateError):
        fleet.shard(2, SeededRng("late-shard").fork("shards"))
    with pytest.raises(StateError):
        fleet.join("verifier-1")


def test_sharded_update_cycle_pushes_policy_to_every_shard():
    fleet = build_shard_fleet("update", 4, 2)
    _tick(fleet)
    fleet.scheduler.clock.advance_by(INTERVAL)
    report = fleet.run_update_cycle()
    assert report.nodes_updated == 0  # no releases: nothing to upgrade
    results = _tick(fleet)
    assert sorted(results) == sorted(fleet.agent_ids)
    assert all(result.ok for result in results.values())
    for agent_id in fleet.agent_ids:
        assert fleet.verifier_for(agent_id).policy_of(agent_id) is fleet.policy


def test_one_fleet_class():
    assert fleet_module.VerifierFleet is fleet_module.Fleet

"""Shared fingerprint helpers for the crash-resume and failover suites.

Both suites prove the same property at different granularities -- "kill
the verifier anywhere, lose nothing, bit-for-bit" -- so they share one
fingerprint vocabulary.  :func:`fleet_fingerprint` captures a
single-verifier run (the crash-resume suite's original ``_fingerprint``,
hoisted here); :func:`vfleet_fingerprint` captures a sharded
:class:`~repro.keylime.fleet.VerifierFleet` per shard, audit chains
included.  :func:`assert_fingerprints_equal` compares field-by-field so
a mismatch names the diverging piece instead of dumping two dicts.

Not a pytest plugin: test modules import this via the ``tests/`` path
insert (the ``test_degraded_stateful`` idiom).
"""

from __future__ import annotations


def fleet_fingerprint(fleet) -> dict:
    """Everything a single-verifier run produced, bit-for-bit comparable."""
    return {
        "results": {
            node.agent.agent_id: fleet.verifier.results_of(node.agent.agent_id)
            for node in fleet.nodes
        },
        "offsets": {
            node.agent.agent_id: fleet.verifier.verified_entries_of(
                node.agent.agent_id
            )
            for node in fleet.nodes
        },
        "status": fleet.status(),
        "audit": fleet.verifier.audit.export_records(),
        "audit_head": fleet.verifier.audit.head_hash,
    }


def vfleet_fingerprint(vfleet) -> dict:
    """A sharded run's full output, keyed so shards compare shard-wise.

    Per-agent verdict history and replay offsets come from whichever
    verifier currently answers for the agent; the audit chains are
    captured per *shard* (each shard's chain is its own hash-linked
    truth, surviving adoption byte-identical).
    """
    results = {}
    offsets = {}
    for agent_id in vfleet.agent_ids:
        verifier = vfleet.verifier_for(agent_id)
        results[agent_id] = verifier.results_of(agent_id)
        offsets[agent_id] = verifier.verified_entries_of(agent_id)
    return {
        "results": results,
        "offsets": offsets,
        "status": vfleet.status(),
        "audit": {
            shard_id: vfleet.shards[shard_id].verifier.audit.export_records()
            for shard_id in vfleet.shard_ids
        },
        "audit_head": {
            shard_id: vfleet.shards[shard_id].verifier.audit.head_hash
            for shard_id in vfleet.shard_ids
        },
    }


def assert_fingerprints_equal(actual: dict, expected: dict) -> None:
    """Field-by-field equality, so failures name the diverging piece."""
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], f"fingerprint field {key!r} diverged"


def gap_alerts(watch) -> list:
    """The coverage-gap alerts a HealthWatch fired (empty = silent)."""
    return [
        alert for alert in watch.engine.history
        if alert.rule == "health.coverage_gap"
    ]


def enrollment_events(events) -> list:
    """Every registrar enrollment in an EventLog, in order."""
    return [record for record in events if record.kind == "agent.registered"]

"""Failover equivalence: kill a verifier anywhere, verdicts unchanged.

The sharded fleet's tentpole property, proven chaos-style: a seeded
3-verifier/30-agent run is killed (or partitioned) at *every* round
boundary, and each degraded run must be indistinguishable from the
unfailed baseline --

* per-shard verdict histories and hash-chained audit logs bit-identical
  (the adopter resumes the dead host's checkpoint mid-round, RNG
  streams included);
* zero re-enrollments (failover moves *hosting*, never registrar
  records);
* the coverage-gap detector silent (the probe adopts before the tick's
  polls, so no agent misses a single round -- the anti-P2 guarantee
  extended to verifier churn);
* the federation dashboard showing the adoption, not hiding it.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.experiments.shardfleet import run_shard_fleet
from repro.keylime.faults import VerifierOutage
from repro.obs.dashboard import top_frame_record

sys.path.insert(0, os.path.dirname(__file__))

from resume_helpers import (  # noqa: E402
    assert_fingerprints_equal,
    enrollment_events,
    vfleet_fingerprint,
)

SEED = "failover-chaos"
N_NODES = 30
N_VERIFIERS = 3
N_ROUNDS = 4
INTERVAL = 1800.0
BOUNDARIES = tuple(range(N_ROUNDS))


def _victim(boundary: int) -> str:
    """Rotate the killed member so every shard plays the victim."""
    return f"verifier-{boundary % N_VERIFIERS}"


def _run(**kwargs):
    return run_shard_fleet(
        seed=SEED, n_nodes=N_NODES, n_verifiers=N_VERIFIERS,
        fillers=2, rounds=N_ROUNDS, poll_interval=INTERVAL, **kwargs,
    )


@pytest.fixture(scope="module")
def baseline():
    """The unfailed run every chaos variant must reproduce exactly."""
    result = _run()
    return {
        "fingerprint": vfleet_fingerprint(result.vfleet),
        "enrollments": len(enrollment_events(result.fleet.events)),
        "result": result,
    }


def test_clean_watched_run_reads_poll_counters_without_creating_them(
    baseline,
):
    """The health watch only reads ``verifier_polls_total``: a run with
    no failed poll holds (and federates) no ``result="failed"`` child."""
    result = baseline["result"]
    polls = result.watch.monitor.registry.get("verifier_polls_total")
    assert {labels["result"] for labels, _ in polls.samples()} == {"ok"}
    assert result.hub.store.select("verifier_polls_total", result="ok")
    assert result.hub.store.select("verifier_polls_total", result="failed") == []


class TestKillAtEveryBoundary:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_failover_run_is_bit_identical(self, baseline, boundary):
        victim = _victim(boundary)
        result = _run(kill={boundary: victim})

        # The kill actually happened and was adopted that same round.
        assert boundary in result.failovers
        assert victim not in result.vfleet.live_members()
        assert result.vfleet.shards[victim].host != victim

        assert_fingerprints_equal(
            vfleet_fingerprint(result.vfleet), baseline["fingerprint"]
        )
        for shard_id in result.vfleet.shard_ids:
            result.vfleet.shards[shard_id].audit.verify_chain()

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_zero_reenrollments_and_no_coverage_gap(self, baseline, boundary):
        result = _run(kill={boundary: _victim(boundary)})
        assert (
            len(enrollment_events(result.fleet.events))
            == baseline["enrollments"]
        )
        assert result.gap_alerts() == []
        states = result.vfleet.status()
        assert all(state == "attesting" for state in states.values())


class TestPartitionWindow:
    def test_transient_partition_adopts_once_and_stays_identical(
        self, baseline
    ):
        """A partition spanning exactly one probe: the shard is adopted
        for that tick, the member returns next tick, and -- since a
        lasting adoption beats state ping-pong -- hosting stays with
        the adopter.  Output still bit-identical, gap detector still
        silent."""
        boundary = 1
        victim = _victim(boundary)
        at = (boundary + 1) * INTERVAL
        outage = VerifierOutage(victim, start=at - 1.0, end=at + 1.0)
        result = _run(outages=(outage,))

        assert boundary in result.failovers
        # The member recovered (no kill flag) but the shard stayed put.
        assert victim in result.vfleet.live_members()
        assert result.vfleet.shards[victim].host != victim

        assert_fingerprints_equal(
            vfleet_fingerprint(result.vfleet), baseline["fingerprint"]
        )
        assert result.gap_alerts() == []
        assert (
            len(enrollment_events(result.fleet.events))
            == baseline["enrollments"]
        )


class TestObservatorySeesTheFailover:
    def test_shard_panel_reports_the_adoption(self, baseline):
        """The federation hub's view after a failover names the adopter
        and counts the handoff -- observability is part of the failover
        contract, not an afterthought."""
        boundary = 2
        victim = _victim(boundary)
        result = _run(kill={boundary: victim})
        frame = top_frame_record(
            result.hub.store, result.end_time,
            result.hub.staleness(result.end_time), INTERVAL,
        )
        assert frame["shard_failovers"] >= 1
        assert frame["shards"][victim]["host"] != victim
        assert frame["shards"][victim]["host"] in result.vfleet.live_members()
        assert sum(s["agents"] for s in frame["shards"].values()) == N_NODES
        # The dead member shows up stale on the hub, not absent.
        staleness = result.hub.staleness(result.end_time)
        assert staleness[victim] is not None and staleness[victim] > INTERVAL

    def test_balance_rule_records_on_the_hub(self, baseline):
        store = baseline["result"].hub.store
        balance = store.instant(
            "fleet:shard_balance", None, baseline["result"].end_time
        )
        assert balance is not None
        assert 0.0 < balance <= 1.0

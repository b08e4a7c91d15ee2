"""A sharded multi-verifier fleet under the federation observatory.

This scenario is the ROADMAP's sharded fleet made real: one provisioned
:class:`~repro.keylime.fleet.Fleet` split across N verifier members by
the registrar's consistent-hash ring
(:class:`~repro.keylime.sharding.ConsistentHashRing`, see
:meth:`~repro.keylime.fleet.Fleet.shard`), driven round by round
through the fleet's own ``poll_all``.  Every member attests a key
range of the *same* fleet, so failover and rebalancing are observable
as state handoffs.  ``repro-cli obs top`` renders this run.

Federation works the way a real per-process deployment would: after
each round, every member serialises its slice of the process registry
(the shard-labelled families it currently hosts) through the JSON wire
pair into one :class:`~repro.obs.federation.FederationHub`; families
with no shard label ship under the synthetic ``fleet`` source.  The
hub's recording rules then produce ``fleet:shard_balance``, and the
``obs top`` shard panel renders straight from the hub's store.

Chaos hooks:

* ``kill`` -- mark a member dead at a given round boundary; the next
  tick's heartbeat probe adopts its shards (PR-5 style fault, aimed at
  the verifier instead of the agent).
* ``outages`` -- scheduled :class:`~repro.keylime.faults.VerifierOutage`
  partition windows, consulted by the same probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.keylime.faults import VerifierOutage
from repro.keylime.fleet import Fleet, build_fleet
from repro.obs import runtime as obs_runtime
from repro.obs.federation import (
    FLEET_SOURCE,
    FederationHub,
    registry_snapshot,
    snapshot_to_json,
)
from repro.obs.health import HealthWatch


def build_shard_rig(
    seed: str, n_nodes: int, fillers: int = 2, push_mode: bool = False
) -> Fleet:
    """A deterministic fleet rig for sharding experiments and tests.

    Also the CLI's ``state save``/``state load`` rig: provisioning is a
    pure function of ``(seed, n_nodes, fillers)`` with no release
    stream, so two builds from one seed are bit-identical -- the
    property every failover-equivalence assertion in the test suite
    leans on.
    """
    return build_fleet(
        seed, n_nodes, fillers=fillers, mean_exec_files=6.0,
        manufacturer="Infineon", events=EventLog(), push_mode=push_mode,
    )


def build_shard_fleet(
    seed: str,
    n_nodes: int,
    n_verifiers: int,
    fillers: int = 2,
    push_mode: bool = False,
    outages: tuple[VerifierOutage, ...] | list[VerifierOutage] = (),
    checkpoint_every: int = 1,
) -> Fleet:
    """One deterministic rig, sharded on the ``shards`` fork of *seed*."""
    fleet = build_shard_rig(seed, n_nodes, fillers, push_mode)
    fleet.shard(
        n_verifiers, SeededRng(seed).fork("shards"),
        outages=outages, checkpoint_every=checkpoint_every,
    )
    return fleet


def member_snapshots(
    fleet: Fleet, registry, at: float
) -> list[dict[str, Any]]:
    """Slice one process registry into per-member federation snapshots.

    A real multi-verifier deployment runs one registry per process;
    this simulation shares one.  The split rule recovers the per-process
    view: a family carrying a ``shard`` label belongs to the member
    currently *hosting* that shard, everything else ships under the
    ``fleet`` source.  Every live member gets a snapshot even when its
    slice is empty -- a silent member should show up as *stale* on the
    hub, not vanish from it.
    """
    hosts = {
        shard_id: host.host for shard_id, host in fleet.shards.items()
    }
    full = registry_snapshot(registry, FLEET_SOURCE, at)
    slices: dict[str, list[dict[str, Any]]] = {FLEET_SOURCE: []}
    for member in sorted(fleet.live_members()):
        slices[member] = []
    for entry in full["metrics"]:
        shard = entry["labels"].get("shard")
        owner = hosts.get(shard) if shard is not None else None
        target = owner if owner in slices else FLEET_SOURCE
        slices[target].append(entry)
    snapshots = []
    for source, metrics in slices.items():
        snapshots.append({
            "type": full["type"],
            "source": source,
            "at": at,
            "metrics": metrics,
            "label_overflow": dict(full["label_overflow"])
            if source == FLEET_SOURCE else {},
        })
    return snapshots


@dataclass
class ShardFleetResult:
    """Outcome of one sharded-fleet run."""

    fleet: Fleet
    hub: FederationHub
    watch: HealthWatch
    rounds: int
    poll_interval: float
    #: shard ids that failed over, per round index.
    failovers: dict[int, list[str]] = field(default_factory=dict)

    @property
    def vfleet(self) -> Fleet:
        """The sharded fleet under its former multi-verifier name."""
        return self.fleet

    @property
    def end_time(self) -> float:
        return self.rounds * self.poll_interval

    def gap_alerts(self) -> list[Any]:
        """Coverage-gap alerts the watch fired (empty = no blind spots)."""
        return [
            alert for alert in self.watch.engine.history
            if alert.rule == "health.coverage_gap"
        ]


def run_shard_fleet(
    seed: str = "shardfleet",
    n_nodes: int = 9,
    n_verifiers: int = 3,
    fillers: int = 2,
    rounds: int = 6,
    poll_interval: float = 1800.0,
    push_mode: bool = False,
    kill: dict[int, str] | None = None,
    outages: tuple[VerifierOutage, ...] | list[VerifierOutage] = (),
    checkpoint_every: int = 1,
    on_round: Callable[[int, "ShardFleetResult"], None] | None = None,
) -> ShardFleetResult:
    """Drive a sharded fleet for *rounds* ticks under federation.

    *kill* maps round index -> member to mark dead at that round's
    *boundary* (before the tick's probe), e.g. ``{2: "verifier-0"}``
    kills verifier-0 after two clean rounds; the third round already
    runs on the adopter.  Each round ships per-member snapshots through
    the JSON wire into the hub and evaluates its recording rules, so
    ``fleet:shard_balance`` and the shard panel stay current.
    """
    fleet = build_shard_fleet(
        seed, n_nodes, n_verifiers, fillers, push_mode,
        outages=outages, checkpoint_every=checkpoint_every,
    )
    with obs_runtime.session(clock=fleet.scheduler.clock) as telemetry:
        # Rollups recorded during construction went to the previous bundle;
        # refresh them into this run's registry.
        fleet._record_rollups()
        hub = FederationHub(poll_interval=poll_interval)
        watch = HealthWatch(tick_interval=poll_interval)
        watch.attach(
            fleet.events,
            registry=telemetry.registry,
            tracer=telemetry.tracer,
            poll_interval=poll_interval,
            now=fleet.scheduler.clock.now,
        )
        for node in fleet.nodes:
            watch.watch_agent(
                node.agent.agent_id, poll_interval, now=fleet.scheduler.clock.now
            )

        result = ShardFleetResult(
            fleet=fleet, hub=hub, watch=watch,
            rounds=rounds, poll_interval=poll_interval,
        )
        kill = dict(kill or {})
        for round_index in range(rounds):
            member = kill.get(round_index)
            if member is not None:
                fleet.kill(member)
            fleet.scheduler.clock.advance_by(poll_interval)
            now = fleet.scheduler.clock.now
            seen = len(fleet.events.by_kind("fleet.shard.failover"))
            fleet.poll_all()
            # The tick's own probe adopts; its failover events name the shards.
            adopted = fleet.events.by_kind("fleet.shard.failover")[seen:]
            if adopted:
                result.failovers[round_index] = [e.details["shard"] for e in adopted]
            for snapshot in member_snapshots(fleet, telemetry.registry, now):
                hub.ingest_json(snapshot_to_json(snapshot))
            hub.evaluate(now)
            watch.tick(now)
            if on_round is not None:
                on_round(round_index, result)
        watch.finalize(fleet.scheduler.clock.now)
        return result

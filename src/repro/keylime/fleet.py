"""Fleet management: many attested nodes under one or more verifiers.

The paper's motivation is cloud providers attesting *large fleets*; the
tenant tool exists to "manage groups of attested nodes".  This module
provides that layer on top of the single-node stack:

* :class:`Fleet` provisions N identical machines (same baseline package
  set, each with its own manufactured TPM), registers and onboards all
  of them against one shared runtime policy -- the point of the
  mirror-derived dynamic policy is precisely that identical nodes can
  share it;
* fleet-wide operations: sync-once/update-everywhere cycles, polling
  every node, and status roll-ups;
* revocation wiring: a fleet-level :class:`QuarantineListener` so a
  single compromised node is fenced without touching its siblings;
* one tick, :meth:`Fleet.poll_all` (scheduled by
  :meth:`Fleet.start_polling`), that runs every shard's batch of
  attestation rounds back-to-back and shares a single
  :class:`repro.keylime.policy.VerdictCache` across every node --
  same-distro nodes measure nearly identical files, so policy
  evaluation costs O(unique digests), not O(nodes x entries);
* multi-verifier sharding: :meth:`Fleet.shard` splits the fleet's one
  verifier across N ring-assigned members with failover and
  rebalancing -- a single verifier is the one-member case;
* :func:`build_fleet`, the seeded archive -> mirror -> policy -> fleet
  rig every experiment, bench and example provisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.common.clock import Scheduler
from repro.common.errors import StateError
from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.distro.apt import AptInstaller
from repro.distro.archive import UbuntuArchive
from repro.distro.mirror import LocalMirror
from repro.distro.workload import (
    DEFAULT_KERNEL,
    ReleaseStreamConfig,
    SyntheticReleaseStream,
    build_base_system,
)
from repro.dynpolicy.generator import DynamicPolicyGenerator, PolicyUpdateReport
from repro.keylime.agent import KeylimeAgent
from repro.keylime.audit import AuditLog
from repro.keylime.policy import IBM_STYLE_EXCLUDES, RuntimePolicy, VerdictCache
from repro.keylime.registrar import KeylimeRegistrar
from repro.keylime.revocation import QuarantineListener, RevocationNotifier
from repro.keylime.faults import FaultPlan, VerifierOutage
from repro.keylime.retrypolicy import RetryPolicy
from repro.keylime.sharding import ConsistentHashRing, MigrationPlan, shard_balance
from repro.keylime.statestore import (
    export_agent_state,
    import_agent_state,
    restore_verifier,
    snapshot_verifier,
)
from repro.keylime.transport import JsonTransportAgent
from repro.keylime.verifier import (
    POLLABLE_STATES,
    AgentState,
    AttestationResult,
    KeylimeVerifier,
)
from repro.kernelsim.kernel import Machine
from repro.obs import runtime as obs
from repro.obs.capacity import (
    POLL_TIMER,
    TickBudgetAccountant,
    injected_delay_total,
    publish_fleet_load,
)
from repro.tpm.device import TpmManufacturer

#: The member a fleet starts with: its one verifier, until it is sharded.
SOLE_MEMBER = "verifier-0"


@dataclass
class FleetNode:
    """One attested machine and its per-node plumbing."""

    name: str
    machine: Machine
    apt: AptInstaller
    agent: KeylimeAgent


@dataclass
class FleetUpdateReport:
    """Outcome of one fleet-wide update cycle."""

    policy_report: PolicyUpdateReport
    nodes_updated: int
    files_written_total: int
    rebooted_nodes: tuple[str, ...] = ()


@dataclass
class ShardHost:
    """One shard: a self-contained verifier attesting a key range.

    The shard is the unit of both assignment and failover.  It owns a
    private :class:`KeylimeVerifier` (own RNG streams, own hash-chained
    audit log, own tick accountant) so that *where it runs* is
    irrelevant to *what it computes*: when the hosting member dies, the
    whole shard is rebuilt on the adopter from ``checkpoint`` and its
    nonce sequence, verdict history and audit chain continue
    bit-identically.  ``host`` names the member currently running the
    shard; it starts equal to ``shard_id`` and diverges on adoption.
    The shard's agents are its verifier's slots, and their order is the
    batch order; its audit log is ``verifier.audit``.
    """

    shard_id: str
    host: str
    verifier: KeylimeVerifier
    accounting: TickBudgetAccountant
    checkpoint: dict | None = None
    adoptions: int = 0

    def __len__(self) -> int:
        return len(self.verifier._slots)

    def poll_batch(self, push: bool) -> dict[str, AttestationResult]:
        """One attestation round for every still-attesting agent.

        The rounds run back-to-back in batch order in one
        ``fleet.poll_batch`` span against one verifier (and therefore
        one shared :class:`~repro.keylime.policy.VerdictCache`), so the
        first node of a same-distro batch warms the cache and every
        later node's policy evaluation is almost entirely hits.

        With *push* the same agents, in the same order, drive their own
        negotiate -> submit -> verdict exchanges instead of being polled
        (a ``fleet.push_batch`` span), and the verifier then reaps any
        session left to expire.  Agents whose exchange never produced a
        result (abandoned delivery, protocol rejection) are absent from
        the returned mapping -- their unanswered session becomes a
        degraded round when the agent's next negotiation supersedes it
        or the reaper expires it.
        """
        telemetry = obs.get()
        run_round = self.verifier.push_round if push else self.verifier.poll
        results: dict[str, AttestationResult] = {}
        skipped = 0
        # The tick is charged only the chaos delay of its own batch.
        delay_before = injected_delay_total(telemetry.registry)
        wall_start = perf_counter()
        with telemetry.tracer.span(
            "fleet.push_batch" if push else "fleet.poll_batch",
            agents=len(self),
        ) as span:
            for agent_id in self.verifier._slots:
                # SUSPECT nodes stay in the batch (the anti-P2
                # invariant); only FAILED/STOPPED/QUARANTINED drop out.
                if self.verifier.state_of(agent_id) not in POLLABLE_STATES:
                    skipped += 1
                    continue
                result = run_round(agent_id)
                if result is not None:
                    results[agent_id] = result
            reaped = self.verifier.reap_push_sessions() if push else None
            span.set_attribute("pushed" if push else "polled", len(results))
            span.set_attribute("skipped", skipped)
            if reaped is not None:
                span.set_attribute("reaped", len(reaped))
            cache = self.verifier.verdict_cache
            if cache is not None:
                span.set_attribute("cache_hit_ratio", round(cache.hit_ratio, 4))
        if skipped:
            telemetry.registry.counter(
                "fleet_poll_skipped_total",
                "Registered agents skipped as non-pollable during batch ticks",
            ).inc(skipped)
        self.accounting.observe_tick(
            self.verifier.scheduler.clock.now,
            wall_seconds=perf_counter() - wall_start,
            registered=len(self),
            polled=len(results),
            skipped=skipped,
            registry=telemetry.registry,
            injected_delay_seconds=(
                injected_delay_total(telemetry.registry) - delay_before
            ),
        )
        return results


def _settings_of(verifier: KeylimeVerifier) -> dict:
    """The configuration every verifier of one fleet shares."""
    return {
        "continue_on_failure": verifier.continue_on_failure,
        "retry_policy": verifier.retry_policy,
        "quarantine_after": verifier.quarantine_after,
    }


class Fleet:
    """A group of identically provisioned, attested machines.

    The fleet attests through ``shards``: one :class:`ShardHost` per
    verifier member.  It starts with the single member ``verifier-0``
    (reachable as :attr:`verifier`, :attr:`accounting` and
    :attr:`audit`); :meth:`shard` splits it, before the first round,
    across N members of a seeded
    :class:`~repro.keylime.sharding.ConsistentHashRing` attached to the
    registrar.  Every member batches its key range against a private
    :class:`KeylimeVerifier`, while the
    :class:`~repro.keylime.policy.VerdictCache` stays the fleet's single
    instance: identical files evaluated on any shard answer all of them,
    so a migrated agent never cold-starts policy evaluation.

    :meth:`poll_all` is the fleet's one tick (probe, every shard's
    batch, checkpoint, roll-ups); :meth:`start_polling` schedules it.

    Two kinds of membership change apply to a sharded fleet:

    * :meth:`join` / :meth:`leave` -- explicit rebalancing.  The ring
      moves the minimal key range (see :mod:`repro.keylime.sharding`)
      and each moved agent's attestation record travels via the
      statestore's per-agent export/import; an open push session is
      deliberately discarded at the source before the export, so
      pre-migration evidence replays to *neither* shard.
    * :meth:`kill` (and scheduled :class:`~repro.keylime.faults
      .VerifierOutage` windows) -- failure.  The heartbeat probe at the
      top of every :meth:`poll_all` tick detects the unreachable host
      *before* any round runs, and the shard fails over whole: a fresh
      verifier on the ring-chosen adopter restores the shard's last
      round-boundary checkpoint, so the tick's round runs on the
      adopter and no agent misses a single poll -- the anti-P2
      guarantee extended to verifier churn.

    An unsharded fleet attaches no ring, adopts nothing and takes no
    checkpoints (no other member could restore one), so it computes
    exactly what one plain verifier does.
    """

    def __init__(
        self,
        size: int,
        mirror: LocalMirror,
        manufacturer: TpmManufacturer,
        scheduler: Scheduler,
        rng: SeededRng,
        policy: RuntimePolicy,
        events: EventLog | None = None,
        kernel_version: str = DEFAULT_KERNEL,
        continue_on_failure: bool = False,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine_after: int = 3,
        push_mode: bool = False,
    ) -> None:
        """Provision, register and onboard *size* identical nodes.

        The verifier talks to each agent through a
        :class:`repro.keylime.transport.JsonTransportAgent` proxy: every
        challenge and every piece of evidence crosses the JSON wire
        formats, traceparent propagation included, exactly as it would
        between separate processes.  The round-trip is lossless, so
        verdicts and RNG draws are unchanged.

        A *fault_plan* (:mod:`repro.keylime.faults`) interposes on both
        wire legs of every node; pair it with a *retry_policy* so
        transient injections are retried and exhausted budgets degrade
        to SUSPECT instead of crashing a batch tick.  A plan with no
        matching fault specs is bit-identical to no plan at all.
        ``quarantine_after`` is the verifier's suspect-window budget.

        With ``push_mode`` the attestation direction inverts: within
        each tick every node's agent drives its own negotiate -> submit
        -> verdict exchange, in batch order, and the verifier then reaps
        expired push sessions.  The wire/fault proxies, retry policy,
        verdict cache and degraded-state machinery are all shared with
        pull mode.
        """
        if size < 1:
            raise ValueError("fleet needs at least one node")
        obs.get().bind_clock(scheduler.clock)
        self.mirror = mirror
        self.scheduler = scheduler
        self.events = events if events is not None else EventLog()
        self.policy = policy
        self.generator = DynamicPolicyGenerator(
            mirror, events=self.events, rng=rng.fork("generator")
        )
        self.notifier = RevocationNotifier(events=self.events)
        self.quarantine = QuarantineListener()
        self.notifier.subscribe(self.quarantine)
        self.registrar = KeylimeRegistrar(
            [manufacturer.root_certificate], events=self.events
        )
        # One verdict cache for the whole fleet: identically provisioned
        # nodes measure the same files, so node 0's evaluations answer
        # everyone else's.
        self.verdict_cache = VerdictCache()
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.bind_clock(scheduler.clock)
        self.push_mode = push_mode
        # Sharding state; an unsharded fleet keeps the defaults.
        self.ring: ConsistentHashRing | None = None
        self.outages: list[VerifierOutage] = []
        self.checkpoint_every = 0
        self._shard_rng: SeededRng | None = None
        self._round = 0
        self._poll_timer = None

        settings = {
            "continue_on_failure": continue_on_failure,
            "retry_policy": retry_policy,
            "quarantine_after": quarantine_after,
        }
        sole = self._new_host(SOLE_MEMBER, rng.fork("verifier"), settings)
        self.members: dict[str, bool] = {SOLE_MEMBER: True}
        self.shards: dict[str, ShardHost] = {SOLE_MEMBER: sole}

        self.nodes: list[FleetNode] = []
        baseline = mirror.index()
        for index in range(size):
            name = f"node-{index:03d}"
            machine = Machine(
                name, manufacturer.manufacture(), clock=scheduler.clock,
                events=self.events, kernel_version=kernel_version,
            )
            machine.boot()
            apt = AptInstaller(machine, events=self.events)
            apt.upgrade_from(baseline, install_new=True)
            agent = KeylimeAgent(f"agent-{name}", machine)
            self.registrar.register(agent)
            if fault_plan is not None:
                verifier_side = fault_plan.wrap(agent)
            else:
                verifier_side = JsonTransportAgent(agent)
            self._enroll(sole, verifier_side, policy)
            self.nodes.append(FleetNode(name=name, machine=machine, apt=apt, agent=agent))

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> FleetNode:
        """Look up one node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"fleet has no node {name!r}")

    # -- construction helpers ----------------------------------------------

    def _new_host(self, shard_id: str, rng: SeededRng, settings: dict) -> ShardHost:
        verifier = KeylimeVerifier(
            self.registrar, self.scheduler, rng, events=self.events,
            notifier=self.notifier, audit=AuditLog(),
            verdict_cache=self.verdict_cache, **settings,
        )
        accounting = TickBudgetAccountant(events=self.events)
        if self._poll_timer is not None:
            accounting.configure(interval=self._poll_timer.interval)
        return ShardHost(
            shard_id=shard_id, host=shard_id, verifier=verifier,
            accounting=accounting,
        )

    @staticmethod
    def _enroll(host: ShardHost, agent, policy, measured_boot=None) -> None:
        host.verifier.add_agent(agent, policy, measured_boot=measured_boot)

    # -- introspection -----------------------------------------------------

    def _sole_host(self) -> ShardHost:
        if self.ring is not None:
            raise StateError(
                "a sharded fleet has no single verifier; "
                "ask verifier_for(agent_id) or shards[shard_id]"
            )
        return self.shards[SOLE_MEMBER]

    @property
    def verifier(self) -> KeylimeVerifier:
        """The fleet's one verifier (unsharded fleets only)."""
        return self._sole_host().verifier

    @property
    def accounting(self) -> TickBudgetAccountant:
        """The one verifier's tick accountant (unsharded fleets only)."""
        return self._sole_host().accounting

    @property
    def audit(self) -> AuditLog:
        """The one verifier's hash-chained audit log (unsharded fleets only)."""
        return self._sole_host().verifier.audit

    @property
    def agent_ids(self) -> list[str]:
        """Every node's agent id, in provisioning order: the canonical
        key sequence of every ring computation."""
        return [node.agent.agent_id for node in self.nodes]

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.shards))

    def live_members(self) -> set[str]:
        """Members currently reachable (alive and outside any outage)."""
        now = self.scheduler.clock.now
        return {
            member for member, alive in self.members.items()
            if alive and not self._in_outage(member, now)
        }

    def _in_outage(self, member: str, now: float) -> bool:
        return any(
            outage.member == member and outage.active(now)
            for outage in self.outages
        )

    def shard_of(self, agent_id: str) -> str:
        """The shard attesting *agent_id* (the ring is the authority)."""
        if self.ring is None:
            return SOLE_MEMBER
        return self.registrar.shard_of(agent_id)

    def verifier_for(self, agent_id: str) -> KeylimeVerifier:
        """The verifier currently answering for *agent_id*."""
        return self.shards[self.shard_of(agent_id)].verifier

    def shard_sizes(self) -> dict[str, int]:
        return {shard_id: len(host) for shard_id, host in self.shards.items()}

    def balance(self) -> float:
        """Mean-over-max shard occupancy (1.0 = perfectly even)."""
        return shard_balance(self.shard_sizes())

    def status(self) -> dict[str, str]:
        """node name -> verifier state value, across every shard."""
        return {
            node.name: self.verifier_for(node.agent.agent_id)
            .state_of(node.agent.agent_id).value
            for node in self.nodes
        }

    def healthy_count(self) -> int:
        """Nodes still attesting and not quarantined."""
        return sum(
            1 for node in self.nodes
            if self.verifier_for(node.agent.agent_id).state_of(node.agent.agent_id)
            is AgentState.ATTESTING
            and not self.quarantine.is_quarantined(node.agent.agent_id)
        )

    # -- attestation -------------------------------------------------------

    def poll_all(self) -> dict[str, AttestationResult]:
        """One tick: heartbeat probe, failover, then every shard's batch.

        Returns agent id -> result for every node polled this tick.
        The probe runs *first*, so a shard whose host died since the
        last tick is adopted and polled in this same tick -- the fleet
        never skips a round over a verifier failure.  Shards poll in
        sorted order, back-to-back against the shared verdict cache; on
        a sharded fleet the round boundary ends with a checkpoint of
        every shard (the state a failover at the *next* boundary would
        restore).
        """
        self.probe()
        results: dict[str, AttestationResult] = {}
        for shard_id in self.shard_ids:
            results.update(self.shards[shard_id].poll_batch(self.push_mode))
        publish_fleet_load(
            obs.get().registry, [host.accounting for host in self.shards.values()]
        )
        self._round += 1
        if self.checkpoint_every and self._round % self.checkpoint_every == 0:
            self.checkpoint()
        by_state = self._record_rollups()
        self.events.emit(
            self.scheduler.clock.now, "keylime.fleet", "fleet.polled",
            polled=len(results),
            ok=sum(1 for result in results.values() if result.ok),
            healthy=self.healthy_count(),
            attesting=by_state.get(AgentState.ATTESTING.value, 0),
            failed=by_state.get(AgentState.FAILED.value, 0),
            suspect=by_state.get(AgentState.SUSPECT.value, 0),
            quarantined=by_state.get(AgentState.QUARANTINED.value, 0),
        )
        return results

    def _record_rollups(self) -> dict[str, int]:
        """Refresh the fleet-wide state gauges; returns nodes per state.

        A sharded fleet also refreshes the per-shard gauges the shard
        panel and the ``fleet:shard_balance`` recording rule read.
        """
        registry = obs.get().registry
        if self.ring is not None:
            agents_gauge = registry.gauge(
                "fleet_shard_agents", "Agents assigned per shard", ("shard",),
            )
            hosted_gauge = registry.gauge(
                "fleet_shard_hosted",
                "Which member hosts each shard (1 = hosting)",
                ("shard", "host"),
            )
            for shard_id, host in self.shards.items():
                agents_gauge.labels(shard=shard_id).set(len(host))
                for member in self.members:
                    hosted_gauge.labels(shard=shard_id, host=member).set(
                        1.0 if host.host == member else 0.0
                    )
            registry.gauge(
                "fleet_shard_members", "Live verifier members",
            ).set(len(self.live_members()))
        by_state: dict[str, int] = {}
        for state in self.status().values():
            by_state[state] = by_state.get(state, 0) + 1
        nodes_gauge = registry.gauge(
            "fleet_nodes", "Fleet nodes by verifier state", ("state",),
        )
        for state in AgentState:
            nodes_gauge.labels(state=state.value).set(by_state.get(state.value, 0))
        registry.gauge(
            "fleet_quarantined_nodes", "Nodes currently quarantined",
        ).set(len(self.quarantine.quarantined))
        return by_state

    def start_polling(self, interval: float) -> None:
        """Continuous attestation: :meth:`poll_all` every *interval*.

        One ``fleet-poll-batch`` timer ticks the whole fleet, sharded or
        not, instead of N independent per-agent timers: each tick probes
        the members, runs every shard's batch back-to-back against the
        shared verdict cache, checkpoints a sharded fleet and refreshes
        the state roll-up (gauges and the ``fleet.polled`` event).  Each
        shard's tick accountant takes *interval* as its cadence and, unless
        its budget was configured explicitly, as its budget.
        """
        self.stop_polling()
        self._poll_timer = self.scheduler.every(
            interval, self.poll_all, label=POLL_TIMER
        )
        for host in self.shards.values():
            host.accounting.configure(interval=interval)

    def stop_polling(self) -> None:
        """Cancel the fleet's polling timer.  Idempotent."""
        timer, self._poll_timer = self._poll_timer, None
        if timer is not None:
            timer.stop()

    def watch_health(self, watch, poll_interval: float) -> None:
        """Attach a :class:`repro.obs.health.HealthWatch` to this fleet.

        Binds the watch to the fleet's EventLog, the active telemetry
        registry/tracer, and the fleet's hash-chained audit log, then
        registers every node's expected poll cadence with the
        coverage-gap detector and schedules the periodic tick.
        """
        telemetry = obs.get()
        watch.attach(
            self.events,
            registry=telemetry.registry if telemetry.enabled else None,
            tracer=telemetry.tracer if telemetry.enabled else None,
            audit=self.audit,
            poll_interval=poll_interval,
            now=self.scheduler.clock.now,
        )
        for node in self.nodes:
            watch.watch_agent(
                node.agent.agent_id, poll_interval, now=self.scheduler.clock.now
            )
        watch.schedule(self.scheduler)

    # -- fleet-wide updates ----------------------------------------------------

    def run_update_cycle(self, reboot_on_new_kernel: bool = True) -> FleetUpdateReport:
        """Sync once, generate the policy delta once, update every node.

        The single shared policy is pushed before any node upgrades --
        the same ordering invariant as the single-node orchestrator,
        amortised across the fleet (the generator's work is independent
        of fleet size, which is the operational win of the scheme).
        """
        telemetry = obs.get()
        wall_start = perf_counter()
        now = self.scheduler.clock.now
        with telemetry.tracer.span("fleet.update_cycle") as span:
            sync = self.mirror.sync(now)
            changed = list(sync.new_packages) + list(sync.changed_packages)
            allowed = {node.machine.current_kernel for node in self.nodes}
            policy_report = self.generator.generate_update(self.policy, changed, allowed)
            with telemetry.tracer.span("fleet.policy_push", nodes=len(self.nodes)):
                for node in self.nodes:
                    agent_id = node.agent.agent_id
                    self.verifier_for(agent_id).update_policy(agent_id, self.policy)

            files_total = 0
            updated = 0
            rebooted: list[str] = []
            index = self.mirror.index()
            for node in self.nodes:
                with telemetry.tracer.span(
                    "fleet.node_update", node=node.name
                ) as node_span:
                    report = node.apt.upgrade_from(index)
                    if report.is_empty:
                        continue
                    updated += 1
                    files_total += report.files_written
                    node_span.set_attribute("files", report.files_written)
                    for package in report.packages:
                        for pf in package.executables[:20]:
                            node.machine.exec_file(pf.path)
                    if node.machine.pending_kernel is not None:
                        self.generator.prepare_for_reboot(
                            self.policy, node.machine.pending_kernel
                        )
                        agent_id = node.agent.agent_id
                        self.verifier_for(agent_id).update_policy(agent_id, self.policy)
                        if reboot_on_new_kernel:
                            node.machine.reboot()
                            rebooted.append(node.name)
            span.set_attribute("nodes_updated", updated)
            span.set_attribute("files_written", files_total)

        registry = telemetry.registry
        registry.histogram(
            "fleet_update_cycle_wall_seconds",
            "Wall-clock duration of one fleet-wide update cycle",
        ).observe(perf_counter() - wall_start)
        registry.counter(
            "fleet_update_cycles_total", "Fleet-wide update cycles executed",
        ).inc()
        if rebooted:
            registry.counter(
                "fleet_nodes_rebooted_total", "Node reboots during update cycles",
            ).inc(len(rebooted))
        self._record_rollups()

        self.events.emit(
            now, "keylime.fleet", "fleet.updated",
            nodes=updated, files=files_total, rebooted=len(rebooted),
        )
        return FleetUpdateReport(
            policy_report=policy_report,
            nodes_updated=updated,
            files_written_total=files_total,
            rebooted_nodes=tuple(rebooted),
        )

    # -- sharding ----------------------------------------------------------

    def shard(
        self,
        n_verifiers: int,
        rng: SeededRng,
        seed: str | None = None,
        outages: list[VerifierOutage] | tuple[VerifierOutage, ...] = (),
        checkpoint_every: int = 1,
    ) -> None:
        """Split the fleet across ``n_verifiers`` ring-assigned members.

        Must run before the first round.  Each member is a fresh
        verifier on the stable named fork ``shard-<member>`` of *rng*,
        and every agent moves from the one verifier to its ring owner.
        *seed* keys the ring's hash material (defaults to the rng's
        seed repr, so one experiment seed fixes both placement and
        nonce sequences).  *outages* is a chaos schedule of
        :class:`VerifierOutage` windows consulted by the heartbeat
        probe.  ``checkpoint_every`` controls the failover checkpoint
        cadence in rounds (1 = every round boundary; 0 disables
        automatic checkpoints for pure-throughput benches).
        """
        if n_verifiers < 1:
            raise ValueError("verifier fleet needs at least one member")
        sole = self._sole_host()
        slots = list(sole.verifier._slots.values())
        if self._round or self._poll_timer is not None or any(
            slot.results for slot in slots
        ):
            raise StateError("a fleet must be sharded before its first round")
        settings = _settings_of(sole.verifier)
        self._shard_rng = rng
        self.outages = list(outages)
        self.checkpoint_every = checkpoint_every
        self.ring = ConsistentHashRing(seed if seed is not None else rng.seed_repr)
        self.members = {}
        self.shards = {}
        for index in range(n_verifiers):
            member = f"verifier-{index}"
            self.ring.add(member)
            self.members[member] = True
            self.shards[member] = self._new_host(
                member, rng.fork(f"shard-{member}"), settings
            )
        self.registrar.attach_shard_ring(self.ring)
        for slot in slots:
            self._enroll(
                self.shards[self.ring.owner(slot.agent.agent_id)],
                slot.agent, slot.policy, slot.measured_boot,
            )
        # An initial checkpoint per shard: a member may die before the
        # first round, and failover must still have a state to restore.
        self.checkpoint()
        self._record_rollups()
        self.events.emit(
            self.scheduler.clock.now, "keylime.fleet", "fleet.sharded",
            members=n_verifiers, agents=len(self.nodes),
            balance=round(self.balance(), 4),
        )

    def probe(self) -> list[str]:
        """Heartbeat pass: adopt every shard whose host is unreachable.

        Returns the shard ids that failed over.  Detection is driven by
        :meth:`kill` flags and the chaos layer's
        :class:`~repro.keylime.faults.VerifierOutage` windows -- the
        saturation machinery's heartbeat cadence, pointed at verifier
        processes instead of agents.
        """
        live = self.live_members()
        adopted = []
        for shard_id in self.shard_ids:
            host = self.shards[shard_id]
            if host.host not in live:
                self._adopt(shard_id, live, reason="unreachable")
                adopted.append(shard_id)
        return adopted

    def checkpoint(self) -> None:
        """Snapshot every shard's state (the failover restore point)."""
        for host in self.shards.values():
            host.checkpoint = snapshot_verifier(
                host.verifier, meta={"shard": host.shard_id, "host": host.host},
            )

    # -- failure and failover ----------------------------------------------

    def kill(self, member: str) -> None:
        """Mark *member* dead (process crash).  Failover happens at the
        next :meth:`probe` -- i.e. at the top of the next tick."""
        if member not in self.members:
            raise StateError(f"no verifier member {member!r}")
        self.members[member] = False

    def _adopt(self, shard_id: str, live: set[str], reason: str) -> str:
        """Move *shard_id* whole onto a ring-chosen live adopter.

        The adopter builds a fresh verifier, re-enrolls the shard's
        agents in their original batch order, and restores the last
        round-boundary checkpoint: per-agent records, open push
        sessions, all three RNG streams and the audit chain.  No
        registrar record is touched (zero re-enrollment) and the
        shard's assignment is unchanged -- failure moves *hosting*,
        never keys.
        """
        host = self.shards[shard_id]
        eligible = live - {host.host}
        if not eligible:
            raise StateError(
                f"no live member can adopt shard {shard_id!r} "
                f"(host {host.host!r} unreachable)"
            )
        adopter = self.ring.owner(f"adopt|{shard_id}", among=eligible)
        if host.checkpoint is None:  # pragma: no cover - checkpointed at build
            raise StateError(f"shard {shard_id!r} has no checkpoint to restore")
        host.adoptions += 1
        fresh = self._new_host(
            shard_id,
            self._shard_rng.fork(f"shard-{shard_id}/adoption-{host.adoptions}"),
            _settings_of(host.verifier),
        )
        for slot in host.verifier._slots.values():
            self._enroll(fresh, slot.agent, slot.policy, slot.measured_boot)
        restore_verifier(fresh.verifier, host.checkpoint)
        fresh.host = adopter
        fresh.checkpoint = host.checkpoint
        fresh.adoptions = host.adoptions
        self.shards[shard_id] = fresh
        obs.get().registry.counter(
            "fleet_shard_failovers_total",
            "Whole-shard adoptions after verifier failures",
        ).inc()
        self.events.emit(
            self.scheduler.clock.now, "keylime.fleet", "fleet.shard.failover",
            shard=shard_id, previous_host=host.host, adopter=adopter,
            agents=len(fresh), reason=reason,
        )
        return adopter

    # -- rebalancing -------------------------------------------------------

    def join(self, member: str) -> MigrationPlan:
        """Add a verifier member; migrate exactly the keys it attracts.

        The ring guarantees the move set is minimal (only keys landing
        on the new member's points); each moved agent's record travels
        via per-agent export/import with open sessions abandoned.  The
        surviving agents' batch positions are untouched, and every
        agent is attested by exactly one shard at every instant --
        :meth:`poll_all` between any two statements of this method
        would still poll each agent exactly once.
        """
        if self.ring is None:
            raise StateError("only a sharded fleet takes new verifier members")
        if member in self.members:
            raise StateError(f"verifier member {member!r} already exists")
        settings = _settings_of(next(iter(self.shards.values())).verifier)
        self.members[member] = True
        self.shards[member] = self._new_host(
            member, self._shard_rng.fork(f"shard-{member}"), settings
        )
        plan = self.ring.plan_join(self.agent_ids, member)
        for move in plan.moves:
            self._migrate(move.key, move.source, move.target)
        self.checkpoint()
        self._record_rollups()
        self.events.emit(
            self.scheduler.clock.now, "keylime.fleet", "fleet.shard.joined",
            member=member, moved=len(plan.moves),
            balance=round(self.balance(), 4),
        )
        return plan

    def leave(self, member: str) -> MigrationPlan:
        """Retire a verifier member gracefully; release only its keys.

        Shards the member is *hosting* by adoption move to new adopters
        first; then the member's own key range migrates agent-by-agent
        to each key's next ring owner, and the empty shard is dropped.
        """
        if member not in self.members:
            raise StateError(f"no verifier member {member!r}")
        survivors = self.live_members() - {member}
        if not survivors:
            raise StateError("cannot retire the last live verifier member")
        for shard_id in self.shard_ids:
            host = self.shards[shard_id]
            if host.host == member and shard_id != member:
                self._adopt(shard_id, survivors, reason="host-retired")
        plan = self.ring.plan_leave(self.agent_ids, member)
        for move in plan.moves:
            self._migrate(move.key, move.source, move.target)
        del self.shards[member]
        del self.members[member]
        self.checkpoint()
        self._record_rollups()
        self.events.emit(
            self.scheduler.clock.now, "keylime.fleet", "fleet.shard.left",
            member=member, moved=len(plan.moves),
            balance=round(self.balance(), 4),
        )
        return plan

    def _migrate(self, agent_id: str, source_id: str, target_id: str) -> None:
        """Hand one agent's attestation record between shards.

        The open push session is discarded at the source before the
        record is exported, so the target starts with none: evidence
        negotiated before the move verifies on *neither* verifier
        afterwards, by construction.
        """
        source = self.shards[source_id]
        target = self.shards[target_id]
        slot = source.verifier._slots[agent_id]
        source.verifier.discard_push_sessions(agent_id)
        record = export_agent_state(source.verifier, agent_id)
        source.verifier.remove_agent(agent_id)
        self._enroll(target, slot.agent, slot.policy, slot.measured_boot)
        import_agent_state(target.verifier, record)
        obs.get().registry.counter(
            "fleet_shard_migrations_total",
            "Per-agent state handoffs between shards during rebalancing",
        ).inc()
        self.events.emit(
            self.scheduler.clock.now, "keylime.fleet", "fleet.shard.migrated",
            agent=agent_id, source=source_id, target=target_id,
        )


#: The multi-verifier fleet's former name, kept for callers that look
#: up ``VerifierFleet.poll_all`` and ``VerifierFleet.probe``.
VerifierFleet = Fleet


def build_fleet(
    seed: str,
    n_nodes: int,
    *,
    fillers: int,
    mean_exec_files: float,
    manufacturer: str,
    **fleet_kwargs,
) -> Fleet:
    """A seeded fleet rig: archive -> mirror -> full policy -> :class:`Fleet`.

    Provisioning is a pure function of the arguments: named forks of
    ``SeededRng(seed)`` feed each stage -- ``base`` (the installed
    system: *fillers* filler packages of *mean_exec_files* executables
    each on average), ``gen`` (the initial policy), ``tpm`` and
    ``fleet``.  *manufacturer* names the TPM vendor, and the name seeds
    every TPM's ``device/tpm-<name>-NNNN`` key fork, so it is part of
    the rig's identity.  *fleet_kwargs* go to :class:`Fleet` unchanged;
    its ``events`` log (if any) also records the mirror sync and the
    policy generation, and its ``kernel_version`` is the one the base
    system ships and the policy allows.
    """
    rng = SeededRng(seed)
    scheduler = Scheduler()
    obs.get().bind_clock(scheduler.clock)
    events = fleet_kwargs.get("events")
    kernel = fleet_kwargs.get("kernel_version", DEFAULT_KERNEL)
    archive = UbuntuArchive()
    archive.seed(build_base_system(
        rng.fork("base"), n_filler_packages=fillers,
        mean_exec_files=mean_exec_files, kernel_version=kernel,
    ))
    mirror = LocalMirror(archive, events=events)
    mirror.sync(0.0)
    generator = DynamicPolicyGenerator(mirror, events=events, rng=rng.fork("gen"))
    policy, _ = generator.generate_full(list(IBM_STYLE_EXCLUDES), {kernel})
    return Fleet(
        n_nodes, mirror, TpmManufacturer(manufacturer, rng.fork("tpm")),
        scheduler, rng.fork("fleet"), policy, **fleet_kwargs,
    )


def release_stream(
    fleet: Fleet, seed: str, config: ReleaseStreamConfig
) -> SyntheticReleaseStream:
    """Upstream releases for a fresh :func:`build_fleet` rig.

    The stream forks ``stream`` from the rig's *seed* and starts from
    the base system the archive published at time zero, so build it
    before any release lands.
    """
    archive = fleet.mirror.archive
    base = archive.effective_index(tuple(archive.repositories))
    return SyntheticReleaseStream(
        archive, list(base.values()), SeededRng(seed).fork("stream"), config
    )

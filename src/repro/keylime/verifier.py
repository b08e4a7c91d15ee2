"""The Keylime verifier: the attestation loop.

Each poll of an agent performs the four steps of Fig 1:

1. **Challenge** -- a fresh random nonce; the agent returns a TPM quote
   over PCR 10 bound to that nonce plus the new IMA log entries.
2. **Quote validation** -- signature by the registrar-validated AK,
   nonce binding, PCR digest consistency.
3. **Log replay** -- the new entries' template hashes are recomputed
   and folded into the running PCR-10 replay; a mismatch with the
   quoted value means the log was tampered with in flight or at rest.
4. **Policy evaluation** -- each new entry is checked against the
   runtime policy (excludes, then allowlist).

The steps themselves live in :mod:`repro.keylime.pipeline` as
composable stage objects; this module is the thin orchestrator around
them: agent lifecycle, polling schedules, failure side-effects
(revocation fan-out, audit append, event emission) and telemetry
roll-ups.

Failure behaviour is the paper's **P2**: the stock verifier processes
entries *sequentially and stops at the first policy failure*, marks the
agent failed, and **stops polling** -- leaving an incomplete attestation
log.  Restarting attestation replays the log from scratch, hits the same
unresolved failure, and halts again.  The ``continue_on_failure`` switch
implements the proposed **M2** fix: every entry is always evaluated and
polling never stops, so later malicious entries still surface.  The
switch is one verifier attribute, settable at any time; each round's
:class:`repro.keylime.pipeline.RoundContext` carries it, for pull and
push alike.

Policy verdicts are memoised through a
:class:`repro.keylime.policy.VerdictCache` (enabled by default, and
shareable across every agent of a fleet); ``update_policy`` bumps the
policy's generation stamp so a cached verdict can never outlive the
policy state that produced it.

Each per-agent fact has one home, the agent's
:class:`~repro.keylime.pipeline.AgentSlot`: its replay position, its
round history (:meth:`KeylimeVerifier.failures_of` reads the failures
from it) and its one open push session.  Only open sessions exist, so a
push submission is accepted exactly when it names the open session of
the agent it says it comes from.
"""

from __future__ import annotations

from time import perf_counter

from repro.common.clock import Scheduler
from repro.common.errors import IntegrityError, NotFoundError, StateError
from repro.common.events import EventLog
from repro.common.hexutil import zero_digest
from repro.common.rng import SeededRng
from repro.keylime.agent import KeylimeAgent
from repro.keylime.audit import AuditLog
from repro.keylime.measuredboot import MeasuredBootPolicy
from repro.keylime.pipeline import (
    POLLABLE_STATES,
    AgentSlot,
    AgentState,
    AttestationFailure,
    AttestationResult,
    FailureKind,
    RoundContext,
    VerificationPipeline,
    push_stages,
)
from repro.keylime.policy import RuntimePolicy, VerdictCache
from repro.keylime.registrar import KeylimeRegistrar
from repro.keylime.retrypolicy import RetryPolicy
from repro.keylime.revocation import RevocationEvent, RevocationNotifier
from repro.keylime.transport import (
    PushAgentClient,
    PushSession,
    PushVerdict,
    negotiation_from_json,
    negotiation_reply_to_json,
    submission_from_json,
    verdict_to_json,
)
from repro.obs import runtime as obs
from repro.obs.tracing import exemplar_of

__all__ = [
    "AgentSlot",
    "AgentState",
    "AttestationFailure",
    "AttestationResult",
    "FailureKind",
    "KeylimeVerifier",
    "POLLABLE_STATES",
    "RetryPolicy",
]

#: Freshness window of a push session: a nonce minted at negotiation
#: must be answered within this many simulated seconds.
PUSH_SESSION_TTL = 30.0


class KeylimeVerifier:
    """The trusted verifier service."""

    def __init__(
        self,
        registrar: KeylimeRegistrar,
        scheduler: Scheduler,
        rng: SeededRng,
        events: EventLog | None = None,
        continue_on_failure: bool = False,
        notifier: RevocationNotifier | None = None,
        audit: AuditLog | None = None,
        verdict_cache: VerdictCache | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine_after: int = 3,
    ) -> None:
        """Build the verifier.

        *continue_on_failure* is the P2-vs-M2 switch, kept as the
        attribute of the same name.  *verdict_cache* installs a shared
        cache (a fleet passes one cache for all of its nodes); with
        ``None`` the verifier creates its own.  Setting the
        ``verdict_cache`` attribute to ``None`` disables memoisation
        (every entry is evaluated from scratch).

        *retry_policy* enables the transient-fault retry path: wire
        errors are retried with backoff and an exhausted budget routes
        the node into SUSPECT instead of halting its polling.  A node
        entering its *quarantine_after*-th suspect window escalates to
        QUARANTINED (polling stops, loudly).  With ``retry_policy=None``
        the wire gets exactly one attempt per round, as before -- but a
        transient error still degrades the round rather than crashing
        the poll tick.
        """
        self.registrar = registrar
        self.scheduler = scheduler
        self.rng = rng.fork("verifier")
        # Dedicated jitter stream: forked hash-based (no parent draws),
        # and only ever drawn from when a retry actually happens -- so
        # installing the retry layer cannot perturb a clean run.
        self._retry_rng = rng.fork("retry-jitter")
        self.retry_policy = retry_policy
        if quarantine_after < 1:
            raise ValueError(f"quarantine_after must be >= 1, got {quarantine_after}")
        self.quarantine_after = quarantine_after
        self.events = events if events is not None else EventLog()
        self.continue_on_failure = continue_on_failure
        self.pipeline = VerificationPipeline()
        self.push_pipeline = VerificationPipeline(stages=push_stages())
        self.notifier = notifier
        self.audit = audit
        self.verdict_cache = VerdictCache() if verdict_cache is None else verdict_cache
        self._slots: dict[str, AgentSlot] = {}
        # Push-mode session ids come from their own forked stream so
        # opening push sessions never perturbs the nonce sequence (which
        # must match pull mode draw-for-draw for the verdict-equivalence
        # guarantee).  An agent's open session lives on its slot.
        self._session_rng = rng.fork("push-sessions")

    # -- agent management ---------------------------------------------------

    def add_agent(
        self,
        agent: KeylimeAgent,
        policy: RuntimePolicy,
        measured_boot: MeasuredBootPolicy | None = None,
    ) -> None:
        """Start attesting *agent* against *policy* (must be registered).

        With a *measured_boot* policy the verifier widens its quotes to
        the boot PCRs and checks them against the golden values on
        every poll.

        An agent the verifier already attests raises :class:`StateError`:
        a new slot would erase its round history and replay position
        without an event.  Re-onboarding is :meth:`restart_attestation`.
        """
        self.registrar.lookup(agent.agent_id)  # raises when unknown
        if agent.agent_id in self._slots:
            raise StateError(
                f"verifier already attests agent {agent.agent_id!r} "
                "(restart_attestation re-onboards it)"
            )
        self._slots[agent.agent_id] = AgentSlot(
            agent=agent, policy=policy, measured_boot=measured_boot
        )

    def remove_agent(self, agent_id: str) -> None:
        """Stop attesting *agent_id* and forget its slot.

        The shard-migration half of :meth:`add_agent`: the agent's
        state has been exported for another verifier, so this one must
        stop answering for it.  An open push session is discarded with
        the slot, so a submission against it is rejected here (this
        verifier no longer attests the agent) -- and on the new
        verifier, where it is not the agent's open session.  The
        registrar record is untouched: migration is not de-enrollment.
        """
        self._slot(agent_id)  # raises when unknown
        self.discard_push_sessions(agent_id)
        del self._slots[agent_id]

    def _slot(self, agent_id: str) -> AgentSlot:
        try:
            return self._slots[agent_id]
        except KeyError:
            raise NotFoundError(f"verifier is not attesting agent {agent_id!r}") from None

    def state_of(self, agent_id: str) -> AgentState:
        """Current lifecycle state for the agent."""
        return self._slot(agent_id).state

    def failures_of(self, agent_id: str) -> list[AttestationFailure]:
        """All failures recorded for the agent so far, oldest first.

        Read from the round history: every failed round's result
        carries its failures.
        """
        return [
            failure
            for result in self._slot(agent_id).results
            for failure in result.failures
        ]

    def results_of(self, agent_id: str) -> list[AttestationResult]:
        """All per-poll results for the agent so far."""
        return list(self._slot(agent_id).results)

    def verified_entries_of(self, agent_id: str) -> int:
        """The agent's replay offset: IMA entries verified so far."""
        return self._slot(agent_id).verified_entries

    def policy_of(self, agent_id: str) -> RuntimePolicy:
        """The runtime policy currently applied to the agent."""
        return self._slot(agent_id).policy

    def update_policy(self, agent_id: str, policy: RuntimePolicy) -> None:
        """Install a new runtime policy (the dynamic generator's push).

        The replay state is untouched: already-verified entries are not
        re-evaluated against the new policy (matching Keylime, which
        only checks entries as they stream in).  The policy's generation
        stamp is bumped so any verdicts cached under the previous state
        become unreachable.
        """
        self._slot(agent_id).policy = policy
        policy.bump_generation()
        self.events.emit(
            self.scheduler.clock.now, "keylime.verifier", "policy.updated",
            agent=agent_id, lines=policy.line_count(),
        )

    def restart_attestation(self, agent_id: str) -> None:
        """Operator action: restart a failed agent from scratch.

        Keylime re-attests from the top of the log, so an unresolved
        failure will halt it again -- the loop described under P2.
        """
        slot = self._slot(agent_id)
        slot.state = AgentState.ATTESTING
        slot.verified_entries = 0
        slot.replay_aggregate = zero_digest("sha256")
        slot.last_reset_count = None
        # Degraded-mode bookkeeping resets too: the operator gets a
        # fresh quarantine budget along with the fresh replay state.
        slot.suspect_since = None
        slot.suspect_windows = 0
        # Any open push session dies with the restart: its nonce was
        # minted against the pre-reset replay position, and a stale
        # nonce must never verify after the reboot reset.
        self.discard_push_sessions(agent_id)
        self.events.emit(
            self.scheduler.clock.now, "keylime.verifier", "attestation.restarted",
            agent=agent_id,
        )

    # -- polling -----------------------------------------------------------

    def start_polling(self, agent_id: str, interval: float) -> None:
        """Poll the agent every *interval* simulated seconds."""
        slot = self._slot(agent_id)

        def tick() -> None:
            # SUSPECT nodes keep getting polled (the anti-P2 invariant:
            # transient noise must never silently stop the attestation
            # history); only FAILED/STOPPED/QUARANTINED go quiet.
            if slot.state in POLLABLE_STATES:
                self.poll(agent_id)

        slot.stop_polling = self.scheduler.every(
            interval, tick, label=f"poll:{agent_id}"
        )

    def stop_polling(self, agent_id: str) -> None:
        """Cancel the periodic poll for the agent.

        Idempotent: a second call (or a call for an agent that was never
        scheduled) is a no-op, and cancelling never rewrites a FAILED or
        QUARANTINED agent's state -- only a still-pollable agent
        (ATTESTING or SUSPECT) becomes STOPPED.
        """
        slot = self._slot(agent_id)
        cancel = slot.stop_polling
        if cancel is not None:
            slot.stop_polling = None
            cancel()
            if slot.state in POLLABLE_STATES:
                slot.state = AgentState.STOPPED

    def poll(self, agent_id: str) -> AttestationResult:
        """One full attestation round against the agent.

        With telemetry active (:mod:`repro.obs`), the round is traced as
        a ``verifier.poll`` root span with one child per pipeline stage
        (``verifier.challenge``, ``verifier.quote_verify``,
        ``verifier.log_replay``, ``verifier.policy_eval``) and records
        the per-stage ``verifier_stage_wall_seconds{stage}`` breakdown.
        :meth:`_observe_round` records the round, timed over the whole
        challenge round.
        """
        telemetry = obs.get()
        wall_start = perf_counter()
        with telemetry.tracer.span("verifier.poll", agent=agent_id) as span:
            result = self._run_round(self._slot(agent_id), telemetry)
            span.set_attribute("ok", result.ok)
            span.set_attribute("entries", result.entries_processed)
        self._observe_round(
            agent_id, result, telemetry.registry, perf_counter() - wall_start, span
        )
        return result

    def _observe_round(
        self, agent_id: str, result: AttestationResult, registry,
        wall_seconds: float | None = None, span=None,
    ) -> None:
        """The one record of an attestation round, pull or push.

        Every round -- a pull poll, a push submission, an unanswered
        push session -- counts once in ``verifier_polls_total{result}``
        (``ok`` / ``failed`` / ``degraded``).  A round that ran
        verification passes its *wall_seconds* and ``verifier.poll``
        *span*, observed into ``verifier_poll_wall_seconds`` with the
        span as exemplar.  The heartbeat gauges say when each agent was
        last attested and last verified clean, on the simulated clock,
        for the metric exports; the coverage-gap detector (obs.health)
        does not read them but follows the ``attestation.ok`` /
        ``attestation.failed*`` events in the EventLog.
        Because both delivery modes report here, every reader of the
        round record -- the health detectors, the recording rules,
        ``obs top``, the incident critical path -- is mode-blind.
        """
        if wall_seconds is not None:
            registry.histogram(
                "verifier_poll_wall_seconds",
                "Wall-clock latency of one verifier poll",
            ).observe(wall_seconds, exemplar=exemplar_of(span))
        outcome = "ok" if result.ok else ("degraded" if result.transient else "failed")
        registry.counter(
            "verifier_polls_total", "Attestation rounds executed", ("result",),
        ).labels(result=outcome).inc()
        now = self.scheduler.clock.now
        registry.gauge(
            "verifier_agent_last_poll_sim_seconds",
            "Simulated time of the agent's most recent attestation round",
            ("agent",),
        ).labels(agent=agent_id).set(now)
        if result.ok:
            registry.gauge(
                "verifier_agent_last_ok_sim_seconds",
                "Simulated time of the agent's most recent successful attestation",
                ("agent",),
            ).labels(agent=agent_id).set(now)
        if result.entries_processed:
            registry.counter(
                "verifier_entries_evaluated_total",
                "IMA entries evaluated against the runtime policy",
            ).inc(result.entries_processed)
        if result.entries_skipped:
            registry.counter(
                "verifier_entries_skipped_total",
                "IMA entries never policy-checked (halt-on-failure, P2)",
            ).inc(result.entries_skipped)

    def _run_round(self, slot: AgentSlot, telemetry, **delivered) -> AttestationResult:
        """Verify one round, pull or push, and route its result.

        A pull round passes nothing: its challenge stage mints the
        nonce and fetches the evidence.  A push round passes what the
        exchange *delivered* -- the negotiated ``nonce`` and
        ``selection`` and the submitted ``evidence`` -- and runs the
        push stages.  The side effects (audit append, event emission,
        SUSPECT recovery, the degraded/failed state machinery) are
        functions of the result, never of how the evidence travelled.
        """
        agent_id = slot.agent.agent_id
        ctx = RoundContext(
            agent_id=agent_id,
            slot=slot,
            record=self.registrar.lookup(agent_id),
            now=self.scheduler.clock.now,
            rng=self.rng,
            tracer=telemetry.tracer,
            continue_on_failure=self.continue_on_failure,
            cache=self.verdict_cache,
            retry_policy=self.retry_policy,
            retry_rng=self._retry_rng,
            **delivered,
        )
        pipeline = self.push_pipeline if delivered else self.pipeline
        result = pipeline.run(ctx, telemetry.registry)
        if result.ok:
            slot.results.append(result)
            if self.audit is not None:
                self.audit.append(
                    result.time, agent_id, ok=True,
                    detail={"entries": result.entries_processed},
                )
            self.events.emit(
                result.time, "keylime.verifier", "attestation.ok",
                agent=agent_id, entries=result.entries_processed,
            )
            if slot.state is AgentState.SUSPECT:
                self._recover(slot, result.time)
            return result
        if result.transient:
            return self._record_degraded_round(slot, result)
        return self._record_failed_round(slot, result)

    # -- push mode ---------------------------------------------------------

    def open_push_session_of(self, agent_id: str) -> PushSession | None:
        """The agent's currently open push session, if any."""
        return self._slot(agent_id).push_session

    def discard_push_sessions(self, agent_id: str) -> int:
        """Close the agent's open push session; returns how many (0 or 1).

        Called by :meth:`restart_attestation` (a stale nonce must not
        verify after a reboot reset), by :meth:`remove_agent` and a
        shard migration, and usable directly by operators.  A late
        submission against the discarded session is rejected: it no
        longer names the agent's open session.
        """
        slot = self._slot(agent_id)
        if slot.push_session is None:
            return 0
        slot.push_session = None
        self._count_session_outcome("discarded")
        self.events.emit(
            self.scheduler.clock.now, "keylime.verifier",
            "push.session.discarded", agent=agent_id, sessions=1,
        )
        return 1

    def _count_session_outcome(self, outcome: str) -> None:
        registry = obs.get().registry
        registry.counter(
            "verifier_push_sessions_total",
            "Push sessions reaching a terminal state, by outcome",
            ("outcome",),
        ).labels(outcome=outcome).inc()
        self._set_open_sessions_gauge(registry)

    def _set_open_sessions_gauge(self, registry) -> None:
        registry.gauge(
            "verifier_push_sessions_open",
            "Push sessions currently awaiting an agent submission",
        ).set(sum(1 for slot in self._slots.values() if slot.push_session is not None))

    def negotiate_push(self, blob: str | bytes) -> str:
        """Push step 1 endpoint: open a session for an announcing agent.

        Decodes the capability announcement (strictly -- any malformed
        frame is an :class:`IntegrityError`), validates the agent with
        the registrar, supersedes any session the agent left dangling
        (a degraded round; if that round quarantines the agent, the
        negotiation is refused), mints the round's nonce, and returns
        the serialised :class:`~repro.keylime.transport.NegotiationReply`.

        The delta offset is chosen here, from the announced boot count:
        a boot count matching the verifier's last seen reset count
        continues at ``verified_entries``; a changed one restarts the
        fetch at zero (the quote's own reset counter still makes the
        final call during verification -- the announcement is a hint,
        not a security input).
        """
        telemetry = obs.get()
        request = negotiation_from_json(blob)
        agent_id = request.agent_id
        slot = self._slot(agent_id)
        if slot.state not in POLLABLE_STATES:
            raise StateError(
                f"agent {agent_id} is {slot.state.value}; push negotiation refused"
            )
        now = self.scheduler.clock.now
        with telemetry.tracer.remote_context(request.traceparent):
            with telemetry.tracer.span(
                "verifier.push_negotiate", agent=agent_id
            ) as span:
                self.registrar.note_capabilities(
                    agent_id, request.capabilities, now=now
                )
                if "sha256" not in request.capabilities.hash_algorithms:
                    raise IntegrityError(
                        f"agent {agent_id} announced no sha256 bank; "
                        "cannot negotiate a verifiable session"
                    )
                if slot.push_session is not None:
                    self._close_unanswered(slot, "superseded", now)
                    if slot.state not in POLLABLE_STATES:
                        raise StateError(
                            f"agent {agent_id} is {slot.state.value}; "
                            "push negotiation refused"
                        )
                offset = slot.verified_entries
                if (
                    slot.last_reset_count is not None
                    and request.capabilities.boot_count != slot.last_reset_count
                ):
                    offset = 0
                session = slot.push_session = PushSession(
                    session_id=f"ps-{self._session_rng.hexid(12)}",
                    nonce=self.rng.hexid(20),
                    offset=offset,
                    pcr_selection=tuple(slot.pcr_selection()),
                    algorithm="sha256",
                    created_at=now,
                    expires_at=now + PUSH_SESSION_TTL,
                    boot_count=request.capabilities.boot_count,
                )
                span.set_attribute("session", session.session_id)
                span.set_attribute("offset", offset)
        self._set_open_sessions_gauge(telemetry.registry)
        self.events.emit(
            now, "keylime.verifier", "push.session.negotiated",
            agent=agent_id, session=session.session_id, offset=offset,
        )
        return negotiation_reply_to_json(session.reply())

    def submit_push(self, blob: str | bytes) -> str:
        """Push step 2/3 endpoint: verify a submission, return the verdict.

        One rule rejects at the protocol level: the submission must name
        the open session of the agent it says it comes from, on a
        verifier that attests that agent.  A consumed, superseded,
        discarded, reaped, migrated-away or never-issued session, or
        another agent's, fails it -- as does a malformed frame, or an
        open session past its ``expires_at`` (left for the reaper).
        Each rejection raises :class:`IntegrityError` *without*
        touching the agent's attestation record: an attacker replaying
        captured evidence must not be able to fail (or pass) the agent
        on its behalf.  An accepted submission consumes the session and
        runs the shared round runner under a ``verifier.poll`` span,
        the pull round's name, so its result flows through exactly the
        side-effect path a pull round uses.  :meth:`_observe_round`
        records the round, timed over the verifier's side only
        (decoding and verifying the submission).
        """
        telemetry = obs.get()
        wall_start = perf_counter()
        submission = submission_from_json(blob)
        agent_id = submission.agent_id
        slot = self._slots.get(agent_id)
        session = slot.push_session if slot is not None else None
        if session is None or session.session_id != submission.session_id:
            raise IntegrityError(
                f"push session {submission.session_id!r} is not the open "
                f"session of an agent this verifier attests ({agent_id!r})"
            )
        now = self.scheduler.clock.now
        if now > session.expires_at:
            raise IntegrityError(
                f"push session {session.session_id} expired at "
                f"t={session.expires_at}, submission arrived at t={now}"
            )
        slot.push_session = None
        with telemetry.tracer.span(
            "verifier.poll", agent=agent_id, session=session.session_id,
        ) as span:
            result = self._run_round(
                slot, telemetry, nonce=session.nonce,
                selection=list(session.pcr_selection),
                evidence=submission.evidence,
            )
            span.set_attribute("ok", result.ok)
            span.set_attribute("entries", result.entries_processed)
        self._count_session_outcome(
            "verified" if result.ok
            else ("degraded" if result.transient else "failed")
        )
        self._observe_round(
            agent_id, result, telemetry.registry,
            perf_counter() - wall_start, span,
        )
        return verdict_to_json(
            PushVerdict(
                session_id=session.session_id,
                ok=result.ok,
                state=slot.state.value,
                entries_processed=result.entries_processed,
                next_offset=slot.verified_entries,
                failures=tuple(
                    failure.kind.value for failure in result.failures
                ),
            )
        )

    def reap_push_sessions(self) -> list[str]:
        """Expire overdue push sessions; the verifier tick's only push job.

        Every open session past its ``expires_at`` closes as
        ``expired`` (see :meth:`_close_unanswered`), oldest negotiation
        first.  A session the agent abandons inside its TTL is
        accounted the same way when the agent's next negotiation
        supersedes it.
        """
        now = self.scheduler.clock.now
        overdue = [
            slot for slot in self._slots.values()
            if slot.push_session is not None and now > slot.push_session.expires_at
        ]
        overdue.sort(key=lambda slot: slot.push_session.created_at)
        reaped = [slot.push_session.session_id for slot in overdue]
        for slot in overdue:
            self._close_unanswered(slot, "expired", now)
        return reaped

    def _close_unanswered(self, slot: AgentSlot, outcome: str, now: float) -> None:
        """Close the slot's open session, which never got a submission.

        *outcome* is ``expired`` (the reaper) or ``superseded`` (the
        agent negotiated again).  When the agent is still attestable
        the unanswered round is recorded as a *degraded* round, feeding
        the same SUSPECT/quarantine machinery a pull-mode transport
        failure would.  An abandoned push round therefore surfaces
        exactly like a jammed pull round: loudly, and without a silent
        attestation-log gap.
        """
        session, slot.push_session = slot.push_session, None
        agent_id = slot.agent.agent_id
        self._count_session_outcome(outcome)
        self.events.emit(
            now, "keylime.verifier", f"push.session.{outcome}",
            agent=agent_id, session=session.session_id,
            negotiated_at=session.created_at,
        )
        if slot.state not in POLLABLE_STATES:
            return
        result = AttestationResult(
            time=now,
            ok=False,
            entries_processed=0,
            entries_skipped=0,
            failures=(),
            transient=True,
            transport_error=(
                f"push session {session.session_id} {outcome} unanswered "
                f"(negotiated at t={session.created_at})"
            ),
        )
        self._record_degraded_round(slot, result)
        self._observe_round(agent_id, result, obs.get().registry)

    def push_client(self, agent_id: str) -> PushAgentClient:
        """The agent's push client (on its slot), built on first use."""
        slot = self._slot(agent_id)
        if slot.push_client is None:
            slot.push_client = PushAgentClient(
                slot.agent,
                negotiate=self.negotiate_push,
                submit=self.submit_push,
                retry_policy=self.retry_policy,
                retry_rng=self._retry_rng,
            )
        return slot.push_client

    def push_round(self, agent_id: str) -> AttestationResult | None:
        """Drive one complete push exchange for the agent.

        The push analogue of :meth:`poll`: returns the round's
        :class:`AttestationResult` (the slot's last result), or ``None``
        when the exchange never produced one (delivery abandoned or the
        submission was rejected at the protocol layer) -- in which case
        the open session becomes a degraded round when the agent's next
        negotiation supersedes it or :meth:`reap_push_sessions` expires
        it.
        """
        if self.push_client(agent_id).run_round() is None:
            return None
        return self._slot(agent_id).results[-1]

    def _transition(self, slot: AgentSlot, to_state: AgentState, now: float) -> None:
        """Move the slot between lifecycle states, with a metrics trail."""
        from_state = slot.state
        slot.state = to_state
        obs.get().registry.counter(
            "verifier_state_transitions_total",
            "Agent lifecycle transitions on the verifier",
            ("from_state", "to_state"),
        ).labels(from_state=from_state.value, to_state=to_state.value).inc()

    def _recover(self, slot: AgentSlot, now: float) -> None:
        """A SUSPECT node attested clean again: back to ATTESTING."""
        outage = now - slot.suspect_since if slot.suspect_since is not None else 0.0
        slot.suspect_since = None
        self._transition(slot, AgentState.ATTESTING, now)
        self.events.emit(
            now, "keylime.verifier", "node.recovered",
            agent=slot.agent.agent_id, outage_seconds=outage,
            suspect_windows=slot.suspect_windows,
        )

    def _record_degraded_round(
        self, slot: AgentSlot, result: AttestationResult
    ) -> AttestationResult:
        """Side effects of a degraded (transient-exhausted) round.

        Nothing here treats the round as a verdict: no FAILED state, no
        failure counter, no revocation for the round itself.  The node
        moves (or stays) SUSPECT and -- critically -- keeps being
        polled.  Only the *quarantine_after*-th suspect window escalates
        to QUARANTINED, which does stop polling but announces the
        coverage gap it opens (event + revocation with reason
        ``degraded_transport``) instead of leaving the silent log gap
        the paper's P2 describes.
        """
        now = result.time
        agent_id = slot.agent.agent_id
        slot.results.append(result)
        obs.get().registry.counter(
            "verifier_degraded_rounds_total",
            "Attestation rounds abandoned after exhausting transport retries",
        ).inc()
        if self.audit is not None:
            self.audit.append(
                now, agent_id, ok=False,
                detail={
                    "degraded": True,
                    "transport_error": result.transport_error,
                    "retry_attempts": result.retry_attempts,
                },
            )
        self.events.emit(
            now, "keylime.verifier", "attestation.degraded",
            agent=agent_id, error=result.transport_error,
            retry_attempts=result.retry_attempts,
        )
        if slot.state is AgentState.ATTESTING:
            slot.suspect_windows += 1
            slot.suspect_since = now
            if slot.suspect_windows >= self.quarantine_after:
                self._quarantine(slot, now)
            else:
                self._transition(slot, AgentState.SUSPECT, now)
                self.events.emit(
                    now, "keylime.verifier", "node.suspect",
                    agent=agent_id, window=slot.suspect_windows,
                    error=result.transport_error,
                )
        return result

    def _quarantine(self, slot: AgentSlot, now: float) -> None:
        """Escalate a repeatedly-degraded node to operator attention."""
        agent_id = slot.agent.agent_id
        cancel = slot.stop_polling
        if cancel is not None:
            slot.stop_polling = None
            cancel()
        self._transition(slot, AgentState.QUARANTINED, now)
        self.events.emit(
            now, "keylime.verifier", "node.quarantined",
            agent=agent_id, suspect_windows=slot.suspect_windows,
        )
        if self.notifier is not None:
            self.notifier.notify(
                RevocationEvent(
                    time=now,
                    agent_id=agent_id,
                    reason="degraded_transport",
                    detail=(
                        f"agent entered its {slot.suspect_windows}th suspect "
                        "window; transport considered unreliable"
                    ),
                    path=None,
                )
            )

    def _record_failed_round(
        self, slot: AgentSlot, result: AttestationResult
    ) -> AttestationResult:
        """Side effects of a failed round: audit, revocation, halt."""
        failures = list(result.failures)
        now = result.time
        failure_counter = obs.get().registry.counter(
            "verifier_failures_total", "Attestation failures by kind", ("kind",),
        )
        for failure in failures:
            failure_counter.labels(kind=failure.kind.value).inc()
        slot.results.append(result)
        if self.audit is not None:
            self.audit.append(
                now, slot.agent.agent_id, ok=False,
                detail={"failures": [failure.detail for failure in failures]},
            )
        if self.notifier is not None:
            for failure in failures:
                self.notifier.notify(
                    RevocationEvent(
                        time=now,
                        agent_id=slot.agent.agent_id,
                        reason=failure.kind.value,
                        detail=failure.detail,
                        path=(
                            failure.policy_failure.path
                            if failure.policy_failure is not None else None
                        ),
                    )
                )
        for failure in failures:
            self.events.emit(
                now, "keylime.verifier", f"attestation.failed.{failure.kind.value}",
                agent=slot.agent.agent_id, detail=failure.detail,
                path=(failure.policy_failure.path if failure.policy_failure else None),
            )
        if not self.continue_on_failure:
            slot.state = AgentState.FAILED
            self.events.emit(
                now, "keylime.verifier", "polling.halted",
                agent=slot.agent.agent_id,
            )
        return result

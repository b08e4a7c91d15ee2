"""The staged verification pipeline: Fig 1 as composable stage objects.

One attestation round is the paper's four protocol phases -- challenge,
quote validation, log replay, policy evaluation -- plus the optional
measured-boot check.  Historically they lived inline in one 200-line
verifier method; here each phase is a :class:`Stage` object that reads
and advances a shared :class:`RoundContext`, and
:class:`VerificationPipeline` sequences them.  The split buys three
things:

* **One switch, read in one stage.**  Stock stop-on-first-failure (the
  paper's **P2**) versus the M2 continue-on-failure fix is the
  verifier's ``continue_on_failure``, handed to every round in its
  context and consumed by :class:`PolicyEvalStage`, not a flag
  threaded through scattered ``if``\\ s.
* **Shared, cacheable evaluation.**  :class:`PolicyEvalStage` routes
  entries through a :class:`repro.keylime.policy.VerdictCache` when one
  is installed; a fleet of same-distro nodes then pays policy-evaluation
  cost per *unique digest*, not per (agent x entry).  Through the same
  cache's line memo, :class:`LogReplayStage` parses and hash-checks
  each distinct shipped line once per fleet.
* **Stage-level observability.**  The pipeline times every stage into
  the ``verifier_stage_wall_seconds{stage}`` histogram and counts cache
  outcomes into ``verifier_verdict_cache_total{result}``, alongside the
  per-phase spans (``verifier.challenge``, ``verifier.quote_verify``,
  ``verifier.measured_boot``, ``verifier.log_replay``,
  ``verifier.policy_eval``) that ``obs watch`` and the incident
  correlator consume.

The pipeline changes *how* rounds execute, never *what* they conclude:
stage ordering, failure kinds, entry accounting and the RNG draw
sequence are bit-for-bit the monolith's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Callable, NoReturn

from repro.common.errors import IntegrityError, StateError, TransientTransportError
from repro.common.hexutil import extend_bytes, zero_digest
from repro.kernelsim.ima import (
    ImaLogEntry,
    VIOLATION_EXTEND_VALUE,
    VIOLATION_FILEDATA_HASH,
    VIOLATION_TEMPLATE_HASH,
    template_hash,
)
from repro.keylime.agent import KeylimeAgent
from repro.keylime.measuredboot import MeasuredBootPolicy
from repro.keylime.policy import PolicyFailure, RuntimePolicy, VerdictCache
from repro.keylime.transport import PushAgentClient, PushSession
from repro.obs.tracing import exemplar_of
from repro.tpm.pcr import IMA_PCR_INDEX
from repro.tpm.quote import QuoteVerificationError, verify_quote

#: What a violation entry extends into PCR 10, as raw bytes.
_VIOLATION_EXTEND = bytes.fromhex(VIOLATION_EXTEND_VALUE)


class AgentState(Enum):
    """Verifier-side lifecycle of an attested agent.

    ``SUSPECT`` and ``QUARANTINED`` are the degraded-mode states: a
    node whose wire keeps failing *transiently* (retry budget
    exhausted) is SUSPECT -- still polled every tick, which is the
    anti-P2 invariant: the attestation history must never go silently
    dark over operational noise.  Repeated suspect windows escalate to
    QUARANTINED, an operator-attention state that does stop polling
    (and is announced, so the gap it opens is explained).  FAILED
    remains reserved for integrity verdicts.
    """

    ATTESTING = "attesting"
    FAILED = "failed"
    STOPPED = "stopped"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"


#: States the poll schedulers keep ticking: a SUSPECT node is polled
#: exactly like a healthy one (recovery is detected by polling, and the
#: log gap P2 warns about never opens silently).
POLLABLE_STATES = frozenset({AgentState.ATTESTING, AgentState.SUSPECT})


class FailureKind(Enum):
    """Why an attestation round failed."""

    INVALID_QUOTE = "invalid_quote"
    LOG_TAMPERED = "log_tampered"
    PCR_MISMATCH = "pcr_mismatch"
    MEASURED_BOOT = "measured_boot"
    POLICY = "policy"
    #: The wire payload itself failed to decode (corrupt challenge or
    #: evidence).  An integrity failure -- never retried -- because a
    #: network that "merely" flips bytes is indistinguishable from an
    #: attacker who does.
    TRANSPORT_CORRUPT = "transport_corrupt"


@dataclass(frozen=True)
class AttestationFailure:
    """One recorded failure, with enough detail for the experiments."""

    time: float
    kind: FailureKind
    detail: str
    policy_failure: PolicyFailure | None = None


@dataclass(frozen=True)
class AttestationResult:
    """Outcome of one poll.

    ``transient`` marks a *degraded* round: the wire failed every retry
    attempt, so no evidence was verified -- but nothing about the
    prover's integrity was concluded either.  A transient result is
    never a verdict: ``ok`` is False yet ``failures`` is empty, and the
    verifier routes it to the SUSPECT state machine instead of the
    failure path (no revocation, no FAILED, no halted polling).
    """

    time: float
    ok: bool
    entries_processed: int
    entries_skipped: int  # entries after a halt (never policy-checked)
    failures: tuple[AttestationFailure, ...] = ()
    transient: bool = False
    retry_attempts: int = 0  # wire attempts beyond the first, this round
    transport_error: str | None = None


@dataclass
class AgentSlot:
    """Per-agent verifier state: policy, replay position, history."""

    agent: KeylimeAgent
    policy: RuntimePolicy
    measured_boot: MeasuredBootPolicy | None = None
    state: AgentState = AgentState.ATTESTING
    verified_entries: int = 0
    replay_aggregate: str = field(default_factory=lambda: zero_digest("sha256"))
    last_reset_count: int | None = None
    # Every round's result, failures included, oldest first.
    results: list[AttestationResult] = field(default_factory=list)
    stop_polling: Callable[[], None] | None = None  # Scheduler.every cancel handle
    # Degraded-mode bookkeeping: when the current suspect window opened
    # (None while healthy) and how many windows the node has entered.
    suspect_since: float | None = None
    suspect_windows: int = 0
    # Push mode: the agent's one open session (None while no round is
    # awaiting its submission) and the client driving its cadence.
    push_session: PushSession | None = None
    push_client: PushAgentClient | None = None

    def pcr_selection(self) -> list[int]:
        """The PCRs a round quotes: PCR 10, plus any measured-boot PCRs."""
        boot = () if self.measured_boot is None else self.measured_boot.pcr_selection
        return sorted({IMA_PCR_INDEX, *boot})


class RoundAborted(Exception):
    """Internal control flow: a stage terminated the round with failures."""


@dataclass
class RoundContext:
    """Everything one attestation round reads and produces.

    A fresh context is built per round by the verifier and flows through
    every stage; stages communicate exclusively through it.
    """

    agent_id: str
    slot: AgentSlot
    record: object  # registrar record carrying .ak_public
    now: float
    rng: object  # SeededRng; stages draw nonces from it
    tracer: object  # active span tracer (or the null tracer)
    continue_on_failure: bool = False
    cache: VerdictCache | None = None
    retry_policy: object | None = None  # RetryPolicy; None = single attempt
    retry_rng: object | None = None  # SeededRng stream for backoff jitter
    registry: object | None = None  # metrics registry (set by the pipeline)
    nonce: str | None = None
    selection: list[int] = field(default_factory=lambda: [IMA_PCR_INDEX])
    evidence: object | None = None  # AttestationEvidence once challenged
    entries: list[ImaLogEntry] = field(default_factory=list)
    failures: list[AttestationFailure] = field(default_factory=list)
    entries_processed: int = 0
    entries_skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retry_attempts: int = 0  # wire re-attempts consumed this round
    transport_error: str | None = None  # set when the round degrades

    def abort(
        self,
        kind: FailureKind,
        detail: str,
        *,
        processed: int = 0,
        skipped: int = 0,
    ) -> None:
        """Record one terminal failure and abort the round."""
        self.abort_with(
            [AttestationFailure(self.now, kind, detail)],
            processed=processed,
            skipped=skipped,
        )

    def abort_with(
        self,
        failures: list[AttestationFailure],
        *,
        processed: int = 0,
        skipped: int = 0,
    ) -> None:
        """Record *failures* and abort the round."""
        self.failures.extend(failures)
        self.entries_processed = processed
        self.entries_skipped = skipped
        raise RoundAborted()


def wire_attest(ctx: RoundContext, offset: int, pcr_selection) -> object:
    """One challenge/response across the (possibly faulty) wire.

    Runs the agent round under the context's retry policy: transient
    transport errors are retried with backoff (jitter drawn from the
    context's dedicated stream -- no draws unless a retry actually
    happens), integrity errors abort the round as a
    ``TRANSPORT_CORRUPT`` failure, and an exhausted retry budget
    propagates :class:`~repro.keylime.retrypolicy.RetryBudgetExceeded`
    for the pipeline to turn into a degraded (transient) result.  The
    nonce is the caller's and is reused across attempts: a retry
    re-asks the *same* question, it never relaxes freshness.
    """
    def attempt():
        return ctx.slot.agent.attest(
            ctx.nonce, offset=offset, pcr_selection=pcr_selection
        )

    try:
        if ctx.retry_policy is None:
            return attempt()
        attempted = [0]

        def counted_attempt():
            attempted[0] += 1
            return attempt()

        try:
            return ctx.retry_policy.run(
                counted_attempt,
                rng=ctx.retry_rng,
                tracer=ctx.tracer,
                registry=ctx.registry,
            )
        finally:
            ctx.retry_attempts += max(0, attempted[0] - 1)
    except IntegrityError as exc:
        ctx.abort(
            FailureKind.TRANSPORT_CORRUPT,
            f"wire payload failed verification-grade decoding: {exc}",
        )


class Stage:
    """One protocol phase; subclasses advance the :class:`RoundContext`."""

    #: Label used in the ``verifier_stage_wall_seconds{stage}`` histogram.
    name = "stage"

    def run(self, ctx: RoundContext) -> None:
        """Execute the phase; abort via ``ctx.abort*`` on terminal failure."""
        raise NotImplementedError


class ChallengeStage(Stage):
    """Step 1: fresh nonce, PCR selection, incremental evidence fetch."""

    name = "challenge"

    def run(self, ctx: RoundContext) -> None:
        with ctx.tracer.span("verifier.challenge"):
            ctx.nonce = ctx.rng.hexid(20)
            ctx.selection = ctx.slot.pcr_selection()
            ctx.evidence = wire_attest(
                ctx, offset=ctx.slot.verified_entries, pcr_selection=ctx.selection
            )


class SubmittedEvidenceStage(Stage):
    """Push-mode step 1: adopt the evidence the agent already submitted.

    The push exchange inverts the challenge: by the time the pipeline
    runs, the verifier has minted the nonce (at negotiation) and the
    agent has pushed the evidence bundle, both already sitting on the
    context.  This stage only asserts that shape -- every later stage
    (quote verification, reboot handling, replay, policy) is the exact
    object the pull pipeline runs, which is what makes the two modes
    verdict-equivalent by construction.
    """

    name = "submit"

    def run(self, ctx: RoundContext) -> None:
        with ctx.tracer.span(
            "verifier.submitted_evidence", agent=ctx.agent_id
        ) as span:
            if ctx.nonce is None or ctx.evidence is None:
                raise StateError(
                    f"push round for {ctx.agent_id} reached the pipeline "
                    "without a negotiated nonce and submitted evidence"
                )
            span.set_attribute("offset", ctx.evidence.offset)
            span.set_attribute("lines", len(ctx.evidence.ima_log_lines))


class QuoteVerifyStage(Stage):
    """Step 2: quote validation, plus reboot detection and re-challenge."""

    name = "quote_verify"

    def run(self, ctx: RoundContext) -> None:
        slot = ctx.slot
        with ctx.tracer.span("verifier.quote_verify"):
            try:
                verify_quote(ctx.evidence.quote, ctx.record.ak_public, ctx.nonce)
            except QuoteVerificationError as exc:
                ctx.abort(
                    FailureKind.INVALID_QUOTE, str(exc),
                    skipped=len(ctx.evidence.ima_log_lines),
                )

        # Reboot detection: PCRs and the log restarted from zero.
        if slot.last_reset_count != ctx.evidence.quote.reset_count:
            slot.replay_aggregate = zero_digest("sha256")
            slot.verified_entries = 0
            slot.last_reset_count = ctx.evidence.quote.reset_count
            if ctx.evidence.offset != 0:
                with ctx.tracer.span("verifier.challenge", reattest=True):
                    ctx.nonce = ctx.rng.hexid(20)
                    ctx.evidence = wire_attest(
                        ctx, offset=0, pcr_selection=ctx.selection
                    )
                with ctx.tracer.span("verifier.quote_verify", reattest=True):
                    try:
                        verify_quote(
                            ctx.evidence.quote, ctx.record.ak_public, ctx.nonce
                        )
                    except QuoteVerificationError as exc:
                        ctx.abort(
                            FailureKind.INVALID_QUOTE, str(exc),
                            skipped=len(ctx.evidence.ima_log_lines),
                        )


class MeasuredBootStage(Stage):
    """Optional step: quoted boot PCRs must match the golden set."""

    name = "measured_boot"

    def run(self, ctx: RoundContext) -> None:
        if ctx.slot.measured_boot is None:
            return
        with ctx.tracer.span("verifier.measured_boot"):
            mismatches = ctx.slot.measured_boot.verify(ctx.evidence.quote.pcr_values)
        if mismatches:
            ctx.abort_with(
                [
                    AttestationFailure(
                        ctx.now, FailureKind.MEASURED_BOOT,
                        f"boot PCR {mismatch.index} diverges from golden "
                        f"value ({mismatch.actual[:16]}... != "
                        f"{mismatch.expected[:16]}...)",
                    )
                    for mismatch in mismatches
                ],
                skipped=len(ctx.evidence.ima_log_lines),
            )


class LogReplayStage(Stage):
    """Step 3: parse the new entries and replay them against PCR 10.

    One pass over the shipped lines: each line is split once and its
    template hash checked, and the aggregate is extended on raw digests
    and hex-encoded once, for the quoted-PCR comparison.  The parse is
    :meth:`ImaLogEntry.from_line` inlined, with the same error text.

    With a :class:`VerdictCache` on the context, what the parse and the
    template check make of a line -- its entry and the 32 bytes it
    extends into PCR 10 -- is memoised fleet-wide under the exact
    shipped line (:meth:`VerdictCache.memoise_line`), so a line that
    same-distro nodes share, or that a restarted agent ships again, is
    split and hashed once.  Only lines that passed both checks are
    memoised, and a tampered line is a different key, so it always
    takes the full check.  The extend chain and the quoted-PCR
    comparison still run over every shipped entry of every round: the
    memo holds a pure function of one line, never a verdict.
    """

    name = "log_replay"

    def run(self, ctx: RoundContext) -> None:
        slot = ctx.slot
        cache = ctx.cache
        lines = ctx.evidence.ima_log_lines
        entries: list[ImaLogEntry] = []

        def tampered(detail: str) -> NoReturn:
            ctx.abort(
                FailureKind.LOG_TAMPERED, detail,
                processed=len(entries), skipped=len(lines) - len(entries),
            )

        with ctx.tracer.span("verifier.log_replay", lines=len(lines)):
            append = entries.append
            new_tuple = tuple.__new__  # ImaLogEntry._make minus its length check
            # Uncached, an empty table: every line takes the full check.
            memo = cache.line_memo if cache is not None else {}
            aggregate = bytes.fromhex(slot.replay_aggregate)
            for line in lines:
                memoised = memo.get(line)
                if memoised is not None:
                    entry, value = memoised
                else:
                    parts = line.split(" ", 4)
                    if len(parts) != 5:
                        tampered(f"malformed IMA log line: {line!r}")
                    try:
                        parts[0] = int(parts[0])
                    except ValueError as exc:
                        tampered(str(exc))
                    _, logged, _, filedata, path = parts
                    if logged == VIOLATION_TEMPLATE_HASH and filedata == VIOLATION_FILEDATA_HASH:
                        # Violations log zeros but extend 0xFF (kernel rule).
                        value = _VIOLATION_EXTEND
                    elif logged == template_hash(filedata, path):
                        value = bytes.fromhex(logged)
                    else:
                        tampered(f"template hash mismatch at {path}")
                    entry = new_tuple(ImaLogEntry, parts)
                    if cache is not None:
                        cache.memoise_line(line, entry, value)
                aggregate = extend_bytes("sha256", aggregate, value)
                append(entry)
            aggregate = aggregate.hex()
            quoted = ctx.evidence.quote.pcr_values[IMA_PCR_INDEX]
            if aggregate != quoted:
                ctx.abort(
                    FailureKind.PCR_MISMATCH,
                    f"IMA log replay {aggregate[:16]}... does not match quoted "
                    f"PCR10 {quoted[:16]}...",
                    skipped=len(entries),
                )
            slot.replay_aggregate = aggregate
            slot.verified_entries = ctx.evidence.offset + len(entries)
            ctx.entries = entries


class PolicyEvalStage(Stage):
    """Step 4: per-entry verdicts; halts at the first failure unless M2."""

    name = "policy_eval"

    def run(self, ctx: RoundContext) -> None:
        with ctx.tracer.span("verifier.policy_eval") as policy_span:
            failures: list[AttestationFailure] = []
            processed = 0
            skipped = 0
            policy = ctx.slot.policy
            cache = ctx.cache
            entries = ctx.entries
            evaluate = policy.evaluate_entry
            # The hot loop probes the cache's generation bucket
            # directly: one string-keyed dict.get per entry (the
            # replay-verified template hash), hit count batched.  A
            # stored outcome is never None, so ``None`` means miss.
            bucket = cache.view(policy) if cache is not None else None
            misses_before = cache.misses if cache is not None else 0
            hits = 0
            for entry in entries:
                if bucket is not None:
                    key = entry.template_hash
                    if key == VIOLATION_TEMPLATE_HASH:
                        key += entry.path
                    outcome = bucket.get(key)
                    if outcome is None:
                        outcome = cache.insert(policy, entry)
                    else:
                        hits += 1
                    policy_failure = outcome[1]
                else:
                    _, policy_failure = evaluate(entry)
                processed += 1
                # evaluate_entry returns a PolicyFailure iff the verdict
                # is a failing one, so this test carries the verdict.
                if policy_failure is not None:
                    failures.append(
                        AttestationFailure(
                            ctx.now, FailureKind.POLICY,
                            policy_failure.describe(), policy_failure=policy_failure,
                        )
                    )
                    if not ctx.continue_on_failure:
                        skipped = len(entries) - processed
                        break
            policy_span.set_attribute("entries", processed)
            policy_span.set_attribute("failures", len(failures))
            if cache is not None:
                cache.hits += hits
                ctx.cache_hits = hits
                ctx.cache_misses = cache.misses - misses_before
                policy_span.set_attribute("cache_hits", ctx.cache_hits)
                policy_span.set_attribute("cache_misses", ctx.cache_misses)
        ctx.entries_processed = processed
        ctx.entries_skipped = skipped
        ctx.failures.extend(failures)


def default_stages() -> list[Stage]:
    """The stock Fig 1 stage sequence."""
    return [
        ChallengeStage(),
        QuoteVerifyStage(),
        MeasuredBootStage(),
        LogReplayStage(),
        PolicyEvalStage(),
    ]


def push_stages() -> list[Stage]:
    """The push-mode stage sequence.

    Identical to :func:`default_stages` except the outbound challenge is
    replaced by :class:`SubmittedEvidenceStage`: the nonce and evidence
    arrive via the negotiate/submit exchange instead of an outbound
    poll.  The verification stages themselves are shared instances of
    the same classes -- push mode changes evidence *delivery*, never
    evidence *judgement*.
    """
    return [
        SubmittedEvidenceStage(),
        QuoteVerifyStage(),
        MeasuredBootStage(),
        LogReplayStage(),
        PolicyEvalStage(),
    ]


class VerificationPipeline:
    """Sequences the verification stages for one attestation round.

    The context's ``continue_on_failure`` is the P2-vs-M2 switch: it
    only affects :class:`PolicyEvalStage` (whether evaluation halts at
    the first failing entry) and, at the verifier layer, whether the
    agent is marked FAILED and its polling halted.  Protocol-level
    failures (invalid quote, tampered log, PCR mismatch, boot PCR
    divergence) always terminate the round, under either setting.
    """

    def __init__(self, stages: list[Stage] | None = None) -> None:
        self.stages = list(stages) if stages is not None else default_stages()

    def stage_names(self) -> list[str]:
        """The configured stage labels, in execution order."""
        return [stage.name for stage in self.stages]

    def run(self, ctx: RoundContext, registry) -> AttestationResult:
        """Execute every stage against *ctx*; returns the round's result.

        Each stage's wall time lands in
        ``verifier_stage_wall_seconds{stage}``; verdict-cache outcomes
        are batched into ``verifier_verdict_cache_total{result}`` once
        per round (not per entry) to keep the hot loop lean.
        """
        ctx.registry = registry
        stage_histogram = registry.histogram(
            "verifier_stage_wall_seconds",
            "Wall-clock latency of one verification pipeline stage",
            ("stage",),
        )
        for stage in self.stages:
            wall_start = perf_counter()
            try:
                stage.run(ctx)
            except RoundAborted:
                break
            except TransientTransportError as exc:
                # Degraded round: the wire never delivered, no verdict
                # was (or could be) reached.  Not a failure result --
                # the verifier routes it to the SUSPECT machine.
                ctx.transport_error = str(exc)
                return AttestationResult(
                    time=ctx.now,
                    ok=False,
                    entries_processed=0,
                    entries_skipped=0,
                    failures=(),
                    transient=True,
                    retry_attempts=ctx.retry_attempts,
                    transport_error=ctx.transport_error,
                )
            finally:
                # Exemplar: the enclosing poll span, so a slow bucket in
                # the histogram resolves to the trace that produced it.
                stage_histogram.labels(stage=stage.name).observe(
                    perf_counter() - wall_start,
                    exemplar=exemplar_of(ctx.tracer.current),
                )
        if ctx.cache_hits or ctx.cache_misses:
            cache_counter = registry.counter(
                "verifier_verdict_cache_total",
                "Policy verdict cache lookups by outcome", ("result",),
            )
            if ctx.cache_hits:
                cache_counter.labels(result="hit").inc(ctx.cache_hits)
            if ctx.cache_misses:
                cache_counter.labels(result="miss").inc(ctx.cache_misses)
        return AttestationResult(
            time=ctx.now,
            ok=not ctx.failures,
            entries_processed=ctx.entries_processed,
            entries_skipped=ctx.entries_skipped,
            failures=tuple(ctx.failures),
            retry_attempts=ctx.retry_attempts,
        )

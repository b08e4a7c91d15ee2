"""Deterministic fault injection for the agent/verifier wire.

The paper's P2 and FP studies both live on the boundary between
*transient operational noise* and *integrity failure*: a verifier that
halts on the first hiccup leaves an attestation-log gap (P2), and one
that shrugs off every anomaly can be made to shrug off tampering.  To
study that boundary the reproduction needs a network that actually
misbehaves -- on purpose, repeatably.

:class:`FaultPlan` is that network.  It produces channel hooks for
:class:`repro.keylime.transport.JsonTransportAgent` (one per wire leg
per node) and injects six fault kinds, each addressable by sim-time
window, node, wire leg and probability:

* ``drop`` / ``partition`` -- the message never arrives; the channel
  raises :class:`~repro.common.errors.TransientTransportError`.
  A partition is a drop with certainty over a window, modelling a
  per-node network split rather than lossy-link noise.
* ``delay`` -- a latency draw; past the plan's per-attempt timeout it
  becomes a transport timeout (transient), below it the message is
  merely late (recorded, delivered unchanged -- the discrete-event
  clock is owned by the scheduler, so sub-timeout delays are observable
  latency, not schedule perturbation).
* ``duplicate`` -- the same payload delivered twice.  The synchronous
  request/response wire deduplicates by construction, so the modelled
  effect is wasted bandwidth plus an injection record; the chaos
  property suite uses it to prove duplicates are *harmless*.
* ``corrupt`` -- one byte of a security-relevant field flipped
  (challenge nonce; response signature, quote nonce or a log line), so
  every injection is semantically visible to verification and must
  surface as an :class:`~repro.common.errors.IntegrityError`-class
  failure, never be retried away.
* ``replay`` -- the previous round's payload substituted for the fresh
  one (network reordering or an attacker replaying stale evidence);
  nonce freshness makes this an integrity failure at the verifier.

Everything is driven by :class:`repro.common.rng.SeededRng`: each
(node, leg) channel forks its own named stream, so a plan's injection
sequence is a pure function of ``(seed, profile, traffic)`` and two
runs with the same chaos seed byte-match.  A plan whose specs never
match (or an empty plan) makes **zero** RNG draws and never touches a
payload, which is what makes the clean-network bit-identity guarantee
testable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.common.errors import TransientTransportError
from repro.common.rng import SeededRng
from repro.keylime.transport import JsonTransportAgent
from repro.obs import runtime as obs

#: Default per-attempt delivery timeout (seconds of simulated latency).
DEFAULT_ATTEMPT_TIMEOUT = 2.0


class FaultKind(Enum):
    """The injectable fault families."""

    DROP = "drop"
    DELAY = "delay"
    DUPLICATE = "duplicate"
    CORRUPT = "corrupt"
    REPLAY = "replay"
    PARTITION = "partition"


#: Fault kinds that model the network misbehaving (retryable).
TRANSIENT_KINDS = frozenset(
    {FaultKind.DROP, FaultKind.DELAY, FaultKind.DUPLICATE, FaultKind.PARTITION}
)
#: Fault kinds that model tampering (terminal; never retried).
INTEGRITY_KINDS = frozenset({FaultKind.CORRUPT, FaultKind.REPLAY})


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: what, where, when, how often.

    ``leg`` is ``"request"``, ``"response"`` or ``"both"``; ``nodes``
    limits the rule to specific agent ids (``None`` = every node); the
    rule is live over sim-time ``[start, end)``.
    """

    kind: FaultKind
    probability: float = 1.0
    leg: str = "both"
    start: float = 0.0
    end: float = math.inf
    nodes: tuple[str, ...] | None = None
    delay_range: tuple[float, float] = (0.25, 6.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.leg not in ("request", "response", "both"):
            raise ValueError(f"leg must be request/response/both, got {self.leg!r}")
        if self.end < self.start:
            raise ValueError(f"window ends ({self.end}) before it starts ({self.start})")

    def matches(self, agent_id: str, leg: str, now: float) -> bool:
        """Whether this rule applies to one delivery."""
        if self.leg != "both" and self.leg != leg:
            return False
        if self.nodes is not None and agent_id not in self.nodes:
            return False
        return self.start <= now < self.end


@dataclass(frozen=True)
class InjectionRecord:
    """One fault actually injected (the plan's ground-truth log).

    The chaos property suite joins this log against verdict sequences:
    every invariant ("no transient fault produces FAILED", "no
    corruption survives as PASSED") is phrased over these records.
    """

    time: float
    agent_id: str
    kind: FaultKind
    leg: str
    detail: str = ""


# Fields a corrupt fault is allowed to target, per leg.  All of them are
# security-relevant -- verification *must* notice the flip -- which is
# what makes the no-masking property crisply testable.  (Flipping, say,
# the traceparent or ``total_entries`` would be an injection the
# verifier legitimately ignores.)
_CORRUPT_REQUEST_FIELDS = ("nonce",)
_CORRUPT_RESPONSE_FIELDS = ("signature", "nonce", "ima_log")


def _flip_char(value: str, index: int) -> str:
    """Replace one character with a different hex digit."""
    replacement = "0" if value[index] != "0" else "f"
    return value[:index] + replacement + value[index + 1:]


class FaultPlan:
    """A seeded schedule of wire faults for a set of nodes.

    Built from :class:`FaultSpec` rules; hand :meth:`channel` hooks to a
    :class:`~repro.keylime.transport.JsonTransportAgent` (or call
    :meth:`wrap` to build one), then :meth:`bind_clock` once the run's
    scheduler exists.  Every injection lands in :attr:`injections` and
    in the ``transport_faults_injected_total{kind}`` counter.
    """

    def __init__(
        self,
        rng: SeededRng,
        specs: tuple[FaultSpec, ...] | list[FaultSpec] = (),
        attempt_timeout: float = DEFAULT_ATTEMPT_TIMEOUT,
        name: str = "custom",
    ) -> None:
        self.rng = rng
        self.specs = tuple(specs)
        self.attempt_timeout = attempt_timeout
        self.name = name
        self.injections: list[InjectionRecord] = []
        self._clock = None
        self._channel_rngs: dict[tuple[str, str], SeededRng] = {}
        self._history: dict[tuple[str, str], str] = {}

    def bind_clock(self, clock) -> None:
        """Point injection-window checks at the run's sim clock."""
        self._clock = clock

    @property
    def now(self) -> float:
        """Current sim time (0.0 before a clock is bound)."""
        return self._clock.now if self._clock is not None else 0.0

    def counts_by_kind(self) -> dict[str, int]:
        """Injection totals keyed by fault-kind value."""
        counts: dict[str, int] = {}
        for record in self.injections:
            counts[record.kind.value] = counts.get(record.kind.value, 0) + 1
        return counts

    def injections_for(
        self, agent_id: str, since: float = 0.0, until: float = math.inf
    ) -> list[InjectionRecord]:
        """Injections against one node inside ``[since, until]``."""
        return [
            record for record in self.injections
            if record.agent_id == agent_id and since <= record.time <= until
        ]

    def wrap(self, agent) -> JsonTransportAgent:
        """A wire proxy for *agent* with both legs routed through the plan."""
        return JsonTransportAgent(
            agent,
            channel=self.channel(agent.agent_id, "response"),
            request_channel=self.channel(agent.agent_id, "request"),
        )

    def channel(self, agent_id: str, leg: str) -> Callable[[str], str]:
        """The channel hook for one (node, leg) pair.

        Each pair gets its own forked RNG stream, so the injection
        sequence seen by one node never depends on how often another
        node's wire is exercised.
        """
        if leg not in ("request", "response"):
            raise ValueError(f"leg must be request or response, got {leg!r}")
        key = (agent_id, leg)
        if key not in self._channel_rngs:
            self._channel_rngs[key] = self.rng.fork(f"chaos/{agent_id}/{leg}")
        channel_rng = self._channel_rngs[key]

        def deliver(blob: str) -> str:
            return self._deliver(agent_id, leg, blob, channel_rng)

        return deliver

    # -- delivery ----------------------------------------------------------

    def _deliver(self, agent_id: str, leg: str, blob: str, rng: SeededRng) -> str:
        now = self.now
        # The authentic payload enters the replay buffer *before* any
        # substitution, so a replay fault genuinely delivers the
        # previous round's bytes.
        key = (agent_id, leg)
        previous = self._history.get(key)
        self._history[key] = blob
        for spec in self.specs:
            if not spec.matches(agent_id, leg, now):
                continue
            if spec.probability < 1.0 and not rng.bernoulli(spec.probability):
                continue
            injected = self._apply(spec, agent_id, leg, blob, previous, rng, now)
            if injected is not None:
                return injected
        return blob

    def _record(
        self, kind: FaultKind, agent_id: str, leg: str, now: float, detail: str
    ) -> None:
        self.injections.append(
            InjectionRecord(time=now, agent_id=agent_id, kind=kind, leg=leg,
                            detail=detail)
        )
        obs.get().registry.counter(
            "transport_faults_injected_total",
            "Wire faults injected by the chaos layer",
            labelnames=("kind",),
        ).labels(kind=kind.value).inc()

    def _apply(
        self,
        spec: FaultSpec,
        agent_id: str,
        leg: str,
        blob: str,
        previous: str | None,
        rng: SeededRng,
        now: float,
    ) -> str | None:
        """Inject one fault; ``None`` means the rule ended up a no-op."""
        kind = spec.kind
        if kind in (FaultKind.DROP, FaultKind.PARTITION):
            self._record(kind, agent_id, leg, now, f"{leg} leg severed")
            raise TransientTransportError(
                f"injected {kind.value}: {leg} to/from {agent_id} lost",
                kind=kind.value,
            )
        if kind is FaultKind.DELAY:
            delay = rng.uniform(*spec.delay_range)
            self._record(kind, agent_id, leg, now, f"{delay:.3f}s")
            obs.get().registry.histogram(
                "transport_injected_delay_seconds",
                "Latency injected into wire deliveries by the chaos layer",
            ).observe(delay)
            if delay > self.attempt_timeout:
                raise TransientTransportError(
                    f"injected delay {delay:.3f}s exceeds attempt timeout "
                    f"{self.attempt_timeout:.3f}s ({leg} to/from {agent_id})",
                    kind="delay",
                )
            return blob
        if kind is FaultKind.DUPLICATE:
            # The synchronous wire deduplicates; the cost is bandwidth.
            self._record(kind, agent_id, leg, now, f"{len(blob)} bytes re-sent")
            obs.get().registry.counter(
                "transport_duplicate_bytes_total",
                "Bytes wasted on duplicate wire deliveries",
            ).inc(len(blob))
            return blob
        if kind is FaultKind.REPLAY:
            if previous is None or previous == blob:
                return None  # nothing stale to replay yet
            self._record(kind, agent_id, leg, now, "previous round re-delivered")
            return previous
        if kind is FaultKind.CORRUPT:
            corrupted, detail = self._corrupt(blob, leg, rng)
            if corrupted is None:
                return None
            self._record(kind, agent_id, leg, now, detail)
            return corrupted
        raise ValueError(f"unknown fault kind {kind!r}")

    def _corrupt(
        self, blob: str, leg: str, rng: SeededRng
    ) -> tuple[str | None, str]:
        """Flip one byte of a security-relevant field.

        Targets are chosen from the decoded payload so the flip always
        lands somewhere verification checks (see module docstring); if
        the payload does not parse (already corrupted upstream) a raw
        character is flipped instead.
        """
        try:
            payload = json.loads(blob)
        except ValueError:
            index = rng.randint(0, max(0, len(blob) - 1))
            return _flip_char(blob, index), f"raw byte {index}"
        if leg == "request":
            field_name = rng.choice(_CORRUPT_REQUEST_FIELDS)
            value = payload.get(field_name)
            if not isinstance(value, str) or not value:
                return None, ""
            index = rng.randint(0, len(value) - 1)
            payload[field_name] = _flip_char(value, index)
            detail = f"challenge {field_name}[{index}]"
        else:
            field_name = rng.choice(_CORRUPT_RESPONSE_FIELDS)
            if field_name == "ima_log":
                lines = payload.get("ima_log")
                if not isinstance(lines, list) or not lines:
                    return None, ""
                line_index = rng.randint(0, len(lines) - 1)
                line = lines[line_index]
                if not isinstance(line, str) or not line:
                    return None, ""
                index = rng.randint(0, len(line) - 1)
                lines[line_index] = _flip_char(line, index)
                detail = f"ima_log[{line_index}][{index}]"
            else:
                quote = payload.get("quote")
                if not isinstance(quote, dict):
                    return None, ""
                value = quote.get(field_name)
                if not isinstance(value, str) or not value:
                    return None, ""
                index = rng.randint(0, len(value) - 1)
                quote[field_name] = _flip_char(value, index)
                detail = f"quote.{field_name}[{index}]"
        return json.dumps(payload, sort_keys=True), detail


# -- verifier outages -------------------------------------------------------

@dataclass(frozen=True)
class VerifierOutage:
    """One verifier member's unreachability window.

    The chaos layer's infrastructure-side counterpart to the wire
    faults above: instead of severing an agent's legs, the whole
    verifier process drops off the network over sim-time
    ``[start, end)``.  ``kind="partition"`` models a network split (the
    process survives and may come back empty-handed after the window);
    ``kind="crash"`` models a dead process (it never comes back).  The
    multi-verifier fleet's heartbeat probe consults these windows at
    the top of every tick, so an active outage triggers shard failover
    *before* any round is missed.
    """

    member: str
    start: float = 0.0
    end: float = math.inf
    kind: str = "partition"

    def __post_init__(self) -> None:
        if self.kind not in ("partition", "crash"):
            raise ValueError(f"kind must be partition or crash, got {self.kind!r}")
        if self.end < self.start:
            raise ValueError(
                f"outage ends ({self.end}) before it starts ({self.start})"
            )

    def active(self, now: float) -> bool:
        """Whether the member is unreachable at *now*."""
        if self.kind == "crash":
            return now >= self.start
        return self.start <= now < self.end


# -- chaos profiles --------------------------------------------------------

def _profile_specs(
    name: str, nodes: tuple[str, ...] | None, start: float, end: float
) -> list[FaultSpec]:
    window = dict(nodes=nodes, start=start, end=end)
    if name == "clean":
        return []
    if name == "drops":
        return [FaultSpec(FaultKind.DROP, probability=0.15, **window)]
    if name == "flaky":
        return [
            FaultSpec(FaultKind.DROP, probability=0.08, **window),
            FaultSpec(FaultKind.DELAY, probability=0.2,
                      delay_range=(0.25, 6.0), **window),
        ]
    if name == "delay":
        # Every wire leg pays latency, but always under the attempt
        # timeout: nothing is lost or retried, rounds simply cost more
        # of the tick budget -- the saturation-study profile.
        return [FaultSpec(FaultKind.DELAY, probability=1.0,
                          delay_range=(0.6, 1.8), **window)]
    if name == "duplicates":
        return [FaultSpec(FaultKind.DUPLICATE, probability=0.25, **window)]
    if name == "partition":
        return [FaultSpec(FaultKind.PARTITION, probability=1.0, **window)]
    if name == "transient-mixed":
        return [
            FaultSpec(FaultKind.DROP, probability=0.08, **window),
            FaultSpec(FaultKind.DELAY, probability=0.12,
                      delay_range=(0.25, 6.0), **window),
            FaultSpec(FaultKind.DUPLICATE, probability=0.08, **window),
        ]
    if name == "corruption":
        return [FaultSpec(FaultKind.CORRUPT, probability=0.12, **window)]
    if name == "replay":
        return [FaultSpec(FaultKind.REPLAY, probability=0.12, **window)]
    if name == "mixed":
        return [
            FaultSpec(FaultKind.DROP, probability=0.06, **window),
            FaultSpec(FaultKind.DELAY, probability=0.08,
                      delay_range=(0.25, 6.0), **window),
            FaultSpec(FaultKind.DUPLICATE, probability=0.05, **window),
            FaultSpec(FaultKind.CORRUPT, probability=0.04, **window),
            FaultSpec(FaultKind.REPLAY, probability=0.03, **window),
        ]
    raise ValueError(f"unknown chaos profile {name!r}")


#: Profile name -> whether every fault it can inject is transient.
#: The property suite keys its "no false positives from noise"
#: invariant off this: a transient-only profile must never yield a
#: FAILED verdict, no matter the seed.
CHAOS_PROFILES: dict[str, bool] = {
    "clean": True,
    "delay": True,
    "drops": True,
    "flaky": True,
    "duplicates": True,
    "partition": True,
    "transient-mixed": True,
    "corruption": False,
    "replay": False,
    "mixed": False,
}


def chaos_profile(
    name: str,
    rng: SeededRng,
    nodes: tuple[str, ...] | None = None,
    start: float = 0.0,
    end: float = math.inf,
    attempt_timeout: float = DEFAULT_ATTEMPT_TIMEOUT,
) -> FaultPlan:
    """Build the named preset :class:`FaultPlan`.

    *nodes* restricts every rule to the given agent ids; the plan is
    live over sim-time ``[start, end)``.  Profile names (and whether
    they are transient-only) are listed in :data:`CHAOS_PROFILES`.
    """
    if name not in CHAOS_PROFILES:
        raise ValueError(
            f"unknown chaos profile {name!r}; "
            f"choose from {', '.join(sorted(CHAOS_PROFILES))}"
        )
    return FaultPlan(
        rng,
        specs=_profile_specs(name, nodes, start, end),
        attempt_timeout=attempt_timeout,
        name=name,
    )

"""The Keylime registrar: TPM identity validation.

Before the verifier trusts a single quote, the registrar establishes
that the agent's attestation key lives in a genuine TPM:

1. the agent presents its TPM's **EK certificate**; the registrar
   verifies the chain against the trusted manufacturer roots;
2. the agent presents its **AK** with the TPM's binding statement; the
   registrar verifies the EK signed it (standing in for the
   MakeCredential/ActivateCredential ceremony).

A spoofed TPM (no valid manufacturer chain) or a smuggled AK (no valid
binding) is rejected here, which is why those attack avenues are out of
scope for the paper's false-negative study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import IntegrityError, NotFoundError
from repro.common.events import EventLog
from repro.crypto.certs import Certificate, verify_chain
from repro.crypto.rsa import RsaPublicKey
from repro.keylime.agent import KeylimeAgent, PushCapabilities
from repro.tpm.device import AttestationKey


class RegistrationError(IntegrityError):
    """Agent registration failed identity validation."""


@dataclass(frozen=True)
class AgentRecord:
    """The registrar's record of a validated agent."""

    agent_id: str
    ak_public: RsaPublicKey
    ek_certificate: Certificate


class KeylimeRegistrar:
    """Registry of validated agents and their attestation keys."""

    def __init__(self, trusted_roots: list[Certificate], events: EventLog | None = None) -> None:
        self.trusted_roots = list(trusted_roots)
        self.events = events if events is not None else EventLog()
        self._agents: dict[str, AgentRecord] = {}
        self._capabilities: dict[str, PushCapabilities] = {}
        self._shard_ring = None

    # -- shard assignment ---------------------------------------------------

    def attach_shard_ring(self, ring) -> None:
        """Make this registrar the authority for shard placement.

        The registrar already owns the only fleet-wide identity table,
        which makes it the natural home for the consistent-hash ring
        (:class:`repro.keylime.sharding.ConsistentHashRing`): every
        component that can look an agent up can also ask where it is
        attested.  Attaching emits one ``shard.ring.attached`` event
        naming the membership, so the event log records when placement
        authority began.
        """
        self._shard_ring = ring
        self.events.emit(
            0.0, "keylime.registrar", "shard.ring.attached",
            members=",".join(ring.members), vnodes=ring.vnodes,
        )

    def shard_of(self, agent_id: str) -> str:
        """The shard attesting *agent_id* (registered agents only).

        Raises :class:`~repro.common.errors.NotFoundError` for unknown
        agents and :class:`IntegrityError` when no ring is attached --
        asking for a shard in a single-verifier deployment is a caller
        bug, not an empty answer.
        """
        self.lookup(agent_id)
        if self._shard_ring is None:
            raise IntegrityError(
                "no shard ring attached: this registrar serves a "
                "single-verifier deployment"
            )
        return self._shard_ring.owner(agent_id)

    def __contains__(self, agent_id: str) -> bool:
        return agent_id in self._agents

    def register(self, agent: KeylimeAgent) -> AgentRecord:
        """Validate and record an agent's TPM identity.

        Raises :class:`RegistrationError` when the EK certificate does
        not chain to a trusted manufacturer or the AK binding fails.
        """
        ek_cert = agent.machine.tpm.ek_certificate
        try:
            verify_chain([ek_cert], self.trusted_roots)
        except IntegrityError as exc:
            raise RegistrationError(
                f"agent {agent.agent_id}: EK certificate rejected: {exc}"
            ) from exc

        ak: AttestationKey = agent.provision_ak()
        if ak.ek_fingerprint != ek_cert.public_key.fingerprint():
            raise RegistrationError(
                f"agent {agent.agent_id}: AK names a different EK than the certificate"
            )
        if not ak.verify_binding(ek_cert.public_key):
            raise RegistrationError(
                f"agent {agent.agent_id}: AK binding signature invalid"
            )

        record = AgentRecord(
            agent_id=agent.agent_id, ak_public=ak.public, ek_certificate=ek_cert
        )
        self._agents[agent.agent_id] = record
        self.events.emit(
            agent.machine.clock.now, "keylime.registrar", "agent.registered",
            agent=agent.agent_id,
        )
        return record

    def lookup(self, agent_id: str) -> AgentRecord:
        """The record for *agent_id* (raises when unknown)."""
        try:
            return self._agents[agent_id]
        except KeyError:
            raise NotFoundError(f"agent {agent_id!r} is not registered") from None

    # -- push negotiation ---------------------------------------------------

    def note_capabilities(
        self, agent_id: str, capabilities: PushCapabilities, now: float = 0.0
    ) -> PushCapabilities | None:
        """Record what *agent_id* announced in a push negotiation.

        Only registered agents may open push sessions -- an unknown
        agent raises :class:`NotFoundError` exactly like a quote lookup
        would.  TPM reset counters are monotonic, so a *decreasing*
        boot count is physically impossible for an honest agent: it
        means replayed negotiation material and is rejected as an
        :class:`IntegrityError` before a session is ever created.

        Returns the previously recorded capabilities (None on first
        contact).
        """
        self.lookup(agent_id)  # raises when unknown
        previous = self._capabilities.get(agent_id)
        if previous is not None and capabilities.boot_count < previous.boot_count:
            raise IntegrityError(
                f"agent {agent_id}: announced boot count "
                f"{capabilities.boot_count} regressed below "
                f"{previous.boot_count} (replayed negotiation?)"
            )
        self._capabilities[agent_id] = capabilities
        self.events.emit(
            now, "keylime.registrar", "agent.capabilities",
            agent=agent_id, boot_count=capabilities.boot_count,
            log_length=capabilities.log_length,
        )
        return previous

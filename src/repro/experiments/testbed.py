"""The standard experiment rig.

Every experiment needs the same cast: an upstream archive seeded with a
base system, a prover machine booted with IMA and a manufactured TPM, a
local mirror, the Keylime stack (agent, registrar, verifier, tenant),
the dynamic policy generator, a benign workload, and the update
orchestrator.  :func:`build_testbed` assembles it all from a single
seed and a config, so experiments differ only in what they *do* with
the rig.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.clock import Scheduler
from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.distro.apt import AptInstaller
from repro.distro.archive import UbuntuArchive
from repro.distro.mirror import LocalMirror
from repro.distro.workload import (
    DEFAULT_KERNEL,
    BenignWorkload,
    ReleaseStreamConfig,
    SyntheticReleaseStream,
    build_base_system,
)
from repro.dynpolicy.costmodel import CostModelConfig, GeneratorCostModel
from repro.dynpolicy.generator import DynamicPolicyGenerator
from repro.dynpolicy.orchestrator import UpdateOrchestrator
from repro.kernelsim.ima import ImaPolicy
from repro.kernelsim.kernel import Machine
from repro.keylime.agent import KeylimeAgent
from repro.keylime.audit import AuditLog
from repro.keylime.policy import (
    IBM_STYLE_EXCLUDES,
    RuntimePolicy,
    build_policy_from_machine,
)
from repro.keylime.registrar import KeylimeRegistrar
from repro.keylime.tenant import KeylimeTenant
from repro.keylime.verifier import KeylimeVerifier
from repro.obs import runtime as obs
from repro.tpm.device import TpmManufacturer


@dataclass
class TestbedConfig:
    """Knobs for :func:`build_testbed`.

    ``scale`` multiplies the base-system size; 1.0 is the fast default
    used by tests, the long-run benches raise it.  ``policy_mode``
    selects the study's *static* scan-the-disk policy ("static") or the
    paper's dynamic mirror-derived policy ("dynamic").
    """

    __test__ = False  # not a pytest test class despite the name

    seed: int | str = 0
    n_filler_packages: int = 60
    mean_exec_files: float = 10.0
    kernel_version: str = DEFAULT_KERNEL
    stream: ReleaseStreamConfig = field(default_factory=ReleaseStreamConfig)
    cost_model: CostModelConfig = field(default_factory=CostModelConfig)
    policy_mode: str = "dynamic"  # "dynamic" | "static"
    continue_on_failure: bool = False
    ima_policy: ImaPolicy | None = None
    poll_interval_seconds: float = 1800.0
    sync_hour: float = 5.0


@dataclass
class Testbed:
    """Everything an experiment needs, wired together."""

    __test__ = False  # not a pytest test class despite the name

    config: TestbedConfig
    rng: SeededRng
    scheduler: Scheduler
    events: EventLog
    archive: UbuntuArchive
    stream: SyntheticReleaseStream
    machine: Machine
    apt: AptInstaller
    mirror: LocalMirror
    generator: DynamicPolicyGenerator
    policy: RuntimePolicy
    agent: KeylimeAgent
    registrar: KeylimeRegistrar
    verifier: KeylimeVerifier
    audit: AuditLog
    tenant: KeylimeTenant
    workload: BenignWorkload
    orchestrator: UpdateOrchestrator

    @property
    def agent_id(self) -> str:
        """Convenience accessor for the single agent's id."""
        return self.agent.agent_id

    def poll(self):
        """One verifier round against the agent."""
        return self.verifier.poll(self.agent_id)

    def push_round(self):
        """One agent-initiated push round (negotiate -> submit -> verdict)."""
        return self.verifier.push_round(self.agent_id)

    def new_policy_failures(self, since: float):
        """Policy failures recorded at or after *since*."""
        return [
            failure for failure in self.verifier.failures_of(self.agent_id)
            if failure.time >= since and failure.policy_failure is not None
        ]


def build_testbed(config: TestbedConfig | None = None) -> Testbed:
    """Assemble the standard rig from a config."""
    config = config if config is not None else TestbedConfig()
    rng = SeededRng(config.seed)
    scheduler = Scheduler()
    events = EventLog()
    # Spans carry simulated timestamps when telemetry is active.
    obs.get().bind_clock(scheduler.clock)

    # Upstream world.
    archive = UbuntuArchive()
    base = build_base_system(
        rng.fork("base"),
        n_filler_packages=config.n_filler_packages,
        mean_exec_files=config.mean_exec_files,
        kernel_version=config.kernel_version,
    )
    archive.seed(base)
    stream = SyntheticReleaseStream(archive, base, rng.fork("stream"), config.stream)

    # The prover.
    manufacturer = TpmManufacturer("Infineon", rng.fork("tpm"))
    machine = Machine(
        "prover",
        manufacturer.manufacture(),
        clock=scheduler.clock,
        events=events,
        ima_policy=config.ima_policy,
        kernel_version=config.kernel_version,
    )
    machine.boot()
    apt = AptInstaller(machine, events=events)

    # Mirror and baseline install (machine state == mirror state at t0).
    mirror = LocalMirror(archive, events=events)
    mirror.sync(0.0)
    apt.upgrade_from(mirror.index(), install_new=True)

    # Policy.
    cost_model = GeneratorCostModel(config.cost_model, rng=rng.fork("cost"))
    generator = DynamicPolicyGenerator(
        mirror, cost_model=cost_model, events=events, rng=rng.fork("gen")
    )
    if config.policy_mode == "dynamic":
        policy, _ = generator.generate_full(
            list(IBM_STYLE_EXCLUDES), {machine.current_kernel}
        )
    elif config.policy_mode == "static":
        policy = build_policy_from_machine(machine)
    else:
        raise ValueError(f"unknown policy_mode: {config.policy_mode!r}")

    # Keylime stack.
    agent = KeylimeAgent("agent-prover", machine)
    registrar = KeylimeRegistrar([manufacturer.root_certificate], events=events)
    # Poll outcomes are routed into a hash-chained audit trail, so the
    # incident correlator can cite chain indices for any window.
    audit = AuditLog()
    verifier = KeylimeVerifier(
        registrar, scheduler, rng.fork("verifier"), events=events,
        continue_on_failure=config.continue_on_failure, audit=audit,
    )
    tenant = KeylimeTenant(registrar, verifier)
    tenant.onboard(
        agent, policy,
        poll_interval=config.poll_interval_seconds,
        start_polling=False,
    )

    workload = BenignWorkload(machine, rng.fork("workload"))
    orchestrator = UpdateOrchestrator(
        machine, apt, mirror, generator, tenant, agent.agent_id, policy,
        scheduler, workload=workload, events=events, sync_hour=config.sync_hour,
    )

    return Testbed(
        config=config, rng=rng, scheduler=scheduler, events=events,
        archive=archive, stream=stream, machine=machine, apt=apt,
        mirror=mirror, generator=generator, policy=policy, agent=agent,
        registrar=registrar, verifier=verifier, audit=audit, tenant=tenant,
        workload=workload, orchestrator=orchestrator,
    )

"""A federated fleet run: N telemetry shards, one mission-control view.

The ROADMAP's sharded multi-verifier fleet does not exist yet, but its
*observability contract* can be proven today: this scenario provisions
N completely independent verifier shards -- each with its own
:class:`~repro.obs.runtime.Telemetry` bundle, scheduler, event log,
mirror, fleet and registry-sampling :class:`~repro.obs.health.HealthWatch`
-- and advances them in lockstep slices of simulated time.  On its own
cadence, each shard serialises a metrics snapshot through the JSON wire
pair (:func:`repro.obs.federation.snapshot_to_json` /
``snapshot_from_json`` -- a real encode/decode round-trip, exactly what
a cross-process shard would ship) into one
:class:`~repro.obs.federation.FederationHub`, whose store then drives
the ``repro-cli obs top`` dashboard: fleet rollups summed across
sources, per-source staleness (shards snapshot at *different* cadences,
so the staleness column is visibly non-uniform), and per-agent
freshness rows tagged by shard.

Because each shard's scheduler only runs while its own telemetry is
active, the instrumented hot paths record into the right registry
without any shard-awareness in the instrumented code -- the same
process-global :func:`repro.obs.runtime.activate` idiom the rest of
the codebase already uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.clock import Scheduler, days, hours
from repro.common.events import EventLog
from repro.distro.workload import ReleaseStreamConfig, SyntheticReleaseStream
from repro.experiments.fleet_run import DEFAULT_KERNEL, ChaosInjection
from repro.keylime.fleet import Fleet, build_fleet, release_stream
from repro.obs import runtime as obs_runtime
from repro.obs.federation import (
    FederationHub,
    registry_snapshot,
    snapshot_to_json,
)
from repro.obs.health import HealthWatch


@dataclass
class ObservatoryShard:
    """One independent verifier shard and its private plumbing."""

    name: str
    telemetry: Any
    scheduler: Scheduler
    events: EventLog
    fleet: Fleet
    watch: HealthWatch
    stream: SyntheticReleaseStream
    #: this shard snapshots to the hub every N lockstep slices.
    snapshot_every: int
    update_reports: list = field(default_factory=list)
    snapshots_sent: int = 0


@dataclass
class FederatedObservatoryResult:
    """Outcome of one federated observatory run."""

    hub: FederationHub
    shards: list[ObservatoryShard]
    n_days: int
    poll_interval: float
    scrape_interval: float
    #: ``(sim_time, top_frame_record)`` pairs captured during the run.
    frames: list[tuple[float, dict]] = field(default_factory=list)

    @property
    def end_time(self) -> float:
        """The simulated end of the run."""
        return days(self.n_days + 1)


def _build_shard(
    index: int,
    seed: int | str,
    nodes: int,
    n_filler_packages: int,
    poll_interval: float,
    chaos: ChaosInjection | None,
) -> ObservatoryShard:
    """Provision one shard under its own (already active) telemetry."""
    name = f"shard-{index}"
    telemetry = obs_runtime.get()
    fault_plan = None
    retry_policy = None
    quarantine_after = 3
    if chaos is not None:
        node_ids = [f"agent-node-{i:03d}" for i in range(nodes)]
        fault_plan = chaos.build_plan(node_ids)
        retry_policy = chaos.build_retry_policy()
        quarantine_after = chaos.quarantine_after
    rig_seed = f"{seed}-{name}"
    fleet = build_fleet(
        rig_seed, nodes, fillers=n_filler_packages, mean_exec_files=4.0,
        manufacturer="Infineon", events=EventLog(),
        kernel_version=DEFAULT_KERNEL, fault_plan=fault_plan,
        retry_policy=retry_policy, quarantine_after=quarantine_after,
    )
    scheduler, events = fleet.scheduler, fleet.events
    stream = release_stream(fleet, rig_seed, ReleaseStreamConfig(
        mean_packages_per_day=2.0,
        sd_packages_per_day=1.0,
        mean_exec_files_per_package=4.0,
        kernel_release_every_days=0,
    ))

    watch = HealthWatch(tick_interval=poll_interval)
    fleet.start_polling(poll_interval)
    fleet.watch_health(watch, poll_interval)

    # Staggered snapshot cadence: even shards ship every slice, odd
    # shards every other slice, so the hub's per-source staleness
    # column shows real spread instead of N identical ages.
    return ObservatoryShard(
        name=name, telemetry=telemetry, scheduler=scheduler, events=events,
        fleet=fleet, watch=watch, stream=stream,
        snapshot_every=(index % 2) + 1,
    )


def run_federated_observatory(
    seed: int | str = "observatory",
    n_shards: int = 2,
    nodes_per_shard: int = 2,
    n_days: int = 1,
    n_filler_packages: int = 12,
    poll_interval: float = 1800.0,
    scrape_interval: float = 1800.0,
    sync_hour: float = 5.0,
    chaos: ChaosInjection | None = None,
    chaos_shard: int = 0,
    on_frame: Callable[[float, FederationHub], dict | None] | None = None,
    frame_every: int = 0,
) -> FederatedObservatoryResult:
    """Run *n_shards* independent fleets federated into one hub.

    Shards advance in *scrape_interval* lockstep slices; within a
    slice each shard's scheduler runs under its *own* activated
    telemetry, then (on its cadence) serialises a registry snapshot
    through the JSON wire pair into the hub.  *chaos* applies a seeded
    fault plan to ``chaos_shard`` only, so the dashboard shows one
    noisy source next to healthy ones.  *on_frame* (with
    ``frame_every`` > 0, in slices) is called after hub rule
    evaluation; a returned dict is kept in ``result.frames``.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    previous = obs_runtime.get()
    hub = FederationHub(poll_interval=poll_interval)
    shards: list[ObservatoryShard] = []
    try:
        for index in range(n_shards):
            obs_runtime.activate(clock=None)
            shards.append(_build_shard(
                index, seed, nodes_per_shard, n_filler_packages,
                poll_interval,
                chaos if index == chaos_shard else None,
            ))

        # Daily release + update cycles, per shard.
        for shard in shards:
            obs_runtime.activate(shard.telemetry)
            for day in range(1, n_days + 1):
                shard.stream.generate_day(day - 1)
                shard.scheduler.call_at(
                    days(day) + hours(sync_hour),
                    lambda s=shard: s.update_reports.append(
                        s.fleet.run_update_cycle()
                    ),
                    label=f"{shard.name}-update-day{day}",
                )

        result = FederatedObservatoryResult(
            hub=hub, shards=shards, n_days=n_days,
            poll_interval=poll_interval, scrape_interval=scrape_interval,
        )
        end = result.end_time
        now = 0.0
        slice_index = 0
        while now < end:
            now = min(now + scrape_interval, end)
            slice_index += 1
            for shard in shards:
                obs_runtime.activate(shard.telemetry)
                shard.scheduler.run_until(now)
                if slice_index % shard.snapshot_every == 0:
                    blob = snapshot_to_json(registry_snapshot(
                        shard.telemetry.registry, shard.name, now
                    ))
                    hub.ingest_json(blob)
                    shard.snapshots_sent += 1
            hub.evaluate(now)
            if on_frame is not None and frame_every > 0:
                if slice_index % frame_every == 0:
                    frame = on_frame(now, hub)
                    if frame is not None:
                        result.frames.append((now, frame))

        for shard in shards:
            obs_runtime.activate(shard.telemetry)
            shard.watch.finalize(end)
        return result
    finally:
        if previous.enabled:
            obs_runtime.activate(previous)
        else:
            obs_runtime.deactivate()

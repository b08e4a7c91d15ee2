"""The four end-to-end workloads.

Every workload is a closed loop: one driver, concurrency 1.  A *tick*
is one fleet-wide attestation pass (``Fleet.poll_all``, one sharded
push round, or one simulated day of the long run) and simulated time
advances 1800 s per poll, the paper's interval.  Nothing arrives on a
wall-clock schedule, so there is no generator lag to report.

A run repeats its workload ``REPS`` times.  A repetition is one set-up
-- rig build, any preload and one untimed warm-up tick -- followed by a
timed phase of a fixed number of ticks, so every run does the same work
however fast the program is.  The long run sets up ``REPS`` times but
times its 31 days once.  The program is driven through its public API
only; every timing is taken from outside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.common.clock import days
from repro.common.rng import SeededRng
from repro.experiments import longrun as longrun_module
from repro.experiments import shardfleet
from repro.experiments.testbed import TestbedConfig
from repro.keylime.verifier import KeylimeVerifier
from repro.obs import runtime as obs_runtime

from layertrace import LayerTracer, Patches

POLL_INTERVAL = 1800.0
REPS = 3
EXECS_PER_TICK = 3
N_VERIFIERS = 4
#: The paper-calibrated long-run seed (EXPERIMENTS.md E2-E5).
PAPER_SEED = "dsn2025-repro/daily-h"
PAPER_DAILY = Path(__file__).resolve().parent / "paper_daily.json"


@dataclass(frozen=True)
class Scale:
    """Input sizes and tick counts; ``SMOKE`` shrinks every workload."""

    nodes: int
    fillers: int
    #: Timed ticks of one pull_fleet or push_shards repetition.
    ticks: int
    #: Push rounds at which verifier-1 and verifier-3 are killed.
    kills: tuple[int, int]
    reattest_ticks: int
    preload: int
    longrun_fillers: int
    longrun_mean_execs: float
    longrun_days: int


#: On a 2-vCPU VM a timed phase takes about 3 s (5.5 s for reattest,
#: whose speed drifted most with other tenants' load), and one run of
#: each of the four workloads about 120 s.  Set-up is mostly key
#: generation and grows with the node count, which is why the fleets
#: have 8 nodes.  ``preload`` stays at 600 log entries: at 1,800 a
#: round's working set outgrows the 2 MiB L2, and a process copying
#: memory on the other CPU slowed a reattest tick by 20-35%, against
#: under 10% at 600.
FULL = Scale(
    nodes=8, fillers=400, ticks=48, kills=(16, 32), reattest_ticks=64,
    preload=600, longrun_fillers=600, longrun_mean_execs=77.0, longrun_days=31,
)
SMOKE = Scale(
    nodes=2, fillers=20, ticks=3, kills=(1, 2), reattest_ticks=3,
    preload=60, longrun_fillers=60, longrun_mean_execs=10.0, longrun_days=2,
)


class _Stop(Exception):
    """Ends a program-driven loop from one of its callbacks."""


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    workload: str
    seed: int
    tracer: LayerTracer | None = None
    setup_tracer: LayerTracer | None = None
    setup_s: list[float] = field(default_factory=list)
    #: ``(rounds, wall seconds)`` of each timed phase.
    phases: list[tuple[int, float]] = field(default_factory=list)
    #: Deterministic counts of each timed phase.
    phase_counts: list[dict[str, int]] = field(default_factory=list)
    ticks: int = 0
    #: Simulated seconds of the timed phase (the long run).
    sim_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    latencies: list[float] = field(default_factory=list)
    rounds: int = 0
    failed: int = 0
    notes: dict[str, object] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    tick_walls: dict[bool, list[float]] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def counts(self) -> dict[str, int]:
        return self.phase_counts[0]

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


class SetupTimer:
    """Times each set-up; with tracing, the first one runs traced, which
    prices key generation against set-up time."""

    def __init__(self, outcome: Outcome, trace: bool) -> None:
        self.outcome = outcome
        if trace:
            outcome.setup_tracer = LayerTracer()

    def begin(self) -> None:
        gc.collect()
        self.tracer = self.outcome.setup_tracer if not self.outcome.setup_s else None
        if self.tracer is not None:
            self.tracer.install()
        self.start = perf_counter()

    def end(self) -> None:
        self.outcome.setup_s.append(perf_counter() - self.start)
        if self.tracer is not None:
            self.tracer.uninstall()
        gc.collect()


class TickClock:
    """Wall time of every timed tick, in phases of *ticks* ticks.

    ``tick_done()`` closes a tick and says whether the phase has ticks
    left.  With a tracer, odd-numbered ticks run traced and even ones
    bare, so one run yields both the per-layer spans and the tracing
    overhead.
    """

    def __init__(self, ticks: int, tracer: LayerTracer | None) -> None:
        self.ticks = ticks
        self.tracer = tracer
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.phase_walls: list[float] = []

    def start(self) -> None:
        self.done = 0
        self.phase_walls.append(0.0)
        self._arm()
        self.last = perf_counter()

    def tick_done(self) -> bool:
        now = perf_counter()
        traced = self.tracer is not None and self.tracer.installed
        if traced:
            self.tracer.uninstall()
        self.walls[traced].append(now - self.last)
        self.phase_walls[-1] += now - self.last
        self.done += 1
        more = self.done < self.ticks
        if more:
            self._arm()
        self.last = perf_counter()
        return more

    def _arm(self) -> None:
        if self.tracer is not None and self.done % 2 == 0:
            self.tracer.install()


class RoundTimer:
    """Wall time and result of every verifier round while ``active``.

    Wraps ``KeylimeVerifier.poll`` and ``push_round``, so a round's
    latency includes the simulated agent and TPM it waits on.
    """

    def __init__(self) -> None:
        self.active = False
        self.latencies: list[float] = []
        self.results: list = []
        self._patches = Patches()

    def __enter__(self) -> "RoundTimer":
        for name in ("poll", "push_round"):
            self._patches.swap(KeylimeVerifier, name, self._timed)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _timed(self, original):
        def timed(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            start = perf_counter()
            result = original(*args, **kwargs)
            self.latencies.append(perf_counter() - start)
            self.results.append(result)
            return result
        return timed


def _close_phase(outcome: Outcome, clock: TickClock, results: list,
                 **counts: int) -> None:
    """Record one timed phase: its rounds, wall time and counts."""
    outcome.phases.append((len(results), clock.phase_walls[-1]))
    outcome.rounds += len(results)
    outcome.failed += sum(1 for r in results if r is None or not r.ok)
    outcome.phase_counts.append({
        "rounds": len(results),
        "entries": sum(r.entries_processed for r in results if r is not None),
        **counts,
    })


def _finish(outcome: Outcome, clock: TickClock, timer: RoundTimer) -> None:
    outcome.ticks = clock.ticks
    outcome.tick_walls = clock.walls
    outcome.latencies = timer.latencies
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(outcome.phase_counts) > 1:
        outcome.check(
            "counts repeat in every repetition",
            all(c == outcome.counts for c in outcome.phase_counts),
            f"{len(outcome.phase_counts)} repetitions",
        )


def _exec_pool(fleet, seed: int) -> list[str]:
    """Every installed executable, in a seeded order (nodes are identical)."""
    machine = fleet.nodes[0].machine
    pool = sorted(
        stat.path for prefix in ("/bin", "/usr")
        for stat in machine.vfs.walk(prefix) if stat.executable
    )
    random.Random(f"e2e/{seed}/execs").shuffle(pool)
    return pool


def _run_execs(fleet, pool: list[str], tick: int) -> None:
    """Tick *tick*'s executables, the same on every node (never repeated)."""
    paths = pool[EXECS_PER_TICK * (tick - 1):EXECS_PER_TICK * tick]
    for node in fleet.nodes:
        for path in paths:
            node.machine.exec_file(path)


def _poll_tick(fleet) -> None:
    fleet.scheduler.clock.advance_by(POLL_INTERVAL)
    fleet.poll_all()


def verdict_digest(histories: dict[str, list]) -> str:
    """Short digest of per-agent verdict histories (pull/push comparable)."""
    digest = hashlib.sha256()
    for agent_id in sorted(histories):
        for result in histories[agent_id]:
            digest.update(repr((
                agent_id, result.time, result.ok, result.entries_processed,
                result.entries_skipped, result.transient,
                tuple(failure.kind.value for failure in result.failures),
            )).encode())
    return digest.hexdigest()[:16]


def _fleet_histories(fleet, verifier_for) -> dict[str, list]:
    return {
        node.agent.agent_id: verifier_for(node.agent.agent_id).results_of(
            node.agent.agent_id
        )
        for node in fleet.nodes
    }


def _pull_reps(outcome: Outcome, ticks: int, build, ticker) -> list[str]:
    """``REPS`` times: set up with ``build()``, then time *ticks* calls
    of ``ticker(fleet)``'s tick function.  Returns each repetition's
    verdict digest."""
    setup = SetupTimer(outcome, outcome.tracer is not None)
    clock = TickClock(ticks, outcome.tracer)
    digests = []
    with RoundTimer() as timer:
        for _ in range(REPS):
            setup.begin()
            fleet = build()
            setup.end()
            tick = ticker(fleet)
            cache = fleet.verdict_cache
            hits, misses = cache.hits, cache.misses
            first = len(timer.results)
            timer.active = True
            clock.start()
            for number in range(1, ticks + 1):
                tick(number)
                clock.tick_done()
            timer.active = False
            _close_phase(outcome, clock, timer.results[first:],
                         cache_hits=cache.hits - hits,
                         cache_misses=cache.misses - misses)
            digests.append(verdict_digest(
                _fleet_histories(fleet, lambda _: fleet.verifier)
            ))
            del fleet, tick
    _finish(outcome, clock, timer)
    outcome.check("same verdicts in every repetition", len(set(digests)) == 1,
                  " / ".join(digests))
    return digests


def _check_pull_schedule(outcome: Outcome, nodes: int) -> None:
    """Closed-form counts of the 3-new-executables-per-tick schedule."""
    ticks, counts = outcome.ticks, outcome.counts
    hits, misses = counts["cache_hits"], counts["cache_misses"]
    outcome.check("every round ok", outcome.failed == 0,
                  f"{outcome.failed} of {outcome.rounds} rounds not ok")
    outcome.check("rounds = nodes x ticks", counts["rounds"] == nodes * ticks,
                  f"{counts['rounds']} rounds over {ticks} ticks")
    outcome.check(
        "entries = 3 per round",
        counts["entries"] == EXECS_PER_TICK * counts["rounds"],
        f"{counts['entries']} entries",
    )
    outcome.check(
        "cache misses = 3 per tick", misses == EXECS_PER_TICK * ticks,
        f"{misses} misses",
    )
    outcome.check(
        "cache hits = 3 per other node per tick",
        hits == EXECS_PER_TICK * (nodes - 1) * ticks, f"{hits} hits",
    )


def pull_fleet(seed: int, scale: Scale, trace: bool) -> Outcome:
    """Steady-state pull polling of the fleet under one verifier."""
    outcome = Outcome("pull_fleet", seed, tracer=LayerTracer() if trace else None)

    def build():
        fleet = shardfleet.build_shard_rig(f"e2e/{seed}", scale.nodes, scale.fillers)
        _poll_tick(fleet)
        return fleet

    def ticker(fleet):
        pool = _exec_pool(fleet, seed)

        def tick(number: int) -> None:
            _run_execs(fleet, pool, number)
            _poll_tick(fleet)
        return tick

    digests = _pull_reps(outcome, scale.ticks, build, ticker)
    _check_pull_schedule(outcome, scale.nodes)
    outcome.notes["verdict_digest"] = digests[0]
    return outcome


def push_shards(seed: int, scale: Scale, trace: bool) -> Outcome:
    """The same rig and schedule, pushed across 4 verifiers with 2 kills.

    ``run_shard_fleet`` drives the rounds (federation hub, HealthWatch,
    telemetry on, a checkpoint every round).  Its round 0 is the warm-up
    that ends set-up; the bench runs each round's executables from its
    ``on_round`` hook.  After the timed repetitions, an untimed pull
    reference on the same rig and schedule checks the verdicts.
    """
    outcome = Outcome("push_shards", seed, tracer=LayerTracer() if trace else None)
    rig_seed = f"e2e/{seed}"
    first_kill, second_kill = scale.kills
    kills = {first_kill: "verifier-1", second_kill: "verifier-3"}
    setup = SetupTimer(outcome, trace)
    clock = TickClock(scale.ticks, outcome.tracer)
    digests, failovers, gaps = [], [], []

    with RoundTimer() as timer:
        for _ in range(REPS):
            state: dict = {}

            def on_round(round_index, result) -> None:
                if round_index == 0:
                    setup.end()
                    state["pool"] = _exec_pool(result.fleet, seed)
                    cache = result.fleet.verdict_cache
                    state["cache"] = (cache.hits, cache.misses)
                    state["first"] = len(timer.results)
                    timer.active = True
                    clock.start()
                elif not clock.tick_done():
                    timer.active = False
                    return
                _run_execs(result.fleet, state["pool"], round_index + 1)

            setup.begin()
            result = shardfleet.run_shard_fleet(
                seed=rig_seed, n_nodes=scale.nodes, n_verifiers=N_VERIFIERS,
                fillers=scale.fillers, rounds=scale.ticks + 1, push_mode=True,
                kill=kills, checkpoint_every=1, on_round=on_round,
            )
            obs_runtime.deactivate()
            cache = result.fleet.verdict_cache
            _close_phase(
                outcome, clock, timer.results[state["first"]:],
                cache_hits=cache.hits - state["cache"][0],
                cache_misses=cache.misses - state["cache"][1],
                failovers=sum(len(v) for v in result.failovers.values()),
            )
            failovers.append({k: sorted(v) for k, v in result.failovers.items()})
            gaps.append(len(result.gap_alerts()))
            digests.append(verdict_digest(
                _fleet_histories(result.fleet, result.vfleet.verifier_for)
            ))
            outcome.notes["shard_sizes"] = result.vfleet.shard_sizes()
            del result, state
    _finish(outcome, clock, timer)

    # The pull reference: pull_fleet's rig, seed and schedule, polled by
    # one verifier through both failover rounds.  Push changes delivery,
    # never verdicts.  It runs after the peak-RSS reading, which belongs
    # to the workload alone.
    reference = shardfleet.build_shard_rig(rig_seed, scale.nodes, scale.fillers)
    _poll_tick(reference)
    pool = _exec_pool(reference, seed)
    for tick in range(1, scale.ticks + 1):
        _run_execs(reference, pool, tick)
        _poll_tick(reference)
    pull_digest = verdict_digest(
        _fleet_histories(reference, lambda _: reference.verifier)
    )
    del reference

    _check_pull_schedule(outcome, scale.nodes)
    outcome.check(
        f"failovers exactly at rounds {first_kill} and {second_kill}",
        all(
            set(f) == {first_kill, second_kill}
            and "verifier-1" in f[first_kill] and "verifier-3" in f[second_kill]
            for f in failovers
        ),
        f"failovers {failovers[0]}",
    )
    outcome.check("no coverage-gap alerts", not any(gaps), f"{sum(gaps)} alerts")
    outcome.check(
        "verdicts equal pull_fleet's",
        all(digest == pull_digest for digest in digests),
        f"push {' / '.join(digests)}, pull {pull_digest}",
    )
    outcome.notes["verdict_digest"] = digests[0]
    return outcome


def reattest_fleet(seed: int, scale: Scale, trace: bool) -> Outcome:
    """Every tick re-pushes the policy and restarts attestation fleet-wide,
    so every poll ships and replays the whole 601-entry log."""
    outcome = Outcome("reattest_fleet", seed, tracer=LayerTracer() if trace else None)

    def reattest(fleet) -> None:
        for node in fleet.nodes:
            fleet.verifier.update_policy(node.agent.agent_id, fleet.policy)
        for node in fleet.nodes:
            fleet.verifier.restart_attestation(node.agent.agent_id)
        _poll_tick(fleet)

    def build():
        fleet = shardfleet.build_shard_rig(f"e2e/{seed}", scale.nodes, scale.fillers)
        pool = _exec_pool(fleet, seed)
        if len(pool) < scale.preload:
            raise RuntimeError(
                f"rig has {len(pool)} executables, fewer than {scale.preload}"
            )
        for node in fleet.nodes:
            for path in pool[:scale.preload]:
                node.machine.exec_file(path)
        reattest(fleet)
        return fleet

    digests = _pull_reps(outcome, scale.reattest_ticks, build,
                         lambda fleet: lambda _: reattest(fleet))
    counts = outcome.counts
    log = scale.preload + 1  # the boot aggregate leads every log
    nodes, ticks = scale.nodes, outcome.ticks
    outcome.check("every round ok", outcome.failed == 0,
                  f"{outcome.failed} of {outcome.rounds} rounds not ok")
    outcome.check("every round replays the whole log",
                  counts["entries"] == log * counts["rounds"]
                  and counts["rounds"] == nodes * ticks,
                  f"{counts['entries']} entries over {counts['rounds']} rounds")
    # Node 0 misses its whole log; every other node misses only its own
    # boot aggregate and hits the rest.
    outcome.check("cache misses = log + other nodes' boot aggregates",
                  counts["cache_misses"] == (log + nodes - 1) * ticks,
                  f"{counts['cache_misses']} misses")
    outcome.check("cache hits = other nodes' shared entries",
                  counts["cache_hits"] == (nodes - 1) * (log - 1) * ticks,
                  f"{counts['cache_hits']} hits")
    outcome.notes["verdict_digest"] = digests[0]
    return outcome


def longrun_daily(seed: int, scale: Scale, trace: bool) -> Outcome:
    """The paper's daily-update run (E2-E4), one simulated day per tick.

    ``run_longrun`` drives the run; a daily hook at 00:00:01, scheduled
    on the testbed's own scheduler, ends set-up after day 0 and marks
    tick boundaries.  Set-up runs ``REPS`` times, and the last set-up
    goes on into the timed run of every remaining day.

    The world -- base system, release stream, TPM keys -- is always the
    paper seed's, so every seed is checked against the paper's daily
    rows; a nonzero seed re-draws the benign workload's daily sample of
    executables, which leaves the cost of a day unchanged.
    """
    outcome = Outcome("longrun_daily", seed, tracer=LayerTracer() if trace else None)
    setup = SetupTimer(outcome, trace)
    clock = TickClock(scale.longrun_days, outcome.tracer)
    hook: dict = {}
    patches = Patches()

    def capture(build_testbed):
        def build(config):
            testbed = build_testbed(config)
            if seed:
                testbed.workload.rng = SeededRng(f"e2e/{seed}/benign")
            hook["testbed"] = testbed
            testbed.scheduler.every(
                days(1), lambda: hook["on_day"](), start=days(1) + 1.0,
                label="e2e-day",
            )
            return testbed
        return build

    def launch() -> None:
        setup.begin()
        longrun_module.run_longrun(
            config=TestbedConfig(
                seed=PAPER_SEED, n_filler_packages=scale.longrun_fillers,
                mean_exec_files=scale.longrun_mean_execs,
            ),
            n_days=scale.longrun_days, cadence_days=1,
        )

    def set_up_only() -> None:
        setup.end()
        del hook["testbed"]
        raise _Stop

    def on_day() -> None:
        if not timer.active:
            setup.end()
            testbed = hook["testbed"]
            hook["start_sim"] = testbed.scheduler.clock.now
            cache = testbed.verifier.verdict_cache
            hook["cache"] = (cache.hits, cache.misses)
            timer.active = True
            clock.start()
        else:
            clock.tick_done()

    patches.swap(longrun_module, "build_testbed", capture)
    try:
        hook["on_day"] = set_up_only
        for _ in range(REPS - 1):
            try:
                launch()
            except _Stop:
                pass
        hook["on_day"] = on_day
        with RoundTimer() as timer:
            launch()
            clock.tick_done()
            timer.active = False
    finally:
        patches.undo()
    testbed = hook.pop("testbed")
    outcome.sim_seconds = testbed.scheduler.clock.now - hook["start_sim"]
    cache = testbed.verifier.verdict_cache
    fps = sum(
        1 for failure in testbed.verifier.failures_of(testbed.agent_id)
        if failure.kind.value == "policy"
    )
    cycles = [
        [c.day, c.policy_report.packages_low, c.policy_report.packages_high,
         c.policy_report.entries_added, c.policy_report.duration_seconds]
        for c in testbed.orchestrator.reports
    ]
    _close_phase(
        outcome, clock, timer.results,
        cache_hits=cache.hits - hook["cache"][0],
        cache_misses=cache.misses - hook["cache"][1],
        false_positives=fps, cycles=len(cycles),
    )
    _finish(outcome, clock, timer)
    outcome.check(f"{scale.longrun_days} days timed",
                  clock.done == scale.longrun_days, f"{clock.done} ticks")
    outcome.check("every poll green: zero false positives", outcome.failed == 0,
                  f"{outcome.failed} polls not ok, {fps} false positives")
    if scale != FULL:
        return outcome
    golden = json.loads(PAPER_DAILY.read_text(encoding="utf-8"))["rows"]
    outcome.check("daily update cycles match paper_daily.json", cycles == golden,
                  f"{len(cycles)} cycles compared")
    polls = testbed.verifier.results_of(testbed.agent_id)
    ok = sum(1 for r in polls if r.ok)
    outcome.check("1,536 of 1,536 polls green", len(polls) == ok == 1536,
                  f"{ok}/{len(polls)}")
    mean = [sum(col) / len(cycles) for col in zip(*cycles)]
    row = (round(mean[1], 1), round(mean[2], 1), round(mean[3]),
           round(mean[4] / 60.0, 2))
    outcome.check("Table I daily row 16.2 / 0.8 / 1,262 / 2.15",
                  row == (16.2, 0.8, 1262, 2.15), f"row {row}")
    return outcome


WORKLOADS = {
    "pull_fleet": pull_fleet,
    "push_shards": push_shards,
    "reattest_fleet": reattest_fleet,
    "longrun_daily": longrun_daily,
}

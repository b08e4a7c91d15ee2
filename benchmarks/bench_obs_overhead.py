"""Overhead of the telemetry + health-monitoring layer on the poll loop.

The anti-P2 watch only earns its keep if watching is cheap: a verifier
operator will not run a gap detector that meaningfully slows the
attestation loop.  This bench times the same N-poll loop three ways --
telemetry off (the null-object fast path), telemetry on, and telemetry
on with a :class:`repro.obs.health.HealthWatch` ticking after every
poll -- and reports the per-poll cost of each increment.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the loop; previously this bench had no smoke shape at
all and CI paid the full 200-poll measurement.
"""

from __future__ import annotations

from time import perf_counter

from common import BenchMetric, bench_mode, pick, register_bench
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.obs import runtime as obs_runtime
from repro.obs.health import HealthWatch
from repro.obs.runtime import Telemetry

MODE = bench_mode()
POLL_INTERVAL = 1800.0


def _n_polls(mode: str) -> int:
    return pick(mode, 40, 200)


def _poll_loop_seconds(
    seed: str, n_polls: int, with_watch: bool = False
) -> float:
    """Build a small rig and time N polls (build cost excluded)."""
    testbed = build_testbed(TestbedConfig(seed=seed, n_filler_packages=15))
    watch = None
    if with_watch:
        telemetry = obs_runtime.get()
        watch = HealthWatch(tick_interval=POLL_INTERVAL)
        watch.attach(
            testbed.events,
            registry=telemetry.registry if telemetry.enabled else None,
            tracer=telemetry.tracer if telemetry.enabled else None,
            audit=testbed.audit,
            poll_interval=POLL_INTERVAL,
        )
        watch.watch_agent(testbed.agent_id, POLL_INTERVAL)

    start = perf_counter()
    for _ in range(n_polls):
        testbed.scheduler.clock.advance_by(POLL_INTERVAL)
        assert testbed.poll().ok
        if watch is not None:
            watch.tick(testbed.scheduler.clock.now)
    elapsed = perf_counter() - start

    if watch is not None:
        # A healthy loop must raise no alerts: the watch's detectors
        # read simulated time and round counts, not wall-clock jitter.
        assert not watch.engine.history
    return elapsed


def _null_loop_seconds(seed: str, n_polls: int) -> float:
    """The unobserved baseline; restores the caller's active bundle."""
    entry = obs_runtime.get()
    obs_runtime.deactivate()
    try:
        return _poll_loop_seconds(seed, n_polls)
    finally:
        if isinstance(entry, Telemetry):
            obs_runtime.activate(entry)
        else:
            obs_runtime.activate()


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: per-poll cost of telemetry and the health watch."""
    n_polls = _n_polls(mode)
    null_s = _null_loop_seconds(f"{seed}/null", n_polls)
    instrumented_s = _poll_loop_seconds(f"{seed}/metrics", n_polls)
    watched_s = _poll_loop_seconds(
        f"{seed}/watched", n_polls, with_watch=True
    )
    per_poll = 1e6 / n_polls
    return {
        "null_us_per_poll": null_s * per_poll,
        "instrumented_us_per_poll": instrumented_s * per_poll,
        "watched_us_per_poll": watched_s * per_poll,
        "watched_over_null": watched_s / null_s if null_s > 0 else 0.0,
    }


register_bench(
    "obs",
    [
        BenchMetric("null_us_per_poll", "us", "lower",
                    "poll cost, telemetry off (null-object fast path)"),
        BenchMetric("instrumented_us_per_poll", "us", "lower",
                    "poll cost with metrics + spans recording"),
        BenchMetric("watched_us_per_poll", "us", "lower",
                    "poll cost with metrics + spans + HealthWatch tick"),
        BenchMetric("watched_over_null", "x", "lower",
                    "whole observability stack over the unobserved loop"),
    ],
    run_bench,
    seed="obs-overhead",
    description="Telemetry + health-watch overhead on the poll loop",
)


def test_poll_loop_overhead(benchmark, emit):
    n_polls = _n_polls(MODE)
    smoke = MODE == "smoke"
    null_s = _null_loop_seconds("obs-overhead/null", n_polls)
    instrumented_s = _poll_loop_seconds("obs-overhead/metrics", n_polls)
    watched_s = benchmark.pedantic(
        lambda: _poll_loop_seconds(
            "obs-overhead/watched", n_polls, with_watch=True
        ),
        rounds=1 if smoke else 3, iterations=1,
    )

    per_poll = lambda seconds: seconds / n_polls * 1e6  # noqa: E731
    emit()
    emit(f"Poll-loop observability overhead ({n_polls} polls"
         f"{', smoke' if smoke else ''})")
    emit(f"  telemetry off:            {per_poll(null_s):9.1f} us/poll")
    emit(f"  metrics+spans:            {per_poll(instrumented_s):9.1f} us/poll "
         f"({instrumented_s / null_s - 1.0:+.1%})")
    emit(f"  metrics+spans+healthwatch:{per_poll(watched_s):9.1f} us/poll "
         f"({watched_s / null_s - 1.0:+.1%})")
    emit(f"  monitoring-layer increment over bare telemetry: "
         f"{(watched_s - instrumented_s) / n_polls * 1e6:.1f} us/poll")

    benchmark.extra_info["overhead"] = {
        "null_us_per_poll": round(per_poll(null_s), 2),
        "instrumented_us_per_poll": round(per_poll(instrumented_s), 2),
        "watched_us_per_poll": round(per_poll(watched_s), 2),
    }
    # Wall-clock bound kept deliberately loose for noisy CI boxes: the
    # whole observability stack must stay within one order of magnitude
    # of the unobserved loop.
    assert watched_s < null_s * 10.0

"""Overhead of tracing, trace propagation, and exemplar capture.

With telemetry on, every verifier poll records a span tree into the
tracer's root ring, every attestation round crosses the JSON wire
formats with a ``traceparent`` field, and the stage histograms capture
per-bucket exemplars.  None of that is free, and all of it sits on the
verifier poll loop -- the paper's core continuous-attestation path.
This bench times the same N-poll loop two ways:

* telemetry off (null objects, the disabled fast path);
* telemetry on (spans, metrics and exemplars).

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the loop so CI can assert the bound without paying the
full measurement.
"""

from __future__ import annotations

from time import perf_counter

from common import BenchMetric, bench_mode, pick, register_bench
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import Telemetry
from repro.obs.tracestore import SpanStore

MODE = bench_mode()
POLL_INTERVAL = 1800.0


def _n_polls(mode: str) -> int:
    return pick(mode, 40, 200)


def _poll_loop_seconds(seed: str, n_polls: int) -> float:
    """Build a small rig and time N polls (build cost excluded)."""
    testbed = build_testbed(TestbedConfig(seed=seed, n_filler_packages=15))
    start = perf_counter()
    for _ in range(n_polls):
        testbed.scheduler.clock.advance_by(POLL_INTERVAL)
        assert testbed.poll().ok
    return perf_counter() - start


def _null_and_full(
    mode: str, seed: str, full_loop: bool = True
) -> tuple[float, float]:
    """(null, full) loop seconds.

    Assumes a full telemetry bundle is active on entry (pytest's
    autouse fixture or the harness session) and leaves the *same*
    bundle active on exit, with the full loop recorded into it.  With
    ``full_loop=False`` the second element is 0.0 and the caller times
    the instrumented loop itself (the pytest path, where
    pytest-benchmark owns that measurement).
    """
    n_polls = _n_polls(mode)
    entry = obs_runtime.get()

    # Null baseline: drop to the null objects for the unobserved loop.
    obs_runtime.deactivate()
    try:
        null_s = _poll_loop_seconds(f"{seed}/null", n_polls)
    finally:
        if isinstance(entry, Telemetry):
            obs_runtime.activate(entry)
        else:
            obs_runtime.activate()

    full_s = _poll_loop_seconds(f"{seed}/store", n_polls) if full_loop else 0.0
    return null_s, full_s


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: per-poll cost with telemetry off and on."""
    n_polls = _n_polls(mode)
    null_s, full_s = _null_and_full(mode, seed)
    per_poll = 1e6 / n_polls
    return {
        "null_us_per_poll": null_s * per_poll,
        "full_us_per_poll": full_s * per_poll,
        "full_over_null": full_s / null_s if null_s > 0 else 0.0,
    }


register_bench(
    "trace",
    [
        BenchMetric("null_us_per_poll", "us", "lower",
                    "poll cost, telemetry off (null-object fast path)"),
        BenchMetric("full_us_per_poll", "us", "lower",
                    "poll cost, telemetry on (spans + metrics + exemplars)"),
        BenchMetric("full_over_null", "x", "lower",
                    "telemetry-on loop over the unobserved loop"),
    ],
    run_bench,
    seed="trace-overhead",
    description="Tracing + trace propagation + exemplar overhead",
)


def test_trace_pipeline_overhead(benchmark, emit):
    n_polls = _n_polls(MODE)
    smoke = MODE == "smoke"
    null_s, _ = _null_and_full(MODE, "trace-overhead", full_loop=False)

    # Re-run the full loop under pytest-benchmark so the JSON carries a
    # real wall number for the instrumented configuration.
    telemetry = obs_runtime.get()
    full_s = benchmark.pedantic(
        lambda: _poll_loop_seconds("trace-overhead/store", n_polls),
        rounds=1 if smoke else 3, iterations=1,
    )

    store = SpanStore(telemetry.tracer.roots)
    assert len(store) > 0, "the traced loop must have recorded traces"
    p99 = store.percentile(0.99, name="verifier.poll")
    stage_family = telemetry.registry.get("verifier_stage_wall_seconds")
    exemplars = sum(
        len(child.exemplars) for _, child in stage_family.samples()
    ) if stage_family is not None else 0

    per_poll = lambda seconds: seconds / n_polls * 1e6  # noqa: E731
    emit()
    emit(f"Trace-pipeline overhead ({n_polls} polls"
         f"{', smoke' if smoke else ''})")
    emit(f"  telemetry off:        {per_poll(null_s):9.1f} us/poll")
    emit(f"  telemetry on:         {per_poll(full_s):9.1f} us/poll "
         f"({full_s / null_s - 1.0:+.1%})")
    emit(f"  traces: {len(store)} ({store.span_count} spans)  "
         f"p99(verifier.poll)={p99 * 1000:.3f}ms  "
         f"stage exemplars={exemplars}")

    benchmark.extra_info["trace_overhead"] = {
        "null_us_per_poll": round(per_poll(null_s), 2),
        "full_us_per_poll": round(per_poll(full_s), 2),
        "traces": len(store),
        "spans": store.span_count,
    }
    # The traced loop must stay within one order of magnitude of the
    # unobserved loop (loose bound for noisy CI boxes).
    assert full_s < null_s * 10.0

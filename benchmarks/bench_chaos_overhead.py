"""Overhead of the fault-injection layer and the retry machinery.

PR 5 put a deterministic chaos layer on the agent<->verifier wire: a
:class:`repro.keylime.faults.FaultPlan` wrapping every attestation round
plus a :class:`repro.keylime.retrypolicy.RetryPolicy` re-asking through
transient weather.  Both sit on the verifier poll loop -- the paper's
core continuous-attestation path -- so their cost budget matters in two
very different regimes:

* **clean plan installed**: the production shape.  A fault layer with no
  matching specs must be near-free *and* perturbation-free (zero RNG
  draws, bit-identical verdicts -- the determinism suite proves the
  latter; this bench prices the former).
* **flaky weather**: drops and delays firing, retries burning budget.
  The cost of chaos itself, paid only in chaos experiments.

This bench times the same N-poll loop three ways: bare (no fault layer),
clean plan, and the ``flaky`` profile with a 4-attempt retry budget.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) shrinks the loop so CI can assert the bounds without paying
the full measurement.
"""

from __future__ import annotations

from time import perf_counter

from common import BenchMetric, bench_mode, pick, register_bench
from repro.common.rng import SeededRng
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.keylime.faults import chaos_profile
from repro.keylime.retrypolicy import RetryPolicy

MODE = bench_mode()
POLL_INTERVAL = 1800.0


def _n_polls(mode: str) -> int:
    return pick(mode, 40, 200)


def _run_loop(seed: str, profile: str | None, n_polls: int):
    """Build a small rig, optionally install a fault plan, time N polls.

    Returns ``(seconds, entries_sequence, plan, degraded_rounds)``;
    build cost is excluded from the timing.
    """
    testbed = build_testbed(TestbedConfig(seed=seed, n_filler_packages=15))
    plan = None
    degraded = 0
    if profile is not None:
        plan = chaos_profile(profile, SeededRng(f"chaos-bench/{profile}"))
        plan.bind_clock(testbed.scheduler.clock)
        slot = testbed.verifier._slot(testbed.agent_id)
        slot.agent = plan.wrap(testbed.agent)
        testbed.verifier.retry_policy = RetryPolicy(max_attempts=4)
        # Cumulative suspect windows must never end the loop early: this
        # bench prices the weather, it does not study quarantine.
        testbed.verifier.quarantine_after = 10**9
    start = perf_counter()
    entries = []
    for _ in range(n_polls):
        testbed.scheduler.clock.advance_by(POLL_INTERVAL)
        result = testbed.poll()
        assert result.ok or result.transient, result.failures
        degraded += result.transient
        entries.append(result.entries_processed)
    return perf_counter() - start, entries, plan, degraded


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: bare / clean-plan / flaky loop costs.

    The injected-fault and degraded-round counts are pure functions of
    the seeded weather, so those metrics must reproduce exactly on a
    same-seed rerun -- a deviation there is a workload change, not
    noise.
    """
    n_polls = _n_polls(mode)
    bare_s, bare_entries, _, _ = _run_loop(seed, None, n_polls)
    clean_s, clean_entries, clean_plan, clean_degraded = _run_loop(
        seed, "clean", n_polls
    )
    assert clean_plan.injections == []
    assert clean_degraded == 0
    assert clean_entries == bare_entries
    flaky_s, _, flaky_plan, flaky_degraded = _run_loop(
        seed, "flaky", n_polls
    )
    per_poll = 1e6 / n_polls
    return {
        "bare_us_per_poll": bare_s * per_poll,
        "clean_us_per_poll": clean_s * per_poll,
        "flaky_us_per_poll": flaky_s * per_poll,
        "flaky_injected": float(len(flaky_plan.injections)),
        "flaky_degraded_rounds": float(flaky_degraded),
    }


register_bench(
    "chaos",
    [
        BenchMetric("bare_us_per_poll", "us", "lower",
                    "poll cost, no fault layer"),
        BenchMetric("clean_us_per_poll", "us", "lower",
                    "poll cost with a clean (no-op) fault plan installed"),
        BenchMetric("flaky_us_per_poll", "us", "lower",
                    "poll cost under the flaky profile + retries"),
        BenchMetric("flaky_injected", "faults", "lower",
                    "seed-deterministic injected-fault count"),
        BenchMetric("flaky_degraded_rounds", "rounds", "lower",
                    "seed-deterministic degraded-round count"),
    ],
    run_bench,
    seed="chaos-overhead",
    description="Fault-injection layer + retry machinery overhead",
)


def test_chaos_layer_overhead(benchmark, emit):
    n_polls = _n_polls(MODE)
    smoke = MODE == "smoke"
    bare_s, bare_entries, _, _ = _run_loop("chaos-overhead", None, n_polls)

    clean_s, clean_entries, clean_plan, clean_degraded = _run_loop(
        "chaos-overhead", "clean", n_polls
    )
    # The zero-perturbation guarantee, verdict form: a clean plan's loop
    # processes exactly the bare loop's entry stream and injects nothing.
    assert clean_plan.injections == []
    assert clean_degraded == 0
    assert clean_entries == bare_entries

    flaky_s, _, flaky_plan, flaky_degraded = benchmark.pedantic(
        lambda: _run_loop("chaos-overhead", "flaky", n_polls),
        rounds=1 if smoke else 3, iterations=1,
    )

    per_poll = lambda seconds: seconds / n_polls * 1e6  # noqa: E731
    emit()
    emit(f"Chaos-layer overhead ({n_polls} polls{', smoke' if smoke else ''})")
    emit(f"  no fault layer:     {per_poll(bare_s):9.1f} us/poll")
    emit(f"  clean plan installed:{per_poll(clean_s):8.1f} us/poll "
         f"({clean_s / bare_s - 1.0:+.1%})")
    emit(f"  flaky profile:      {per_poll(flaky_s):9.1f} us/poll "
         f"({flaky_s / bare_s - 1.0:+.1%})")
    emit(f"  flaky weather: {dict(flaky_plan.counts_by_kind())} injected, "
         f"{flaky_degraded} degraded round(s)")

    benchmark.extra_info["chaos_overhead"] = {
        "bare_us_per_poll": round(per_poll(bare_s), 2),
        "clean_us_per_poll": round(per_poll(clean_s), 2),
        "flaky_us_per_poll": round(per_poll(flaky_s), 2),
        "flaky_injected": dict(flaky_plan.counts_by_kind()),
        "flaky_degraded_rounds": flaky_degraded,
    }
    assert flaky_plan.injections, "flaky profile injected nothing to price"
    # The clean-installed layer must stay within an order of magnitude
    # of the bare loop (loose bound for noisy CI boxes); chaos itself
    # pays for serialisation + retries but still bounded.
    assert clean_s < bare_s * 10.0
    assert flaky_s < bare_s * 10.0

"""Extension bench: policy-engine behaviour at production scale.

The paper's day-1 policy is 323,734 lines (46 MB).  For continuous
attestation to be viable, per-entry policy evaluation must not degrade
with policy size, and (de)serialising the policy must stay tractable.
This bench builds a paper-scale policy and measures both.

Smoke mode (``REPRO_BENCH_SMOKE=1`` under pytest, ``--smoke`` under the
harness) builds a 20k-line policy instead; previously this bench had no
smoke shape and CI paid the full 46 MB build on every run.
"""

from __future__ import annotations

import time

from common import BenchMetric, bench_mode, pick, register_bench
from repro.common.units import format_bytes, format_duration
from repro.keylime.policy import IBM_STYLE_EXCLUDES, RuntimePolicy
from repro.kernelsim.ima import ImaLogEntry, template_hash

MODE = bench_mode()
PAPER_SCALE_LINES = 323_734

#: Evaluation calls timed by the harness core (pytest uses the
#: ``benchmark`` fixture's own calibration instead).
EVAL_LOOPS = 20_000


def _n_lines(mode: str) -> int:
    return pick(mode, 20_000, PAPER_SCALE_LINES)


def _build_policy(lines: int) -> RuntimePolicy:
    policy = RuntimePolicy(excludes=list(IBM_STYLE_EXCLUDES))
    measurements = {
        f"/usr/lib/pkg{i // 77:05d}/exec-{i % 77:03d}": format(i, "064x")
        for i in range(lines)
    }
    policy.merge_measurements(measurements)
    return policy


def _entry_for(policy: RuntimePolicy, path: str) -> ImaLogEntry:
    digest = "sha256:" + policy.digests_for(path)[0]
    return ImaLogEntry(
        pcr=10, template_hash=template_hash(digest, path),
        template="ima-ng", filedata_hash=digest, path=path,
    )


def _probe_path(lines: int) -> str:
    """An existing mid-policy path, valid at any policy size."""
    probe = lines // 2
    return f"/usr/lib/pkg{probe // 77:05d}/exec-{probe % 77:03d}"


def _roundtrip_seconds(policy: RuntimePolicy) -> tuple[float, float, int]:
    """(serialise seconds, parse seconds, JSON bytes)."""
    started = time.perf_counter()
    blob = policy.to_json()
    serialise_s = time.perf_counter() - started
    started = time.perf_counter()
    RuntimePolicy.from_json(blob)
    parse_s = time.perf_counter() - started
    return serialise_s, parse_s, len(blob)


def run_bench(mode: str, seed: str) -> dict[str, float]:
    """Harness core: eval latency + (de)serialisation at scale.

    ``policy_lines`` / ``policy_bytes`` are pure functions of the mode
    (the synthetic measurement set is fixed, no RNG at all), so they
    compare exactly across runs -- byte drift means the serialisation
    format changed.
    """
    lines = _n_lines(mode)
    policy = _build_policy(lines)
    probe = _entry_for(policy, _probe_path(lines))

    start = time.perf_counter()
    for _ in range(EVAL_LOOPS):
        verdict, failure = policy.evaluate_entry(probe)
    eval_s = time.perf_counter() - start
    assert failure is None

    serialise_s, parse_s, blob_bytes = _roundtrip_seconds(policy)
    return {
        "eval_us_per_entry": eval_s / EVAL_LOOPS * 1e6,
        "serialise_s": serialise_s,
        "parse_s": parse_s,
        "policy_lines": float(policy.line_count()),
        "policy_bytes": float(blob_bytes),
    }


register_bench(
    "policy_scale",
    [
        BenchMetric("eval_us_per_entry", "us", "lower",
                    "per-entry policy evaluation latency"),
        BenchMetric("serialise_s", "s", "lower",
                    "whole-policy JSON serialisation time"),
        BenchMetric("parse_s", "s", "lower",
                    "whole-policy JSON parse time"),
        BenchMetric("policy_lines", "lines", "lower",
                    "deterministic policy line count for the mode"),
        BenchMetric("policy_bytes", "B", "lower",
                    "deterministic serialised policy size"),
    ],
    run_bench,
    seed="policy-scale",
    description="Policy engine at the paper's production scale",
)


def test_policy_scale(benchmark, emit):
    lines = _n_lines(MODE)
    smoke = MODE == "smoke"
    policy = _build_policy(lines)
    probe = _entry_for(policy, _probe_path(lines))

    verdict, failure = benchmark(lambda: policy.evaluate_entry(probe))
    assert failure is None

    emit()
    emit("Policy engine at the paper's production scale"
         f"{' (smoke: scaled down)' if smoke else ''}")
    emit(f"  policy size: {policy.line_count():,} lines "
         f"({format_bytes(policy.size_bytes())}; paper: 323,734 lines / 46 MB)")

    serialise_s, parse_s, blob_bytes = _roundtrip_seconds(policy)
    emit(f"  serialise: {format_duration(serialise_s)} "
         f"({format_bytes(blob_bytes)} JSON); parse: {format_duration(parse_s)}")
    emit("  per-entry evaluation is O(1) dict lookup -- see the benchmark")
    emit("  table row for the measured sub-microsecond figure.")
    assert serialise_s < 30
    assert parse_s < 30

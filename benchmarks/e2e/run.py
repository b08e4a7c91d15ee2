"""End-to-end benchmark of the Keylime reproduction.

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--trace [0|1]] [--smoke] [--record FILE] [--seconds S]

Runs the named workloads (all four by default), prints every metric by
name with its unit, checks the program's outputs, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` the metrics are the end-to-end ones; with it they are the
per-layer ones, from a separate traced run.  One workload runs in this
process; several run one after another, each in a fresh child process,
and their metrics come back as ``<workload>.<metric>``.

Each workload runs a fixed number of ticks, so a run's work never
depends on how fast the program is.  ``--seconds`` belongs to the
standard benchmark command line (``--workload --seed --seconds
--trace``) and is accepted without changing the work.

The program is imported from ``src/`` of the checkout this file lives
in, and nowhere else.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from layertrace import GROUPS, ROUND_SPAN, group_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pull_fleet", "push_shards", "reattest_fleet", "longrun_daily")

#: ``(name, unit, better)`` of each end-to-end metric (measured untraced).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("rounds_per_s", "rounds/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Printed beside them but not gated: see README.md.
DIAGNOSTICS = (
    ("sim_days_per_s", "days/s"),
    ("round_p50_ms", "ms"),
    ("round_p95_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("round_fail_ratio", "ratio"),
)

#: Spans reported as ``<span>_share``: self time over traced tick wall.
SHARE_SPANS = (
    "crypto.sign", "crypto.verify", "tpm.quote", "tpm.verify_quote",
    "kernelsim.exec", "kernelsim.log_lines", "agent.attest",
    "transport.wire", "transport.push_frame",
    "pipeline.challenge", "pipeline.quote_verify", "pipeline.log_replay",
    "pipeline.policy_eval", "policy.evaluate", "verifier.round",
    "verifier.reap", "audit.append", "statestore.snapshot", "fleet.tick",
    "obs.federation", "obs.health", "dynpolicy.cycle",
    "dynpolicy.generate_update", "dynpolicy.dedupe", "distro.workload",
    "distro.apt_upgrade", "distro.mirror_sync",
)
#: Spans reported as ``<span>_per_round``: calls per traced round.
PER_ROUND_SPANS = (
    "crypto.sign", "kernelsim.exec", "transport.push_frame",
    "audit.append", "statestore.snapshot",
)

PER_LAYER = (
    tuple((f"{span}_share", "ratio", "lower") for span in SHARE_SPANS)
    + tuple((f"{span}_per_round", "1/round", "lower") for span in PER_ROUND_SPANS)
    + (
        ("crypto.keygen_setup_share", "ratio", "lower"),
        ("crypto.keygen_calls", "count", "lower"),
        ("transport.evidence_bytes_per_round", "B/round", "lower"),
        ("policy.cache_hits", "count", "higher"),
        ("policy.cache_misses", "count", "lower"),
        ("policy.cache_hit_ratio", "ratio", "higher"),
    )
    + tuple((f"{group}.share", "ratio", "lower") for group in GROUPS)
    + (
        ("residual.share", "ratio", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.rounds", "count", "higher"),
    )
)


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) of *values*, linearly interpolated."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def timed_wall(outcome) -> float:
    return sum(wall for _, wall in outcome.phases)


def e2e_metrics(outcome) -> dict[str, float]:
    """The median set-up time, and every timed round over the whole
    timed wall time of the run."""
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "rounds_per_s": outcome.rounds / timed_wall(outcome),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def diagnostics(outcome) -> dict[str, float]:
    """Ungated figures: simulated days per second (the long run only),
    round latency percentiles and the share of rounds not ok."""
    latencies = outcome.latencies
    figures = {}
    if outcome.workload == "longrun_daily":
        figures["sim_days_per_s"] = outcome.sim_seconds / 86400.0 / timed_wall(outcome)
    for q in (50, 95, 99):
        figures[f"round_p{q}_ms"] = percentile(latencies, q) * 1e3
    figures["round_fail_ratio"] = outcome.failed / outcome.rounds
    return figures


def layer_metrics(outcome) -> dict[str, float]:
    tracer = outcome.tracer
    traced, bare = outcome.tick_walls[True], outcome.tick_walls[False]
    wall = sum(traced)
    own = tracer.self_times()
    calls = tracer.calls()
    rounds = calls[ROUND_SPAN]
    metrics = {f"{span}_share": own.get(span, 0.0) / wall for span in SHARE_SPANS}
    for span in PER_ROUND_SPANS:
        metrics[f"{span}_per_round"] = calls.get(span, 0) / rounds
    setup = outcome.setup_tracer
    metrics["crypto.keygen_setup_share"] = (
        setup.self_times().get("crypto.keygen", 0.0) / outcome.setup_s[0]
    )
    metrics["crypto.keygen_calls"] = setup.calls().get("crypto.keygen", 0)
    metrics["transport.evidence_bytes_per_round"] = tracer.evidence_bytes / rounds
    hits, misses = outcome.counts["cache_hits"], outcome.counts["cache_misses"]
    metrics["policy.cache_hits"] = hits
    metrics["policy.cache_misses"] = misses
    metrics["policy.cache_hit_ratio"] = hits / (hits + misses)
    by_group = dict.fromkeys(GROUPS, 0.0)
    for span, seconds in own.items():
        by_group[group_of(span)] += seconds
    for group, seconds in by_group.items():
        metrics[f"{group}.share"] = seconds / wall
    metrics["residual.share"] = 1.0 - sum(by_group.values()) / wall
    metrics["trace.overhead"] = statistics.mean(traced) / statistics.mean(bare) - 1.0
    metrics["trace.rounds"] = rounds
    return metrics


def describe(outcome, metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    """The human-readable report printed above the JSON line."""
    lines = [
        f"== {outcome.workload}  seed={outcome.seed}  closed loop, one driver, "
        f"concurrency 1, 1800 s simulated per poll",
        "  set-ups: " + "  ".join(f"{s:.3f}" for s in outcome.setup_s)
        + " s (rig build, preload, one untimed warm-up tick)",
        f"  timed phases of {outcome.ticks} ticks, {outcome.counts['rounds']} "
        "rounds each: " + "  ".join(f"{wall:.3f}" for _, wall in outcome.phases)
        + " s",
    ]
    for name, value in metrics.items():
        lines.append(f"  {name:<38} {value:>14.6g} {units[name]}")
    if outcome.tracer is None:
        lines.append(
            f"  not gated (latency over {len(outcome.latencies)} rounds, "
            "agent, TPM and verifier included):"
        )
        extra = dict(DIAGNOSTICS)
        for name, value in diagnostics(outcome).items():
            lines.append(f"  {name:<38} {value:>14.6g} {extra[name]}")
    lines.append("  counts: " + "  ".join(f"{k}={v}" for k, v in outcome.counts.items()))
    for key, value in outcome.notes.items():
        lines.append(f"  {key}: {value}")
    if outcome.tracer is not None:
        lines.extend(layer_table(outcome))
    for name, passed, detail in outcome.checks:
        lines.append(f"  [{'ok' if passed else 'FAIL'}] {name}"
                     + (f" ({detail})" if detail else ""))
    return lines


def layer_table(outcome) -> list[str]:
    own = outcome.tracer.self_times()
    calls = outcome.tracer.calls()
    wall = sum(outcome.tick_walls[True])
    lines = [
        f"  -- self time per span over {len(outcome.tick_walls[True])} traced "
        f"ticks ({wall:.3f} s of wall) --",
        f"  {'span':<28} {'group':<10} {'self s':>10} {'share':>8} {'calls':>9}",
    ]
    for span, seconds in sorted(own.items(), key=lambda item: -item[1]):
        lines.append(
            f"  {span:<28} {group_of(span):<10} {seconds:>10.4f} "
            f"{seconds / wall:>8.2%} {calls[span]:>9}"
        )
    return lines


def stamp() -> dict[str, object]:
    """Where and on what a result was measured."""
    def git(*args) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def run_here(args, workload: str) -> dict:
    """Run one workload in this process; print its report and return it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    outcome = workloads.WORKLOADS[workload](args.seed, scale, bool(args.trace))
    if args.trace:
        metrics, catalog = layer_metrics(outcome), PER_LAYER
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        outcome.tracer.write_jsonl(traces / f"{workload}-seed{args.seed}.jsonl")
    else:
        metrics, catalog = e2e_metrics(outcome), END_TO_END
    units = {name: unit for name, unit, _ in catalog}
    print("\n".join(describe(outcome, metrics, units)))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.rounds,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalog
        },
    }
    if args.record:
        record = {
            "workload": workload, "seed": args.seed,
            "trace": bool(args.trace), "smoke": args.smoke, **stamp(),
            "setup_s": outcome.setup_s, "ticks": outcome.ticks,
            "phases": outcome.phases,
            "tick_walls": [
                round(wall, 6)
                for wall in outcome.tick_walls[False] + outcome.tick_walls[True]
            ],
            "counts": outcome.counts, "notes": outcome.notes, "result": result,
        }
        if not args.trace:
            record["diagnostics"] = diagnostics(outcome)
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def run_children(args, names) -> dict:
    """Each workload in a fresh process; metrics come back prefixed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.record:
            command += ["--record", str(Path(args.record).resolve())]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.rstrip("\n").split("\n")
        if done.returncode != 0:
            print("\n".join(lines))
            raise SystemExit(f"error: workload {workload} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float,
                        help="accepted and ignored: the tick counts are fixed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a few ticks, for tests")
    parser.add_argument("--record", metavar="FILE",
                        help="append a stamped JSONL record of each run")
    args = parser.parse_args(argv)
    names = tuple(dict.fromkeys(args.workload or WORKLOAD_NAMES))
    if len(names) == 1:
        result = run_here(args, names[0])
    else:
        result = run_children(args, names)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

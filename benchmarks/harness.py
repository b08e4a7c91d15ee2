"""Bench harness: discovery, one runner, trajectory, regression gate.

Every ``bench_*.py`` in this directory registers itself at import time
with :func:`common.register_bench`.  This module is everything around
that registry, behind one entry point::

    PYTHONPATH=src python benchmarks/harness.py {run,list,compare,history}

* **Discovery and runs.**  :func:`discover` imports every
  ``bench_*.py`` in :data:`BENCH_DIR` by file path (the directory has
  no package ``__init__``; it goes on ``sys.path`` first so
  ``import common`` resolves exactly as it does under pytest).
  :func:`run_benches` runs the selected benches in one process: fresh
  telemetry per bench, the environment captured once per invocation
  (python, platform, git SHA), each result normalized into a
  :class:`BenchRecord` stamped with mode + seed and durably appended
  to ``perf/trajectory.jsonl``.
* **The trajectory.**  :class:`TrajectoryStore` appends one complete
  line per record with an ``fsync``; the loader tolerates a torn tail
  line from a crash mid-append.
* **Noise-aware regression detection.**  :func:`compare_trajectory`
  scores the newest run of each ``(bench, mode)`` against the median
  of the last N same-mode runs per metric, with a noise floor derived
  from the baseline's MAD (median absolute deviation, a spread
  estimate one outlier cannot inflate), so a wall-clock metric's
  ordinary jitter never flags while a genuine 2x slowdown always does.
  Each metric classifies as ``ok`` / ``improved`` / ``regressed`` /
  ``noisy``, and every verdict is a machine-readable record.
* **Profiles (opt-in).**  Under ``run --profile`` each bench's hot
  section runs under :class:`SamplingProfiler`; its collapsed
  flamegraph folds land in ``profiles/`` next to the trajectory,
  linked from the record, and ``compare`` prints the fold diff of a
  regressed metric whose candidate and baseline both have one.

The pytest entry points in each ``bench_*.py`` still exist and still
carry their acceptance assertions; this runner is the *recording* path,
sharing the same ``run_bench(mode, seed)`` cores so the two never
drift.  A bench's workload must be a pure function of ``(mode, seed)``,
so the only variance in a same-seed rerun is wall-clock noise, which is
what the MAD floor absorbs.  Counts, byte sizes and ratios of counts
must reproduce bit-identically.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from common import BETTER_DIRECTIONS, BenchSpec, get_bench, registered_benches
from repro.common.atomicfile import fsync_directory
from repro.common.errors import ConfigurationError
from repro.obs import runtime as obs_runtime
from repro.obs.dashboard import sparkline
from repro.obs.exporters import write_jsonl_atomic, write_text_atomic
from repro.obs.profiling import folds_text

#: The directory this harness (and the bench modules) live in.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Default trajectory location, relative to the working directory.
TRAJECTORY_PATH = os.path.join("perf", "trajectory.jsonl")

#: Baseline runs (per bench+mode, newest first) the detector medians.
DEFAULT_BASELINE_RUNS = 5

#: Deviation threshold in noise-floor units before a metric flags.
DEFAULT_Z_THRESHOLD = 2.5

#: Relative noise floor: deviations under this fraction of the
#: baseline median are jitter by definition, whatever the MAD says.
DEFAULT_REL_FLOOR = 0.05

#: Absolute noise floor, guarding zero-median metrics.
DEFAULT_ABS_FLOOR = 1e-12

#: Baselines whose MAD-derived noise exceeds this fraction of the
#: median are too unstable to call a direction: verdict ``noisy``.
NOISY_BASELINE_RATIO = 0.25

#: MAD -> sigma for a normal distribution (the robust z-score scale).
MAD_SIGMA = 1.4826

#: Classification outcomes, worst first (ordering used by roll-ups).
VERDICT_STATUSES = ("regressed", "noisy", "improved", "ok")

#: Module-name prefix for harness-side imports, distinct from pytest's
#: own top-level module names so one process can hold both without
#: clashing; registration is idempotent either way.
_MODULE_PREFIX = "repro_bench_harness__"


# -- environment capture ----------------------------------------------------


def git_sha(cwd: str | None = None) -> str:
    """The short git SHA of *cwd* (or CWD), ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def capture_environment(cwd: str | None = None) -> dict[str, Any]:
    """The environment block stamped into every :class:`BenchRecord`."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": git_sha(cwd),
    }


# -- records ----------------------------------------------------------------


@dataclass
class BenchRecord:
    """One normalized benchmark run.

    ``metrics`` maps metric name to value; ``units`` / ``better`` carry
    the declaration alongside so a trajectory file is self-describing
    (the detector never needs the registry to score history).  ``seq``
    is the record's position in its trajectory file, assigned at append
    or load time -- the run axis for sparklines.
    """

    bench: str
    mode: str
    seed: str
    metrics: dict[str, float]
    units: dict[str, str] = field(default_factory=dict)
    better: dict[str, str] = field(default_factory=dict)
    env: dict[str, Any] = field(default_factory=dict)
    recorded_at: float = 0.0
    profile: str | None = None
    seq: int | None = None

    def to_record(self) -> dict[str, Any]:
        """One ``bench_record`` JSONL line (round-trips exactly)."""
        record: dict[str, Any] = {
            "type": "bench_record",
            "bench": self.bench,
            "mode": self.mode,
            "seed": self.seed,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "units": {k: self.units[k] for k in sorted(self.units)},
            "better": {k: self.better[k] for k in sorted(self.better)},
            "env": self.env,
            "recorded_at": self.recorded_at,
        }
        if self.profile is not None:
            record["profile"] = self.profile
        if self.seq is not None:
            record["seq"] = self.seq
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "BenchRecord":
        """Rebuild from :meth:`to_record` output."""
        return cls(
            bench=str(record["bench"]),
            mode=str(record["mode"]),
            seed=str(record["seed"]),
            metrics={
                str(k): float(v) for k, v in record.get("metrics", {}).items()
            },
            units={str(k): str(v) for k, v in record.get("units", {}).items()},
            better={
                str(k): str(v) for k, v in record.get("better", {}).items()
            },
            env=dict(record.get("env", {})),
            recorded_at=float(record.get("recorded_at", 0.0)),
            profile=record.get("profile"),
            seq=(int(record["seq"]) if record.get("seq") is not None else None),
        )


def record_from_run(
    spec: BenchSpec,
    mode: str,
    values: dict[str, float],
    seed: str | None = None,
    env: dict[str, Any] | None = None,
) -> BenchRecord:
    """Normalize a runner's raw values against the bench's declaration.

    Only declared metrics are kept (a runner may compute extras for its
    own assertions); a declared metric a runner legitimately cannot
    produce in some mode is simply absent from the record.  Non-finite
    values are rejected -- an ``inf`` entries/sec from a zero-duration
    loop is a measurement bug, not a data point.
    """
    if mode not in spec.modes:
        raise ConfigurationError(
            f"bench {spec.name!r} does not support mode {mode!r}"
        )
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    better: dict[str, str] = {}
    for metric in spec.metrics:
        if metric.name not in values or values[metric.name] is None:
            continue
        value = float(values[metric.name])
        if not math.isfinite(value):
            raise ConfigurationError(
                f"bench {spec.name!r} metric {metric.name!r} is non-finite "
                f"({value!r})"
            )
        metrics[metric.name] = value
        units[metric.name] = metric.unit
        better[metric.name] = metric.better
    if not metrics:
        raise ConfigurationError(
            f"bench {spec.name!r} produced none of its declared metrics"
        )
    environment = dict(env if env is not None else capture_environment())
    environment["smoke"] = mode == "smoke"
    return BenchRecord(
        bench=spec.name,
        mode=mode,
        seed=seed if seed is not None else spec.seed,
        metrics=metrics,
        units=units,
        better=better,
        env=environment,
        recorded_at=round(time.time(), 3),
    )


# -- trajectory store -------------------------------------------------------


class TrajectoryStore:
    """Durable append-only JSONL store of :class:`BenchRecord` lines.

    Appends write one complete serialized line per record with an
    ``fsync`` before returning (and the directory's too when the append
    creates the file), so a crash never interleaves partial records
    mid-file -- at worst the final line is torn, which :meth:`load`
    tolerates (and counts in :attr:`torn_lines`).
    """

    def __init__(self, path: str = TRAJECTORY_PATH) -> None:
        self.path = path
        self.torn_lines = 0
        self._count: int | None = None

    def load(self) -> list[BenchRecord]:
        """Every record in file order, ``seq`` assigned positionally.

        Malformed lines are skipped and counted in :attr:`torn_lines`
        rather than raised: a crash mid-append tears the tail line, and
        a later :meth:`append` newline-repairs that fragment into a
        standalone malformed line mid-file -- both are expected wreckage
        of the crash-recovery story, not corruption worth refusing the
        other records over.
        """
        self.torn_lines = 0
        records: list[BenchRecord] = []
        if not os.path.exists(self.path):
            self._count = 0
            return records
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for line in lines:
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                self.torn_lines += 1
                continue
            if raw.get("type") != "bench_record":
                continue
            record = BenchRecord.from_record(raw)
            record.seq = len(records)
            records.append(record)
        self._count = len(records)
        return records

    def next_seq(self) -> int:
        """The ``seq`` the next :meth:`append` will assign."""
        if self._count is None:
            self.load()
        return self._count or 0

    def append(self, record: BenchRecord) -> BenchRecord:
        """Durably append one record; assigns and returns its ``seq``."""
        if self._count is None:
            self.load()
        record.seq = self._count or 0
        # Until this append succeeds the count on disk is unknown (a
        # failed one may have left the line): the next append reloads.
        self._count = None
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # A crash mid-append leaves a torn tail with no newline; repair
        # it first so this record starts a fresh line instead of fusing
        # with the fragment (load() skips the fragment either way).
        created = not os.path.exists(self.path)
        needs_newline = False
        if not created and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                needs_newline = tail.read(1) != b"\n"
        line = json.dumps(record.to_record(), sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            # The new file's name lives in the directory: flush it too,
            # or a crash can lose the file with its fsynced records.
            fsync_directory(directory)
        self._count = record.seq + 1
        return record


def load_trajectory(path: str = TRAJECTORY_PATH) -> list[BenchRecord]:
    """Load a trajectory file (empty list when absent)."""
    return TrajectoryStore(path).load()


# -- regression detection ---------------------------------------------------


@dataclass
class MetricVerdict:
    """One metric's classification against its baseline."""

    bench: str
    mode: str
    metric: str
    unit: str
    better: str
    value: float
    status: str
    baseline_median: float | None = None
    baseline_runs: int = 0
    noise_scale: float | None = None
    score: float | None = None
    reason: str = ""
    seed: str = ""
    baseline_seeds_match: bool = True
    profile: str | None = None
    baseline_profile: str | None = None

    @property
    def delta_ratio(self) -> float | None:
        """Relative deviation from the baseline median (signed)."""
        if self.baseline_median in (None, 0.0):
            return None
        return (self.value - self.baseline_median) / abs(self.baseline_median)

    def to_record(self) -> dict[str, Any]:
        """One machine-readable ``bench_verdict`` record."""
        record: dict[str, Any] = {
            "type": "bench_verdict",
            "bench": self.bench,
            "mode": self.mode,
            "metric": self.metric,
            "unit": self.unit,
            "better": self.better,
            "value": self.value,
            "status": self.status,
            "baseline_median": self.baseline_median,
            "baseline_runs": self.baseline_runs,
            "noise_scale": self.noise_scale,
            "score": self.score,
            "delta_ratio": self.delta_ratio,
            "reason": self.reason,
            "seed": self.seed,
            "baseline_seeds_match": self.baseline_seeds_match,
        }
        if self.profile is not None:
            record["profile"] = self.profile
        if self.baseline_profile is not None:
            record["baseline_profile"] = self.baseline_profile
        return record


def classify_metric(
    value: float, baseline: list[float], better: str
) -> tuple[str, float | None, float | None, float | None, str]:
    """Score one value against its baseline window.

    Returns ``(status, baseline_median, noise_scale, score, reason)``.
    The noise scale is ``max(MAD * 1.4826, DEFAULT_REL_FLOOR * |median|,
    DEFAULT_ABS_FLOOR)`` -- the MAD term adapts to a metric's observed
    jitter, the relative floor keeps a bit-stable baseline (MAD = 0)
    from flagging sub-percent drift, and the absolute floor guards
    zero-median metrics.  Beyond :data:`DEFAULT_Z_THRESHOLD`, direction
    decides improved vs regressed per the metric's better-direction --
    unless the baseline itself is too unstable to call (MAD noise above
    :data:`NOISY_BASELINE_RATIO` of the median), which is ``noisy``.
    """
    if better not in BETTER_DIRECTIONS:
        raise ConfigurationError(
            f"better must be one of {BETTER_DIRECTIONS}, got {better!r}"
        )
    if not baseline:
        return "noisy", None, None, None, "no baseline runs"
    median = statistics.median(baseline)
    mad = statistics.median(abs(x - median) for x in baseline)
    noise = max(
        mad * MAD_SIGMA, DEFAULT_REL_FLOOR * abs(median), DEFAULT_ABS_FLOOR
    )
    deviation = value - median
    score = deviation / noise
    if abs(score) <= DEFAULT_Z_THRESHOLD:
        return "ok", median, noise, score, ""
    if len(baseline) < 2:
        # One run is a reference point, not a noise model: beyond the
        # floor it is impossible to tell drift from jitter, so the
        # verdict stays advisory until a second run lands.
        return (
            "noisy", median, noise, score,
            "single-run baseline cannot separate drift from jitter",
        )
    if median != 0.0 and mad * MAD_SIGMA > NOISY_BASELINE_RATIO * abs(median):
        return (
            "noisy", median, noise, score,
            f"baseline MAD noise {mad * MAD_SIGMA / abs(median):.1%} of "
            f"median exceeds {NOISY_BASELINE_RATIO:.0%}",
        )
    worse = deviation > 0 if better == "lower" else deviation < 0
    status = "regressed" if worse else "improved"
    return status, median, noise, score, ""


@dataclass
class CompareResult:
    """All metric verdicts for the newest run of each (bench, mode)."""

    verdicts: list[MetricVerdict]
    baseline_runs: int
    mode: str | None = None

    @property
    def counts(self) -> dict[str, int]:
        """Verdict counts by status (every status key present)."""
        out = {status: 0 for status in VERDICT_STATUSES}
        for verdict in self.verdicts:
            out[verdict.status] += 1
        return out

    @property
    def regressed(self) -> list[MetricVerdict]:
        """The regressed verdicts, worst score first."""
        out = [v for v in self.verdicts if v.status == "regressed"]
        out.sort(key=lambda v: -(abs(v.score) if v.score is not None else 0.0))
        return out

    @property
    def status(self) -> str:
        """Roll-up: worst status present (``ok`` when empty)."""
        counts = self.counts
        for status in VERDICT_STATUSES:
            if counts[status]:
                return status
        return "ok"

    def to_record(self) -> dict[str, Any]:
        """One ``bench_compare`` summary record."""
        return {
            "type": "bench_compare",
            "status": self.status,
            "counts": self.counts,
            "baseline_runs": self.baseline_runs,
            "mode": self.mode,
            "metrics": len(self.verdicts),
            "regressed": [
                {
                    "bench": v.bench,
                    "mode": v.mode,
                    "metric": v.metric,
                    "delta_ratio": v.delta_ratio,
                }
                for v in self.regressed
            ],
        }


def compare_trajectory(
    records: Iterable[BenchRecord],
    baseline_runs: int = DEFAULT_BASELINE_RUNS,
    mode: str | None = None,
    benches: Iterable[str] | None = None,
) -> CompareResult:
    """Verdicts for the newest run of every (bench, mode) group.

    The candidate is each group's latest record; its baseline is the up
    to *baseline_runs* records before it **in the same mode** (the
    smoke and full populations are different workloads and never mix).
    Metrics absent from the candidate are not scored; metrics absent
    from the whole baseline classify ``noisy`` (no history).  The
    baseline profile is the newest baseline fold file that is not the
    candidate's own (a copied record carries its source's link).
    """
    if baseline_runs < 1:
        raise ConfigurationError(
            f"baseline_runs must be >= 1, got {baseline_runs}"
        )
    wanted = set(benches) if benches is not None else None
    groups: dict[tuple[str, str], list[BenchRecord]] = {}
    for record in sorted(
        records, key=lambda r: (r.seq if r.seq is not None else 0)
    ):
        if mode is not None and record.mode != mode:
            continue
        if wanted is not None and record.bench not in wanted:
            continue
        groups.setdefault((record.bench, record.mode), []).append(record)

    verdicts: list[MetricVerdict] = []
    for (bench, run_mode), history in sorted(groups.items()):
        candidate = history[-1]
        baseline_records = history[:-1][-baseline_runs:]
        baseline_profiles = [
            r.profile for r in baseline_records
            if r.profile is not None and r.profile != candidate.profile
        ]
        seeds_match = all(
            r.seed == candidate.seed for r in baseline_records
        )
        for metric_name in sorted(candidate.metrics):
            value = candidate.metrics[metric_name]
            better = candidate.better.get(metric_name, "lower")
            baseline = [
                r.metrics[metric_name]
                for r in baseline_records
                if metric_name in r.metrics
            ]
            status, median, noise, score, reason = classify_metric(
                value, baseline, better
            )
            verdicts.append(MetricVerdict(
                bench=bench,
                mode=run_mode,
                metric=metric_name,
                unit=candidate.units.get(metric_name, ""),
                better=better,
                value=value,
                status=status,
                baseline_median=median,
                baseline_runs=len(baseline),
                noise_scale=noise,
                score=score,
                reason=reason,
                seed=candidate.seed,
                baseline_seeds_match=seeds_match,
                profile=candidate.profile,
                baseline_profile=(
                    baseline_profiles[-1] if baseline_profiles else None
                ),
            ))
    return CompareResult(
        verdicts=verdicts, baseline_runs=baseline_runs, mode=mode,
    )


# -- sampling profiler and fold diffs ---------------------------------------


class SamplingProfiler:
    """Wall-clock stack sampler emitting collapsed flamegraph folds.

    A daemon thread snapshots the target thread's stack every
    *interval* seconds via ``sys._current_frames()`` and accumulates
    ``root;child;leaf -> samples`` folds -- the collapsed-stack text
    format :func:`repro.obs.profiling.collapsed_text` emits for span
    trees, printed through the same formatter.  Opt-in: sampling
    perturbs the measured section by the cost of walking its stack, so
    the harness only engages it under ``run --profile``.
    """

    def __init__(self, interval: float = 0.005) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"sampling interval must be positive, got {interval}"
            )
        self.interval = interval
        self.samples = 0
        self._folds: dict[str, int] = {}
        self._target_ident: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @staticmethod
    def _stack_of(frame) -> str:
        parts: list[str] = []
        while frame is not None:
            module = frame.f_globals.get("__name__", "?")
            parts.append(f"{module}:{frame.f_code.co_name}")
            frame = frame.f_back
        parts.reverse()
        return ";".join(parts)

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:
                continue
            stack = self._stack_of(frame)
            self._folds[stack] = self._folds.get(stack, 0) + 1
            self.samples += 1

    def start(self) -> None:
        """Begin sampling the *calling* thread."""
        if self._thread is not None:
            raise ConfigurationError("profiler already started")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="perf-sampler", daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def folds(self) -> dict[str, int]:
        """``stack -> sample count`` folds accumulated so far."""
        return dict(self._folds)

    def collapsed(self) -> str:
        """Folds as flamegraph-ready ``stack count`` text lines."""
        return folds_text(self._folds)


def load_folds(text: str) -> dict[str, int]:
    """Parse collapsed-stack text back into ``stack -> count`` folds."""
    folds: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack:
            continue
        folds[stack] = folds.get(stack, 0) + int(count)
    return folds


def diff_folds(
    a: dict[str, int], b: dict[str, int]
) -> list[tuple[str, int]]:
    """Per-stack count deltas ``b - a``, biggest movement first.

    The flamegraph-diff primitive behind a regression verdict: *a* is
    the baseline run's folds, *b* the regressed candidate's, and the
    top positive deltas are where the new time went.
    """
    deltas = [
        (stack, b.get(stack, 0) - a.get(stack, 0))
        for stack in sorted(set(a) | set(b))
    ]
    deltas = [(stack, delta) for stack, delta in deltas if delta != 0]
    deltas.sort(key=lambda item: (-abs(item[1]), item[0]))
    return deltas


def render_fold_diff(
    deltas: list[tuple[str, int]],
    a_label: str = "baseline",
    b_label: str = "candidate",
    limit: int = 12,
) -> str:
    """Human-readable top of a fold diff."""
    lines = [f"== flamegraph fold diff: {a_label} -> {b_label} (samples) =="]
    if not deltas:
        return lines[0] + "\n(no stack movement)"
    for stack, delta in deltas[:limit]:
        leaf = stack.rsplit(";", 1)[-1]
        lines.append(f"  {delta:+6d}  {leaf}  [{stack}]")
    if len(deltas) > limit:
        lines.append(f"  ... {len(deltas) - limit} more stacks")
    return "\n".join(lines)


# -- discovery and the runner -----------------------------------------------


def discover() -> list[BenchSpec]:
    """Import every ``bench_*.py`` under :data:`BENCH_DIR`; return the registry.

    Import errors are not swallowed: a bench that cannot import is a
    broken bench, and CI should say so rather than silently run fewer
    benchmarks than yesterday.
    """
    directory = os.path.abspath(BENCH_DIR)
    if not os.path.isdir(directory):
        raise ConfigurationError(f"bench directory not found: {directory}")
    if directory not in sys.path:
        sys.path.insert(0, directory)
    for filename in sorted(os.listdir(directory)):
        if not filename.startswith("bench_") or not filename.endswith(".py"):
            continue
        module_name = _MODULE_PREFIX + filename[:-3]
        path = os.path.join(directory, filename)
        # Always (re-)exec from the scanned path -- registration is
        # idempotent, module bodies are cheap, and this keeps the
        # registry honest after a clear_registry() or a directory
        # switch reuses a cached module name.
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:
            raise ConfigurationError(f"cannot load bench module {path}")
        module = importlib.util.module_from_spec(spec)
        previous = sys.modules.get(module_name)
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            if previous is not None:
                sys.modules[module_name] = previous
            else:
                del sys.modules[module_name]
            raise
    return registered_benches()


def select_benches(names: Iterable[str] | None = None) -> list[BenchSpec]:
    """Resolve *names* against the discovered registry (``None`` = all)."""
    specs = discover()
    if names is None:
        return specs
    selected = []
    for name in names:
        found = get_bench(name)
        if found is None:
            known = ", ".join(spec.name for spec in specs) or "(none)"
            raise ConfigurationError(
                f"unknown bench {name!r}; registered: {known}"
            )
        selected.append(found)
    return selected


def profile_path(trajectory_path: str, bench: str, mode: str, seq: int) -> str:
    """Where a run's collapsed folds live, next to its trajectory."""
    root = os.path.dirname(os.path.abspath(trajectory_path))
    return os.path.join(root, "profiles", f"{bench}-{mode}-{seq:05d}.folds")


def run_benches(
    names: Iterable[str] | None = None,
    mode: str = "smoke",
    trajectory_path: str = TRAJECTORY_PATH,
    profile: bool = False,
    profile_interval: float = 0.005,
    log: Callable[[str], Any] | None = None,
) -> list[BenchRecord]:
    """Run benches under the unified runner; append records; return them.

    Benches that do not support *mode* are skipped with a log line, not
    an error -- running every bench must stay usable when one bench is
    full-only.  Each bench runs inside a fresh telemetry session
    (instrumented hot paths record, exactly as pytest's autouse fixture
    arranges) and its normalized record is appended durably before the
    next bench starts, so a crash mid-suite loses at most the bench in
    flight.
    """
    emit = log if log is not None else (lambda message: None)
    specs = select_benches(names)
    if not specs:
        raise ConfigurationError("no benches registered after discovery")
    store = TrajectoryStore(trajectory_path)
    environment = capture_environment()
    records: list[BenchRecord] = []
    for spec in specs:
        if mode not in spec.modes:
            emit(f"skip {spec.name}: no {mode} mode "
                 f"(supports {', '.join(spec.modes)})")
            continue
        emit(f"run {spec.name} [{mode}] seed={spec.seed} ...")
        profiler = SamplingProfiler(profile_interval) if profile else None
        with obs_runtime.session():
            if profiler is not None:
                profiler.start()
            try:
                values = spec.runner(mode, spec.seed)
            finally:
                if profiler is not None:
                    profiler.stop()
        record = record_from_run(spec, mode, values, env=environment)
        if profiler is not None:
            folds_file = profile_path(
                trajectory_path, spec.name, mode, store.next_seq()
            )
            os.makedirs(os.path.dirname(folds_file), exist_ok=True)
            write_text_atomic(folds_file, profiler.collapsed() + "\n")
            record.profile = folds_file
        store.append(record)
        records.append(record)
        metrics = ", ".join(
            f"{name}={value:.4g}{record.units.get(name, '')}"
            for name, value in sorted(record.metrics.items())
        )
        emit(f"  seq={record.seq} {metrics}")
    return records


# -- command line -----------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    records = run_benches(
        names=args.benches or None,
        mode="smoke" if args.smoke else "full",
        trajectory_path=args.trajectory,
        profile=args.profile,
        log=print,
    )
    if not records:
        print("no benches ran")
        return 1
    print(f"{len(records)} record(s) appended to {args.trajectory}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    specs = discover()
    if args.json:
        print(json.dumps([spec.to_record() for spec in specs], sort_keys=True))
        return 0
    print(f"{len(specs)} registered bench(es)")
    for spec in specs:
        metrics = ", ".join(
            f"{metric.name} [{metric.unit}, {metric.better} is better]"
            for metric in spec.metrics
        )
        print(f"  {spec.name:<14s} modes={'/'.join(spec.modes)} "
              f"seed={spec.seed}")
        print(f"    {spec.description}")
        print(f"    metrics: {metrics}")
    return 0


def _print_fold_diff(result: CompareResult) -> None:
    """The fold diff of the worst regression with profiles on both sides.

    The verdict then points at where the time went, not just that it
    went somewhere.  One diff is orientation enough; the folds stay on
    disk.
    """
    for verdict in result.regressed:
        if not verdict.profile or not verdict.baseline_profile:
            continue
        if not (os.path.exists(verdict.profile)
                and os.path.exists(verdict.baseline_profile)):
            continue
        if os.path.samefile(verdict.profile, verdict.baseline_profile):
            continue  # a file diffed against itself shows no movement
        with open(verdict.baseline_profile, encoding="utf-8") as handle:
            baseline_folds = load_folds(handle.read())
        with open(verdict.profile, encoding="utf-8") as handle:
            candidate_folds = load_folds(handle.read())
        print(render_fold_diff(
            diff_folds(baseline_folds, candidate_folds),
            a_label=os.path.basename(verdict.baseline_profile),
            b_label=os.path.basename(verdict.profile),
        ))
        return


def _cmd_compare(args: argparse.Namespace) -> int:
    records = load_trajectory(args.trajectory)
    if not records:
        print(f"no bench records in {args.trajectory}")
        return 1
    result = compare_trajectory(
        records, mode=args.mode, benches=args.benches or None,
    )
    summary = result.to_record()

    if args.out:
        lines = write_jsonl_atomic(
            args.out,
            [v.to_record() for v in result.verdicts] + [summary],
        )
        print(f"verdicts written to {args.out} ({lines} records)")
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        counts = result.counts
        print(f"bench compare: {len(result.verdicts)} metric(s) vs "
              f"median of last {result.baseline_runs} same-mode run(s)")
        marker = {"ok": " ", "improved": "+", "regressed": "!", "noisy": "?"}
        for verdict in sorted(
            result.verdicts,
            key=lambda v: (v.status != "regressed", v.bench, v.metric),
        ):
            delta = verdict.delta_ratio
            delta_s = f"{delta:+.1%}" if delta is not None else "   --"
            base = (
                f"{verdict.baseline_median:.4g}"
                if verdict.baseline_median is not None else "--"
            )
            line = (
                f"  {marker[verdict.status]} {verdict.status:<9s} "
                f"{verdict.bench}/{verdict.metric} [{verdict.mode}] "
                f"{verdict.value:.4g}{verdict.unit} vs {base} ({delta_s})"
            )
            if verdict.reason:
                line += f" -- {verdict.reason}"
            if not verdict.baseline_seeds_match:
                line += " [baseline seeds differ]"
            print(line)
        print("  summary: " + " ".join(
            f"{status}={counts[status]}"
            for status in ("ok", "improved", "regressed", "noisy")
        ))
        _print_fold_diff(result)

    if args.fail_on_regression and result.counts["regressed"] > 0:
        print(f"FAIL: {result.counts['regressed']} regressed metric(s)")
        return 1
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    records = load_trajectory(args.trajectory)
    if not records:
        print(f"no bench records in {args.trajectory}")
        return 1
    wanted = set(args.benches) if args.benches else None
    groups: dict[tuple[str, str, str], list] = {}
    for record in records:
        if wanted is not None and record.bench not in wanted:
            continue
        if args.mode is not None and record.mode != args.mode:
            continue
        for metric, value in sorted(record.metrics.items()):
            key = (record.bench, record.mode, metric)
            groups.setdefault(key, []).append(
                (value, record.units.get(metric, ""))
            )
    if not groups:
        print("no matching metrics in the trajectory")
        return 1
    print(f"perf trajectory: {args.trajectory} "
          f"({len(records)} run record(s))")
    last_bench = None
    for (bench, mode, metric), points in sorted(groups.items()):
        if bench != last_bench:
            print(f"  {bench}:")
            last_bench = bench
        values = [value for value, _ in points]
        unit = points[-1][1]
        print(f"    {metric:<26s} [{mode:<5s}] "
              f"{sparkline(values)} "
              f"{values[-1]:10.4g}{unit} ({len(values)} runs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The harness argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="benchmarks/harness.py",
        description="Run registered benches, record the trajectory, "
                    "detect regressions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run registered benches and append to the trajectory"
    )
    run.add_argument(
        "benches", nargs="*", metavar="BENCH",
        help="bench names (default: all registered)",
    )
    run.add_argument(
        "--smoke", action="store_true",
        help="CI shape: small workloads, seconds per bench "
             "(default: the full measurement shape)",
    )
    run.add_argument(
        "--trajectory", default=TRAJECTORY_PATH,
        help="durable trajectory JSONL (default perf/trajectory.jsonl)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="sample each bench's hot section into collapsed flamegraph "
             "folds next to the trajectory",
    )
    run.set_defaults(func=_cmd_run)

    listing = commands.add_parser(
        "list", help="enumerate registered benches, metrics, and modes"
    )
    listing.add_argument(
        "--json", action="store_true", help="machine-readable spec list"
    )
    listing.set_defaults(func=_cmd_list)

    compare = commands.add_parser(
        "compare",
        help="score the newest run of each bench against its baseline "
             f"(median of the last {DEFAULT_BASELINE_RUNS} same-mode runs, "
             "MAD noise floor)",
    )
    compare.add_argument("--trajectory", default=TRAJECTORY_PATH)
    compare.add_argument(
        "--mode", choices=["smoke", "full"], default=None,
        help="restrict to one mode (default: every (bench, mode) group)",
    )
    compare.add_argument(
        "--benches", nargs="*", metavar="BENCH", default=None,
        help="restrict to these benches",
    )
    compare.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary record",
    )
    compare.add_argument(
        "--out", default=None,
        help="write verdict + summary records to this JSONL file",
    )
    compare.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit nonzero when any metric classifies regressed "
             "(the full-mode CI gate; smoke stays warn-only)",
    )
    compare.set_defaults(func=_cmd_compare)

    history = commands.add_parser(
        "history", help="sparkline each metric across recorded runs"
    )
    history.add_argument(
        "benches", nargs="*", metavar="BENCH",
        help="bench names (default: all recorded)",
    )
    history.add_argument("--trajectory", default=TRAJECTORY_PATH)
    history.add_argument("--mode", choices=["smoke", "full"], default=None)
    history.set_defaults(func=_cmd_history)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Harness entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

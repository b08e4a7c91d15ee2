"""Perf observatory: benchmark records, trajectory, regression verdicts.

The repo's ``benchmarks/bench_*.py`` scripts each measure one claim
(cache speedup, scrape overhead, push-vs-pull cost, ...) but until now
every run was ad hoc: no shared schema, no recorded history, no
automated regression signal -- so the ROADMAP's next arc, which must be
"gated with benchmarks", had nothing to gate against.  This module is
the instrument every scale-out PR reports through:

* **Registration.**  A bench declares itself once --
  :func:`register_bench` with a name, its :class:`BenchMetric` list
  (unit + better-direction per metric), the modes it supports and its
  seed -- and ``benchmarks/harness.py`` discovers and runs everything
  registered under one runner.
* **Records.**  Every run appends one normalized :class:`BenchRecord`
  (bench, mode, seed, metric values, environment capture) to a durable
  ``perf/trajectory.jsonl`` via :class:`TrajectoryStore` -- appends are
  single ``write`` + ``fsync`` of complete lines, the loader tolerates
  a torn tail line from a crash mid-append, and
  :func:`write_trajectory` / :func:`load_trajectory` round-trip the
  file exactly, like the TSDB's ``export_records`` pair.
* **Noise-aware regression detection.**  :func:`compare_trajectory`
  scores the newest run of each ``(bench, mode)`` against the median
  of the last N same-mode runs per metric, with a noise floor derived
  from the baseline's MAD (median absolute deviation, the robust
  sibling of the :class:`repro.obs.health.SlidingWindow` z-score) so a
  wall-clock metric's ordinary jitter never flags while a genuine 2x
  slowdown always does.  Each metric classifies as ``ok`` /
  ``improved`` / ``regressed`` / ``noisy`` and every verdict is a
  machine-readable record.
* **Continuous profiling (opt-in).**  The harness wraps a bench's hot
  section in :class:`repro.obs.profiling.SamplingProfiler`; a
  regression verdict then links the candidate's collapsed flamegraph
  folds to the baseline's so the diff is one
  :func:`repro.obs.profiling.diff_folds` away.  ``repro-cli bench
  history`` is the trajectory view.

Determinism contract: a bench's *workload* must be a pure function of
``(mode, seed)`` -- both are stamped into every record -- so the only
run-to-run variance in a same-seed rerun is wall-clock noise, which is
exactly what the MAD floor absorbs.  Counts, byte sizes and ratios of
counts are domain-pure and must reproduce bit-identically.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.common.errors import ConfigurationError
from repro.obs.exporters import write_jsonl_atomic

#: Default trajectory location, relative to the working directory.
TRAJECTORY_PATH = os.path.join("perf", "trajectory.jsonl")

#: Modes a bench may support.  ``smoke`` is the CI shape (seconds, no
#: tight assertions); ``full`` the measurement shape.
BENCH_MODES = ("smoke", "full")

#: Allowed better-directions for a metric.
BETTER_DIRECTIONS = ("lower", "higher")

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


# -- registration -----------------------------------------------------------


@dataclass(frozen=True)
class BenchMetric:
    """One metric a bench reports: name, unit and better-direction."""

    name: str
    unit: str
    better: str = "lower"
    description: str = ""

    def __post_init__(self) -> None:
        if self.better not in BETTER_DIRECTIONS:
            raise ConfigurationError(
                f"metric {self.name!r}: better must be one of "
                f"{BETTER_DIRECTIONS}, got {self.better!r}"
            )

    def to_record(self) -> dict[str, Any]:
        """Plain-dict form for ``bench list --json``."""
        return {
            "name": self.name,
            "unit": self.unit,
            "better": self.better,
            "description": self.description,
        }


@dataclass(frozen=True)
class BenchSpec:
    """A registered bench: identity, declared metrics, runner."""

    name: str
    metrics: tuple[BenchMetric, ...]
    runner: Callable[[str, str], dict[str, float]]
    seed: str
    modes: tuple[str, ...] = BENCH_MODES
    description: str = ""

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ConfigurationError(f"bench {self.name!r} declares no metrics")
        for mode in self.modes:
            if mode not in BENCH_MODES:
                raise ConfigurationError(
                    f"bench {self.name!r}: mode must be one of {BENCH_MODES}, "
                    f"got {mode!r}"
                )
        seen: set[str] = set()
        for metric in self.metrics:
            if metric.name in seen:
                raise ConfigurationError(
                    f"bench {self.name!r} declares metric {metric.name!r} twice"
                )
            seen.add(metric.name)

    def metric(self, name: str) -> BenchMetric | None:
        """The declared metric of that name, or ``None``."""
        for metric in self.metrics:
            if metric.name == name:
                return metric
        return None

    def to_record(self) -> dict[str, Any]:
        """Machine-readable spec (no runner) for ``bench list --json``."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "modes": list(self.modes),
            "metrics": [metric.to_record() for metric in self.metrics],
        }


_REGISTRY: dict[str, BenchSpec] = {}


def register_bench(
    name: str,
    metrics: Iterable[BenchMetric],
    runner: Callable[[str, str], dict[str, float]],
    seed: str,
    modes: Iterable[str] = BENCH_MODES,
    description: str = "",
) -> BenchSpec:
    """Register (or re-register) a bench; returns the stored spec.

    Re-registration replaces the previous entry: a bench module may be
    imported more than once in a process (pytest collection plus
    harness discovery), and the last definition wins.
    """
    spec = BenchSpec(
        name=name, metrics=tuple(metrics), runner=runner, seed=seed,
        modes=tuple(modes), description=description,
    )
    _REGISTRY[spec.name] = spec
    return spec


def registered_benches() -> list[BenchSpec]:
    """Every registered bench, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_bench(name: str) -> BenchSpec | None:
    """One registered bench by name, or ``None``."""
    return _REGISTRY.get(name)


def clear_registry() -> None:
    """Drop every registration (test isolation)."""
    _REGISTRY.clear()


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
    or load time -- it is the run axis for sparklines and TSDB loading.
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
    recorded_at: float | None = None,
) -> BenchRecord:
    """Normalize a runner's raw values against the bench's declaration.

    Only declared metrics are kept (a runner may compute extras for its
    own assertions); a declared metric a runner legitimately cannot
    produce in some mode (e.g. a knee that needs a full sweep) is
    simply absent from the record.  Non-finite values are rejected --
    an ``inf`` entries/sec from a zero-duration loop is a measurement
    bug, not a data point.
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
        recorded_at=(
            recorded_at if recorded_at is not None else round(time.time(), 3)
        ),
    )


# -- trajectory store -------------------------------------------------------


class TrajectoryStore:
    """Durable append-only JSONL store of :class:`BenchRecord` lines.

    Appends write one complete serialized line per record with an
    ``fsync`` before returning, so a crash never interleaves partial
    records mid-file -- at worst the final line is torn, which
    :meth:`load` tolerates (and counts in :attr:`torn_lines`).
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
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # A crash mid-append leaves a torn tail with no newline; repair
        # it first so this record starts a fresh line instead of fusing
        # with the fragment (load() skips the fragment either way).
        needs_newline = False
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
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
        self._count = record.seq + 1
        return record


def load_trajectory(path: str = TRAJECTORY_PATH) -> list[BenchRecord]:
    """Load a trajectory file (empty list when absent)."""
    return TrajectoryStore(path).load()


def write_trajectory(path: str, records: Iterable[BenchRecord]) -> int:
    """Atomically (re)write a whole trajectory; returns lines written.

    The compaction/export path: ``load_trajectory(p) ==
    load_trajectory(q)`` after ``write_trajectory(q, load_trajectory(p))``
    -- the exact round-trip the tests assert.
    """
    return write_jsonl_atomic(
        path, (record.to_record() for record in records)
    )


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
    value: float,
    baseline: list[float],
    better: str,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    rel_floor: float = DEFAULT_REL_FLOOR,
    abs_floor: float = DEFAULT_ABS_FLOOR,
    noisy_ratio: float = NOISY_BASELINE_RATIO,
) -> tuple[str, float | None, float | None, float | None, str]:
    """Score one value against its baseline window.

    Returns ``(status, baseline_median, noise_scale, score, reason)``.
    The noise scale is ``max(MAD * 1.4826, rel_floor * |median|,
    abs_floor)`` -- the MAD term adapts to a metric's observed jitter,
    the relative floor keeps a bit-stable baseline (MAD = 0) from
    flagging sub-percent drift, and the absolute floor guards
    zero-median metrics.  Beyond the threshold, direction decides
    improved vs regressed per the metric's better-direction -- unless
    the baseline itself is too unstable to call (MAD noise above
    *noisy_ratio* of the median), which is ``noisy``.
    """
    if better not in BETTER_DIRECTIONS:
        raise ConfigurationError(
            f"better must be one of {BETTER_DIRECTIONS}, got {better!r}"
        )
    if not baseline:
        return "noisy", None, None, None, "no baseline runs"
    median = statistics.median(baseline)
    mad = statistics.median(abs(x - median) for x in baseline)
    noise = max(mad * MAD_SIGMA, rel_floor * abs(median), abs_floor)
    deviation = value - median
    score = deviation / noise
    if abs(score) <= z_threshold:
        return "ok", median, noise, score, ""
    if len(baseline) < 2:
        # One run is a reference point, not a noise model: beyond the
        # floor it is impossible to tell drift from jitter, so the
        # verdict stays advisory until a second run lands.
        return (
            "noisy", median, noise, score,
            "single-run baseline cannot separate drift from jitter",
        )
    if median != 0.0 and mad * MAD_SIGMA > noisy_ratio * abs(median):
        return (
            "noisy", median, noise, score,
            f"baseline MAD noise {mad * MAD_SIGMA / abs(median):.1%} of "
            f"median exceeds {noisy_ratio:.0%}",
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
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    rel_floor: float = DEFAULT_REL_FLOOR,
    abs_floor: float = DEFAULT_ABS_FLOOR,
    noisy_ratio: float = NOISY_BASELINE_RATIO,
) -> CompareResult:
    """Verdicts for the newest run of every (bench, mode) group.

    The candidate is each group's latest record; its baseline is the up
    to *baseline_runs* records before it **in the same mode** (the
    smoke and full populations are different workloads and never mix).
    Metrics absent from the candidate are not scored; metrics absent
    from the whole baseline classify ``noisy`` (no history).
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
            r.profile for r in baseline_records if r.profile is not None
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
                value, baseline, better,
                z_threshold=z_threshold, rel_floor=rel_floor,
                abs_floor=abs_floor, noisy_ratio=noisy_ratio,
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

"""Unified benchmark harness: discovery, one runner, durable trajectory.

Every ``bench_*.py`` in this directory self-registers with
:func:`repro.obs.perf.register_bench` at import time (name, metrics
with units and better-direction, supported modes, seed).  This module
is the machinery around that registry:

* :func:`discover` imports every ``bench_*.py`` by file path (the
  directory has no package ``__init__``; the path is inserted on
  ``sys.path`` first so ``import common`` resolves exactly as it does
  under pytest) and returns the registered specs.
* :func:`run_benches` executes selected benches in one process under
  one runner: fresh telemetry per bench, environment captured once per
  invocation (python, platform, git SHA), each result normalized into
  a :class:`repro.obs.perf.BenchRecord` stamped with mode + seed and
  durably appended to ``perf/trajectory.jsonl``.  With ``profile=True``
  each bench's hot section runs under the sampling profiler and the
  collapsed flamegraph folds land next to the trajectory in
  ``profiles/``, linked from the record -- so a later ``bench compare``
  regression verdict points at a fold diff, not just a number.

The pytest entry points in each ``bench_*.py`` still exist and still
carry their acceptance assertions; this runner is the *recording* path
(CI smoke trajectory, local ``repro-cli bench run``), sharing the same
``run_bench(mode, seed)`` cores so the two never drift.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from typing import Any, Callable, Iterable

from repro.common.errors import ConfigurationError
from repro.obs import runtime as obs_runtime
from repro.obs.exporters import write_text_atomic
from repro.obs.perf import (
    TRAJECTORY_PATH,
    BenchRecord,
    BenchSpec,
    TrajectoryStore,
    capture_environment,
    get_bench,
    record_from_run,
    registered_benches,
)
from repro.obs.profiling import SamplingProfiler

#: The directory this harness (and the bench modules) live in.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Module-name prefix for harness-side imports, distinct from pytest's
#: own top-level module names so one process can hold both without
#: clashing; registration is idempotent either way.
_MODULE_PREFIX = "repro_bench_harness__"


def discover(bench_dir: str | None = None) -> list[BenchSpec]:
    """Import every ``bench_*.py`` under *bench_dir*; return the registry.

    Import errors are not swallowed: a bench that cannot import is a
    broken bench, and CI should say so rather than silently run fewer
    benchmarks than yesterday.
    """
    directory = os.path.abspath(bench_dir or BENCH_DIR)
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


def select_benches(
    names: Iterable[str] | None = None, bench_dir: str | None = None
) -> list[BenchSpec]:
    """Resolve *names* against the discovered registry (``None`` = all)."""
    specs = discover(bench_dir)
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
    bench_dir: str | None = None,
    seed: str | None = None,
    profile: bool = False,
    profile_interval: float = 0.005,
    log: Callable[[str], Any] | None = None,
) -> list[BenchRecord]:
    """Run benches under the unified runner; append records; return them.

    Benches that do not support *mode* are skipped with a log line, not
    an error -- ``--all`` must stay usable when one bench is full-only.
    Each bench runs inside a fresh telemetry session (instrumented hot
    paths record, exactly as pytest's autouse fixture arranges) and its
    normalized record is appended durably before the next bench starts,
    so a crash mid-suite loses at most the bench in flight.
    """
    emit = log if log is not None else (lambda message: None)
    specs = select_benches(names, bench_dir)
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
        run_seed = seed if seed is not None else spec.seed
        emit(f"run {spec.name} [{mode}] seed={run_seed} ...")
        profiler = SamplingProfiler(profile_interval) if profile else None
        with obs_runtime.session():
            if profiler is not None:
                profiler.start()
            try:
                values = spec.runner(mode, run_seed)
            finally:
                if profiler is not None:
                    profiler.stop()
        record = record_from_run(
            spec, mode, values, seed=run_seed, env=environment
        )
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

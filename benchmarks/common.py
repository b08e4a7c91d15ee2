"""The bench registry and the helpers every ``bench_*.py`` shares.

Every bench imports from this module, so it is the one home of:

* **the registry** -- :func:`register_bench` with a name, its
  :class:`BenchMetric` list (unit + better-direction per metric), the
  modes it supports and its seed.  ``harness.py`` discovers and runs
  everything registered here.  The registry must not live in the
  harness: run as ``python benchmarks/harness.py`` the harness is
  ``__main__``, so bench modules importing ``harness`` would register
  into a second copy of it and ``list`` would print nothing;
* :func:`smoke_enabled` / :func:`bench_mode` -- the one
  ``REPRO_BENCH_SMOKE`` check.  Under pytest a bench reads these at
  import time; under the harness the mode arrives as the runner
  argument and the environment is never consulted;
* :func:`pick` -- mode-parameterized constants, so one core serves
  both modes;
* :func:`restored_telemetry` -- run a bench core under a fresh
  telemetry bundle and restore whatever was active before, so cores
  that juggle activation (null-baseline loops, per-rig registries) are
  safe under both pytest's autouse fixture and the harness runner.

Determinism contract: a bench workload draws only from
``SeededRng(seed)`` and the simulated clock, never the wall clock or
global RNG, so it is reproducible from the ``(mode, seed)`` pair
stamped into its ``harness.BenchRecord``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import ConfigurationError
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import Telemetry

#: Modes a bench may support.  ``smoke`` is the CI shape (seconds, no
#: tight assertions); ``full`` the measurement shape.
BENCH_MODES = ("smoke", "full")

#: Allowed better-directions for a metric.
BETTER_DIRECTIONS = ("lower", "higher")


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
        """Plain-dict form for ``harness.py list --json``."""
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

    def to_record(self) -> dict[str, Any]:
        """Machine-readable spec (no runner) for ``harness.py list --json``."""
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


def smoke_enabled() -> bool:
    """The uniform ``REPRO_BENCH_SMOKE`` check (unset/``0`` = full)."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def bench_mode() -> str:
    """The environment-selected mode: ``smoke`` or ``full``."""
    return "smoke" if smoke_enabled() else "full"


def pick(mode: str, smoke, full):
    """The mode-appropriate one of two parameter values."""
    return smoke if mode == "smoke" else full


@contextmanager
def restored_telemetry() -> Iterator[Telemetry]:
    """A fresh active telemetry bundle; restores the previous state.

    Bench cores toggle activation mid-run (null baselines, per-rig
    registries); this guard means they can, without caring whether the
    caller was pytest's autouse fixture or the harness runner -- on
    exit the caller's bundle (or the null state) is back.
    """
    previous = obs_runtime.get()
    telemetry = obs_runtime.activate()
    try:
        yield telemetry
    finally:
        if isinstance(previous, Telemetry):
            obs_runtime.activate(previous)
        else:
            obs_runtime.deactivate()

"""Shared helpers for the bench suite.

Before the perf observatory, each ``bench_*.py`` re-implemented two
things inconsistently: the ``REPRO_BENCH_SMOKE`` environment check (two
scripts had none at all) and a copy-pasted seeded-fleet builder (now
:func:`repro.keylime.fleet.build_fleet`, called directly).  This module
is the single source for the environment check, plus the mode plumbing
the harness registration API relies on:

* :func:`smoke_enabled` / :func:`bench_mode` -- the one environment
  check.  Under pytest a bench reads these at import time exactly as
  before; under the harness the mode arrives as the runner argument
  and the environment is never consulted.
* :func:`pick` -- mode-parameterized constants, replacing the
  ``X if SMOKE else Y`` module globals so one core serves both modes.
* :func:`restored_telemetry` -- run a bench core under a fresh
  telemetry bundle and restore whatever was active before, so cores
  that juggle activation (null-baseline loops, per-rig registries) are
  safe under both pytest's autouse fixture and the harness runner.

Determinism contract: a bench workload draws only from
``SeededRng(seed)`` and the simulated clock, never the wall clock or
global RNG, so it is reproducible from the ``(mode, seed)`` pair
stamped into its :class:`repro.obs.perf.BenchRecord`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.obs import runtime as obs_runtime
from repro.obs.runtime import Telemetry


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

"""Process-wide telemetry activation.

Instrumented hot paths (verifier poll, IMA engine, mirror sync, ...) do
not thread a telemetry handle through every constructor; they fetch the
*active* :class:`Telemetry` through :func:`get` at call time.  While
nothing is activated, :func:`get` returns a null-object bundle whose
registry and tracer absorb every call, so the instrumentation costs a
dict-free method call on the disabled path and needs no guards.

Typical use -- the ``repro-cli obs`` subcommand and the benchmark
harness::

    from repro.obs import runtime as obs

    with obs.session() as telemetry:
        run_fp_week(...)                     # hot paths record into it
        print(console_summary(telemetry.registry, telemetry.tracer))

The simulated clock is bound lazily: :func:`repro.experiments.testbed.
build_testbed` and :class:`repro.keylime.fleet.Fleet` call
``obs.get().bind_clock(scheduler.clock)`` when they create their
scheduler, so spans carry simulated timestamps no matter which
experiment is running.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracestore import SpanStore
from repro.obs.tracing import NULL_TRACER, SpanTracer


class Telemetry:
    """A registry/tracer/store triple representing one observed run.

    The tracer feeds every finished root trace into ``store`` (a
    queryable :class:`repro.obs.tracestore.SpanStore`), and roots
    evicted under ``max_roots`` pressure are counted into the
    ``obs_tracer_dropped_roots_total`` counter -- silent trace loss is
    a dashboard signal, not a mystery.
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        self.registry = MetricsRegistry()
        self.store = SpanStore()
        dropped = self.registry.counter(
            "obs_tracer_dropped_roots_total",
            "Root traces evicted from the tracer's retention ring",
        )
        self.tracer = SpanTracer(
            clock=clock, store=self.store, on_drop=dropped.inc
        )

    def bind_clock(self, clock) -> None:
        """Point the tracer's simulated timeline at *clock*."""
        self.tracer.bind_clock(clock)


class _NullTelemetry:
    """Inactive stand-in; every instrument call is a no-op."""

    enabled = False
    registry = NULL_REGISTRY
    tracer = NULL_TRACER
    store = None

    def bind_clock(self, clock) -> None:
        """No-op while telemetry is disabled."""


NULL_TELEMETRY = _NullTelemetry()

_active: Telemetry | None = None


def get() -> Telemetry:
    """The active telemetry, or the shared null bundle."""
    return _active if _active is not None else NULL_TELEMETRY


def activate(telemetry: Telemetry | None = None, clock=None) -> Telemetry:
    """Install *telemetry* (or a fresh one) as the active bundle."""
    global _active
    _active = telemetry if telemetry is not None else Telemetry(clock=clock)
    return _active


def deactivate() -> None:
    """Return to the disabled (null) state."""
    global _active
    _active = None


@contextmanager
def session(clock=None) -> Iterator[Telemetry]:
    """Activate a fresh telemetry bundle for the duration of a block.

    On exit the bundle that was active on entry is active again, so
    sessions nest and a run never leaks its bundle to the caller.
    """
    global _active
    previous = _active
    telemetry = activate(clock=clock)
    try:
        yield telemetry
    finally:
        _active = previous

"""Retry policy for attestation rounds: backoff, timeouts, and the line
retries must never cross.

The paper's FP study shows how easily operational noise is misread as
integrity failure; the P2 study shows the opposite disease (halt on the
first anomaly and go blind).  The retry layer draws the line between
the two with a *hard classifier*:

* :class:`~repro.common.errors.TransientTransportError` -- drop, delay
  past the attempt timeout, partition -- is **retryable**: the wire
  failed, the prover said nothing, so re-asking is sound.
* :class:`~repro.common.errors.IntegrityError` -- corrupt payload,
  stale replay, bad quote -- is **never retried** and fails the round
  exactly as an un-retried round would.  Retrying would hand an
  attacker a laundering primitive: tamper, get "re-asked", serve clean
  evidence, repeat.  (See docs/THREATMODEL.md.)

Backoff is capped exponential with deterministic jitter drawn from a
:class:`repro.common.rng.SeededRng` stream, so a seeded chaos run's
retry schedule is reproducible byte-for-byte.  The backoff durations
are computed and *recorded* (metrics, span attributes) but do not
advance the simulated clock: the discrete-event scheduler owns time,
and retries resolve within their poll tick -- the per-attempt timeout
is enforced against injected delay by the fault layer instead.  A real
deployment passes a ``sleep`` callable to actually wait.

Observability: every attempt lands in
``verifier_retry_attempts_total{outcome}`` (``ok`` / ``transient`` /
``exhausted`` / ``integrity``) and every *re*-attempt runs inside a
``verifier.retry`` span (attributes: attempt number, backoff) nested
under the enclosing ``verifier.poll``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.common.errors import IntegrityError, TransientTransportError
from repro.common.rng import SeededRng

T = TypeVar("T")


class RetryBudgetExceeded(TransientTransportError):
    """Every attempt failed transiently; the round is degraded.

    Still a :class:`TransientTransportError` (callers that only care
    about the taxonomy need one ``except``), but carries the attempt
    count and the final error for events and metrics.
    """

    def __init__(self, attempts: int, last: TransientTransportError) -> None:
        super().__init__(
            f"transport failed {attempts} attempt(s), giving up: {last}",
            kind=last.kind,
        )
        self.attempts = attempts
        self.last = last


def classify(exc: Exception) -> str:
    """The hard classifier: ``"transient"``, ``"integrity"`` or ``"other"``.

    Ordering matters conceptually: nothing may ever make an integrity
    failure look retryable, so :class:`IntegrityError` wins even if a
    future subclass were to multiply-inherit both bases.
    """
    if isinstance(exc, IntegrityError):
        return "integrity"
    if isinstance(exc, TransientTransportError):
        return "transient"
    return "other"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` bounds total tries (1 = no retries).  Attempt *n*'s
    backoff before retrying is ``min(cap, base * 2**(n-1))`` scaled by a
    jitter factor uniform in ``[1 - jitter, 1 + jitter]`` drawn from the
    caller's seeded stream.  The policy sets no per-attempt deadline:
    a :class:`repro.keylime.faults.FaultPlan` times injected delays out
    against its own.
    """

    max_attempts: int = 4
    base_backoff: float = 0.5
    backoff_cap: float = 8.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff durations must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_for(self, attempt: int, rng: SeededRng | None = None) -> float:
        """Seconds to back off after failed attempt *attempt* (1-based)."""
        raw = min(self.backoff_cap, self.base_backoff * (2.0 ** (attempt - 1)))
        if self.jitter and rng is not None:
            raw *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return raw

    def run(
        self,
        attempt_fn: Callable[[], T],
        rng: SeededRng | None = None,
        tracer=None,
        registry=None,
        sleep: Callable[[float], None] | None = None,
    ) -> T:
        """Execute *attempt_fn* under this policy.

        Returns its result; raises :class:`RetryBudgetExceeded` when
        every attempt failed transiently, and re-raises
        :class:`IntegrityError` immediately (never retried).  *rng* is
        the jitter stream -- with no faults in play it is never drawn
        from, which preserves clean-run bit-identity.
        """
        attempts_counter = None
        if registry is not None:
            attempts_counter = registry.counter(
                "verifier_retry_attempts_total",
                "Attestation wire attempts by outcome",
                labelnames=("outcome",),
            )

        def count(outcome: str) -> None:
            if attempts_counter is not None:
                attempts_counter.labels(outcome=outcome).inc()

        last_error: TransientTransportError | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                if attempt == 1:
                    result = attempt_fn()
                else:
                    backoff = self.backoff_for(attempt - 1, rng)
                    if sleep is not None:
                        sleep(backoff)
                    if tracer is None:
                        result = attempt_fn()
                    else:
                        with tracer.span(
                            "verifier.retry", attempt=attempt,
                            backoff_seconds=round(backoff, 4),
                        ) as span:
                            result = attempt_fn()
                            span.set_attribute("recovered", True)
            except IntegrityError:
                count("integrity")
                raise
            except TransientTransportError as exc:
                last_error = exc
                if attempt == self.max_attempts:
                    count("exhausted")
                    raise RetryBudgetExceeded(attempt, exc) from exc
                count("transient")
                continue
            count("ok")
            return result
        raise RetryBudgetExceeded(self.max_attempts, last_error)  # unreachable

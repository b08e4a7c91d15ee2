"""Critical-path and self-time analysis over finished traces.

The tracer answers *what happened*; this module answers *where the
wall time went*:

* :func:`self_wall` / :func:`attribution` -- per-span self time (own
  wall minus children) and per-stage attribution for one trace, so a
  slow ``verifier.poll`` decomposes into named stages plus an explicit
  ``(self)`` remainder instead of an opaque total;
* :func:`critical_path` -- the chain of heaviest children from the
  root down, i.e. the minimal set of spans that bounded the trace's
  latency (everything in a synchronous round *is* on some path; the
  critical one is where optimisation pays);
* :func:`profile` / :func:`diff_profiles` -- per-name totals across
  many traces and the delta between two runs (cache-on vs cache-off,
  before vs after a fix);
* :func:`collapsed_stacks` -- the ``stack;frames count`` text format
  flamegraph tooling consumes.

Those operate on :class:`repro.obs.tracing.Span` trees, whether
recorded live or rebuilt from a JSONL export by
:func:`repro.obs.tracestore.build_spans`.  :func:`folds_text` is the
one ``stack count`` line formatter; the bench harness's stack sampler
(``benchmarks/harness.py``) prints its folds through it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.tracing import Span

#: Label used for a span's own (non-child) time in attributions.
SELF_LABEL = "(self)"


def self_wall(span: Span) -> float:
    """Wall seconds spent in *span* itself, excluding its children.

    Clamped at zero: nested ``perf_counter`` reads can make the
    children's sum exceed the parent by scheduler noise.
    """
    return max(0.0, span.wall_duration - sum(c.wall_duration for c in span.children))


@dataclass
class PathStep:
    """One span on a critical path, with its share of the root's wall."""

    span: Span
    share: float  # fraction of the root's wall duration

    @property
    def name(self) -> str:
        """The span's name."""
        return self.span.name


def critical_path(root: Span) -> list[PathStep]:
    """The heaviest-child chain from *root* to a leaf.

    In a synchronous trace the children partition the parent's wall
    time; descending into the largest child at every level yields the
    chain that dominated the trace's latency.
    """
    total = root.wall_duration or 1.0
    path = [PathStep(root, root.wall_duration / total)]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: child.wall_duration)
        path.append(PathStep(node, node.wall_duration / total))
    return path


def attribution(root: Span) -> dict[str, float]:
    """Wall seconds of *root* attributed to its direct stages.

    Keys are the direct children's names (summed when repeated, e.g. a
    re-challenge after reboot detection) plus :data:`SELF_LABEL` for
    the root's own remainder; values sum to the root's wall duration
    (modulo the self-time clamp), so the attribution covers ~100% of
    the poll by construction.
    """
    out: dict[str, float] = {}
    for child in root.children:
        out[child.name] = out.get(child.name, 0.0) + child.wall_duration
    out[SELF_LABEL] = self_wall(root)
    return out


def coverage(root: Span) -> float:
    """Fraction of the root's wall time its attribution accounts for."""
    if root.wall_duration <= 0.0:
        return 1.0
    return min(1.0, sum(attribution(root).values()) / root.wall_duration)


@dataclass
class ProfileEntry:
    """Aggregate totals for every span of one name."""

    name: str
    count: int = 0
    total_wall: float = 0.0
    self_wall: float = 0.0
    on_critical_path: int = 0

    @property
    def mean_wall(self) -> float:
        """Mean wall seconds per span."""
        return self.total_wall / self.count if self.count else 0.0


def profile(roots: Iterable[Span]) -> dict[str, ProfileEntry]:
    """Per-name totals (total wall, self wall, critical-path hits)."""
    out: dict[str, ProfileEntry] = {}
    for root in roots:
        on_path = {id(step.span) for step in critical_path(root)}
        for span in root.walk():
            entry = out.setdefault(span.name, ProfileEntry(span.name))
            entry.count += 1
            entry.total_wall += span.wall_duration
            entry.self_wall += self_wall(span)
            if id(span) in on_path:
                entry.on_critical_path += 1
    return out


@dataclass
class ProfileDelta:
    """One name's movement between two profiles."""

    name: str
    a: ProfileEntry | None
    b: ProfileEntry | None

    @property
    def delta_self(self) -> float:
        """Self-wall seconds gained (positive) or saved (negative)."""
        return (self.b.self_wall if self.b else 0.0) - (
            self.a.self_wall if self.a else 0.0
        )

    @property
    def delta_total(self) -> float:
        """Total-wall seconds gained (positive) or saved (negative)."""
        return (self.b.total_wall if self.b else 0.0) - (
            self.a.total_wall if self.a else 0.0
        )


def diff_profiles(
    a: dict[str, ProfileEntry], b: dict[str, ProfileEntry]
) -> list[ProfileDelta]:
    """Per-name deltas from profile *a* to profile *b*.

    Sorted by absolute self-time movement, biggest first -- the order
    you would read a cache-on vs cache-off comparison in.
    """
    deltas = [
        ProfileDelta(name, a.get(name), b.get(name))
        for name in sorted(set(a) | set(b))
    ]
    deltas.sort(key=lambda d: abs(d.delta_self), reverse=True)
    return deltas


def collapsed_stacks(roots: Iterable[Span]) -> dict[str, int]:
    """Flamegraph folds: ``root;child;leaf -> self-wall microseconds``.

    The standard collapsed-stack text format (`flamegraph.pl`,
    speedscope, inferno): one line per distinct stack, the count being
    the stack's accumulated *self* time in integer microseconds.
    """
    folds: dict[str, int] = {}

    def descend(span: Span, prefix: str) -> None:
        stack = f"{prefix};{span.name}" if prefix else span.name
        micros = int(round(self_wall(span) * 1_000_000))
        if micros > 0:
            folds[stack] = folds.get(stack, 0) + micros
        for child in span.children:
            descend(child, stack)

    for root in roots:
        descend(root, "")
    return folds


def folds_text(folds: dict[str, int]) -> str:
    """Folds as flamegraph-ready ``stack count`` lines, sorted by stack."""
    return "\n".join(f"{stack} {count}" for stack, count in sorted(folds.items()))


def collapsed_text(roots: Iterable[Span]) -> str:
    """The collapsed-stack folds as flamegraph-ready text lines."""
    return folds_text(collapsed_stacks(roots))


# -- rendering ---------------------------------------------------------------


def render_critical_path(root: Span) -> str:
    """Human-readable critical path with per-step shares."""
    lines = [
        f"critical path of {root.name} "
        f"(trace {root.trace_id}, wall {root.wall_duration * 1000:.3f}ms, "
        f"attribution coverage {coverage(root) * 100:.1f}%):"
    ]
    for depth, step in enumerate(critical_path(root)):
        pad = "  " * depth
        lines.append(
            f"  {pad}{step.name}  wall={step.span.wall_duration * 1000:.3f}ms "
            f"self={self_wall(step.span) * 1000:.3f}ms  ({step.share * 100:5.1f}%)"
        )
    stages = attribution(root)
    width = max(len(name) for name in stages)
    lines.append("  -- stage attribution --")
    for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        share = seconds / root.wall_duration if root.wall_duration else 0.0
        lines.append(
            f"  {name.ljust(width)}  {seconds * 1000:9.3f}ms  ({share * 100:5.1f}%)"
        )
    return "\n".join(lines)


def render_profile(entries: dict[str, ProfileEntry], title: str = "profile") -> str:
    """Fixed-width per-name profile table, heaviest self-time first."""
    lines = [f"== {title} =="]
    if not entries:
        return lines[0] + "\n(no spans)"
    width = max(len(name) for name in entries)
    ordered = sorted(entries.values(), key=lambda e: e.self_wall, reverse=True)
    for entry in ordered:
        lines.append(
            f"  {entry.name.ljust(width)}  n={entry.count:<7d} "
            f"total={entry.total_wall * 1000:10.3f}ms "
            f"self={entry.self_wall * 1000:10.3f}ms "
            f"crit={entry.on_critical_path:<6d}"
        )
    return "\n".join(lines)


def render_diff(deltas: list[ProfileDelta], a_label: str = "A", b_label: str = "B") -> str:
    """Fixed-width diff table between two profiles."""
    lines = [f"== trace diff: {a_label} -> {b_label} (self-wall) =="]
    if not deltas:
        return lines[0] + "\n(no spans on either side)"
    width = max(len(delta.name) for delta in deltas)
    for delta in deltas:
        a_ms = (delta.a.self_wall if delta.a else 0.0) * 1000
        b_ms = (delta.b.self_wall if delta.b else 0.0) * 1000
        lines.append(
            f"  {delta.name.ljust(width)}  {a_label}={a_ms:10.3f}ms "
            f"{b_label}={b_ms:10.3f}ms  delta={delta.delta_self * 1000:+10.3f}ms"
        )
    return "\n".join(lines)

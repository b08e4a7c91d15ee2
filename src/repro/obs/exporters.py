"""Exporters for the telemetry layer.

Three formats, in increasing order of machine-friendliness:

* :func:`console_summary` -- a human-readable table of every metric and
  a per-name span roll-up, printed by ``repro-cli obs``.
* :func:`prometheus_text` -- the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / samples; histograms as cumulative ``le``
  buckets plus ``_sum``/``_count``), so a scrape endpoint or ``promtool``
  can consume a run's metrics directly.
* :func:`jsonl_dump` -- one JSON object per line for both metrics and
  spans, the interchange format the analysis layer and benchmarks use.

:func:`parse_prometheus_text` and :func:`load_jsonl` are the matching
readers; the exporter tests round-trip through them.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any, Iterable

from repro.obs.metrics import (
    CounterChild,
    GaugeChild,
    HistogramChild,
    MetricsRegistry,
    SUMMARY_QUANTILES,
)
from repro.obs.tracestore import span_record
from repro.obs.tracing import SpanTracer

# -- Prometheus text exposition --------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help_text(value: str) -> str:
    # HELP lines escape only backslash and newline (quotes stay as-is).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_exemplar(exemplar: dict) -> str:
    """OpenMetrics-style exemplar suffix for a ``_bucket`` sample line.

    ``# {trace_id="...",span_id="..."} value`` -- trace/span ids in the
    W3C fixed-width hex the traceparent wire field uses, so the ids in
    a scrape match the ids in a trace export byte-for-byte.
    """
    labels = {
        "trace_id": f"{int(exemplar['trace_id']):032x}",
        "span_id": f"{int(exemplar['span_id']):016x}",
    }
    return f" # {_format_labels(labels)} {_format_value(exemplar.get('value', 0.0))}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every metric in the Prometheus text exposition format.

    Histogram buckets that captured an exemplar carry an
    OpenMetrics-style ``# {trace_id=...,span_id=...} value`` suffix;
    :func:`parse_prometheus_text` (and plain Prometheus scrapers in
    OpenMetrics mode) tolerate it.
    """
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {_escape_help_text(family.help_text)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, child in family.samples():
            if isinstance(child, HistogramChild):
                for index, (bound, cumulative) in enumerate(
                    child.cumulative_buckets()
                ):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bound)
                    exemplar = child.exemplars.get(index)
                    lines.append(
                        f"{family.name}_bucket{_format_labels(bucket_labels)}"
                        f" {cumulative}"
                        + (_format_exemplar(exemplar) if exemplar else "")
                    )
                lines.append(
                    f"{family.name}_sum{_format_labels(labels)}"
                    f" {_format_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{_format_labels(labels)} {child.count}")
            else:
                lines.append(
                    f"{family.name}{_format_labels(labels)}"
                    f" {_format_value(child.value)}"
                )
    overflow = registry.label_overflow()
    if overflow:
        name = "telemetry_label_sets_overflowed_total"
        lines.append(
            f"# HELP {name} Label-sets collapsed by the per-metric cardinality cap"
        )
        lines.append(f"# TYPE {name} counter")
        for metric in sorted(overflow):
            lines.append(
                f"{name}{_format_labels({'metric': metric})} {overflow[metric]}"
            )
    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Labels are a sorted tuple of ``(key, value)`` pairs.  Only the
    sample lines are parsed; HELP/TYPE comments are skipped.  This is a
    test/analysis helper, not a full Prometheus parser.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # Drop an OpenMetrics exemplar suffix (` # {...} value`) so the
        # sample value parses cleanly.
        line = line.split(" # ", 1)[0].rstrip()
        name_part, _, value_part = line.rpartition(" ")
        labels: list[tuple[str, str]] = []
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            for piece in _split_label_pairs(label_blob):
                key, _, raw = piece.partition("=")
                value = raw.strip('"')
                value = (
                    value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
                labels.append((key, value))
        else:
            name = name_part
        samples[(name, tuple(sorted(labels)))] = float(
            value_part.replace("+Inf", "inf")
        )
    return samples


def _split_label_pairs(blob: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pieces: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pieces.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pieces.append("".join(current))
    return pieces


# -- JSONL ------------------------------------------------------------------


def _metric_record(family, labels: dict[str, str], child) -> dict[str, Any]:
    record: dict[str, Any] = {
        "type": "metric",
        "kind": family.kind,
        "name": family.name,
        "labels": labels,
    }
    if isinstance(child, HistogramChild):
        record["count"] = child.count
        record["sum"] = child.sum
        record["buckets"] = [
            [("+Inf" if math.isinf(bound) else bound), cumulative]
            for bound, cumulative in child.cumulative_buckets()
        ]
        record["quantiles"] = {
            str(q): child.quantile(q) for q in SUMMARY_QUANTILES
        }
        if child.exemplars:
            record["exemplars"] = {
                _format_value(child.bucket_bound(index)): exemplar
                for index, exemplar in sorted(child.exemplars.items())
            }
    else:
        record["value"] = child.value
    return record


def _event_record(record) -> dict[str, Any]:
    return {
        "type": "event",
        "time": record.time,
        "source": record.source,
        "kind": record.kind,
        "details": record.details,
    }


def _audit_export_record(record) -> dict[str, Any]:
    return {
        "type": "audit",
        "index": record.index,
        "time": record.time,
        "agent": record.agent_id,
        "ok": record.ok,
        "detail": record.detail,
        "previous_hash": record.previous_hash,
        "record_hash": record.record_hash,
    }


def jsonl_records(
    registry: MetricsRegistry,
    tracer: SpanTracer | None = None,
    events=None,
    audit=None,
    extra_records: Iterable[dict[str, Any]] | None = None,
) -> Iterable[dict[str, Any]]:
    """Yield every export record, in dump order, one dict at a time.

    This is the streaming core of :func:`jsonl_dump`: nothing here
    materialises the full record list, so a long TSDB-backed run can be
    exported in O(1) memory via :func:`write_jsonl_atomic`.
    *extra_records* may itself be a generator (e.g.
    :meth:`repro.obs.tsdb.TsdbStore.export_records`).
    """
    for family in registry.families():
        for labels, child in family.samples():
            yield _metric_record(family, labels, child)
    if tracer is not None:
        for span in tracer.iter_spans():
            yield span_record(span)
    if events is not None:
        for record in events:
            yield _event_record(record)
    if audit is not None:
        for record in audit.records():
            yield _audit_export_record(record)
    for record in extra_records or ():
        yield record


def jsonl_dump(
    registry: MetricsRegistry,
    tracer: SpanTracer | None = None,
    events=None,
    audit=None,
    extra_records: Iterable[dict[str, Any]] | None = None,
) -> str:
    """One JSON object per line: metrics, spans, events, audit records.

    *events* is an :class:`repro.common.events.EventLog` and *audit* an
    :class:`repro.keylime.audit.AuditLog`; both optional.  Passing them
    makes the export self-contained enough for ``repro-cli obs report``
    to rebuild incident timelines post-hoc.  *extra_records* (already
    dict-shaped, e.g. incident reports or run metadata) are appended
    verbatim.

    Convenient for tests and small runs; writers should prefer
    :func:`write_jsonl_atomic`, which streams the same records to disk
    without building the whole blob in memory.
    """
    lines = [
        json.dumps(record, sort_keys=True)
        for record in jsonl_records(
            registry, tracer, events=events, audit=audit,
            extra_records=extra_records,
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _atomic_writer(path: str, write) -> None:
    """Run *write(handle)* against a same-directory temp file, then
    fsync + rename over *path* -- the shared atomicity core."""
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory,
        prefix=os.path.basename(path) + ".", suffix=".tmp", delete=False,
    )
    try:
        with handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write *text* to *path* via a same-directory temp file + rename.

    A run killed mid-export never leaves a truncated file behind: the
    replace is atomic, so readers see either the old content or the
    complete new one.
    """
    _atomic_writer(path, lambda handle: handle.write(text))


def write_jsonl_atomic(path: str, records: Iterable[dict[str, Any]]) -> int:
    """Stream *records* to *path* as JSONL, atomically; returns lines.

    Each record is serialised and written as it is produced -- O(1)
    memory regardless of export size -- while keeping the temp-file +
    ``os.replace`` guarantee of :func:`write_text_atomic`: a crash
    mid-stream leaves the previous file intact, never a truncated one.
    """
    written = 0

    def _write(handle) -> None:
        nonlocal written
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            written += 1

    _atomic_writer(path, _write)
    return written


def load_jsonl(text: str) -> list[dict[str, Any]]:
    """Parse a :func:`jsonl_dump` blob back into records."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- console summary --------------------------------------------------------


def console_summary(registry: MetricsRegistry, tracer: SpanTracer | None = None) -> str:
    """A fixed-width summary table of metrics and span roll-ups."""
    lines: list[str] = ["== telemetry summary =="]
    families = registry.families()
    if not families:
        lines.append("(no metrics recorded)")
    for family in families:
        for labels, child in family.samples():
            label_text = _format_labels(labels)
            if isinstance(child, HistogramChild):
                q50, q90, q99 = (child.quantile(q) for q in SUMMARY_QUANTILES)
                lines.append(
                    f"  {family.name}{label_text}: count={child.count} "
                    f"mean={child.mean:.6f} p50={q50:.6f} p90={q90:.6f} "
                    f"p99={q99:.6f} sum={child.sum:.6f}"
                )
            else:
                lines.append(
                    f"  {family.name}{label_text}: {_format_value(child.value)}"
                )
    if tracer is not None:
        stats = tracer.aggregate()
        if stats:
            lines.append("-- spans (per name) --")
            width = max(len(name) for name in stats)
            for name in sorted(stats):
                entry = stats[name]
                lines.append(
                    f"  {name.ljust(width)}  n={entry.count:<7d} "
                    f"wall_total={entry.wall_total * 1000:10.3f}ms "
                    f"wall_mean={entry.wall_mean * 1000:8.4f}ms "
                    f"sim_total={entry.sim_total:10.1f}s"
                )
        last = tracer.last_trace()
        if last is not None:
            lines.append("-- last trace --")
            lines.extend("  " + line for line in last.tree_lines())
        if tracer.dropped_roots:
            lines.append(f"  (dropped {tracer.dropped_roots} oldest traces)")
    return "\n".join(lines)

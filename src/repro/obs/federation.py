"""Federating metrics snapshots from many registries into one store.

The ROADMAP's scale-out arc shards the verifier across processes; each
shard will own a private :class:`~repro.obs.runtime.Telemetry` bundle,
and nobody operating the fleet wants N dashboards.  This module is the
aggregation tier, built *before* the first shard exists so the sharding
work lands against a working fleet view:

* :func:`registry_snapshot` serialises one registry's current state --
  counters, gauges, exploded histograms, and the per-family
  label-cardinality overflow counts -- into a JSON-safe dict;
  :func:`snapshot_to_json` / :func:`snapshot_from_json` are the wire
  pair, in the same idiom as :mod:`repro.keylime.transport` (malformed
  input surfaces as :class:`~repro.common.errors.IntegrityError`, never
  a stray ``KeyError``).
* :class:`FederationHub` ingests snapshots from N sources into one
  :class:`~repro.obs.tsdb.TsdbStore`, tagging every series with a
  ``source`` label so per-shard and fleet-level queries coexist.  The
  hub tracks per-source staleness (last snapshot time vs. now), drops
  out-of-order snapshots per source (with accounting, not silently),
  inherits the store's counter-reset detection for source restarts,
  and merges label-overflow counts across sources so a cardinality bug
  in any shard stays visible fleet-wide.

This is the only way registry samples reach a store.  The hub runs
its own recording rules (fleet-level, collapsing the ``source`` label);
a single-process run is the one-source case -- ``obs watch --tsdb``
ingests its registry under :data:`FLEET_SOURCE` each tick -- so
``repro-cli obs top`` reads the same series shape either way.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

from repro.common.errors import IntegrityError
from repro.obs.rules import RuleEngine, standard_recording_rules
from repro.obs.tsdb import TsdbStore, format_le

#: The label the hub adds to every federated series.
SOURCE_LABEL = "source"

#: Source name for families that belong to no single verifier member
#: (and for the whole registry of a one-source run).
FLEET_SOURCE = "fleet"

#: ``type`` tag of a snapshot record (JSONL export compatible).
SNAPSHOT_TYPE = "obs_snapshot"

_DECODE_ERRORS = (KeyError, ValueError, TypeError, AttributeError, OverflowError)


def registry_snapshot(registry, source: str, at: float) -> dict[str, Any]:
    """One registry's current state as a JSON-safe snapshot dict.

    Histograms travel exploded (``count`` / ``sum`` / cumulative
    ``buckets`` keyed by their ``le`` label), the shape
    :meth:`FederationHub.ingest` stores them in.
    """
    metrics: list[dict[str, Any]] = []
    for family in registry.families():
        for labels, child in family.samples():
            entry: dict[str, Any] = {
                "name": family.name,
                "kind": family.kind,
                "labels": dict(labels),
            }
            if family.kind == "histogram":
                entry["count"] = child.count
                entry["sum"] = child.sum
                entry["buckets"] = [
                    [format_le(bound), cumulative]
                    for bound, cumulative in child.cumulative_buckets()
                ]
            else:
                entry["value"] = child.value
            metrics.append(entry)
    return {
        "type": SNAPSHOT_TYPE,
        "source": source,
        "at": at,
        "metrics": metrics,
        "label_overflow": dict(registry.label_overflow()),
    }


def snapshot_to_json(snapshot: dict[str, Any]) -> str:
    """Serialise a snapshot for the wire (one line, sorted keys)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def snapshot_from_json(blob: str | bytes | bytearray) -> dict[str, Any]:
    """Decode and validate a wire snapshot.

    Raises :class:`IntegrityError` on anything malformed -- a federation
    peer is exactly as untrusted as an attestation peer.  That includes
    a bucket bound that is neither ``+Inf`` nor a finite number (the
    quantile rules parse it) and any non-finite sample, which would
    poison every rule sum it joins.
    """
    try:
        snapshot = json.loads(blob)
        if snapshot.get("type") != SNAPSHOT_TYPE:
            raise IntegrityError(
                f"not a metrics snapshot: type={snapshot.get('type')!r}"
            )
        source = snapshot["source"]
        if not isinstance(source, str) or not source:
            raise IntegrityError(f"bad snapshot source: {source!r}")
        snapshot["at"] = _finite(snapshot["at"])
        metrics = snapshot["metrics"]
        if not isinstance(metrics, list):
            raise IntegrityError("snapshot metrics must be a list")
        for entry in metrics:
            entry["name"], entry["kind"] = str(entry["name"]), str(entry["kind"])
            entry["labels"] = {
                str(k): str(v) for k, v in entry.get("labels", {}).items()
            }
            if entry["kind"] == "histogram":
                entry["count"] = _finite(entry["count"])
                entry["sum"] = _finite(entry["sum"])
                entry["buckets"] = [
                    [_bound(le), _finite(cumulative)]
                    for le, cumulative in entry["buckets"]
                ]
            else:
                entry["value"] = _finite(entry["value"])
        snapshot["label_overflow"] = {
            str(name): int(count)
            for name, count in snapshot.get("label_overflow", {}).items()
        }
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed metrics snapshot: {exc}") from exc
    return snapshot


def _finite(raw: Any) -> float:
    """*raw* as a finite float; NaN and infinities are malformed."""
    value = float(raw)
    if not math.isfinite(value):
        raise IntegrityError(f"non-finite snapshot sample: {raw!r}")
    return value


def _bound(raw: Any) -> str:
    """A bucket's ``le`` label: ``+Inf`` or a finite number."""
    le = str(raw)
    if le != "+Inf":
        _finite(le)
    return le


class SourceState:
    """Per-source bookkeeping the hub keeps across snapshots."""

    __slots__ = ("name", "last_at", "snapshots", "dropped", "label_overflow")

    def __init__(self, name: str) -> None:
        self.name = name
        self.last_at: float | None = None
        self.snapshots = 0
        #: snapshots refused because they were older than ``last_at``.
        self.dropped = 0
        self.label_overflow: dict[str, int] = {}


class FederationHub:
    """Merges N registries' snapshots into one fleet-level store."""

    def __init__(
        self,
        store: TsdbStore | None = None,
        rules: Iterable[Any] | None = None,
        poll_interval: float = 1800.0,
    ) -> None:
        self.store = store if store is not None else TsdbStore()
        self.poll_interval = poll_interval
        self.engine = RuleEngine(
            self.store,
            rules if rules is not None
            else standard_recording_rules(poll_interval),
        )
        self._sources: dict[str, SourceState] = {}

    def sources(self) -> list[SourceState]:
        """Known sources, in first-seen order."""
        return list(self._sources.values())

    def source(self, name: str) -> SourceState | None:
        """One source's state, or ``None``."""
        return self._sources.get(name)

    def ingest(self, snapshot: dict[str, Any]) -> int:
        """Merge one (decoded) snapshot; returns samples appended.

        A snapshot older than the source's last accepted one is dropped
        whole -- federated counters must stay per-source monotone in
        time or every rate window straddling the regression corrupts --
        and counted on the source's ``dropped`` tally.
        """
        name = snapshot["source"]
        at = snapshot["at"]
        state = self._sources.get(name)
        if state is None:
            state = self._sources[name] = SourceState(name)
        if state.last_at is not None and at <= state.last_at:
            state.dropped += 1
            return 0
        appended = 0
        store = self.store
        for entry in snapshot["metrics"]:
            labels = dict(entry["labels"])
            labels[SOURCE_LABEL] = name
            if entry["kind"] == "histogram":
                store.append(
                    f"{entry['name']}_count", labels, entry["count"], at,
                    kind="counter",
                )
                store.append(
                    f"{entry['name']}_sum", labels, entry["sum"], at,
                    kind="counter",
                )
                appended += 2
                for le, cumulative in entry["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = le
                    store.append(
                        f"{entry['name']}_bucket", bucket_labels, cumulative,
                        at, kind="counter",
                    )
                    appended += 1
            else:
                store.append(
                    entry["name"], labels, entry["value"], at,
                    kind=entry["kind"] if entry["kind"] in ("counter", "gauge")
                    else "gauge",
                )
                appended += 1
        for metric, count in sorted(snapshot.get("label_overflow", {}).items()):
            state.label_overflow[metric] = count
            store.append(
                "telemetry_label_sets_overflowed_total",
                {"metric": metric, SOURCE_LABEL: name}, count, at,
                kind="counter",
            )
            appended += 1
        state.last_at = at
        state.snapshots += 1
        store.scrapes += 1
        store.last_scrape_at = (
            at if store.last_scrape_at is None
            else max(store.last_scrape_at, at)
        )
        return appended

    def ingest_json(self, blob: str | bytes | bytearray) -> int:
        """Decode + merge one wire snapshot."""
        return self.ingest(snapshot_from_json(blob))

    def evaluate(self, now: float) -> int:
        """Run the hub's recording rules at *now*."""
        return self.engine.evaluate(now)

    def staleness(self, now: float) -> dict[str, float | None]:
        """Seconds since each source's last accepted snapshot.

        ``None`` marks a source that registered but never delivered.
        """
        return {
            name: (now - state.last_at if state.last_at is not None else None)
            for name, state in self._sources.items()
        }

    def stale_sources(self, now: float, max_age: float) -> list[str]:
        """Sources silent for longer than *max_age* (or forever)."""
        return [
            name for name, age in self.staleness(now).items()
            if age is None or age > max_age
        ]

    def merged_label_overflow(self) -> dict[str, int]:
        """Per-family overflow counts summed across every source."""
        merged: dict[str, int] = {}
        for state in self._sources.values():
            for metric, count in state.label_overflow.items():
                merged[metric] = merged.get(metric, 0) + count
        return merged

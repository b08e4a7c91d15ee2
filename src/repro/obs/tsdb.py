"""An embedded ring-buffer time-series store for the telemetry layer.

Everything PRs 1-5 record is *point-in-time*: the metrics registry
holds one cumulative value per series, the health detectors keep their
own private sliding windows, and the fleet dashboard can only show the
instant it is looking at.  The paper's operational lesson cuts the
other way -- coverage gaps, policy-update storms and slow appraisal are
*trends*, visible only over time -- and the ROADMAP's scale-out arc
(sharded multi-verifier fleets) needs cross-process history before the
first shard exists.  This module is that substrate:

* :class:`TsdbStore` -- a bounded in-memory store of
  ``(name, labels)`` series.  Registry samples reach it only through
  :class:`repro.obs.federation.FederationHub`, one snapshot per source
  per tick (counters and gauges as raw values, histograms exploded
  into ``_count`` / ``_sum`` / per-``le`` ``_bucket`` series).
* **Resolution tiers under a fixed budget.**  Each series keeps a raw
  ring; samples evicted from it fold (``fold``-at-a-time, default 10x)
  into tier-1 frames, and tier-1 evictions fold again into tier-2
  (100x).  Per-series capacities are rebalanced from the store-wide
  ``max_samples`` budget as series appear, so a 66-day longrun stays
  bounded while remaining queryable at every resolution.
* **Counter-reset safety.**  A cumulative value going backwards
  (process restart, registry swap, federation source reboot) is
  counted at append time (``counter_resets``) and handled again inside
  :meth:`Series.increase`, which restarts the extrapolation at the
  reset instead of emitting a giant negative spike -- the
  Prometheus-style adjustment.
* **Queries.**  ``instant`` (latest value at-or-before a time, any
  tier), ``range_values`` (stitched across tiers, oldest first),
  ``range_frames`` (uniform aggregate view for windowed math) and
  ``increase`` / ``rate`` with the reset guard.
* **Export/import.**  ``export_records()`` emits typed JSONL records
  (``tsdb_meta`` / ``tsdb_series``) and :meth:`TsdbStore.from_records`
  rebuilds an identical store, so ``repro-cli obs top --replay`` and
  ``obs report`` work post-hoc from a file.

Query semantics at downsampled resolution: a tier frame contributes one
point at its *end* time carrying the window's *last* value (exact for
cumulative counters; last-write for gauges); the frame itself keeps
``count/sum/min/max/first/last`` plus the reset-adjusted increase, so
windowed rules (:mod:`repro.obs.rules`) lose no counter mass to
downsampling.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.common.errors import ConfigurationError

#: Default store-wide sample budget (raw samples + tier frames all
#: count as one slot each).  At the default 30-minute scrape cadence a
#: few hundred series fit a multi-month run comfortably.
DEFAULT_MAX_SAMPLES = 200_000

#: Samples folded into one frame at each downsampling step: raw -> 10x
#: (tier 1) -> 100x (tier 2).
DEFAULT_FOLD = 10

#: Floor on the per-series slot allowance; below this a series cannot
#: hold a meaningful window at any tier.
MIN_SERIES_SLOTS = 24

#: Series kinds the store distinguishes (reset detection applies to
#: counters only).
SERIES_KINDS = ("counter", "gauge")


def label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    """Canonical (sorted, stringified) form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Frame:
    """One downsampled window of a series.

    ``inc`` is the reset-adjusted increase across the folded points
    (0.0 for gauges); ``resets`` how many counter resets were folded
    in.  Together they let :meth:`Series.increase` stay exact across
    resolution tiers.
    """

    start: float
    end: float
    count: int
    v_sum: float
    v_min: float
    v_max: float
    v_first: float
    v_last: float
    inc: float = 0.0
    resets: int = 0

    @property
    def mean(self) -> float:
        """Arithmetic mean of the folded samples."""
        return self.v_sum / self.count if self.count else 0.0

    def to_list(self) -> list:
        """Compact list form for the JSONL export."""
        return [
            self.start, self.end, self.count, self.v_sum, self.v_min,
            self.v_max, self.v_first, self.v_last, self.inc, self.resets,
        ]

    @classmethod
    def from_list(cls, raw: list) -> "Frame":
        """Rebuild a frame from :meth:`to_list` output."""
        return cls(
            start=float(raw[0]), end=float(raw[1]), count=int(raw[2]),
            v_sum=float(raw[3]), v_min=float(raw[4]), v_max=float(raw[5]),
            v_first=float(raw[6]), v_last=float(raw[7]),
            inc=float(raw[8]), resets=int(raw[9]),
        )


def _fold_samples(samples: list[tuple[float, float]], kind: str) -> Frame:
    """Fold raw ``(t, value)`` samples into one frame."""
    values = [value for _, value in samples]
    inc = 0.0
    resets = 0
    if kind == "counter":
        for previous, current in zip(values, values[1:]):
            delta = current - previous
            if delta < 0:
                resets += 1
                delta = current
            inc += delta
    return Frame(
        start=samples[0][0], end=samples[-1][0], count=len(samples),
        v_sum=sum(values), v_min=min(values), v_max=max(values),
        v_first=values[0], v_last=values[-1], inc=inc, resets=resets,
    )


def _fold_frames(frames: list[Frame], kind: str) -> Frame:
    """Fold tier-N frames into one tier-(N+1) frame."""
    inc = 0.0
    resets = 0
    if kind == "counter":
        for previous, current in zip(frames, frames[1:]):
            delta = current.v_first - previous.v_last
            if delta < 0:
                resets += 1
                delta = current.v_first
            inc += delta
        inc += sum(frame.inc for frame in frames)
        resets += sum(frame.resets for frame in frames)
    return Frame(
        start=frames[0].start, end=frames[-1].end,
        count=sum(frame.count for frame in frames),
        v_sum=sum(frame.v_sum for frame in frames),
        v_min=min(frame.v_min for frame in frames),
        v_max=max(frame.v_max for frame in frames),
        v_first=frames[0].v_first, v_last=frames[-1].v_last,
        inc=inc, resets=resets,
    )


class Series:
    """One time-series: a raw ring plus two downsampled tiers."""

    __slots__ = (
        "name", "labels", "kind", "raw", "tier1", "tier2",
        "resets", "dropped_frames", "_store",
    )

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...],
                 kind: str, store: "TsdbStore") -> None:
        if kind not in SERIES_KINDS:
            raise ConfigurationError(
                f"series kind must be one of {SERIES_KINDS}, got {kind!r}"
            )
        self.name = name
        self.labels = labels
        self.kind = kind
        self.raw: deque[tuple[float, float]] = deque()
        self.tier1: deque[Frame] = deque()
        self.tier2: deque[Frame] = deque()
        self.resets = 0
        #: tier-2 frames evicted past the retention horizon.
        self.dropped_frames = 0
        self._store = store

    def __len__(self) -> int:
        return len(self.raw) + len(self.tier1) + len(self.tier2)

    def label(self, name: str) -> str | None:
        """The value of one label, or ``None``."""
        for key, value in self.labels:
            if key == name:
                return value
        return None

    @property
    def labels_dict(self) -> dict[str, str]:
        """Labels as a plain dict."""
        return dict(self.labels)

    def append(self, at: float, value: float) -> None:
        """Append one sample (monotonically increasing time expected)."""
        value = float(value)
        if self.raw and at < self.raw[-1][0]:
            # Out-of-order within a series: drop rather than corrupt the
            # ring (federation guards against this per source already).
            return
        if (
            self.kind == "counter"
            and self.raw
            and value < self.raw[-1][1]
        ):
            self.resets += 1
            self._store.counter_resets += 1
        self.raw.append((at, value))
        self.enforce()

    def enforce(self) -> None:
        """Fold rings down to the store's current per-series caps."""
        fold = self._store.fold
        raw_cap, t1_cap, t2_cap = self._store.series_caps()
        while len(self.raw) > raw_cap:
            if len(self.raw) < fold + 1:
                break
            batch = [self.raw.popleft() for _ in range(fold)]
            self.tier1.append(_fold_samples(batch, self.kind))
        while len(self.tier1) > t1_cap:
            if len(self.tier1) < fold + 1:
                break
            batch = [self.tier1.popleft() for _ in range(fold)]
            self.tier2.append(_fold_frames(batch, self.kind))
        while len(self.tier2) > t2_cap:
            self.tier2.popleft()
            self.dropped_frames += 1

    # -- point access ------------------------------------------------------

    def _points(self) -> Iterator[tuple[float, float, Frame | None]]:
        """All retained points, oldest first: ``(end_time, last_value,
        frame_or_None)``.  Frames surface as one point at their end."""
        for frame in self.tier2:
            yield frame.end, frame.v_last, frame
        for frame in self.tier1:
            yield frame.end, frame.v_last, frame
        for at, value in self.raw:
            yield at, value, None

    def instant(self, at: float | None = None) -> float | None:
        """Latest value at-or-before *at* (``None`` = newest overall).

        Resolution degrades gracefully: inside a downsampled window the
        answer is that window's last value.
        """
        if at is None:
            if self.raw:
                return self.raw[-1][1]
            for tier in (self.tier1, self.tier2):
                if tier:
                    return tier[-1].v_last
            return None
        # Fast path: the common "now" query lands in the raw ring.
        if self.raw and self.raw[0][0] <= at:
            times = [t for t, _ in self.raw]
            index = bisect_right(times, at) - 1
            return self.raw[index][1] if index >= 0 else None
        best: float | None = None
        for end, value, frame in self._points():
            start = frame.start if frame is not None else end
            if start > at:
                break
            best = value
        return best

    def instant_before(self, at: float) -> float | None:
        """Latest value *strictly* before *at* (window-base lookups)."""
        best: float | None = None
        for end, value, frame in self._points():
            if end >= at:
                # A frame straddling `at` still counts when it *started*
                # before: resolution-limited, but never skips history.
                if frame is not None and frame.start < at:
                    best = value
                break
            best = value
        return best

    def range_values(self, start: float, end: float) -> list[tuple[float, float]]:
        """``(t, value)`` points with ``start <= t <= end``, oldest first."""
        out = []
        for at, value, _frame in self._points():
            if at < start:
                continue
            if at > end:
                break
            out.append((at, value))
        return out

    def range_frames(self, start: float, end: float) -> list[Frame]:
        """Uniform aggregate view of the window (raw samples become
        single-sample frames), oldest first."""
        out: list[Frame] = []
        for at, value, frame in self._points():
            if at < start:
                continue
            if (frame.start if frame is not None else at) > end:
                break
            if frame is None:
                frame = Frame(
                    start=at, end=at, count=1, v_sum=value, v_min=value,
                    v_max=value, v_first=value, v_last=value,
                )
            out.append(frame)
        return out

    def increase(self, start: float, end: float) -> float:
        """Reset-adjusted counter increase over ``[start, end]``.

        The base is the latest point *strictly* before *start*, so a
        sample sitting exactly on the window edge contributes -- the
        same left-closed convention the SLO trackers use.  A value drop
        anywhere in the walk restarts the extrapolation window (the
        post-reset value counts as fresh increase) instead of producing
        a negative spike.
        """
        inc = 0.0
        previous: float | None = None
        for end_t, value, frame in self._points():
            frame_start = frame.start if frame is not None else end_t
            if end_t < start:
                previous = value
                continue
            if frame_start > end:
                break
            base = previous if previous is not None else 0.0
            first = frame.v_first if frame is not None else value
            delta = first - base
            if delta < 0:
                delta = first
            inc += delta
            if frame is not None:
                inc += frame.inc
            previous = value
        return inc

    def rate(self, window: float, at: float) -> float | None:
        """Per-second rate over the trailing *window* at *at*."""
        if window <= 0:
            raise ConfigurationError(f"rate window must be positive, got {window}")
        if not len(self):
            return None
        return self.increase(at - window, at) / window

    def to_record(self) -> dict[str, Any]:
        """One ``tsdb_series`` JSONL record."""
        return {
            "type": "tsdb_series",
            "name": self.name,
            "labels": self.labels_dict,
            "kind": self.kind,
            "resets": self.resets,
            "dropped_frames": self.dropped_frames,
            "raw": [[at, value] for at, value in self.raw],
            "t1": [frame.to_list() for frame in self.tier1],
            "t2": [frame.to_list() for frame in self.tier2],
        }


class TsdbStore:
    """Bounded multi-series store with store-wide budget rebalancing.

    *max_samples* is the total slot budget (raw samples and frames both
    count one); per-series caps are recomputed whenever a series is
    created, splitting each series' allowance roughly 1/2 raw, 1/4
    tier-1, 1/4 tier-2 -- with the 10x folds that yields a retention
    horizon of ``raw + 10*t1 + 100*t2`` scrape intervals per series.
    """

    def __init__(
        self,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        fold: int = DEFAULT_FOLD,
    ) -> None:
        if max_samples < MIN_SERIES_SLOTS:
            raise ConfigurationError(
                f"max_samples must be >= {MIN_SERIES_SLOTS}, got {max_samples}"
            )
        if fold < 2:
            raise ConfigurationError(f"fold must be >= 2, got {fold}")
        self.max_samples = max_samples
        self.fold = fold
        self.counter_resets = 0
        self.scrapes = 0
        self.last_scrape_at: float | None = None
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], Series] = {}
        self._caps: tuple[int, int, int] | None = None

    def __len__(self) -> int:
        return len(self._series)

    # -- capacity ----------------------------------------------------------

    def series_caps(self) -> tuple[int, int, int]:
        """Current per-series ``(raw, tier1, tier2)`` caps."""
        if self._caps is None:
            per = max(MIN_SERIES_SLOTS, self.max_samples // max(1, len(self._series)))
            raw_cap = max(self.fold, per // 2)
            t1_cap = max(4, per // 4)
            t2_cap = max(4, per - raw_cap - t1_cap)
            self._caps = (raw_cap, t1_cap, t2_cap)
        return self._caps

    def total_samples(self) -> int:
        """Retained slots across every series (raw + frames)."""
        return sum(len(series) for series in self._series.values())

    # -- writes ------------------------------------------------------------

    def append(
        self,
        name: str,
        labels: dict[str, str] | None,
        value: float,
        at: float,
        kind: str = "gauge",
    ) -> Series:
        """Append one sample, creating the series on first use."""
        key = (name, label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = Series(name, key[1], kind, self)
            self._series[key] = series
            # New series dilute everyone's allowance; recompute caps and
            # let each series fold down lazily on its next append.
            self._caps = None
        series.append(at, value)
        return series

    # -- reads -------------------------------------------------------------

    def series(self) -> list[Series]:
        """Every series, sorted by (name, labels)."""
        return [self._series[key] for key in sorted(self._series)]

    def names(self) -> list[str]:
        """Distinct series names, sorted."""
        return sorted({name for name, _ in self._series})

    def get_series(
        self, name: str, labels: dict[str, str] | None = None
    ) -> Series | None:
        """The exact (name, labels) series, or ``None``."""
        return self._series.get((name, label_key(labels)))

    def select(self, name: str, **label_filters: str) -> list[Series]:
        """Series named *name* whose labels contain every filter pair."""
        wanted = sorted((k, str(v)) for k, v in label_filters.items())
        out = []
        for key in sorted(key for key in self._series if key[0] == name):
            series = self._series[key]
            labels = series.labels_dict
            if all(labels.get(k) == v for k, v in wanted):
                out.append(series)
        return out

    def instant(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        at: float | None = None,
    ) -> float | None:
        """Instant query against one exact series (``None`` if absent)."""
        series = self.get_series(name, labels)
        return series.instant(at) if series is not None else None

    def range_values(
        self, name: str, labels: dict[str, str] | None, start: float, end: float
    ) -> list[tuple[float, float]]:
        """Range query against one exact series (empty if absent)."""
        series = self.get_series(name, labels)
        return series.range_values(start, end) if series is not None else []

    def increase(
        self, name: str, labels: dict[str, str] | None, start: float, end: float
    ) -> float:
        """Reset-adjusted increase over one exact series (0.0 if absent)."""
        series = self.get_series(name, labels)
        return series.increase(start, end) if series is not None else 0.0

    def rate(
        self, name: str, labels: dict[str, str] | None, window: float, at: float
    ) -> float | None:
        """Trailing-window rate over one exact series."""
        series = self.get_series(name, labels)
        return series.rate(window, at) if series is not None else None

    def time_span(self) -> tuple[float, float] | None:
        """Oldest and newest retained sample times across the store."""
        oldest: float | None = None
        newest: float | None = None
        for series in self._series.values():
            for end_t, _value, frame in series._points():
                start_t = frame.start if frame is not None else end_t
                oldest = start_t if oldest is None else min(oldest, start_t)
                break
            if series.raw:
                candidate = series.raw[-1][0]
            elif series.tier1:
                candidate = series.tier1[-1].end
            elif series.tier2:
                candidate = series.tier2[-1].end
            else:
                continue
            newest = candidate if newest is None else max(newest, candidate)
        if oldest is None or newest is None:
            return None
        return oldest, newest

    def stats(self) -> dict[str, Any]:
        """Store roll-up for dashboards and ``obs report``."""
        raw_cap, t1_cap, t2_cap = self.series_caps()
        return {
            "series": len(self._series),
            "samples": self.total_samples(),
            "budget": self.max_samples,
            "caps": {"raw": raw_cap, "tier1": t1_cap, "tier2": t2_cap},
            "scrapes": self.scrapes,
            "counter_resets": self.counter_resets,
            "dropped_frames": sum(
                series.dropped_frames for series in self._series.values()
            ),
        }

    # -- persistence -------------------------------------------------------

    def export_records(self) -> Iterator[dict[str, Any]]:
        """Typed JSONL records: one ``tsdb_meta`` then every series."""
        yield {
            "type": "tsdb_meta",
            "max_samples": self.max_samples,
            "fold": self.fold,
            "scrapes": self.scrapes,
            "counter_resets": self.counter_resets,
            "last_scrape_at": self.last_scrape_at,
        }
        for series in self.series():
            yield series.to_record()

    @classmethod
    def from_records(cls, records: Iterable[dict[str, Any]]) -> "TsdbStore":
        """Rebuild a store from :meth:`export_records` output.

        Non-TSDB records (a full ``obs top --jsonl`` export mixes in
        metrics, spans, frames) are skipped, so the whole export file
        can be fed straight in.
        """
        store: "TsdbStore" | None = None
        pending: list[dict[str, Any]] = []

        def _restore(into: "TsdbStore", record: dict[str, Any]) -> None:
            key = (record["name"], label_key(record.get("labels")))
            series = Series(key[0], key[1], record.get("kind", "gauge"), into)
            series.resets = int(record.get("resets", 0))
            series.dropped_frames = int(record.get("dropped_frames", 0))
            series.raw = deque(
                (float(at), float(value)) for at, value in record.get("raw", ())
            )
            series.tier1 = deque(
                Frame.from_list(raw) for raw in record.get("t1", ())
            )
            series.tier2 = deque(
                Frame.from_list(raw) for raw in record.get("t2", ())
            )
            into._series[key] = series

        for record in records:
            kind = record.get("type")
            if kind == "tsdb_meta":
                store = cls(
                    max_samples=int(record.get("max_samples", DEFAULT_MAX_SAMPLES)),
                    fold=int(record.get("fold", DEFAULT_FOLD)),
                )
                store.scrapes = int(record.get("scrapes", 0))
                store.counter_resets = int(record.get("counter_resets", 0))
                store.last_scrape_at = record.get("last_scrape_at")
            elif kind == "tsdb_series":
                if store is None:
                    pending.append(record)
                else:
                    _restore(store, record)
        if store is None:
            store = cls()
        for record in pending:
            _restore(store, record)
        store._caps = None
        return store


def format_le(bound: float) -> str:
    """The ``le`` label value for a bucket bound (Prometheus style)."""
    if bound == float("inf"):
        return "+Inf"
    if float(bound).is_integer():
        return str(int(bound))
    return repr(float(bound))


"""The one-pass log replay against the two-pass replay it replaced.

:class:`LogReplayStage` splits each shipped line once, checks its
template hash and extends the aggregate on raw digests.  The oracle
below is the stage as it was before: parse every line into an
:class:`ImaLogEntry`, check every template hash, then extend the hex
aggregate entry by entry with :func:`extend_digest`.  On any log -- good
entries, violations, malformed lines, tampered paths and digests,
uppercase template hashes, non-zero offsets and starting aggregates --
both must reach the same failures, the same entry accounting and the
same replay position.  So must the stage replaying through a shared
:class:`VerdictCache`, whose line memo skips the split and the template
hash of a line it has already checked: cold, warm, and warm with a
memoised line tampered.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hexutil import extend_digest, zero_digest
from repro.kernelsim.ima import (
    VIOLATION_EXTEND_VALUE,
    VIOLATION_FILEDATA_HASH,
    VIOLATION_TEMPLATE_HASH,
    ImaLogEntry,
    template_hash,
)
from repro.keylime import pipeline, policy
from repro.keylime.pipeline import (
    AgentSlot,
    FailureKind,
    LogReplayStage,
    RoundAborted,
    RoundContext,
    Stage,
)
from repro.keylime.policy import VerdictCache
from repro.obs.tracing import NULL_TRACER
from repro.tpm.pcr import IMA_PCR_INDEX


class TwoPassLogReplayStage(Stage):
    """The replay before the one-pass stage, kept as the oracle."""

    name = "log_replay"

    def run(self, ctx: RoundContext) -> None:
        slot = ctx.slot
        lines = ctx.evidence.ima_log_lines
        entries: list[ImaLogEntry] = []
        for line in lines:
            try:
                entry = ImaLogEntry.from_line(line)
            except ValueError as exc:
                ctx.abort(
                    FailureKind.LOG_TAMPERED, str(exc),
                    processed=len(entries), skipped=len(lines) - len(entries),
                )
            if not _is_violation(entry):
                expected = template_hash(entry.filedata_hash, entry.path)
                if entry.template_hash != expected:
                    ctx.abort(
                        FailureKind.LOG_TAMPERED,
                        f"template hash mismatch at {entry.path}",
                        processed=len(entries),
                        skipped=len(lines) - len(entries),
                    )
            entries.append(entry)
        aggregate = slot.replay_aggregate
        for entry in entries:
            if _is_violation(entry):
                aggregate = extend_digest("sha256", aggregate, VIOLATION_EXTEND_VALUE)
            else:
                aggregate = extend_digest("sha256", aggregate, entry.template_hash)
        quoted = ctx.evidence.quote.pcr_values[IMA_PCR_INDEX]
        if aggregate != quoted:
            ctx.abort(
                FailureKind.PCR_MISMATCH,
                f"IMA log replay {aggregate[:16]}... does not match quoted "
                f"PCR10 {quoted[:16]}...",
                skipped=len(entries),
            )
        slot.replay_aggregate = aggregate
        slot.verified_entries = ctx.evidence.offset + len(entries)
        ctx.entries = entries


def _is_violation(entry: ImaLogEntry) -> bool:
    return (
        entry.template_hash == VIOLATION_TEMPLATE_HASH
        and entry.filedata_hash == VIOLATION_FILEDATA_HASH
    )


def _digest(seed: bytes) -> str:
    return hashlib.sha256(seed).hexdigest()


def _line(kind: str, path: str, seed: bytes) -> str:
    """One shipped log line of the given *kind*."""
    filedata = "sha256:" + _digest(seed)
    good = template_hash(filedata, path)
    if kind == "normal":
        return f"10 {good} ima-ng {filedata} {path}"
    if kind == "violation":
        return f"10 {VIOLATION_TEMPLATE_HASH} ima-ng {VIOLATION_FILEDATA_HASH} {path} (ToMToU)"
    if kind == "four_fields":
        return f"10 {good} ima-ng {filedata}"
    if kind == "bad_pcr":
        return f"1O {good} ima-ng {filedata} {path}"
    if kind == "odd_pcr":  # int() accepts these: both replays must agree
        return f"+1_0 {good} ima-ng {filedata} {path}"
    if kind == "tampered_path":
        return f"10 {good} ima-ng {filedata} {path}.evil"
    if kind == "tampered_digest":
        return f"10 {good} ima-ng sha256:{_digest(seed + b'!')} {path}"
    if kind == "uppercase":
        return f"10 {good.upper()} ima-ng {filedata} {path}"
    if kind == "zero_template":  # zeros logged over a real file digest
        return f"10 {VIOLATION_TEMPLATE_HASH} ima-ng {filedata} {path}"
    raise AssertionError(kind)


_PATHS = st.sampled_from(
    ["/usr/bin/a", "/usr/bin/with space", "/opt/ü", "boot_aggregate", "/x"]
)
_CLEAN = st.sampled_from(["normal", "normal", "normal", "violation"])
_FAULTY = st.sampled_from([
    "four_fields", "bad_pcr", "odd_pcr", "tampered_path", "tampered_digest",
    "uppercase", "zero_template",
])


@st.composite
def shipped_logs(draw):
    """(start aggregate, offset, lines, quoted PCR 10) for one round."""
    kinds = draw(st.lists(_CLEAN, max_size=12))
    if draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), draw(_FAULTY))
    lines = [
        _line(kind, draw(_PATHS), bytes([index]))
        for index, kind in enumerate(kinds)
    ]
    start = draw(st.sampled_from([zero_digest("sha256"), _digest(b"earlier")]))
    offset = draw(st.sampled_from([0, 1, 600]))
    quoted = _true_quote(start, lines) if draw(st.booleans()) else _digest(b"wrong")
    return start, offset, tuple(lines), quoted


def _true_quote(start: str, lines) -> str:
    """PCR 10 after extending each line's logged template hash."""
    quoted = start
    for line in lines:
        logged = line.split(" ")[1]
        if logged == VIOLATION_TEMPLATE_HASH:
            logged = VIOLATION_EXTEND_VALUE
        quoted = extend_digest("sha256", quoted, logged)
    return quoted


def _tamper_path(line: str) -> str:
    return line + ".evil"


def _tamper_digest(line: str) -> str:
    """Flip the last hex digit of the file digest, the path kept."""
    pcr, logged, template, filedata, path = line.split(" ", 4)
    flipped = filedata[:-1] + ("1" if filedata.endswith("0") else "0")
    return " ".join((pcr, logged, template, flipped, path))


_TAMPERS = st.sampled_from([_tamper_path, _tamper_digest])


def _replay(stage: Stage, start: str, offset: int, lines, quoted: str,
            cache: VerdictCache | None = None):
    slot = AgentSlot(agent=None, policy=None, replay_aggregate=start,
                     verified_entries=offset)
    evidence = SimpleNamespace(
        ima_log_lines=lines, offset=offset,
        quote=SimpleNamespace(pcr_values={IMA_PCR_INDEX: quoted}),
    )
    ctx = RoundContext(agent_id="a", slot=slot, record=None, now=5.0,
                       rng=None, tracer=NULL_TRACER, evidence=evidence,
                       cache=cache)
    try:
        stage.run(ctx)
        aborted = False
    except RoundAborted:
        aborted = True
    return (
        aborted, ctx.failures, ctx.entries_processed, ctx.entries_skipped,
        ctx.entries, slot.replay_aggregate, slot.verified_entries,
    )


class TestOnePassMatchesTwoPass:
    @settings(max_examples=300, deadline=None)
    @given(shipped_logs())
    def test_same_outcome_on_any_log(self, shipped):
        assert _replay(LogReplayStage(), *shipped) == _replay(
            TwoPassLogReplayStage(), *shipped
        )

    def test_clean_log_replays_to_the_quote(self):
        """A log the generator quotes truly passes, so the property
        above is not vacuously comparing aborts."""
        lines = tuple(
            _line(kind, "/usr/bin/a", bytes([index]))
            for index, kind in enumerate(["normal", "violation", "normal"])
        )
        quoted = _true_quote(zero_digest("sha256"), lines)
        aborted, failures, _, _, entries, aggregate, verified = _replay(
            LogReplayStage(), zero_digest("sha256"), 7, lines, quoted
        )
        assert (aborted, failures) == (False, [])
        assert [entry.to_line() for entry in entries] == list(lines)
        assert (aggregate, verified) == (quoted, 10)

    def test_each_fault_is_reported_where_it_sits(self):
        good = _line("normal", "/usr/bin/a", b"\x01")
        for kind, detail in [
            ("four_fields", "malformed IMA log line: {bad!r}"),
            ("bad_pcr", "invalid literal for int() with base 10: '1O'"),
            ("tampered_path", "template hash mismatch at /usr/bin/b.evil"),
            ("tampered_digest", "template hash mismatch at /usr/bin/b"),
            ("uppercase", "template hash mismatch at /usr/bin/b"),
            ("zero_template", "template hash mismatch at /usr/bin/b"),
        ]:
            bad = _line(kind, "/usr/bin/b", b"\x02")
            aborted, failures, processed, skipped, *_ = _replay(
                LogReplayStage(), zero_digest("sha256"), 0, (good, bad, good),
                "0" * 64,
            )
            assert aborted, kind
            assert [(f.kind, f.detail) for f in failures] == [
                (FailureKind.LOG_TAMPERED, detail.format(bad=bad))
            ], kind
            assert (processed, skipped) == (1, 2), kind


def _fleet_log(size: int = 601):
    """A clean *size*-line log with a violation every 50 lines, and its
    true quote."""
    lines = tuple(
        _line("violation" if index % 50 == 7 else "normal",
              f"/usr/bin/tool-{index}", index.to_bytes(2, "big"))
        for index in range(size)
    )
    return lines, _true_quote(zero_digest("sha256"), lines)


class TestSharedLineMemo:
    @settings(max_examples=300, deadline=None)
    @given(shipped_logs(), st.data())
    def test_cold_warm_and_tampered_match_the_oracle(self, shipped, data):
        start, offset, lines, quoted = shipped
        cache = VerdictCache()
        oracle = _replay(TwoPassLogReplayStage(), *shipped)
        assert _replay(LogReplayStage(), *shipped, cache=cache) == oracle
        assert _replay(LogReplayStage(), *shipped, cache=cache) == oracle
        memoised = [index for index, line in enumerate(lines) if line in cache.line_memo]
        if memoised:
            index = data.draw(st.sampled_from(memoised))
            bad = data.draw(_TAMPERS)(lines[index])
            tampered = (*lines[:index], bad, *lines[index + 1:])
            assert _replay(
                LogReplayStage(), start, offset, tampered, quoted, cache=cache
            ) == _replay(TwoPassLogReplayStage(), start, offset, tampered, quoted)

    def test_tampered_memoised_line_is_caught_where_it_sits(self):
        """The property above is not vacuous: a warm memo holds the whole
        clean log, and a tampered copy of a memoised line still aborts at
        that line."""
        lines, quoted = _fleet_log(size=5)
        cache = VerdictCache()
        _replay(LogReplayStage(), zero_digest("sha256"), 0, lines, quoted, cache=cache)
        assert list(cache.line_memo) == list(lines)
        for tamper in (_tamper_path, _tamper_digest):
            bad = tamper(lines[2])
            aborted, failures, processed, skipped, *_ = _replay(
                LogReplayStage(), zero_digest("sha256"), 0,
                (*lines[:2], bad, *lines[3:]), quoted, cache=cache,
            )
            assert aborted
            assert [f.kind for f in failures] == [FailureKind.LOG_TAMPERED]
            assert (processed, skipped) == (2, 3)
            assert bad not in cache.line_memo

    def test_each_line_is_hashed_once_per_fleet(self, monkeypatch):
        """Counted, not timed: a cold replay computes one template hash
        per non-violation line, a warm one none -- also from another
        stage sharing the cache -- and without a cache every replay
        computes them all."""
        calls = [0]
        real = pipeline.template_hash

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(pipeline, "template_hash", counted)
        lines, quoted = _fleet_log()
        checked = sum(VIOLATION_TEMPLATE_HASH not in line for line in lines)
        assert (len(lines), checked) == (601, 589)
        cache = VerdictCache()
        start = zero_digest("sha256")
        for stage, cache_of_round, expected in [
            (LogReplayStage(), cache, checked),  # cold
            (LogReplayStage(), cache, 0),  # warm, another agent's stage
            (LogReplayStage(), None, checked),  # uncached: every round
        ]:
            calls[0] = 0
            aborted, failures, *_, aggregate, verified = _replay(
                stage, start, 0, lines, quoted, cache=cache_of_round
            )
            assert (aborted, failures, aggregate, verified) == (False, [], quoted, 601)
            assert calls[0] == expected

    def test_memo_leaves_the_verdict_counts_alone(self):
        lines, quoted = _fleet_log()
        cache = VerdictCache()
        for _ in range(2):
            _replay(LogReplayStage(), zero_digest("sha256"), 0, lines, quoted, cache=cache)
        assert len(cache.line_memo) == 601
        assert (cache.hits, cache.misses, len(cache), cache.evictions) == (0, 0, 0, 0)

    def test_fifo_eviction_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(policy, "LINE_MEMO_BOUND", 3)
        lines, quoted = _fleet_log(size=5)
        cache = VerdictCache()
        _replay(LogReplayStage(), zero_digest("sha256"), 0, lines, quoted, cache=cache)
        assert list(cache.line_memo) == list(lines[2:])
        # A replay of the evicted head re-checks it and evicts the oldest.
        _replay(LogReplayStage(), zero_digest("sha256"), 0, lines[:1],
                _true_quote(zero_digest("sha256"), lines[:1]), cache=cache)
        assert list(cache.line_memo) == [lines[3], lines[4], lines[0]]

    def test_long_lines_are_not_memoised(self):
        lines = (
            _line("normal", "/bin/a", b"\x01"),
            _line("normal", "/usr/bin/" + "a" * policy.LINE_MEMO_MAX_CHARS, b"\x02"),
        )
        quoted = _true_quote(zero_digest("sha256"), lines)
        cache = VerdictCache()
        for _ in range(2):
            aborted, failures, *_ = _replay(
                LogReplayStage(), zero_digest("sha256"), 0, lines, quoted, cache=cache
            )
            assert (aborted, failures) == (False, [])
        assert list(cache.line_memo) == [lines[0]]

    def test_clear_empties_the_memo(self):
        lines, quoted = _fleet_log(size=3)
        cache = VerdictCache()
        _replay(LogReplayStage(), zero_digest("sha256"), 0, lines, quoted, cache=cache)
        assert cache.line_memo
        cache.clear()
        assert cache.line_memo == {}

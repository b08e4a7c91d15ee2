"""Keylime runtime policies: allowlist + excludes.

A runtime policy is what the verifier checks IMA entries against:

* ``digests`` -- path -> list of accepted SHA-256 hex digests (a path
  accumulates several digests as updates append new versions, which is
  how the dynamic generator keeps the system in-policy *during* the
  update window);
* ``excludes`` -- regular expressions; an IMA entry whose path matches
  any of them is skipped entirely.

The exclude list in :data:`IBM_STYLE_EXCLUDES` reproduces the study's
initial policy: it skips ``/tmp`` and friends "to improve attestation
efficiency and reduce false positives" -- and is exactly the paper's
**P1**.

The JSON encoding follows the shape of Keylime's runtime policy format
(a ``digests`` map and an ``excludes`` list) so the policy files the
experiments write look like the real thing.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from enum import Enum

from repro.common.errors import ConfigurationError
from repro.common.hexutil import is_hex_digest, sha256_hex
from repro.kernelsim.ima import ImaLogEntry, VIOLATION_TEMPLATE_HASH
from repro.kernelsim.kernel import Machine

#: Process-wide ids so verdict caches can key on a policy's identity
#: without holding a reference to it.
_POLICY_UIDS = itertools.count(1)

#: Bytes of one ``'<sha256>  <path>\n'`` policy line, not counting the path.
_LINE_OVERHEAD = 64 + 2 + 1

#: Characters that disqualify an exclude body from the literal fast path.
_REGEX_METACHARS = frozenset(".^$*+?{}[]|()\\")

#: Shipped log lines :attr:`VerdictCache.line_memo` holds before FIFO
#: eviction.  A memoised line holds the line, its parsed fields, the
#: 32-byte extend value and a table slot: about 830 B for the
#: 178-character line of a 31-character path, plus 2 B per character
#: more.  A full memo of such lines is about 27 MB.
LINE_MEMO_BOUND = 32_768

#: Longest line the memo keeps.  An ima-ng line is 147 characters plus
#: its path; a longer line is checked in full every round, so unique
#: lines cost at most about 1.5 KB each and a full memo about 50 MB.
LINE_MEMO_MAX_CHARS = 512


def exclude_fast_path(pattern: str) -> tuple[str, str] | None:
    """Decompose an anchored-literal exclude into its fast-path form.

    Returns ``(kind, literal)`` for the recognised shapes, ``None`` when
    the pattern needs the regex fallback:

    * ``^LIT$`` -> ``("exact", LIT)`` -- the path itself;
    * ``^LIT(/.*)?$`` -> ``("tree", LIT)`` -- the path or anything below it
      (the shape of every directory exclude in :data:`IBM_STYLE_EXCLUDES`);
    * ``^LIT/.*$`` -> ``("children", LIT)`` -- strictly below the path;
    * ``^LIT`` -> ``("prefix", LIT)`` -- raw prefix (no end anchor).
    """
    if not pattern.startswith("^"):
        return None
    body = pattern[1:]
    if body.endswith("(/.*)?$"):
        kind, body = "tree", body[: -len("(/.*)?$")]
    elif body.endswith("/.*$"):
        kind, body = "children", body[: -len("/.*$")]
    elif body.endswith("$"):
        kind, body = "exact", body[:-1]
    else:
        kind = "prefix"
    if not body or any(ch in _REGEX_METACHARS for ch in body):
        return None
    return kind, body


class ExcludeIndex:
    """Compiled exclude patterns behind a two-tier matcher.

    Anchored-literal patterns (the overwhelmingly common shape -- see
    :func:`exclude_fast_path`) are answered with set membership and
    string-prefix checks; everything else falls back to compiled
    regexes, preserving ``re.match`` semantics exactly.
    """

    def __init__(self, patterns: list[str] | None = None) -> None:
        self.rebuild(patterns or [])

    def rebuild(self, patterns: list[str]) -> None:
        """Recompile the index from scratch (mutations are rare)."""
        exact: set[str] = set()
        prefixes: list[str] = []
        regexes: list[re.Pattern[str]] = []
        fast = 0
        for pattern in patterns:
            decomposed = exclude_fast_path(pattern)
            if decomposed is None:
                regexes.append(re.compile(pattern))
                continue
            fast += 1
            kind, literal = decomposed
            if kind == "exact":
                exact.add(literal)
            elif kind == "tree":
                exact.add(literal)
                prefixes.append(literal + "/")
            elif kind == "children":
                prefixes.append(literal + "/")
            else:  # prefix
                prefixes.append(literal)
        self._exact = exact
        self._prefixes = tuple(prefixes)
        self._regexes = tuple(regexes)
        self.fast_path_count = fast
        self.fallback_count = len(regexes)

    def matches(self, path: str) -> bool:
        """True when any exclude pattern matches *path*."""
        if path in self._exact:
            return True
        for prefix in self._prefixes:
            if path.startswith(prefix):
                return True
        for regex in self._regexes:
            if regex.match(path):
                return True
        return False

#: Exclude patterns of the study's initial (IBM Research) policy.  The
#: /tmp exclusion is P1; the others are the usual noise suppressors.
IBM_STYLE_EXCLUDES = (
    r"^/tmp(/.*)?$",
    r"^/var/tmp(/.*)?$",
    r"^/run(/.*)?$",
    r"^/var/log(/.*)?$",
    r"^/usr/local(/.*)?$",
    r"^/home/[^/]+/\.cache(/.*)?$",
)

#: Entry name IMA gives the first post-boot record.
BOOT_AGGREGATE_PATH = "boot_aggregate"


class EntryVerdict(Enum):
    """Per-entry evaluation outcome."""

    ACCEPT = "accept"
    EXCLUDED = "excluded"
    BOOT_AGGREGATE = "boot_aggregate"
    HASH_MISMATCH = "hash_mismatch"
    NOT_IN_POLICY = "not_in_policy"
    VIOLATION = "violation"

    @property
    def is_failure(self) -> bool:
        """True for the verdicts that fail attestation."""
        return self in (
            EntryVerdict.HASH_MISMATCH,
            EntryVerdict.NOT_IN_POLICY,
            EntryVerdict.VIOLATION,
        )


@dataclass(frozen=True)
class PolicyFailure:
    """One failed policy check (becomes an attestation failure)."""

    verdict: EntryVerdict
    path: str
    measured_digest: str
    expected_digests: tuple[str, ...] = ()

    def describe(self) -> str:
        """Human-readable description, mirroring Keylime's error strings."""
        if self.verdict is EntryVerdict.HASH_MISMATCH:
            return (
                f"hash mismatch for {self.path}: measured "
                f"{self.measured_digest[:16]}..., policy has "
                f"{len(self.expected_digests)} accepted digest(s)"
            )
        if self.verdict is EntryVerdict.VIOLATION:
            return f"IMA measurement violation: {self.path}"
        return f"file not found in policy: {self.path}"


class RuntimePolicy:
    """An allowlist policy with exclude patterns."""

    def __init__(
        self,
        digests: dict[str, list[str]] | None = None,
        excludes: list[str] | None = None,
        name: str = "runtime-policy",
    ) -> None:
        self.name = name
        self.uid = next(_POLICY_UIDS)
        self.generation = 0
        self._digests: dict[str, list[str]] = {}
        self._digest_sets: dict[str, set[str]] = {}
        # Running totals behind line_count()/size_bytes(), kept by the
        # two mutators (add_digest, dedupe_for_paths).
        self._line_count = 0
        self._size_bytes = 0
        for path, values in (digests or {}).items():
            for value in values:
                self.add_digest(path, value)
        self.excludes: list[str] = list(excludes or [])
        self._exclude_index = ExcludeIndex(self.excludes)
        self.generation = 0  # construction is generation zero

    # -- construction / mutation ------------------------------------------

    def bump_generation(self) -> int:
        """Advance the generation stamp, invalidating cached verdicts.

        Every mutating method calls this; :class:`VerdictCache` keys on
        ``(uid, generation, ...)`` so a bump makes all previously cached
        verdicts unreachable without touching the cache itself.
        """
        self.generation += 1
        return self.generation

    def add_digest(self, path: str, digest: str) -> bool:
        """Add an accepted digest for *path*; returns True when new."""
        if not is_hex_digest(digest, "sha256"):
            raise ConfigurationError(
                f"policy digest for {path!r} is not sha256 hex: {digest!r}"
            )
        bucket = self._digest_sets.get(path)
        if bucket is not None and digest in bucket:
            return False
        if bucket is None:
            self._digest_sets[path] = {digest}
            self._digests[path] = [digest]
        else:
            bucket.add(digest)
            self._digests[path].append(digest)
        self._line_count += 1
        self._size_bytes += _LINE_OVERHEAD + len(path)
        self.bump_generation()
        return True

    def add_exclude(self, pattern: str) -> None:
        """Add an exclude regex."""
        self.excludes.append(pattern)
        self._exclude_index.rebuild(self.excludes)
        self.bump_generation()

    def remove_exclude(self, pattern: str) -> None:
        """Remove an exclude regex (mitigation M1 narrows the excludes)."""
        if pattern in self.excludes:
            self.excludes.remove(pattern)
            self._exclude_index.rebuild(self.excludes)
            self.bump_generation()

    def merge_measurements(self, measurements: dict[str, str]) -> int:
        """Append path -> digest pairs; returns the number of new entries.

        This is the dynamic generator's append operation: existing
        digests are retained so the machine stays in-policy during the
        update window (Section III-C, policy-file consistency).
        """
        added = 0
        for path, digest in measurements.items():
            if self.add_digest(path, digest):
                added += 1
        return added

    def dedupe_for_paths(self, keep: dict[str, str]) -> int:
        """Post-update dedup: for each path in *keep*, drop other digests.

        Returns the number of digests removed.  The paper performs this
        after the update settles, shrinking the policy back down.

        A path whose wanted digest is *not* already in the policy is
        left untouched: dedup only ever narrows the allowlist, it never
        admits content the generator has not measured (otherwise an
        out-of-band install -- the incident scenario -- would be
        laundered into the policy by the cleanup step).
        """
        removed = 0
        for path, digest in keep.items():
            bucket = self._digest_sets.get(path)
            if bucket is None or digest not in bucket:
                continue
            dropped = len(bucket) - 1
            self._digests[path] = [digest]
            self._digest_sets[path] = {digest}
            self._size_bytes -= dropped * (_LINE_OVERHEAD + len(path))
            removed += dropped
        if removed:
            self._line_count -= removed
            self.bump_generation()
        return removed

    # -- queries ------------------------------------------------------------

    @property
    def digests(self) -> dict[str, list[str]]:
        """path -> accepted digests (a shallow copy)."""
        return {path: list(values) for path, values in self._digests.items()}

    def digests_for(self, path: str) -> tuple[str, ...]:
        """Accepted digests for *path* (empty when absent)."""
        return tuple(self._digests.get(path, ()))

    def contested_paths(self) -> set[str]:
        """Paths holding more than one accepted digest.

        Only these can lose a digest in :meth:`dedupe_for_paths`; a
        single-digest path already holds exactly what it keeps.
        """
        return {path for path, bucket in self._digest_sets.items() if len(bucket) > 1}

    def covers_path(self, path: str) -> bool:
        """True when the policy has an allowlist entry for *path*."""
        return path in self._digests

    def is_excluded(self, path: str) -> bool:
        """True when any exclude pattern matches *path*.

        Answered by the :class:`ExcludeIndex` -- anchored-literal
        patterns cost a set/prefix probe, the rest a regex scan.
        """
        return self._exclude_index.matches(path)

    def line_count(self) -> int:
        """Number of (path, digest) lines -- the unit of Fig 5 / E9."""
        return self._line_count

    def size_bytes(self) -> int:
        """Approximate on-disk size: one '<sha256>  <path>' line per digest."""
        return self._size_bytes

    # -- evaluation -----------------------------------------------------------

    def evaluate_entry(self, entry: ImaLogEntry) -> tuple[EntryVerdict, PolicyFailure | None]:
        """Evaluate one IMA entry; returns (verdict, failure-or-None)."""
        if entry.path == BOOT_AGGREGATE_PATH:
            return EntryVerdict.BOOT_AGGREGATE, None
        measured = entry.filedata_hash.split(":", 1)[-1]
        if measured == "0" * 64:
            # An IMA violation (ToMToU / open-writers): the measured
            # content is untrustworthy by the kernel's own admission.
            # The path may carry a " (ToMToU)" suffix; excludes apply
            # to the file path itself.
            bare_path = entry.path.split(" (", 1)[0]
            if self.is_excluded(bare_path):
                return EntryVerdict.EXCLUDED, None
            failure = PolicyFailure(
                verdict=EntryVerdict.VIOLATION,
                path=entry.path,
                measured_digest=measured,
            )
            return EntryVerdict.VIOLATION, failure
        if self.is_excluded(entry.path):
            return EntryVerdict.EXCLUDED, None
        accepted = self._digest_sets.get(entry.path)
        if accepted is None:
            failure = PolicyFailure(
                verdict=EntryVerdict.NOT_IN_POLICY,
                path=entry.path,
                measured_digest=measured,
            )
            return EntryVerdict.NOT_IN_POLICY, failure
        if measured not in accepted:
            failure = PolicyFailure(
                verdict=EntryVerdict.HASH_MISMATCH,
                path=entry.path,
                measured_digest=measured,
                expected_digests=tuple(self._digests[entry.path]),
            )
            return EntryVerdict.HASH_MISMATCH, failure
        return EntryVerdict.ACCEPT, None

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        """Serialise in the shape of Keylime's runtime policy JSON."""
        payload = {
            "meta": {"version": 1, "generator": "repro", "name": self.name},
            "digests": {path: values for path, values in sorted(self._digests.items())},
            "excludes": list(self.excludes),
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "RuntimePolicy":
        """Parse a policy serialised by :meth:`to_json`."""
        payload = json.loads(blob)
        return cls(
            digests=payload.get("digests", {}),
            excludes=payload.get("excludes", []),
            name=payload.get("meta", {}).get("name", "runtime-policy"),
        )

    def copy(self, name: str | None = None) -> "RuntimePolicy":
        """Deep copy (experiments snapshot policies before mutating)."""
        return RuntimePolicy(
            digests=self.digests,
            excludes=list(self.excludes),
            name=name or self.name,
        )


class VerdictCache:
    """Fleet-wide memo of per-entry policy verdicts.

    A policy verdict is a pure function of ``(policy state, path,
    filedata hash)``, and a fleet of same-distro nodes measures nearly
    identical files -- so evaluation cost should be O(unique digests),
    not O(agents x entries).  Buckets are keyed by ``(policy.uid,
    policy.generation)``: any policy mutation (or a verifier
    ``update_policy`` push) bumps the generation, making every
    previously cached verdict unreachable without an explicit flush.

    Within a generation, entries are keyed by their IMA **template
    hash** -- already a collision-resistant digest of ``(filedata hash,
    path)``, and already verified against the log by the replay stage
    before policy evaluation sees the entry -- so a lookup costs one
    string-keyed ``dict.get``.  Violation entries are the one exception
    (the kernel logs them with a constant zero template), so their key
    gets the path appended; see :meth:`entry_key`.

    The cache stores the exact ``(EntryVerdict, PolicyFailure | None)``
    pair :meth:`RuntimePolicy.evaluate_entry` returns; both are
    immutable, so sharing across agents is safe.  Size is bounded by
    FIFO eviction (stale generations age out with it).

    The cache also carries the log-replay stage's line memo,
    :attr:`line_memo`: exact shipped line -> ``(ImaLogEntry, extend
    value)``, what the parse and the template-hash check make of a line
    that passed both.  It depends on no policy, so it is one table for
    every generation.  It is FIFO-bounded at :data:`LINE_MEMO_BOUND`
    lines of at most :data:`LINE_MEMO_MAX_CHARS` characters, it leaves
    :attr:`hits`, :attr:`misses` and ``len()`` -- which count verdicts
    only -- untouched, and nothing persists it.
    """

    def __init__(self, max_entries: int = 262_144) -> None:
        if max_entries < 1:
            raise ConfigurationError("verdict cache needs at least one slot")
        self.max_entries = max_entries
        #: ``(policy uid, generation) -> {entry key -> outcome}``.
        #: Read-only to callers; all writes go through :meth:`insert`.
        self.store: dict[
            tuple[int, int], dict[str, tuple[EntryVerdict, PolicyFailure | None]]
        ] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Shipped line -> ``(entry, extend value)``.  Read-only to
        #: callers; all writes go through :meth:`memoise_line`.
        self.line_memo: dict[str, tuple[ImaLogEntry, bytes]] = {}

    def __len__(self) -> int:
        return self._size

    @staticmethod
    def entry_key(entry: ImaLogEntry) -> str:
        """Bucket key for *entry*: its (verified) template hash.

        Violation entries all share the zero template, but their
        verdict depends on the path (excludes apply), so the path is
        appended to keep them distinct.
        """
        key = entry.template_hash
        if key == VIOLATION_TEMPLATE_HASH:
            key += entry.path
        return key

    def view(self, policy: RuntimePolicy) -> dict:
        """The live lookup table for *policy*'s current generation.

        The pipeline's hot loop fetches this once per round and probes
        it directly -- one ``dict.get`` per entry, no method call.
        """
        gen_key = (policy.uid, policy.generation)
        bucket = self.store.get(gen_key)
        if bucket is None:
            bucket = self.store[gen_key] = {}
        return bucket

    def insert(
        self, policy: RuntimePolicy, entry: ImaLogEntry
    ) -> tuple[EntryVerdict, PolicyFailure | None]:
        """Evaluate *entry* uncached and memoise it (the miss path)."""
        self.misses += 1
        outcome = policy.evaluate_entry(entry)
        if self._size >= self.max_entries:
            while True:  # oldest entry of the oldest non-empty bucket
                gen_key, bucket = next(iter(self.store.items()))
                if bucket:
                    del bucket[next(iter(bucket))]
                    break
                del self.store[gen_key]
            self.evictions += 1
            self._size -= 1
        self.view(policy)[self.entry_key(entry)] = outcome
        self._size += 1
        return outcome

    def evaluate(
        self, policy: RuntimePolicy, entry: ImaLogEntry
    ) -> tuple[EntryVerdict, PolicyFailure | None]:
        """Evaluate *entry* against *policy*, memoised across agents."""
        cached = self.view(policy).get(self.entry_key(entry))
        if cached is not None:
            self.hits += 1
            return cached
        return self.insert(policy, entry)

    def memoise_line(self, line: str, entry: ImaLogEntry, value: bytes) -> None:
        """Memoise a line that passed the replay's parse and template check.

        Lines longer than :data:`LINE_MEMO_MAX_CHARS` are not kept.
        """
        if len(line) > LINE_MEMO_MAX_CHARS:
            return
        memo = self.line_memo
        while len(memo) >= LINE_MEMO_BOUND:
            del memo[next(iter(memo))]  # oldest first
        memo[line] = (entry, value)

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every cached verdict and memoised line (stats are kept)."""
        self.store.clear()
        self.line_memo.clear()
        self._size = 0


def build_policy_from_machine(
    machine: Machine,
    excludes: tuple[str, ...] = IBM_STYLE_EXCLUDES,
    root: str = "/",
    name: str = "initial-policy",
) -> RuntimePolicy:
    """The study's initial policy: hash every executable on the machine.

    Reproduces the "bash script recursively goes into each directory
    ... takes the SHA256 hash for executable files" construction,
    including its blind spots: whatever is *currently* on disk is
    trusted, and excluded directories are never listed.
    """
    policy = RuntimePolicy(excludes=list(excludes), name=name)
    for path in machine.vfs.executables(root):
        if policy.is_excluded(path):
            continue
        content = machine.vfs.read_file(path)
        policy.add_digest(path, sha256_hex(content))
    return policy

"""Consistent-hash shard assignment for a multi-verifier fleet.

The single-verifier ceiling is the last scalability wall in the
reproduction (ROADMAP item 2): one :class:`~repro.keylime.verifier
.KeylimeVerifier` owns every agent, so attestation cost grows linearly
in fleet size with nothing to spread it over.  This module provides the
assignment layer that splits a fleet across N verifiers:

* :class:`ConsistentHashRing` -- a seeded hash ring with virtual nodes.
  Every member contributes ``vnodes`` points derived by SHA-256 from
  ``(seed, member, replica)``; an agent id hashes to a point and is
  owned by the next member point clockwise.  The construction draws
  **nothing** from any RNG stream -- assignment is a pure function of
  ``(seed, members, key)`` -- so two rigs built from the same seed agree
  on every placement without exchanging a byte, and adding a draw
  anywhere else in the simulation cannot perturb shard layout.
* :class:`MigrationPlan` -- the exact key movement a membership change
  causes.  Consistent hashing's contract is *minimal movement*: a join
  moves only the keys that land on the joining member, a leave moves
  only the departed member's keys, and every other assignment is
  untouched.  :meth:`ConsistentHashRing.plan_join` /
  :meth:`~ConsistentHashRing.plan_leave` compute the before/after
  assignments in one step so callers can apply the moves atomically --
  no agent is ever unassigned, even transiently.

The ring assigns agents to **shards** (stable logical verifiers).  Who
*hosts* a shard is a separate, failure-driven concern: on a verifier
outage the whole shard moves to an adopter via a statestore snapshot
(see :meth:`repro.keylime.fleet.Fleet.shard`), which keeps the
shard's RNG streams, verdict history and audit chain intact -- the ring
itself never changes on failure, only on explicit join/leave.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.common.errors import ConfigurationError, StateError

#: Default virtual nodes per ring member.  64 points per member keeps
#: the max/mean shard-size ratio tight enough that the sharded
#: throughput bench meets its near-linear scaling floor.
DEFAULT_VNODES = 64


def _hash64(material: str) -> int:
    """The ring position of *material*: the top 64 bits of its SHA-256."""
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Migration:
    """One agent's move between shards in a rebalance."""

    key: str
    source: str
    target: str


@dataclass(frozen=True)
class MigrationPlan:
    """The complete, minimal key movement of one membership change.

    ``kind`` is ``"join"`` or ``"leave"``; ``member`` the shard joining
    or departing; ``assignment`` the *post-change* total assignment.
    The minimal-movement contract is structural: every move of a join
    targets the joining member, every move of a leave sources the
    departing member, and ``assignment`` covers exactly the planned
    keys -- nothing is ever left unassigned.
    """

    kind: str
    member: str
    moves: tuple[Migration, ...]
    assignment: dict[str, str]

    @property
    def moved_keys(self) -> tuple[str, ...]:
        return tuple(move.key for move in self.moves)


class ConsistentHashRing:
    """A seeded consistent-hash ring with virtual nodes.

    Members are stable shard identifiers (strings); keys are agent ids.
    All placement is derived from SHA-256 over ``(seed, ...)`` material,
    so the ring is deterministic per seed and makes zero RNG draws --
    the same discipline :mod:`repro.keylime.faults` uses for zero-draw
    no-op plans.
    """

    def __init__(self, seed: str, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.seed = str(seed)
        self.vnodes = vnodes
        self._members: set[str] = set()
        # Sorted (point, member) pairs; ties (cosmically unlikely with
        # 64-bit points) break on the member name so iteration order is
        # still total.
        self._points: list[tuple[int, str]] = []

    # -- membership --------------------------------------------------------

    @property
    def members(self) -> tuple[str, ...]:
        """Current ring members, sorted."""
        return tuple(sorted(self._members))

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def __len__(self) -> int:
        return len(self._members)

    def add(self, member: str) -> None:
        """Add *member* (``vnodes`` points) to the ring."""
        if member in self._members:
            raise StateError(f"ring already contains member {member!r}")
        self._members.add(member)
        for replica in range(self.vnodes):
            point = _hash64(f"{self.seed}|vnode|{member}|{replica}")
            self._points.append((point, member))
        self._points.sort()

    def remove(self, member: str) -> None:
        """Remove *member* and all its points from the ring."""
        if member not in self._members:
            raise StateError(f"ring has no member {member!r}")
        self._members.discard(member)
        self._points = [
            pair for pair in self._points if pair[1] != member
        ]

    # -- assignment --------------------------------------------------------

    def _key_point(self, key: str) -> int:
        return _hash64(f"{self.seed}|key|{key}")

    def owner(self, key: str, among: Iterable[str] | None = None) -> str:
        """The member owning *key*: the next member point clockwise.

        *among* restricts the walk to a member subset (the failover
        adopter choice walks the same ring with the failed host
        excluded, so adoption is as deterministic as assignment).
        """
        live = self._members if among is None else (set(among) & self._members)
        if not live:
            raise StateError("ring has no eligible members to own the key")
        point = self._key_point(key)
        index = bisect_right(self._points, (point, "￿"))
        for step in range(len(self._points)):
            _, member = self._points[(index + step) % len(self._points)]
            if member in live:
                return member
        raise StateError("ring walk found no eligible member")  # pragma: no cover

    def assignment(
        self, keys: Sequence[str], among: Iterable[str] | None = None
    ) -> dict[str, str]:
        """``{key: owner}`` for every key (total by construction)."""
        live = None if among is None else set(among)
        return {key: self.owner(key, among=live) for key in keys}

    def shard_sizes(self, keys: Sequence[str]) -> dict[str, int]:
        """``{member: key count}``, including zero-key members."""
        sizes = {member: 0 for member in self._members}
        for owner in self.assignment(keys).values():
            sizes[owner] += 1
        return sizes

    def fingerprint(self, keys: Sequence[str] = ()) -> str:
        """SHA-256 over the ring layout (and *keys*' assignment).

        The determinism-audit handle: two same-seed rings with the same
        membership produce byte-identical fingerprints, so a bench or a
        CI step can assert "+0.0%" placement drift across runs.
        """
        payload = {
            "seed": self.seed,
            "vnodes": self.vnodes,
            "points": [[point, member] for point, member in self._points],
            "assignment": self.assignment(keys) if keys else {},
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    # -- rebalancing -------------------------------------------------------

    def plan_join(self, keys: Sequence[str], member: str) -> MigrationPlan:
        """Add *member* and return the minimal moves it attracts.

        Only keys whose clockwise walk now stops at one of the new
        member's points move; every other key keeps its owner.  The
        ring is mutated (the join is applied) before this returns.
        """
        before = self.assignment(keys)
        self.add(member)
        after = self.assignment(keys)
        moves = tuple(
            Migration(key=key, source=before[key], target=after[key])
            for key in keys
            if after[key] != before[key]
        )
        return MigrationPlan(
            kind="join", member=member, moves=moves, assignment=after
        )

    def plan_leave(self, keys: Sequence[str], member: str) -> MigrationPlan:
        """Remove *member* and return the minimal moves it releases.

        Exactly the departed member's keys move (each to its next
        surviving point clockwise); the ring is mutated before return.
        """
        before = self.assignment(keys)
        self.remove(member)
        after = self.assignment(keys)
        moves = tuple(
            Migration(key=key, source=before[key], target=after[key])
            for key in keys
            if after[key] != before[key]
        )
        return MigrationPlan(
            kind="leave", member=member, moves=moves, assignment=after
        )


def shard_balance(sizes: dict[str, int] | Sequence[int]) -> float:
    """Mean-over-max shard occupancy in ``(0, 1]`` (1.0 = perfect).

    The critical path of one sharded attestation tick is its largest
    shard, so the parallel speedup over N verifiers is ``N * balance``
    -- which is why this number is also a recording rule
    (``fleet:shard_balance``) and a capacity-planner input.  Empty
    rings (or all-empty shards) report 0.0.
    """
    values = list(sizes.values()) if isinstance(sizes, dict) else list(sizes)
    if not values:
        return 0.0
    peak = max(values)
    if peak <= 0:
        return 0.0
    return (sum(values) / len(values)) / peak

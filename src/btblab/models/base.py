"""Shared lookup/update contract and true-LRU bookkeeping for all BTB models.

Every organization exposes the same two entry points: `lookup(pc)` is the
front-end probe (it may refresh recency on a valid hit but never allocates
or evicts), and `commit_update(record)` is the only path that changes
contents, driven by taken branches at commit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core import BranchKind, BranchRecord


class InvariantError(AssertionError):
    """Internal model state violated a structural invariant (a bug)."""


@dataclass(slots=True, frozen=True)
class Prediction:
    """A BTB hit: target is None when the entry says "take it from the RAS"
    (only ever the case for return-type entries)."""

    target: Optional[int]
    kind: BranchKind
    source: str

    @property
    def from_ras(self) -> bool:
        return self.target is None


@dataclass(slots=True, frozen=True)
class UpdateOutcome:
    """What one commit-stage update did.

    kind: "hit" (recency only), "rewrite" (target refreshed in place),
    "migrate" (entry moved between slots/structures), "alloc" (fresh fill).
    """

    kind: str
    structure: str
    way: Optional[int] = None
    victim_valid: bool = False

    def event(self) -> str:
        way = "-" if self.way is None else str(self.way)
        return f"{self.kind}:{self.structure}:{way}"


def way_sources(ways: int) -> tuple:
    """Prediction sources "way0", "way1", ..., built once per model."""
    return tuple(f"way{w}" for w in range(ways))


def hit_outcomes(structure: str, slots: int) -> tuple:
    """One shared "hit" outcome per slot of a structure.  Outcomes are
    frozen, so commits that change nothing return these instead of
    allocating a new one each time."""
    return tuple(UpdateOutcome("hit", structure, slot) for slot in range(slots))


class LruState:
    """True-LRU recency for one set: each way holds the stamp of its last
    touch, so the oldest way is the one with the smallest stamp.  This is
    the same order that a permutation of recency counters gives."""

    __slots__ = ("stamps", "clock")

    def __init__(self, ways: int):
        self.stamps = list(range(ways))
        self.clock = ways

    def touch(self, way: int) -> None:
        self.stamps[way] = self.clock
        self.clock += 1

    def oldest(self, candidates) -> int:
        return min(candidates, key=self.stamps.__getitem__)

    def check(self) -> None:
        if len(set(self.stamps)) != len(self.stamps):
            raise InvariantError(f"recency stamps not distinct: {self.stamps}")


class RecencyLru:
    """True LRU over many slots with O(1) touch and oldest-slot queries;
    recency order is identical to counter-based LRU.  Suits large
    fully-associative tables where per-touch counter sweeps would dominate."""

    __slots__ = ("_order",)

    def __init__(self, slots: int):
        self._order = OrderedDict((i, None) for i in range(slots))

    def touch(self, slot: int) -> None:
        self._order.move_to_end(slot)

    def oldest(self) -> int:
        return next(iter(self._order))


def select_victim(valid, lru: LruState, eligible) -> int:
    """Victim way among `eligible`: any invalid way first (lowest index),
    otherwise the least recently used of the eligible ways.  Recency of
    ineligible ways never matters for the choice."""
    if not eligible:
        raise InvariantError("victim selection over an empty eligible set")
    for way in eligible:
        if not valid[way]:
            return way
    return lru.oldest(eligible)


class BtbModel:
    """Interface shared by the four organizations.

    Each organization's main array provides `_index_tag(pc)` and
    `_probe(set, tag)`.  `lookup` probes through `_lookup_probe`, which keeps
    the result, and `commit_update` through `_main_probe`, which reuses it
    for the same branch, so a record's main-array probe happens once.
    """

    name = "?"
    _last_probe = None  # (pc, set, tag, way) of the last lookup

    def _lookup_probe(self, pc: int):
        """(set, way or None) of pc in the main array."""
        s, tag = self._index_tag(pc)
        way = self._probe(s, tag)
        self._last_probe = (pc, s, tag, way)
        return s, way

    def _main_probe(self, pc: int):
        """(set, tag, way or None) of pc in the main array.  Reuses the last
        lookup's probe when it was for this pc: only commits change the
        array, and each commit consumes the stored probe."""
        last = self._last_probe
        self._last_probe = None
        if last is not None and last[0] == pc:
            return last[1], last[2], last[3]
        s, tag = self._index_tag(pc)
        return s, tag, self._probe(s, tag)

    def lookup(self, pc: int) -> Optional[Prediction]:
        raise NotImplementedError

    def commit_update(self, record: BranchRecord) -> UpdateOutcome:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def occupancy_items(self):
        """[(structure name, currently valid entries, capacity), ...]"""
        raise NotImplementedError

    def occupancy(self) -> dict:
        return {name: (valid / cap if cap else 0.0)
                for name, valid, cap in self.occupancy_items()}

    def check_invariants(self) -> None:
        pass

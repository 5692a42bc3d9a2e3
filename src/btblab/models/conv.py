"""Conventional set-associative BTB storing full targets."""

from __future__ import annotations

from typing import Optional

from ..core import ALIGNED4, BranchKind, BranchRecord, IsaProfile
from .base import (BtbModel, Prediction, SetArray, UpdateOutcome, hit_outcomes,
                   way_sources)


class ConvBtb(BtbModel):
    """Full-target BTB with partial (hashed) tags and plain LRU.

    The entry count is taken at face value from the storage budget, so it is
    not always divisible by the nominal associativity; the constructor drops
    to the largest associativity that divides it (e.g. 116 entries -> 4-way
    over 29 sets) and indexes sets by modulo, which also covers
    non-power-of-two set counts.
    """

    name = "conv"

    def __init__(self, entries: int, assoc: int = 8,
                 isa: IsaProfile = ALIGNED4, tag_bits: int = 12):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        self.isa = isa
        self.assoc = ways = next(a for a in range(min(assoc, entries), 0, -1)
                                 if entries % a == 0)
        self.sets = sets = entries // ways
        self.entries = entries
        self._sources = way_sources(ways)
        self._hits = hit_outcomes("main", ways)
        self._main = SetArray(sets, ways, tag_bits)
        self._kind = [[BranchKind.CONDITIONAL] * ways for _ in range(sets)]
        self._target = [[0] * ways for _ in range(sets)]

    def lookup(self, pc: int) -> Optional[Prediction]:
        s, way = self._lookup_probe(pc)
        if way is None:
            return None
        self._main.lru[s].touch(way)
        kind = self._kind[s][way]
        target = None if kind is BranchKind.RETURN else self._target[s][way]
        return Prediction(target, kind, self._sources[way])

    def commit_update(self, record: BranchRecord) -> UpdateOutcome:
        s, tag, way = self._main_probe(record.pc)
        if way is not None:
            self._main.lru[s].touch(way)
            matches = (self._kind[s][way] == record.kind
                       and (record.kind is BranchKind.RETURN
                            or self._target[s][way] == record.target))
            if matches:
                return self._hits[way]
            outcome = UpdateOutcome("rewrite", "main", way)
        else:
            way, victim_valid = self._main.fill(s, tag, range(self.assoc))
            outcome = UpdateOutcome("alloc", "main", way, victim_valid)
        self._kind[s][way] = record.kind
        self._target[s][way] = record.target
        return outcome

    def occupancy_items(self):
        return [("main", self._main.valid(), self.entries)]

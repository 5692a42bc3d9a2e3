"""Conventional set-associative BTB storing full targets."""

from __future__ import annotations

from typing import Optional

from ..core import (ALIGNED4, BranchKind, BranchRecord, IsaProfile, xor_fold)
from .base import (BtbModel, InvariantError, LruState, Prediction,
                   UpdateOutcome, hit_outcomes, select_victim, way_sources)


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
        self.tag_bits = tag_bits
        self.assoc = next(a for a in range(min(assoc, entries), 0, -1)
                          if entries % a == 0)
        self.sets = entries // self.assoc
        self.entries = entries
        self._sources = way_sources(self.assoc)
        self._hits = hit_outcomes("main", self.assoc)
        self.reset()

    def reset(self):
        ways, sets = self.assoc, self.sets
        self._valid = [[False] * ways for _ in range(sets)]
        self._tag = [[0] * ways for _ in range(sets)]
        self._kind = [[BranchKind.CONDITIONAL] * ways for _ in range(sets)]
        self._target = [[0] * ways for _ in range(sets)]
        self._lru = [LruState(ways) for _ in range(sets)]
        self._valid_count = 0
        self._last_probe = None

    def _index_tag(self, pc: int):
        line = pc >> self.isa.align_shift
        return line % self.sets, xor_fold(line // self.sets, self.tag_bits)

    def _probe(self, s: int, tag: int) -> Optional[int]:
        valid, tags = self._valid[s], self._tag[s]
        for way in range(self.assoc):
            if valid[way] and tags[way] == tag:
                return way
        return None

    def lookup(self, pc: int) -> Optional[Prediction]:
        s, way = self._lookup_probe(pc)
        if way is None:
            return None
        self._lru[s].touch(way)
        kind = self._kind[s][way]
        target = None if kind is BranchKind.RETURN else self._target[s][way]
        return Prediction(target, kind, self._sources[way])

    def commit_update(self, record: BranchRecord) -> UpdateOutcome:
        s, tag, way = self._main_probe(record.pc)
        if way is not None:
            self._lru[s].touch(way)
            matches = (self._kind[s][way] == record.kind
                       and (record.kind is BranchKind.RETURN
                            or self._target[s][way] == record.target))
            if matches:
                return self._hits[way]
            self._target[s][way] = record.target
            self._kind[s][way] = record.kind
            return UpdateOutcome("rewrite", "main", way)
        way = select_victim(self._valid[s], self._lru[s], range(self.assoc))
        victim_valid = self._valid[s][way]
        if not victim_valid:
            self._valid_count += 1
        self._valid[s][way] = True
        self._tag[s][way] = tag
        self._kind[s][way] = record.kind
        self._target[s][way] = record.target
        self._lru[s].touch(way)
        return UpdateOutcome("alloc", "main", way, victim_valid)

    def occupancy_items(self):
        return [("main", self._valid_count, self.entries)]

    def check_invariants(self):
        count = sum(v.count(True) for v in self._valid)
        if count != self._valid_count:
            raise InvariantError(f"valid count drift: {count} != {self._valid_count}")
        for lru in self._lru:
            lru.check()

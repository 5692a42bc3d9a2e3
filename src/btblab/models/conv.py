"""Conventional set-associative BTB storing full targets."""

from __future__ import annotations

from typing import Optional

from ..core import ALIGNED4, BranchKind, BranchRecord, IsaProfile
from .base import (BtbModel, InvariantError, Prediction, SetArray,
                   UpdateOutcome, divisor_ways, outcome_table, way_sources)


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
        self.assoc = ways = divisor_ways(entries, assoc)
        self.sets = sets = entries // ways
        self.entries = entries
        self._sources = way_sources(ways)
        self._out = outcome_table("main", ways)
        self._main = SetArray(sets, ways, tag_bits)
        self.changes = self._main.changes
        # A full target does not depend on the pc, so an entry's payload is
        # the prediction its hits return.
        self._pred = [[None] * ways for _ in range(sets)]

    def lookup(self, pc: int) -> Optional[Prediction]:
        s, _, way = self._lookup_probe(pc)
        if way is None:
            return None
        self._main.touch(s, way)
        return self._pred[s][way]

    def commit_update(self, record: BranchRecord) -> UpdateOutcome:
        s, tag, way = self._main_probe(record.pc)
        kind = record.kind
        if way is not None:
            self._main.touch(s, way)
            pred = self._pred[s][way]
            if pred.kind == kind and (kind is BranchKind.RETURN
                                      or pred.target == record.target):
                return self._out["hit"][way][False]
            outcome = self._out["rewrite"][way][False]
        else:
            way, victim_valid = self._main.fill(s, tag)
            outcome = self._out["alloc"][way][victim_valid]
        target = None if kind is BranchKind.RETURN else record.target
        self._pred[s][way] = Prediction(target, kind, self._sources[way])
        return outcome

    def occupancy_items(self):
        return [("main", self._main.valid(), self.entries)]

    def check_invariants(self):
        self._main.check()
        for s, way in self._main.occupied():
            pred = self._pred[s][way]
            if (pred.source != self._sources[way]
                    or (pred.target is None) != (pred.kind is BranchKind.RETURN)):
                raise InvariantError(f"set {s} way {way}: bad prediction {pred}")

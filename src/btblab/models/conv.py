"""Conventional set-associative BTB storing full targets."""

from __future__ import annotations

from ..core import ALIGNED4, RETURN, Fields, IsaProfile
from ..storage import conv_tag_bits
from .base import (BtbModel, InvariantError, UpdateOutcome, divisor_ways,
                   new_prediction)


class ConvBtb(BtbModel):
    """Full-target BTB with partial (hashed) tags and plain LRU.

    The entry count is taken at face value from the storage budget, so it is
    not always divisible by the nominal associativity; the constructor drops
    to the largest associativity that divides it (e.g. 116 entries -> 4-way
    over 29 sets) and indexes sets by modulo, which also covers
    non-power-of-two set counts.

    A full target does not depend on the pc, so an entry's only payload is
    the prediction its hits return.  The tag is as wide as the profile's
    64-bit entry leaves room for (`storage.conv_tag_bits`).
    """

    name = "conv"

    def __init__(self, entries: int, isa: IsaProfile = ALIGNED4):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        ways = divisor_ways(entries)
        super().__init__(entries // ways, ways, conv_tag_bits(isa), isa)
        self.entries = entries

    def commit_update(self, record: Fields) -> UpdateOutcome:
        main = self._main
        pc, target, kind, _, _ = record
        s, tag = main.memo[pc >> self._shift]
        row = main.tags[s]
        if tag in row:
            way = row.index(tag)
            main.stamps[s][way] = main.clock = main.clock + 1
            self.predicted = pred = self._pred[s][way]
            if pred.kind == kind and (kind == RETURN or pred.target == target):
                return self._hit[way]
            outcome = self._rewrite[way]
        else:
            self.predicted = None
            way, victim_valid = main.fill(s, tag)
            outcome = self._alloc[way][victim_valid]
        if kind == RETURN:
            target = None
        self._pred[s][way] = new_prediction((target, kind, self._sources[way]))
        return outcome

    def occupancy_items(self):
        return [("main", self._main.valid(), self.entries)]

    def check_invariants(self):
        self._main.check()
        for s, way in self._main.occupied():
            pred = self._pred[s][way]
            if (pred.source != self._sources[way]
                    or (pred.target is None) != (pred.kind == RETURN)):
                raise InvariantError(f"set {s} way {way}: bad prediction {pred}")

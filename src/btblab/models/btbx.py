"""Offset-encoding BTB with asymmetric ways and a tiny full-target companion.

Each of the 8 ways in a set stores target offsets up to a fixed width
(0/4/5/7/9/11/19/25 bits in 4-byte-aligned mode), so a branch is only
eligible for the ways from its first, the first wide enough to hold its
offset, which `_first` gives by offset length; victim selection is LRU
restricted to those ways, with recency bookkeeping for the whole set
unchanged from baseline LRU.  Branches whose offset exceeds the widest way
live in the direct-mapped companion, which keeps full targets.

An entry's offset field carries the low way-width bits of the shifted
target (a return's is 0), so reconstruction concatenates the PC above the
way width with the field below it; that is exact for any branch whose
required width fits the way.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from ..core import (ALIGNED4, RETURN, IsaProfile, OffsetEncoding, decode_target,
                    required_offset_width)
from ..storage import BtbxGeometry
from .base import (ADDRESS_BITS, BtbModel, InvariantError, Prediction,
                   SetArray, UpdateOutcome, new_prediction)

XC_TAG_BITS = 15


class BtbX(BtbModel):
    name = "btbx"

    def __init__(self, geometry: BtbxGeometry, isa: IsaProfile = ALIGNED4):
        if geometry.isa != isa:
            raise ValueError(f"geometry is sized for the {geometry.isa.name} "
                             f"profile, the model runs {isa.name}")
        super().__init__(geometry.sets, geometry.ways, geometry.tag_bits, isa)
        self.geometry = geometry
        self.widths = geometry.way_widths
        self._caps = (self.sets,) * self.ways  # every way holds one entry per set
        # The first way wide enough (widths never decrease), else `ways`.
        self._first = tuple(bisect_left(self.widths, bits - self._shift)
                            for bits in range(ADDRESS_BITS + 1))
        # An entry is (prediction, offset_field, owner_pc): what it decodes
        # to for owner_pc, the pc that wrote it, and the way-width offset
        # field; another pc with the same set and tag decodes its own.
        # Direct-mapped: one way.  It is probed only after a main-array
        # miss, and computes each probe's slot and tag (`set_tag`) rather
        # than keeping a second memo of every line.
        self._xc = SetArray(geometry.xc_entries, 1, XC_TAG_BITS)
        self._xc.changes = self.changes
        self._xc_pred = [None] * self._xc.sets  # full targets: any pc's

    # -- address plumbing ---------------------------------------------------

    def _predict(self, pc: int, way: int, kind: int, offset: int) -> Prediction:
        target = None  # a return's target comes from the RAS
        if kind != RETURN:  # the pc above the way width, the field below it
            target = decode_target(pc, OffsetEncoding(self.widths[way], offset),
                                   self.isa)
        return new_prediction((target, kind, self._sources[way]))

    def _write(self, s: int, way: int, pc: int, target: int, kind: int):
        # The way is wide enough for the offset, so pc decodes to target.
        offset = (target >> self._shift) & ((1 << self.widths[way]) - 1)
        if kind == RETURN:  # its target comes from the RAS
            target, offset = None, 0
        self._entry[s][way] = (new_prediction((target, kind, self._sources[way])),
                               offset, pc)

    # -- model interface ----------------------------------------------------

    def _predict_at(self, pc: int, s: int, way: int) -> Prediction:
        pred, offset, owner = self._entry[s][way]
        if owner == pc:
            return pred
        return self._predict(pc, way, pred.kind, offset)

    def lookup(self, pc: int) -> Optional[Prediction]:
        # All ways and the companion are probed in parallel; a main-array
        # hit, never None here, wins over a simultaneous companion hit.
        pred = super().lookup(pc)
        if pred is None:
            slot, xtag = self._xc.set_tag(pc >> self._shift)
            if self._xc.tags[slot][0] == xtag:  # direct-mapped: one way
                return self._xc_pred[slot]
        return pred

    def _miss(self, pc: int, target: int, kind: int, s: int, tag: int):
        # Not in the main array, so the companion is probed.
        first = 0 if kind == RETURN else self._first[(pc ^ target).bit_length()]
        slot, xtag = self._xc.set_tag(pc >> self._shift)
        if self._xc.tags[slot][0] == xtag:
            self.predicted = stored = self._xc_pred[slot]
            if stored.kind == kind and stored.target == target:
                return UpdateOutcome("hit", "xc", slot)
            if first == self.ways:
                self._xc_pred[slot] = new_prediction((target, kind, "xc"))
                return UpdateOutcome("rewrite", "xc", slot)
            # Shrunk enough for the main array; the companion copy dies
            # so a branch never lives in both structures for long.
            self._xc.invalidate(slot, 0)
            return self._place(pc, target, kind, s, tag, first, "migrate")
        return self._place(pc, target, kind, s, tag, first, "alloc",
                           (slot, xtag))

    def _place(self, pc: int, target: int, kind: int, s: int, tag: int,
               first: int = 0, outcome: str = "alloc", xc=None):
        if first < self.ways:
            return BtbModel._place(self, pc, target, kind, s, tag, first,
                                   outcome)
        # The companion takes the full target; `xc` is its probed (slot, tag).
        slot, xtag = xc or self._xc.set_tag(pc >> self._shift)
        _, victim_valid = self._xc.fill(slot, xtag)
        self._xc_pred[slot] = new_prediction((target, kind, "xc"))
        return UpdateOutcome(outcome, "xc", slot, victim_valid)

    def occupancy_items(self):
        items = list(zip(self._sources, self._main.way_valid, self._caps))
        items.append(("xc", self._xc.way_valid[0], self._xc.sets))
        return items

    def _rebuilt(self, s: int, way: int) -> Prediction:
        """The owner's pc decoded with its offset field; both fit the way."""
        width = self.widths[way]
        pred, offset, owner = self._entry[s][way]
        req = (0 if pred.target is None
               else required_offset_width(owner, pred.target, self.isa))
        if req > width:
            raise InvariantError(
                f"set {s} way {way}: its owner's target needs {req} "
                f"offset bits, more than the way's {width}")
        if offset >> width:
            raise InvariantError(f"set {s} way {way}: offset field overflow")
        return self._predict(owner, way, pred.kind, offset)

    def check_invariants(self):
        super().check_invariants()
        self._xc.check()
        for slot, _ in self._xc.occupied():
            pred = self._xc_pred[slot]
            if pred.source != "xc" or pred.target is None:
                raise InvariantError(f"xc slot {slot}: bad prediction {pred}")

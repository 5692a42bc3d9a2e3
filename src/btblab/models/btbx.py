"""Offset-encoding BTB with asymmetric ways and a tiny full-target companion.

Each of the 8 ways in a set stores target offsets up to a fixed width
(0/4/5/7/9/11/19/25 bits in 4-byte-aligned mode), so a branch is only
eligible for the ways wide enough to hold its offset; victim selection is
LRU restricted to those ways, with recency bookkeeping for the whole set
unchanged from baseline LRU.  Branches whose offset exceeds the widest way
live in the direct-mapped companion, which keeps full targets.

An entry's stored offset field always carries the low way-width bits of the
shifted target, so reconstruction concatenates the PC above the way width
with the field below it; that is exact for any branch whose required width
fits the way.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from ..core import (ALIGNED4, BranchKind, BranchRecord, IsaProfile,
                    required_offset_width)
from ..storage import BtbxGeometry
from .base import (INVALID, BtbModel, InvariantError, Prediction, SetArray,
                   UpdateOutcome, hit_outcomes, way_sources)

XC_TAG_BITS = 15


class BtbX(BtbModel):
    name = "btbx"

    def __init__(self, geometry: BtbxGeometry, isa: IsaProfile = ALIGNED4):
        if (isa.align_shift == 0) != (geometry.way_widths[-1] > 25):
            # Widths are tuned per address granularity; mixing them up is
            # almost certainly a configuration mistake.
            raise ValueError("geometry way widths do not match ISA mode")
        self.geometry = geometry
        self.isa = isa
        self.sets = sets = geometry.sets
        self.ways = ways = geometry.ways
        self.widths = geometry.way_widths
        self.xc_entries = n = geometry.xc_entries
        self._sources = way_sources(ways)
        self._hits = hit_outcomes("main", ways)
        self._xc_hits = hit_outcomes("xc", n)
        self._main = SetArray(sets, ways, geometry.tag_bits)
        self._kind = [[BranchKind.CONDITIONAL] * ways for _ in range(sets)]
        self._offset = [[0] * ways for _ in range(sets)]
        self._req_width = [[0] * ways for _ in range(sets)]
        self._xc = SetArray(n, 1, XC_TAG_BITS)  # direct-mapped: one way
        self._xc_kind = [BranchKind.CONDITIONAL] * n
        self._xc_target = [0] * n

    # -- address plumbing ---------------------------------------------------

    def _decode(self, pc: int, way: int, offset_bits: int) -> int:
        n = self.widths[way] + self.isa.align_shift
        return (pc & ~((1 << n) - 1)) | (offset_bits << self.isa.align_shift)

    def _offset_field(self, target: int, way: int) -> int:
        return (target >> self.isa.align_shift) & ((1 << self.widths[way]) - 1)

    # -- model interface ----------------------------------------------------

    def lookup(self, pc: int) -> Optional[Prediction]:
        s, way = self._lookup_probe(pc)
        if way is not None:
            # All ways and the companion are probed in parallel; a main-array
            # hit wins over a simultaneous companion hit.
            self._main.lru[s].touch(way)
            kind = self._kind[s][way]
            if kind is BranchKind.RETURN:
                return Prediction(None, kind, self._sources[way])
            return Prediction(self._decode(pc, way, self._offset[s][way]),
                              kind, self._sources[way])
        slot, _, hit = self._xc.locate(pc >> self.isa.align_shift)
        if hit is not None:
            kind = self._xc_kind[slot]
            target = None if kind is BranchKind.RETURN else self._xc_target[slot]
            return Prediction(target, kind, "xc")
        return None

    def _required_width(self, record: BranchRecord) -> int:
        if record.kind is BranchKind.RETURN:
            return 0
        return required_offset_width(record.pc, record.target, self.isa)

    def commit_update(self, record: BranchRecord) -> UpdateOutcome:
        pc, target, kind = record.pc, record.target, record.kind
        s, tag, way = self._main_probe(pc)
        if way is not None:
            self._main.lru[s].touch(way)
            if kind is BranchKind.RETURN:
                if self._kind[s][way] is BranchKind.RETURN:
                    return self._hits[way]
                self._kind[s][way] = kind
                self._req_width[s][way] = 0
                return UpdateOutcome("rewrite", "main", way)
            if (self._kind[s][way] == kind
                    and self._decode(pc, way, self._offset[s][way]) == target):
                return self._hits[way]
            req = required_offset_width(pc, target, self.isa)
            if req <= self.widths[way]:
                # Target changed but still fits this way: refresh in place.
                self._offset[s][way] = self._offset_field(target, way)
                self._req_width[s][way] = req
                self._kind[s][way] = kind
                return UpdateOutcome("rewrite", "main", way)
            # Outgrew its way: drop the entry and re-allocate.
            self._main.invalidate(s, way)
            return self._allocate(record, s, tag, req, migrated=True)
        slot, _, hit = self._xc.locate(pc >> self.isa.align_shift)
        if hit is not None:
            if self._xc_kind[slot] == kind and self._xc_target[slot] == target:
                return self._xc_hits[slot]
            req = self._required_width(record)
            if req <= self.widths[-1]:
                # Shrunk enough for the main array; the companion copy dies
                # so a branch never lives in both structures for long.
                self._xc.invalidate(slot, 0)
                return self._allocate(record, s, tag, req, migrated=True)
            self._xc_target[slot] = target
            self._xc_kind[slot] = kind
            return UpdateOutcome("rewrite", "xc", slot)
        return self._allocate(record, s, tag, self._required_width(record))

    def _allocate(self, record: BranchRecord, s: int, tag: int, req: int,
                  migrated: bool = False) -> UpdateOutcome:
        outcome = "migrate" if migrated else "alloc"
        # Way widths never decrease, so the ways wide enough are a suffix.
        first = bisect_left(self.widths, req)
        if first == self.ways:
            slot, xtag, _ = self._xc.locate(record.pc >> self.isa.align_shift)
            _, victim_valid = self._xc.fill(slot, xtag, range(1))
            self._xc_kind[slot] = record.kind
            self._xc_target[slot] = record.target
            return UpdateOutcome(outcome, "xc", slot, victim_valid)
        way, victim_valid = self._main.fill(s, tag, range(first, self.ways))
        self._kind[s][way] = record.kind
        self._offset[s][way] = self._offset_field(record.target, way)
        self._req_width[s][way] = req
        return UpdateOutcome(outcome, "main", way, victim_valid)

    def occupancy_items(self):
        items = [(name, valid, self.sets)
                 for name, valid in zip(self._sources, self._main.way_valid)]
        items.append(("xc", self._xc.way_valid[0], self.xc_entries))
        return items

    def check_invariants(self):
        self._main.check()
        self._xc.check()
        for s, row in enumerate(self._main.tags):
            for way, width in enumerate(self.widths):
                if row[way] == INVALID:
                    continue
                if self._req_width[s][way] > width:
                    raise InvariantError(
                        f"set {s} way {way}: stored width {self._req_width[s][way]} "
                        f"exceeds way width {width}")
                if self._offset[s][way] >> width:
                    raise InvariantError(f"set {s} way {way}: offset field overflow")

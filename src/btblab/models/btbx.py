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

from typing import Optional

from ..core import (ALIGNED4, BranchKind, BranchRecord, IsaProfile,
                    required_offset_width, xor_fold)
from ..storage import BtbxGeometry
from .base import (BtbModel, InvariantError, LruState, Prediction,
                   UpdateOutcome, hit_outcomes, select_victim, way_sources)


def select_victim_restricted_lru(valid, lru: LruState, eligible_ways) -> int:
    """Restricted-LRU victim: invalid eligible way first (lowest index),
    else the least recently used among the eligible ways only."""
    return select_victim(valid, lru, eligible_ways)


class BtbX(BtbModel):
    name = "btbx"

    def __init__(self, geometry: BtbxGeometry, isa: IsaProfile = ALIGNED4):
        if (isa.align_shift == 0) != (geometry.way_widths[-1] > 25):
            # Widths are tuned per address granularity; mixing them up is
            # almost certainly a configuration mistake.
            raise ValueError("geometry way widths do not match ISA mode")
        self.geometry = geometry
        self.isa = isa
        self.sets = geometry.sets
        self.ways = geometry.ways
        self.widths = geometry.way_widths
        self.xc_entries = geometry.xc_entries
        self._index_bits = (self.sets - 1).bit_length()
        self._sources = way_sources(self.ways)
        self._hits = hit_outcomes("main", self.ways)
        self._xc_hits = hit_outcomes("xc", self.xc_entries)
        self.reset()

    def reset(self):
        sets, ways = self.sets, self.ways
        self._valid = [[False] * ways for _ in range(sets)]
        self._tag = [[0] * ways for _ in range(sets)]
        self._kind = [[BranchKind.CONDITIONAL] * ways for _ in range(sets)]
        self._offset = [[0] * ways for _ in range(sets)]
        self._req_width = [[0] * ways for _ in range(sets)]
        self._lru = [LruState(ways) for _ in range(sets)]
        self._way_valid = [0] * ways
        n = self.xc_entries
        self._xc_valid = [False] * n
        self._xc_tag = [0] * n
        self._xc_kind = [BranchKind.CONDITIONAL] * n
        self._xc_target = [0] * n
        self._xc_valid_count = 0
        self._last_probe = None

    # -- address plumbing ---------------------------------------------------

    def _index_tag(self, pc: int):
        line = pc >> self.isa.align_shift
        return line & (self.sets - 1), xor_fold(line >> self._index_bits,
                                                self.geometry.tag_bits)

    def _xc_slot_tag(self, pc: int):
        line = pc >> self.isa.align_shift
        slot = line % self.xc_entries
        return slot, xor_fold(line // self.xc_entries, 15)

    def _decode(self, pc: int, way: int, offset_bits: int) -> int:
        n = self.widths[way] + self.isa.align_shift
        return (pc & ~((1 << n) - 1)) | (offset_bits << self.isa.align_shift)

    def _offset_field(self, target: int, way: int) -> int:
        return (target >> self.isa.align_shift) & ((1 << self.widths[way]) - 1)

    def _probe(self, s: int, tag: int) -> Optional[int]:
        valid, tags = self._valid[s], self._tag[s]
        for way in range(self.ways):
            if valid[way] and tags[way] == tag:
                return way
        return None

    # -- model interface ----------------------------------------------------

    def lookup(self, pc: int) -> Optional[Prediction]:
        s, way = self._lookup_probe(pc)
        if way is not None:
            # All ways and the companion are probed in parallel; a main-array
            # hit wins over a simultaneous companion hit.
            self._lru[s].touch(way)
            kind = self._kind[s][way]
            if kind is BranchKind.RETURN:
                return Prediction(None, kind, self._sources[way])
            return Prediction(self._decode(pc, way, self._offset[s][way]),
                              kind, self._sources[way])
        slot, xtag = self._xc_slot_tag(pc)
        if self._xc_valid[slot] and self._xc_tag[slot] == xtag:
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
            self._lru[s].touch(way)
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
            self._valid[s][way] = False
            self._way_valid[way] -= 1
            return self._allocate(record, s, tag, req, migrated=True)
        slot, xtag = self._xc_slot_tag(pc)
        if self._xc_valid[slot] and self._xc_tag[slot] == xtag:
            if self._xc_kind[slot] == kind and self._xc_target[slot] == target:
                return self._xc_hits[slot]
            req = self._required_width(record)
            if req <= self.widths[-1]:
                # Shrunk enough for the main array; the companion copy dies
                # so a branch never lives in both structures for long.
                self._xc_valid[slot] = False
                self._xc_valid_count -= 1
                return self._allocate(record, s, tag, req, migrated=True)
            self._xc_target[slot] = target
            self._xc_kind[slot] = kind
            return UpdateOutcome("rewrite", "xc", slot)
        return self._allocate(record, s, tag, self._required_width(record))

    def _allocate(self, record: BranchRecord, s: int, tag: int, req: int,
                  migrated: bool = False) -> UpdateOutcome:
        outcome = "migrate" if migrated else "alloc"
        pc, target, kind = record.pc, record.target, record.kind
        eligible = [w for w in range(self.ways) if self.widths[w] >= req]
        if not eligible:
            slot, xtag = self._xc_slot_tag(pc)
            victim_valid = self._xc_valid[slot]
            if not victim_valid:
                self._xc_valid_count += 1
            self._xc_valid[slot] = True
            self._xc_tag[slot] = xtag
            self._xc_kind[slot] = kind
            self._xc_target[slot] = target
            return UpdateOutcome(outcome, "xc", slot, victim_valid)
        way = select_victim_restricted_lru(self._valid[s], self._lru[s], eligible)
        victim_valid = self._valid[s][way]
        if not victim_valid:
            self._way_valid[way] += 1
        self._valid[s][way] = True
        self._tag[s][way] = tag
        self._kind[s][way] = kind
        self._offset[s][way] = self._offset_field(target, way)
        self._req_width[s][way] = req
        self._lru[s].touch(way)
        return UpdateOutcome(outcome, "main", way, victim_valid)

    def occupancy_items(self):
        items = [(name, valid, self.sets)
                 for name, valid in zip(self._sources, self._way_valid)]
        items.append(("xc", self._xc_valid_count, self.xc_entries))
        return items

    def check_invariants(self):
        counts = [0] * self.ways
        for s in range(self.sets):
            self._lru[s].check()
            for way in range(self.ways):
                if not self._valid[s][way]:
                    continue
                counts[way] += 1
                if self._req_width[s][way] > self.widths[way]:
                    raise InvariantError(
                        f"set {s} way {way}: stored width {self._req_width[s][way]} "
                        f"exceeds way width {self.widths[way]}")
                if self._offset[s][way] >> self.widths[way]:
                    raise InvariantError(f"set {s} way {way}: offset field overflow")
        if counts != self._way_valid:
            raise InvariantError(f"per-way valid drift: {counts} != {self._way_valid}")
        if sum(self._xc_valid) != self._xc_valid_count:
            raise InvariantError("companion valid count drift")

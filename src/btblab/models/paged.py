"""BTB organizations that deduplicate page (and region) numbers.

Both keep full reconstruction exact: a main entry holds the in-page byte
offset plus a pointer into a side table, and the side tables hold real page
or region numbers (partitioned bit ranges, never hashes), so a fresh hit
always rebuilds the original target.  Eviction from a side table bumps a
per-slot generation counter; main entries snapshot the generation they
linked against, so a dangling pointer is detected and surfaces as a miss
rather than a wrong target.

The region-aware variant additionally reserves half the ways of each main
set for same-page branches (target page recoverable from the PC), which
need neither pointer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..core import ALIGNED4, PAGE_SHIFT, RETURN, IsaProfile, xor_fold
from ..storage import TAG_BITS
from .base import (ADDRESS_BITS, ASSOC, INVALID, BtbModel, InvariantError,
                   Prediction, SetArray, divisor_ways, new_prediction)

NO_PAGE = -1  # page_ptr of entries that need no page: returns, pdede same-page


class RBtb(BtbModel):
    """Main table plus a fully-associative page table of full page numbers.

    Every non-return entry points at the page slot holding its target's page
    number; branches sharing a target page share the slot.
    """

    name = "rbtb"

    def __init__(self, main_entries: int, page_entries: int,
                 isa: IsaProfile = ALIGNED4):
        if main_entries < 1 or page_entries < 1:
            raise ValueError("main_entries and page_entries must be >= 1")
        ways = divisor_ways(main_entries)
        super().__init__(main_entries // ways, ways, TAG_BITS, isa)
        self.page_shift = PAGE_SHIFT  # an instance attribute reads fastest
        self.main_entries = main_entries
        self.page_entries = page_entries
        # An entry is (prediction, page_ptr, page_gen, in_page_offset); the
        # prediction holds while the pointer's generation does, and its
        # target is absolute, so it does not depend on the lookup pc.
        # The page table is searched through a map, which beats a list
        # search over its hundreds of slots.  The map's order is also the
        # table's true-LRU order, least recently used first: a hit moves its
        # page to the end and an eviction pops the front.
        self._pt_slot = [(INVALID, 0)] * page_entries  # (page, generation)
        self._pt_map = OrderedDict()  # page number -> slot

    def _predict_at(self, pc: int, s: int, way: int) -> Optional[Prediction]:
        """The stored prediction, if the entry needs no page (a return) or
        its page pointer's generation still matches the slot's.  A pointer's
        generation is at least 1, so it never matches a slot that is still
        empty.  The stored target is absolute, so pc plays no part."""
        pred, ptr, gen, _ = self._entry[s][way]
        if ptr == NO_PAGE or self._pt_slot[ptr][1] == gen:
            return pred
        return None  # dangling page pointer: miss, never a wrong target

    def _write(self, s: int, way: int, pc: int, target: int, kind: int):
        if kind == RETURN:
            target, slot, gen, in_off = None, NO_PAGE, 0, 0
        else:
            # Find or allocate the target page's slot (associative search);
            # eviction bumps the slot generation, orphaning old dependents.
            page = target >> self.page_shift
            pt_map = self._pt_map
            slot = pt_map.get(page)
            if slot is not None:
                pt_map.move_to_end(page)
            else:
                if len(pt_map) < self.page_entries:
                    slot = len(pt_map)  # slots fill in order, never emptied
                    self.changes[0] += 1
                else:
                    slot = pt_map.popitem(last=False)[1]
                self._pt_slot[slot] = (page, self._pt_slot[slot][1] + 1)
                pt_map[page] = slot
            gen = self._pt_slot[slot][1]
            in_off = target & ((1 << self.page_shift) - 1)
        self._entry[s][way] = (new_prediction((target, kind, self._sources[way])),
                               slot, gen, in_off)

    def occupancy_items(self):
        return [("main", self._main.valid(), self.main_entries),
                ("page", len(self._pt_map), self.page_entries)]

    def _rebuilt(self, s: int, way: int) -> Optional[Prediction]:
        """A return needs no page; any other entry's target is on its page."""
        pred, ptr, gen, in_off = self._entry[s][way]
        if ptr == NO_PAGE:
            return new_prediction((None, RETURN, self._sources[way]))
        page, live = self._pt_slot[ptr]
        return new_prediction(((page << self.page_shift) | in_off, pred.kind,
                               self._sources[way])) if live == gen else None

    def check_invariants(self):
        super().check_invariants()
        for slot, (page, _) in enumerate(self._pt_slot):
            if (page != INVALID) != (self._pt_map.get(page) == slot):
                raise InvariantError(f"page map out of sync at slot {slot}")


class PdedeBtb(BtbModel):
    """Page/region-deduplicating BTB with same-page way reservation.

    Half the ways of each main set accept only same-page branches (target
    page equals the branch's own, so nothing but the in-page offset is
    stored).  Different-page branches go to the general ways and carry a
    pointer chain: main entry -> page slot (low page bits within the region,
    16-way set-associative on a page-number hash) -> region slot (the high
    page bits, tiny and fully associative).
    """

    name = "pdede"

    PAGE_ASSOC = 16

    def __init__(self, main_entries: int, page_entries: int,
                 region_entries: int = 4, isa: IsaProfile = ALIGNED4):
        if main_entries < ASSOC:
            raise ValueError(f"need at least {ASSOC} main entries")
        if page_entries < 1 or region_entries < 1:
            raise ValueError("page_entries and region_entries must be >= 1")
        super().__init__(main_entries // ASSOC, ASSOC, TAG_BITS, isa)
        self.page_shift = PAGE_SHIFT  # an instance attribute reads fastest
        self.region_pages_log2 = 8  # a region spans 256 pages
        self.reserved_ways = ASSOC // 2  # ways [0, reserved) are same-page only
        # pc and target share a page when pc ^ target fits in the page bits.
        self._first = tuple(0 if bits <= PAGE_SHIFT else self.reserved_ways
                            for bits in range(ADDRESS_BITS + 1))
        self.main_entries = self.sets * ASSOC
        self.page_assoc = pa = min(self.PAGE_ASSOC, page_entries)
        self.page_sets = ps = max(1, page_entries // pa)
        self.page_entries = ps * pa
        self.region_entries = region_entries
        # An entry is (prediction, page_ptr, page_gen, in_page_offset,
        # owner_pc), the prediction being what it rebuilds to for owner_pc.
        # A different-page target is absolute; a same-page one takes its
        # page from the lookup pc, so another pc rebuilds its own.
        # Page slots are tagged by the page's low bits within its region; a
        # page pointer is set * page_assoc + way, which indexes `_pt_slot`:
        # (generation, region slot, the region slot's generation at the fill).
        self._pt = SetArray(ps, pa)
        self._pt_slot = [(0, 0, 0)] * self.page_entries
        # One set of region slots, tagged by region number.
        self._rt = SetArray(1, region_entries)
        self._rt_gen = [0] * region_entries
        self._pt.changes = self._rt.changes = self.changes

    # -- side tables ----------------------------------------------------
    #
    # Page and region slots are never emptied once filled, and a pointer's
    # generation is at least 1, so a generation match also proves the slot
    # it points at holds an entry.

    def _page_set(self, page: int) -> int:
        return xor_fold(page, 30) % self.page_sets

    def _ensure_region(self, region: int):
        slot = self._rt.probe(0, region)
        if slot is None:
            slot, _ = self._rt.fill(0, region)
            self._rt_gen[slot] += 1
        else:
            self._rt.touch(0, slot)
        return slot, self._rt_gen[slot]

    def _page_slot_number(self, ptr: int) -> Optional[int]:
        """Page number held by a page slot, or None if its region link died."""
        _, rptr, rgen = self._pt_slot[ptr]
        if self._rt_gen[rptr] != rgen:
            return None
        ps, slot = divmod(ptr, self.page_assoc)
        return ((self._rt.tags[0][rptr] << self.region_pages_log2)
                | self._pt.tags[ps][slot])

    def _ensure_page(self, page: int):
        """(pointer, generation) of the page slot holding a page number."""
        ps = self._page_set(page)
        base = ps * self.page_assoc
        low = page & ((1 << self.region_pages_log2) - 1)
        # A slot whose region died keeps its low bits, so several slots may
        # carry this tag: only a live one with the whole page number counts.
        row = self._pt.tags[ps]
        for slot in range(self.page_assoc):
            if row[slot] == low and self._page_slot_number(base + slot) == page:
                self._pt.touch(ps, slot)
                return base + slot, self._pt_slot[base + slot][0]
        rslot, rgen = self._ensure_region(page >> self.region_pages_log2)
        slot, _ = self._pt.fill(ps, low)
        ptr = base + slot
        gen = self._pt_slot[ptr][0] + 1
        self._pt_slot[ptr] = (gen, rslot, rgen)
        return ptr, gen

    # -- main table -------------------------------------------------------

    def _same_page_prediction(self, pc: int, kind: int, in_off: int,
                              way: int) -> Prediction:
        """What a same-page or return entry predicts for pc: page bits come
        straight from the pc, with no side-table access."""
        target = (None if kind == RETURN else
                  ((pc >> self.page_shift) << self.page_shift) | in_off)
        return new_prediction((target, kind, self._sources[way]))

    def _predict_at(self, pc: int, s: int, way: int) -> Optional[Prediction]:
        """A same-page or return entry rebuilds its target from pc; a
        different-page entry's stored target holds while its page link, and
        that page slot's region link, still do."""
        pred, ptr, gen, in_off, owner = self._entry[s][way]
        if ptr == NO_PAGE:
            if owner != pc:
                return self._same_page_prediction(pc, pred.kind, in_off, way)
        else:
            live, rptr, rgen = self._pt_slot[ptr]
            if live != gen or self._rt_gen[rptr] != rgen:
                return None  # stale page or region link: never a wrong target
        return pred

    def _write(self, s: int, way: int, pc: int, target: int, kind: int):
        ptr, gen, in_off = NO_PAGE, 0, 0
        if kind == RETURN:
            target = None
        else:
            in_off = target & ((1 << self.page_shift) - 1)
            if (pc >> self.page_shift) != (target >> self.page_shift):
                if way < self.reserved_ways:
                    raise InvariantError(
                        f"different-page entry written to reserved way {way}")
                ptr, gen = self._ensure_page(target >> self.page_shift)
        self._entry[s][way] = (new_prediction((target, kind, self._sources[way])),
                               ptr, gen, in_off, pc)

    def _miss(self, pc: int, target: int, kind: int, s: int, tag: int):
        return self._place(pc, target, kind, s, tag, 0 if kind == RETURN
                           else self._first[(pc ^ target).bit_length()])

    def _hit_at(self, pc: int, target: int, kind: int, s: int, tag: int,
                way: int):
        """A hit, but a different-page entry committed from its target's
        page is rewritten as that pc's same-page entry."""
        if self._entry[s][way][1] == NO_PAGE or (pc ^ target) >> self.page_shift:
            return self._hit[way]
        return self._change(pc, target, kind, s, tag, way)

    def occupancy_items(self):
        return [("main", self._main.valid(), self.main_entries),
                ("page", self._pt.valid(), self.page_entries),
                ("region", self._rt.valid(), self.region_entries)]

    def _rebuilt(self, s: int, way: int) -> Optional[Prediction]:
        """An entry rebuilds from its owner's page or, if it is a
        different-page entry, from its live page slot's."""
        pred, ptr, _, in_off, owner = self._entry[s][way]
        if ptr != NO_PAGE:
            if way < self.reserved_ways:
                raise InvariantError(
                    f"set {s} reserved way {way} holds a different-page entry")
            if self._predict_at(owner, s, way) is None:
                return None
            owner = self._page_slot_number(ptr) << self.page_shift
        return self._same_page_prediction(owner, pred.kind, in_off, way)

    def check_invariants(self):
        super().check_invariants()
        self._pt.check()
        self._rt.check()

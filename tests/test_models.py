import ast
import hashlib
import inspect
import random
import tracemalloc
from pathlib import Path

import pytest

from conftest import rec, taken_branch_trace
from btblab.core import (ALIGNED4, BYTE, MODEL_NAMES, PAGE_SHIFT, PROFILES,
                         BranchKind, IsaProfile, xor_fold)
from btblab.models import ConfigError, build_model
from btblab.models.base import ASSOC, MEMO_LINES, InvariantError, SetArray
from btblab.models.btbx import BtbX
from btblab.models.conv import ConvBtb
from btblab.models.paged import NO_PAGE, PdedeBtb, RBtb
from btblab import storage
from btblab.sim import SimConfig, run
from btblab.storage import BtbxGeometry, arm64_geometry
from btblab.trace import GeneratorSpec, gen_records

WORKED_PC = 0x168
WORKED_TARGET = 0x178

PAGE = 1 << 12


def valid_counts(model):
    return {name: valid for name, valid, _ in model.occupancy_items()}


def pair_with_width(base_line, width, seed=0):
    """A (pc, target) pair in aligned mode whose required width is exactly
    `width` (top differing bit of the shifted addresses at position width)."""
    rng = random.Random(seed)
    flip = (1 << (width - 1)) | rng.getrandbits(width - 1) if width else 0
    return base_line << 2, (base_line ^ flip) << 2


class TestBtbxLookup:
    def test_worked_pair_lands_in_way1_and_decodes(self):
        m = BtbX(arm64_geometry(32))
        out = m.commit_update(rec(WORKED_PC, WORKED_TARGET))
        assert (out.kind, out.structure, out.way) == ("alloc", "main", 1)
        pred = m.lookup(WORKED_PC)
        assert pred.target == WORKED_TARGET
        assert pred.source == "way1"

    def test_empty_lookup_misses(self):
        m = BtbX(arm64_geometry(32))
        assert m.lookup(0x4000) is None
        assert m.lookup(WORKED_PC) is None

    def test_oversize_offset_goes_to_companion(self):
        m = BtbX(arm64_geometry(32))
        pc, target = pair_with_width(1 << 20, 26)
        out = m.commit_update(rec(pc, target))
        assert out.structure == "xc"
        pred = m.lookup(pc)
        assert pred.source == "xc"
        assert pred.target == target

    def test_companion_is_direct_mapped(self):
        m = BtbX(arm64_geometry(32))  # 4 companion entries
        pc_a, tgt_a = pair_with_width(1 << 20, 26, seed=1)
        # same companion slot: line addresses congruent mod 4
        pc_b, tgt_b = pair_with_width((1 << 20) + 4 * 1024, 26, seed=2)
        assert (pc_a >> 2) % 4 == (pc_b >> 2) % 4
        m.commit_update(rec(pc_a, tgt_a))
        m.commit_update(rec(pc_b, tgt_b))  # overwrites the slot
        assert m.lookup(pc_a) is None
        assert m.lookup(pc_b).target == tgt_b

    def test_return_prediction_defers_to_ras(self):
        m = BtbX(arm64_geometry(32))
        m.commit_update(rec(0x1000, 0x9000, BranchKind.RETURN))
        pred = m.lookup(0x1000)
        assert pred.target is None
        assert pred.kind is BranchKind.RETURN


class TestBtbxAllocation:
    def test_return_eligible_in_every_way(self):
        m = BtbX(arm64_geometry(32))
        out = m.commit_update(rec(0x1000, 0x9000, BranchKind.RETURN))
        assert out.way == 0  # lowest-index invalid way of a cold set

    def test_width20_restricted_to_last_way(self):
        m = BtbX(arm64_geometry(32))
        pc, target = pair_with_width(1 << 20, 20)
        out = m.commit_update(rec(pc, target))
        assert (out.structure, out.way) == ("main", 7)

    def test_eligibility_is_a_way_suffix(self):
        widths = arm64_geometry(32).way_widths
        for req in range(0, 26):
            eligible = [w for w in range(8) if widths[w] >= req]
            assert eligible == list(range(8 - len(eligible), 8))

    def test_indirect_width_growth_migrates(self):
        m = BtbX(arm64_geometry(32))
        base = 1 << 20
        pc, near = pair_with_width(base, 4)
        _, far = pair_with_width(base, 20)
        first = m.commit_update(rec(pc, near, BranchKind.INDIRECT))
        assert first.way <= 6
        out = m.commit_update(rec(pc, far, BranchKind.INDIRECT))
        assert (out.kind, out.way) == ("migrate", 7)
        assert m.lookup(pc).target == far
        # the old slot is empty again
        assert valid_counts(m)[f"way{first.way}"] == 0
        m.check_invariants()

    def test_target_change_within_way_rewrites_in_place(self):
        m = BtbX(arm64_geometry(32))
        base = 1 << 20
        pc, t1 = pair_with_width(base, 4, seed=1)
        _, t2 = pair_with_width(base, 3, seed=2)
        way = m.commit_update(rec(pc, t1, BranchKind.INDIRECT)).way
        out = m.commit_update(rec(pc, t2, BranchKind.INDIRECT))
        assert (out.kind, out.way) == ("rewrite", way)
        assert m.lookup(pc).target == t2

    def test_companion_shrink_migrates_back(self):
        m = BtbX(arm64_geometry(32))
        base = 1 << 20
        pc, far = pair_with_width(base, 30)
        _, near = pair_with_width(base, 5)
        assert m.commit_update(rec(pc, far, BranchKind.INDIRECT)).structure == "xc"
        out = m.commit_update(rec(pc, near, BranchKind.INDIRECT))
        assert (out.kind, out.structure) == ("migrate", "main")
        assert m.lookup(pc).source != "xc"
        assert valid_counts(m)["xc"] == 0

    def test_repeat_commit_is_pure_hit(self):
        m = BtbX(arm64_geometry(32))
        m.commit_update(rec(WORKED_PC, WORKED_TARGET))
        out = m.commit_update(rec(WORKED_PC, WORKED_TARGET))
        assert out.kind == "hit"

    def test_return_stores_offset_field_0(self):
        """A return's target comes from the RAS, so its entry's offset field
        is 0 in any way, as rbtb's and pdede's in-page offset is."""
        m = BtbX(arm64_geometry(32))
        pa = 0x1000
        pb = pa + (m.sets << 2)  # the same set, another tag
        assert m.commit_update(rec(pa, pa + 0x34, BranchKind.RETURN)).way == 0
        out = m.commit_update(rec(pb, pb + 0x34, BranchKind.RETURN))
        s, _ = m._main.memo[pb >> 2]
        assert out.way == 1 and m.widths[out.way] > 0
        assert m._entry[s][out.way][1] == 0
        m.check_invariants()


def full_set(touches):
    """One 8-way set with every way valid (tag = way), then touched in order."""
    table = SetArray(1, 8)
    for way in range(8):
        assert table.fill(0, way) == (way, False)
    for way in touches:
        table.touch(0, way)
    return table


class TestRestrictedLru:
    def test_singleton_eligible(self):
        table = full_set((3, 1, 7, 0))
        table.invalidate(0, 0)  # an empty way before `first` stays unused
        assert table.fill(0, 99, 7) == (7, True)
        assert table.tags[0][7] == 99

    def test_oldest_among_eligible(self):
        # recency oldest -> newest among the interesting ways: 5, 2, 7, 6
        table = full_set((0, 1, 3, 4, 5, 2, 7, 6))
        assert table.fill(0, 99, 5) == (5, True)

    def test_invalid_way_preferred(self):
        table = full_set(range(8))
        table.invalidate(0, 6)
        assert table.fill(0, 99, 5) == (6, False)
        assert table.way_valid == [1] * 8
        table.check()

    def test_empty_eligible_is_a_bug(self):
        with pytest.raises(InvariantError):
            full_set(()).fill(0, 99, 8)

    @pytest.mark.parametrize("ways", [1, 2, 4, 8, 16])
    def test_oldest_matches_recency_list(self, ways):
        rng = random.Random(ways)
        table = SetArray(1, ways)
        for way in range(ways):
            table.fill(0, way)
        order = list(range(ways))  # oldest first: the ways were filled in order
        for tag in range(ways, ways + 400):
            way = rng.randrange(ways)
            table.touch(0, way)
            order.remove(way)
            order.append(way)
            # The set stays full, so a fill evicts the oldest eligible way.
            first = rng.randrange(ways)
            way, victim_valid = table.fill(0, tag, first)
            assert victim_valid
            assert way == min(range(first, ways), key=order.index)
            order.remove(way)
            order.append(way)
        table.check()

    def test_check_rejects_repeated_stamp(self):
        table = SetArray(1, 4)
        table.stamps[0][1] = table.stamps[0][2]
        with pytest.raises(InvariantError, match="stamps"):
            table.check()


class TestLocateMemo:
    @pytest.mark.parametrize("sets", [1, 29, 64, 399, 512])
    @pytest.mark.parametrize("tag_bits", [10, 12, 15])
    def test_memo_matches_formula(self, sets, tag_bits):
        rng = random.Random(sets * tag_bits)
        table = SetArray(sets, 4, tag_bits)
        lines = [rng.getrandbits(rng.choice((8, 20, 46))) for _ in range(300)]
        for line in lines + lines:  # the second pass reads the memo
            s, tag = table.memo[line]  # a line's first probe fills it
            assert (s, tag) == (line % sets, xor_fold(line // sets, tag_bits))
            assert (s, tag) == table.set_tag(line)
            way = table.probe(s, tag)
            if way is None and rng.random() < 0.5:
                table.fill(s, tag)
        assert len(table.memo) == len(set(lines))
        table.check()

    def test_memo_stops_storing_at_its_bound(self):
        sets, tag_bits = 64, 12
        table = SetArray(sets, 4, tag_bits)
        lines = range(1 << 20, (1 << 20) + MEMO_LINES + 100)
        for line in [*lines, *lines]:  # the second pass reads stored lines
            assert table.memo[line] == (line % sets,
                                        xor_fold(line // sets, tag_bits))
        assert len(table.memo) == MEMO_LINES
        assert all(line in table.memo for line in lines[:MEMO_LINES])
        table.check()

    def test_btbx_companion_keeps_no_memo(self):
        m = BtbX(BtbxGeometry(sets=8))
        spec = GeneratorSpec(static_branches=200, records=3000,
                             pattern="uniform", seed=5,
                             width_buckets=((0, 6, 0.5), (7, 20, 0.3),
                                            (21, 30, 0.2)))
        run(m, list(gen_records(spec)))
        assert m.occupancy_items()[-1][1] > 0  # the companion holds entries
        assert len(m._xc.memo) == 0 and len(m._main.memo) > 0
        m.check_invariants()

    @staticmethod
    def round_robin(lines, passes=2):
        """Taken branches on `lines` distinct lines, visited in turn; every
        eighth target is too far for the main array's widest way."""
        for _ in range(passes):
            for i in range(lines):
                pc = ((1 << 22) + 1025 * i) << 2
                far = 40 if i % 8 == 0 else 6
                yield pc, pc ^ (1 << far), BranchKind.CONDITIONAL, True, 0

    def test_btbx_memory_flat_past_the_bound(self):
        """Ten times the distinct lines add at most the bound's worth of
        memo: 1 << 14 lines at about 200 B each."""
        peaks = []
        for lines in (4_000, 40_000):
            tracemalloc.start()
            try:
                m = build_model("btbx", budget_kb=0.9)
                for record in self.round_robin(lines):
                    m.commit_update(record)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 3.3e6, peaks

    def test_check_rejects_corrupted_memo(self):
        table = SetArray(64, 4, 12)
        s, tag = table.memo[0x12345]
        table.memo[0x12345] = (s, tag ^ 1)
        with pytest.raises(InvariantError, match="memo"):
            table.check()


def aliasing_line(table, line):
    """Another line with the same set and tag as `line`."""
    return next(other for other in range(line + table.sets, line + (1 << 40),
                                          table.sets)
                if table.set_tag(other) == table.set_tag(line))


class TestStoredPredictions:
    """A hit returns the prediction stored when its entry was written only
    while that prediction is still what the entry decodes to."""

    def test_btbx_aliasing_pcs_decode_their_own_targets(self):
        m = BtbX(arm64_geometry(32))
        pa = 0x40000 << 2
        pb = aliasing_line(m._main, pa >> 2) << 2
        ta = pa ^ (0b101 << 2)  # width 3: the 4-bit way
        m.commit_update(rec(pa, ta))
        pred_b = m.lookup(pb)
        way = int(pred_b.source[3:])
        n = m.widths[way] + 2
        tb = (pb & ~((1 << n) - 1)) | (ta & ((1 << n) - 1))
        assert pred_b.target == tb != ta
        assert m.lookup(pa).target == ta
        assert m.commit_update(rec(pb, tb)).kind == "hit"
        assert m.lookup(pa).target == ta
        m.check_invariants()

    def test_pdede_aliasing_pcs_rebuild_their_own_page(self):
        m = PdedeBtb(main_entries=64, page_entries=16)
        pa = 0x40000 << 2
        pb = aliasing_line(m._main, pa >> 2) << 2
        ta = (pa & ~(PAGE - 1)) | 0x10  # same page as pa
        m.commit_update(rec(pa, ta))
        tb = (pb & ~(PAGE - 1)) | 0x10
        assert m.lookup(pb).target == tb != ta
        assert m.lookup(pa).target == ta
        assert m.commit_update(rec(pb, tb)).kind == "hit"
        m.check_invariants()

    def test_pdede_far_entry_committed_by_a_pc_on_its_page_is_rewritten(self):
        """A pdede hit also needs the entry's page handling to be the
        committing pc's: pb, on the page of pa's far target, commits that
        target and turns pa's entry into its own same-page entry."""
        m = PdedeBtb(main_entries=64, page_entries=16)
        pa = 0x40000 << 2
        pb = aliasing_line(m._main, pa >> 2) << 2
        assert pa // PAGE != pb // PAGE
        t = (pb & ~(PAGE - 1)) | 0x10
        m.commit_update(rec(pa, t))
        s, tag = m._main.memo[pa >> 2]
        way = m._main.probe(s, tag)
        assert m._entry[s][way][1] != NO_PAGE  # its page pointer
        assert m.lookup(pb).target == t  # the same kind and target
        out = m.commit_update(rec(pb, t))
        assert (out.kind, out.way) == ("rewrite", way)
        _, ptr, _, _, owner = m._entry[s][way]
        assert (ptr, owner) == (NO_PAGE, pb)
        assert m.lookup(pa).target == (pa & ~(PAGE - 1)) | 0x10
        m.check_invariants()

    @pytest.mark.parametrize("model", [
        lambda: RBtb(main_entries=64, page_entries=1),
        lambda: PdedeBtb(main_entries=64, page_entries=1),
    ])
    def test_evicted_page_slot_misses_even_after_its_page_returns(self, model):
        m = model()
        a = rec(0x1000, (5 << 12) | 0x10)
        m.commit_update(a)
        assert m.lookup(a.pc).target == a.target
        m.commit_update(rec(0x2000, (6 << 12) | 0x20))  # evicts page 5
        assert m.lookup(a.pc) is None
        m.commit_update(rec(0x3000, (5 << 12) | 0x30))  # page 5 again, new slot life
        assert m.lookup(a.pc) is None
        assert valid_counts(m)["main"] == 3
        m.check_invariants()

    def test_pdede_evicted_region_slot_misses(self):
        m = PdedeBtb(main_entries=64, page_entries=16, region_entries=1)
        a = rec(0x1000, (5 << 12) | 0x10)  # region 0
        m.commit_update(a)
        assert m.lookup(a.pc).target == a.target
        m.commit_update(rec(0x2000, (0x105 << 12) | 0x20))  # region 1 evicts 0
        assert m.lookup(a.pc) is None
        m.commit_update(rec(0x3000, (5 << 12) | 0x30))  # region 0 again
        assert m.lookup(a.pc) is None
        m.check_invariants()

    @pytest.mark.parametrize("index", range(4))
    def test_check_rejects_a_prediction_that_differs_from_its_payload(self, index):
        m = churn_models()[index]
        r = rec(0x1000, (5 << 12) | 0x10)
        m.commit_update(r)
        m.check_invariants()
        s, tag = m._main.memo[r.pc >> 2]
        way = m._main.probe(s, tag)
        entry = m._entry[s][way]
        pred = entry if m.name == "conv" else entry[0]
        wrong = [pred._replace(source="way7" if way != 7 else "way6")]
        if m.name != "conv":  # conv's payload is the prediction itself
            wrong.append(pred._replace(target=pred.target + 4))
        for bad in wrong:
            m._entry[s][way] = bad if m.name == "conv" else (bad, *entry[1:])
            with pytest.raises(InvariantError, match="prediction"):
                m.check_invariants()

    def test_btbx_check_rejects_an_owner_whose_target_outgrows_its_way(self):
        m = BtbX(arm64_geometry(32))
        pc, target = pair_with_width(1 << 20, 9)
        m.commit_update(rec(pc, target))
        m.check_invariants()
        s, tag = m._main.memo[pc >> 2]
        way = m._main.probe(s, tag)
        pred, offset, _ = m._entry[s][way]
        # Owned by a pc whose target needs 39 offset bits.
        m._entry[s][way] = (pred, offset, pc ^ (1 << 40))
        with pytest.raises(InvariantError, match="offset bits"):
            m.check_invariants()


def churn_models(isa=ALIGNED4):
    return [BtbX(BtbxGeometry(sets=8, isa=isa), isa), ConvBtb(entries=32, isa=isa),
            RBtb(main_entries=32, page_entries=4, isa=isa),
            PdedeBtb(main_entries=32, page_entries=16, region_entries=2, isa=isa)]


class TestProbeReuse:
    """A commit makes its own probe and leaves in `predicted` what a lookup
    just before it would have returned, so no probe is handed from a lookup
    to a commit.  A model driven by commits alone goes through the same
    states and outcomes as a twin that is also looked up before each one."""

    @pytest.mark.parametrize("index", range(4))
    def test_other_pc_in_same_set_probes_afresh(self, index):
        m = churn_models()[index]
        sets = m.sets
        a, b = rec(0x1000, 0x1010), rec(0x1000 + 4 * sets, 0x1020)
        m.commit_update(b)
        m.lookup(a.pc)  # a is absent; its probe found no way
        assert m.commit_update(b).kind == "hit"
        assert m.predicted.target == b.target
        m.commit_update(a)
        assert m.predicted is None
        assert m.lookup(a.pc) is not None  # a's probe found a's way
        assert m.commit_update(b).kind == "hit"
        assert m.predicted.target == b.target
        m.check_invariants()

    @pytest.mark.parametrize("index", range(4))
    def test_same_pc_after_another_commit_probes_afresh(self, index):
        m = churn_models()[index]
        a = rec(0x1000, 0x1010)
        m.lookup(a.pc)  # miss
        assert m.commit_update(a).kind == "alloc"
        assert m.predicted is None
        assert m.commit_update(a).kind == "hit"  # not a second allocation
        assert m.predicted == m.lookup(a.pc) is not None
        m.check_invariants()

    @pytest.mark.parametrize("index", range(4))
    def test_commit_after_looked_up_way_was_evicted_allocates(self, index):
        m = churn_models()[index]
        ways = m._main.ways
        # pcs 4 * sets apart share a set; a self-target fits every way.
        pcs = [0x1000 + 4 * m.sets * k for k in range(2 * ways)]
        a = pcs[0]
        for pc in pcs[:ways]:
            m.commit_update(rec(pc, pc))  # the set is full, a its oldest
        looked_up = m.lookup(a)  # finds a's way and makes a the newest
        for pc in pcs[ways:]:
            outcome = m.commit_update(rec(pc, pc))
        # The last of `ways` fresh branches evicted a's way.
        assert outcome.kind == "alloc" and outcome.victim_valid
        assert looked_up.source == f"way{outcome.way}"
        # a must allocate, not hit or rewrite the entry that now holds the
        # way its lookup found.
        assert m.commit_update(rec(a, a)).kind == "alloc"
        assert m.predicted is None
        assert m.lookup(pcs[-1]).target == pcs[-1]  # that entry is intact
        m.check_invariants()

    def test_btbx_one_companion_probe_per_record(self):
        m = BtbX(arm64_geometry(32))
        lines = []
        set_tag = m._xc.set_tag

        def counting_set_tag(line):
            lines.append(line)
            return set_tag(line)

        m._xc.set_tag = counting_set_tag
        wide = rec(0x1000, 0x1000 ^ (1 << 40))  # wider than way 7
        assert m.commit_update(wide).structure == "xc"
        assert m.predicted is None
        assert m.commit_update(wide).kind == "hit"
        assert m.predicted.source == "xc"
        assert m.lookup(wide.pc).source == "xc"
        assert lines == [wide.pc >> 2] * 3  # one companion probe per record
        # A main-array entry that outgrows way 7 probes the companion once,
        # to fill it; a main-array miss probes it once, to look.
        pc, near = pair_with_width(1 << 21, 4)
        assert m.commit_update(rec(pc, near, BranchKind.INDIRECT)).structure == "main"
        out = m.commit_update(rec(pc, pc ^ (1 << 40), BranchKind.INDIRECT))
        assert (out.kind, out.structure) == ("migrate", "xc")
        assert lines[3:] == [pc >> 2] * 2
        m.check_invariants()

    @pytest.mark.parametrize("index, isa", [
        *(pytest.param(i, ALIGNED4, id=str(i)) for i in range(4)),
        *(pytest.param(i, BYTE, id=f"byte-{i}") for i in range(4))])
    def test_random_interleaving_matches_fresh_probes(self, index, isa):
        rng = random.Random(index)
        spec = GeneratorSpec(static_branches=120, records=3000,
                             pattern="uniform", seed=index,
                             width_buckets=((0, 6, 0.5), (7, 20, 0.3),
                                            (21, 30, 0.2)),
                             isa_mode=isa.mode)
        records = list(gen_records(spec))
        twin, alone = churn_models(isa)[index], churn_models(isa)[index]
        # Branches whose pc aliases another's set and tag, so a probe may
        # hit an entry that another pc wrote.
        shift = isa.align_shift
        records += [r._replace(pc=aliasing_line(twin._main, r.pc >> shift) << shift)
                    for r in records[:30]]
        for step in range(4000):
            r = rng.choice(records)
            op = rng.random()
            if op < 0.1:  # a lone lookup, as for a not-taken branch
                assert alone.lookup(r.pc) == twin.lookup(r.pc)
            elif op < 0.2:  # a lone commit on both
                assert alone.commit_update(r) == twin.commit_update(r)
                assert alone.predicted == twin.predicted
            else:  # the twin's commit comes after its lookup
                looked_up = twin.lookup(r.pc)
                assert alone.commit_update(r) == twin.commit_update(r)
                assert alone.predicted == looked_up == twin.predicted
            if step % 500 == 0:
                twin.check_invariants()
                alone.check_invariants()
        twin.check_invariants()
        alone.check_invariants()


class TestOneProbe:
    def test_only_btbx_lookup_is_written_again(self):
        """The front end's probe and the commit are written once, in
        `BtbModel`, for all four models: btbx adds its companion to the
        lookup, and no model writes its own commit."""
        own = [f"{cls.__name__}.{name}"
               for cls in (ConvBtb, RBtb, PdedeBtb, BtbX)
               for name in ("lookup", "commit_update") if name in vars(cls)]
        assert own == ["BtbX.lookup"]


class TestOnePlacement:
    def test_only_base_fills_or_invalidates_a_main_array(self):
        """Placement is written once, in `BtbModel`: `_place` fills a main
        array and `_change` moves an entry between its ways, and the models
        state only the first way an entry may use.  A call through a local
        bound to `self._main` (`main = self._main`) counts too."""
        import btblab.models
        calls = []
        for path in sorted(Path(btblab.models.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            main = {"self._main"} | {
                ast.unparse(target) for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and ast.unparse(node.value) == "self._main"
                for target in node.targets}
            calls += [f"{path.name}:{node.lineno}: {node.func.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("fill", "invalidate")
                      and ast.unparse(node.func.value) in main]
        assert calls  # base.py's own, so the search does find such calls
        assert [call for call in calls if not call.startswith("base.py:")] == []


class TestOneCommit:
    def test_only_base_commits_and_placement_is_a_table(self):
        """The commit and the move of an entry are written once, in
        `BtbModel`, and each model states where an entry may go as data:
        `_first`, a tuple indexed by offset length, not a method."""
        import btblab.models
        defs = []
        for path in sorted(Path(btblab.models.__file__).parent.glob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    names = ([node.name] if isinstance(node, ast.FunctionDef)
                             else [ast.unparse(t) for t in node.targets]
                             if isinstance(node, ast.Assign) else [])
                    defs += [f"{cls.name}.{name}" for name in names
                             if name in ("commit_update", "_change", "_first")]
        assert sorted(defs) == ["BtbModel._change", "BtbModel.commit_update"]
        for name in MODEL_NAMES:
            assert type(build_model(name, budget_kb=14.5)._first) is tuple


def first_way_rule(name, isa):
    """`_first[n]` for n = 0..64, stated from the way widths, the page size
    and the associativity alone."""
    rule = []
    for n in range(65):
        first = 0
        if name == "btbx":
            first = ASSOC
            for k, width in enumerate(storage.WAY_WIDTHS[isa]):
                if width >= n - isa.align_shift:
                    first = k
                    break
        elif name == "pdede" and n > PAGE_SHIFT:
            first = ASSOC // 2
        rule.append(first)
    return tuple(rule)


class TestFirstWayTables:
    @pytest.mark.parametrize("isa", PROFILES, ids=lambda isa: isa.name)
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_preset_follows_its_rule(self, name, isa):
        rule = first_way_rule(name, isa)
        for kb in storage.standard_budgets_kb(isa):
            m = build_model(name, budget_kb=kb, isa=isa)
            assert m._first == rule, kb

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_a_64_bit_offset_is_placed_then_hits(self, name):
        """Records reach a model unchecked through the library, so the
        table covers every offset of two u64 addresses."""
        m = build_model(name, budget_kb=14.5)
        r = rec(0x1000, 0x1000 ^ (1 << 63))
        assert [m.commit_update(r).kind for _ in range(2)] == ["alloc", "hit"]
        m.check_invariants()


class TestOneEntryPerWay:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("budget_kb", [14.5, 58.0])
    def test_only_per_set_lists_are_tags_stamps_and_entries(self, name, budget_kb):
        """Each way stores one entry, in `_entry`: besides the main array's
        tags and recency stamps, a model keeps no list of per-way lists."""
        m = build_model(name, budget_kb=budget_kb)
        attrs = dict(vars(m))
        for attr, value in vars(m).items():
            if isinstance(value, SetArray):
                attrs.update((f"{attr}.{slot}", getattr(value, slot))
                             for slot in SetArray.__slots__)
        per_set = sorted(attr for attr, v in attrs.items()
                         if isinstance(v, list) and len(v) == m.sets
                         and all(isinstance(row, list) and len(row) == m.ways
                                 for row in v))
        assert per_set == ["_entry", "_main.stamps", "_main.tags"]


class TestOneEntryRule:
    """The entry invariant is written once, in `BtbModel.check_invariants`:
    each organization states how an entry rebuilds (`_rebuilt`), and each
    side table keeps one record per slot beside its own tags or page map."""

    def test_the_payload_check_is_written_once(self):
        import btblab.models
        models_dir = Path(btblab.models.__file__).parent
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in sorted(models_dir.glob("*.py"))}
        raises = [name for name, text in sources.items()
                  for _ in range(text.count("differs from its payload"))]
        assert raises == ["base.py"]
        loops = [name for name, text in sources.items()
                 if "_main.occupied()" in text]
        assert loops == ["base.py"]
        assert [cls.__name__ for cls in (ConvBtb, RBtb, PdedeBtb, BtbX)
                if "_rebuilt" in vars(cls)] == ["RBtb", "PdedeBtb", "BtbX"]
        assert not {"check_invariants", "occupancy_items"} & set(vars(ConvBtb))

    @pytest.mark.parametrize("budget_kb", [0.90625, 14.5, 58.0])
    def test_one_list_per_side_table_slot(self, budget_kb):
        slots = {"conv": [], "rbtb": ["_pt_slot"],
                 "pdede": ["_pt_slot", "_rt_gen"], "btbx": ["_xc_pred"]}
        for name in MODEL_NAMES:
            m = build_model(name, budget_kb=budget_kb)
            sizes = {getattr(m, attr) for attr in ("page_entries",
                                                   "region_entries")
                     if hasattr(m, attr)}
            if hasattr(m, "_xc"):
                sizes.add(m._xc.sets)
            lists = sorted(attr for attr, value in vars(m).items()
                           if isinstance(value, list) and attr != "_entry"
                           and len(value) in sizes)
            assert lists == slots[name], name


class TestInvariantChecks:
    """Each check fails on a model whose state it guards is corrupted."""

    def test_set_array_rejects_valid_count_drift(self):
        table = full_set(())
        table.check()
        table.way_valid[3] -= 1
        with pytest.raises(InvariantError, match="per-way valid drift"):
            table.check()

    def test_btbx_rejects_an_offset_field_overflow(self):
        m = BtbX(arm64_geometry(32))
        pc, target = pair_with_width(1 << 20, 4)
        out = m.commit_update(rec(pc, target))
        m.check_invariants()
        s, _ = m._main.memo[pc >> 2]
        pred, offset, owner = m._entry[s][out.way]
        m._entry[s][out.way] = (pred, offset | 1 << m.widths[out.way], owner)
        with pytest.raises(InvariantError, match="offset field overflow"):
            m.check_invariants()

    def test_btbx_rejects_a_bad_companion_prediction(self):
        m = BtbX(arm64_geometry(32))
        pc, target = pair_with_width(1 << 20, 26)  # wider than way 7
        out = m.commit_update(rec(pc, target))
        assert out.structure == "xc"
        m.check_invariants()
        pred = m._xc_pred[out.way]
        for bad in (pred._replace(source="way7"), pred._replace(target=None)):
            m._xc_pred[out.way] = bad
            with pytest.raises(InvariantError,
                               match=f"xc slot {out.way}: bad prediction"):
                m.check_invariants()

    def test_rbtb_rejects_a_page_map_out_of_sync(self):
        m = RBtb(main_entries=64, page_entries=8)
        m.commit_update(rec(0x1000, (5 << 12) | 0x10))  # page 5 in slot 0
        m.commit_update(rec(0x2000, (6 << 12) | 0x20))  # page 6 in slot 1
        m.check_invariants()
        m._pt_map[5], m._pt_map[6] = m._pt_map[6], m._pt_map[5]
        with pytest.raises(InvariantError, match="page map out of sync at slot 0"):
            m.check_invariants()

    def test_pdede_write_rejects_a_far_target_in_a_reserved_way(self):
        m = PdedeBtb(main_entries=64, page_entries=16)
        s, tag = m._main.memo[0x5000 >> 2]
        way, _ = m._main.fill(s, tag)  # a placement that skips the reservation
        assert way < m.reserved_ways
        with pytest.raises(InvariantError,
                           match=f"different-page entry written to reserved way {way}"):
            m._write(s, way, 0x5000, (900 << 12) | 0x24, BranchKind.INDIRECT)

    def test_pdede_rejects_a_far_entry_in_a_reserved_way(self):
        m = PdedeBtb(main_entries=64, page_entries=16)
        out = m.commit_update(rec(0x5000, 0x5100))  # same page
        assert out.way < m.reserved_ways
        m.check_invariants()
        s, _ = m._main.memo[0x5000 >> 2]
        pred, _, gen, in_off, owner = m._entry[s][out.way]
        m._entry[s][out.way] = (pred, 0, gen, in_off, owner)  # page pointer 0
        with pytest.raises(InvariantError, match=f"set {s} reserved way {out.way} "
                                                 "holds a different-page entry"):
            m.check_invariants()


class TestConv:
    def test_single_branch_steady_hits(self):
        m = ConvBtb(entries=64)
        trace = taken_branch_trace([(0x1000, 0x2000)], repeats=50)
        m.commit_update(trace[0])
        assert all(m.lookup(r.pc).target == 0x2000 for r in trace)

    def test_lru_round_robin_thrash(self):
        # classic oracle: assoc+1 branches cycling through one set all miss
        m = ConvBtb(entries=8)
        assert m.sets == 1
        pairs = [(0x1000 + 4 * i, 0x2000) for i in range(9)]
        warm = taken_branch_trace(pairs)
        for r in warm:
            m.commit_update(r)
        hits = 0
        for r in taken_branch_trace(pairs, repeats=3):
            if m.lookup(r.pc) is not None:
                hits += 1
            m.commit_update(r)
        assert hits == 0

    def test_working_set_within_capacity_all_hits(self):
        m = ConvBtb(entries=8)
        pairs = [(0x1000 + 4 * i, 0x2000) for i in range(8)]
        for r in taken_branch_trace(pairs):
            m.commit_update(r)
        assert all(m.lookup(pc) is not None for pc, _ in pairs)

    def test_published_entry_count_accepted(self):
        m = ConvBtb(entries=1856)
        assert m.sets * m.ways == 1856

    def test_awkward_entry_count_drops_associativity(self):
        m = ConvBtb(entries=116)
        assert m.ways == 4 and m.sets == 29

    def test_return_entry_defers_to_ras(self):
        m = ConvBtb(entries=64)
        m.commit_update(rec(0x1000, 0x9000, BranchKind.RETURN))
        assert m.lookup(0x1000).target is None


class TestRBtb:
    def test_same_page_targets_share_one_slot(self):
        m = RBtb(main_entries=64, page_entries=8)
        page = 7 << 12
        m.commit_update(rec(0x1000, page | 0x10))
        m.commit_update(rec(0x2000, page | 0x20))
        assert valid_counts(m)["page"] == 1
        assert m.lookup(0x1000).target == page | 0x10
        assert m.lookup(0x2000).target == page | 0x20

    def test_single_page_slot_thrash(self):
        m = RBtb(main_entries=64, page_entries=1)
        a = rec(0x1000, (5 << 12) | 0x10)
        b = rec(0x2000, (6 << 12) | 0x20)
        m.commit_update(a)
        m.commit_update(b)  # page slot stolen; a's entry now dangles
        assert m.lookup(a.pc) is None
        assert m.lookup(b.pc).target == b.target
        m.commit_update(a)  # steals it back
        assert m.lookup(b.pc) is None

    def test_empty_misses(self):
        assert RBtb(64, 8).lookup(0x1000) is None

    def test_stale_pointer_never_returns_wrong_target(self):
        m = RBtb(main_entries=64, page_entries=1)
        m.commit_update(rec(0x1000, (5 << 12) | 0x10))
        m.commit_update(rec(0x2000, (6 << 12) | 0x20))
        pred = m.lookup(0x1000)
        assert pred is None  # not a reconstructed hybrid of the two pages

    def test_page_victim_order_matches_recency_list(self):
        # Every commit is a fresh pc, so each one allocates and touches its
        # target's page; a page already resident becomes the most recent.
        m = RBtb(main_entries=4096, page_entries=6)
        rng = random.Random(12)
        order = []  # resident pages, least recently used first
        for i in range(3000):
            page = 0x100 + rng.randrange(10)
            record = rec(0x100000 + 4 * i, (page << 12) | 0x40)
            assert m.commit_update(record).kind == "alloc"
            if page in order:
                order.remove(page)
            elif len(order) == 6:
                del order[0]
            order.append(page)
            assert set(m._pt_map) == set(order)
            assert m.lookup(record.pc).target == record.target
        m.check_invariants()


class TestPdede:
    @pytest.mark.parametrize("sizes", [
        dict(page_entries=0), dict(page_entries=-1),
        dict(region_entries=0), dict(region_entries=-1),
    ], ids=["page0", "page-1", "region0", "region-1"])
    def test_rejects_empty_side_tables(self, sizes):
        with pytest.raises(ValueError,
                           match="page_entries and region_entries must be >= 1"):
            PdedeBtb(**{"main_entries": 64, "page_entries": 16, **sizes})

    def test_same_page_lookup_skips_page_table(self):
        m = PdedeBtb(main_entries=64, page_entries=32)
        pc = 0x5000
        m.commit_update(rec(pc, 0x5ab8))  # same page as pc
        for _ in range(5):
            assert m.lookup(pc).target == 0x5ab8
        m.commit_update(rec(pc, 0x5ab8))
        counts = valid_counts(m)
        assert (counts["main"], counts["page"], counts["region"]) == (1, 0, 0)

    def test_different_page_references_one_page_and_region(self):
        m = PdedeBtb(main_entries=64, page_entries=32)
        m.commit_update(rec(0x5000, (900 << 12) | 0x24))
        assert valid_counts(m)["page"] == 1
        assert valid_counts(m)["region"] == 1
        assert m.lookup(0x5000).target == (900 << 12) | 0x24

    def test_same_page_alloc_prefers_reserved_ways(self):
        m = PdedeBtb(main_entries=64, page_entries=32)
        out = m.commit_update(rec(0x5000, 0x5100))
        assert out.way < m.reserved_ways

    def test_different_page_alloc_uses_general_ways(self):
        m = PdedeBtb(main_entries=64, page_entries=32)
        out = m.commit_update(rec(0x5000, (900 << 12) | 0x24))
        assert out.way >= m.reserved_ways

    def test_region_thrash_with_five_regions(self):
        m = PdedeBtb(main_entries=64, page_entries=32, region_entries=4)
        region_span = 1 << (12 + 8)  # page_shift + region_pages_log2
        branches = [rec(0x1000 + 8 * i, (i + 1) * region_span + 0x10)
                    for i in range(5)]
        for r in branches:  # warmup cycle
            m.commit_update(r)
        # five regions cycling through four LRU slots: by each revisit the
        # branch's region has been evicted again, so every lookup is stale
        hits = 0
        for r in branches * 3:
            hits += m.lookup(r.pc) is not None
            m.commit_update(r)
        assert hits == 0

    def test_four_regions_fit(self):
        m = PdedeBtb(main_entries=64, page_entries=32, region_entries=4)
        region_span = 1 << 20
        branches = [rec(0x1000 + 8 * i, (i + 1) * region_span + 0x10)
                    for i in range(4)]
        for r in branches * 2:
            m.commit_update(r)
        assert all(m.lookup(r.pc).target == r.target for r in branches)

    def test_reserved_way_never_holds_different_page(self):
        m = PdedeBtb(main_entries=64, page_entries=32)
        pc = 0x5000
        m.commit_update(rec(pc, 0x5100, BranchKind.INDIRECT))  # same page
        m.commit_update(rec(pc, (900 << 12) | 0x24, BranchKind.INDIRECT))
        m.check_invariants()
        assert m.lookup(pc).target == (900 << 12) | 0x24

    def test_strict_reservation_limits_different_page_capacity(self):
        m = PdedeBtb(main_entries=8, page_entries=32)  # one set: 4 + 4 ways
        far = [rec(0x1000 + 8 * i, ((100 + i) << 12) | 0x10) for i in range(5)]
        for r in far:
            m.commit_update(r)
        # five different-page branches cycling over four general ways: thrash
        hits = 0
        for r in far * 3:
            hits += m.lookup(r.pc) is not None
            m.commit_update(r)
        assert hits == 0
        near = rec(0x2000, 0x2100)
        m.commit_update(near)
        assert m.lookup(near.pc) is not None  # reserved ways unaffected

    def test_reserved_way_migrate_and_the_fills_after_it(self):
        """A same-page entry in a reserved way that commits an off-page
        target migrates to the LRU general way; the fills after it take the
        emptied reserved way first and then evict in LRU order, so where
        the commit touches the way it leaves does not show."""
        m = PdedeBtb(main_entries=8, page_entries=32)  # one set: 4 + 4 ways
        far = (900 << 12) | 0x24
        near = [rec(0x5000 + 4 * i, 0x5800) for i in range(4)]
        off = [rec(0x5100 + 4 * i, far) for i in range(4)]
        assert [m.commit_update(r).way for r in near + off] == list(range(8))
        out = m.commit_update(rec(near[0].pc, far))
        assert (out.kind, out.way >= m.reserved_ways) == ("migrate", True)
        assert out == ("migrate", "main", 4, True)
        assert m.lookup(near[0].pc).target == far
        fills = [rec(0x5200, far), rec(0x5204, 0x5a00), rec(0x5208, 0x5a00),
                 rec(0x520c, far), rec(0x5210, 0x5a00)]
        assert [tuple(m.commit_update(r)) for r in fills] == [
            ("alloc", "main", 5, True), ("alloc", "main", 0, False),
            ("alloc", "main", 1, True), ("alloc", "main", 6, True),
            ("alloc", "main", 2, True)]
        m.check_invariants()


def main_recency(m, pc):
    """The main array's clock and the recency stamps of pc's set."""
    s, _ = m._main.memo[pc >> m._shift]
    return m._main.clock, list(m._main.stamps[s])


class TestLookupRecency:
    """A lookup's live hit makes its way the most recently used; a probe
    that meets a dead link, or hits only btbx's companion, changes no
    recency in the main array."""

    @pytest.mark.parametrize("model, far", [
        (lambda: ConvBtb(64), True), (lambda: RBtb(64, 8), True),
        (lambda: PdedeBtb(64, 32), True), (lambda: PdedeBtb(64, 32), False),
        (lambda: BtbX(arm64_geometry(32)), False)],
        ids=["conv", "rbtb", "pdede-far", "pdede-near", "btbx"])
    def test_live_hit_stamps_its_way_with_the_new_clock(self, model, far):
        m = model()
        pc = 0x1000
        target = (900 << 12) | 0x24 if far else pc + 0x40
        m.commit_update(rec(pc, target))
        m.commit_update(rec(pc + 4 * m.sets, target))  # same set
        s, tag = m._main.memo[pc >> m._shift]
        way = m._main.tags[s].index(tag)
        clock, stamps = main_recency(m, pc)
        assert m.lookup(pc).target == target
        assert m._main.clock == clock + 1
        stamps[way] = clock + 1
        assert main_recency(m, pc) == (clock + 1, stamps)

    def test_rbtb_dead_page_link_touches_nothing(self):
        m = RBtb(main_entries=64, page_entries=1)
        a = rec(0x1000, (5 << 12) | 0x10)
        m.commit_update(a)
        m.commit_update(rec(0x2000, (6 << 12) | 0x20))  # refills the page slot
        before = main_recency(m, a.pc)
        assert m.lookup(a.pc) is None
        assert main_recency(m, a.pc) == before

    @pytest.mark.parametrize("link", ["page", "region"])
    def test_pdede_dead_link_touches_nothing(self, link):
        if link == "page":  # one page slot, so the second page refills it
            m = PdedeBtb(main_entries=64, page_entries=1)
            targets = [(900 << 12) | 0x24, (901 << 12) | 0x24]
        else:  # five regions over four region slots refill the first's
            m = PdedeBtb(main_entries=64, page_entries=32, region_entries=4)
            targets = [(i + 1) << 20 | 0x10 for i in range(5)]
        a = rec(0x1000, targets[0])
        for i, target in enumerate(targets):
            m.commit_update(rec(a.pc + 8 * i, target))
        before = main_recency(m, a.pc)
        assert m.lookup(a.pc) is None
        assert main_recency(m, a.pc) == before

    def test_btbx_companion_hit_leaves_main_clock(self):
        m = BtbX(arm64_geometry(32))
        pc, target = pair_with_width(1 << 20, 26)
        m.commit_update(rec(0x1000, 0x1040))  # a main-array entry
        m.commit_update(rec(pc, target))  # too wide: the companion
        before = main_recency(m, pc)
        assert m.lookup(pc).source == "xc"
        assert main_recency(m, pc) == before


class TestConservationAndDeterminism:
    @pytest.mark.parametrize("name", ["conv", "rbtb", "pdede", "btbx"])
    def test_random_churn_keeps_invariants(self, name):
        if name == "btbx":
            model = BtbX(BtbxGeometry(sets=8))
        elif name == "conv":
            model = ConvBtb(entries=32)
        elif name == "rbtb":
            model = RBtb(main_entries=32, page_entries=4)
        else:
            model = PdedeBtb(main_entries=32, page_entries=16)
        spec = GeneratorSpec(static_branches=200, records=3000,
                             pattern="uniform", seed=5,
                             width_buckets=((0, 6, 0.5), (7, 20, 0.3), (21, 30, 0.2)))
        for r in gen_records(spec):
            model.lookup(r.pc)
            if r.taken:
                model.commit_update(r)
        model.check_invariants()
        for name_, valid, cap in model.occupancy_items():
            assert 0 <= valid <= cap

    def test_event_streams_replay_identically(self):
        spec = GeneratorSpec(static_branches=100, records=2000,
                             pattern="uniform", seed=9)
        records = list(gen_records(spec))

        def events(model):
            out = []
            for r in records:
                pred = model.lookup(r.pc)
                out.append("m" if pred is None else pred.source)
                if r.taken:
                    out.append(model.commit_update(r).event())
            return out

        assert events(BtbX(BtbxGeometry(sets=8))) == events(BtbX(BtbxGeometry(sets=8)))

    def test_hits_match_last_committed_target(self):
        # fidelity: a hit is either the freshest committed target or (for the
        # paged models under churn) a miss, never a stale reconstruction
        models = [BtbX(BtbxGeometry(sets=8)), ConvBtb(entries=32),
                  RBtb(main_entries=32, page_entries=2),
                  PdedeBtb(main_entries=32, page_entries=16, region_entries=2)]
        spec = GeneratorSpec(static_branches=64, records=4000,
                             pattern="uniform", seed=2, taken_rate=1.0)
        records = list(gen_records(spec))
        for model in models:
            committed = {}
            for r in records:
                pred = model.lookup(r.pc)
                if pred is not None and pred.target is not None and r.pc in committed:
                    assert pred.target == committed[r.pc], model.name
                model.commit_update(r)
                committed[r.pc] = r.target


# SHA-256 of each model's per-record stream on a uniform churn trace: the
# lookup's source ("m" for a miss), then, for a taken record, the commit's
# UpdateOutcome.event().  Recorded from the implementation that kept recency
# in per-set objects; a change in any victim choice or recency order shows.
EVENT_DIGESTS = {
    ("conv", 0.90625): "1356974e2c2d1d2e10f32d91fe5550bdc85fc98d3a2dd6f2431f5db255210af6",
    ("rbtb", 0.90625): "a1626578a928502b63c06e600ef19f9e8ca97061a0b0c5f809d5c8175e844f4c",
    ("pdede", 0.90625): "1b5900340c9cc2da0dc7ab127a0faf3e0524bc7a4c21ba6c53e044d699853328",
    ("btbx", 0.90625): "eb83ecc1d9689e44fd9d56c777333957b318def1d7c718de753f4b501eaca6d3",
    ("conv", 14.5): "b3148ee449ec1227c599f2c7f4cef35a59d739aedb2fc548c810759a922f530e",
    ("rbtb", 14.5): "3247be4d5f62714d1d9765020e97fd958d04372751d5f3fe609364d728820085",
    ("pdede", 14.5): "4afbd739c30ca07156717ab82faec826500ea343230a5693ffb9052748328e99",
    ("btbx", 14.5): "723b0b9d1f8ebd69c3f6d42165410cb1a1534f5f81d29989ff929010cac5c499",
    ("conv", 58.0): "fc647df94aa124d22523ce11251fed36cb2adc71781955d4ed505a8c5340af0b",
    ("rbtb", 58.0): "bf5c7fbeae5da55826edb5fd6dd7dd34c685cd37d44e810b20a74f0e87f034a4",
    ("pdede", 58.0): "28fe33c80a09247b81caae0460e96f0afbcb18fcd347c3269b0fb4acaa9e5451",
    ("btbx", 58.0): "972e5546ab0bd54fc8943c8049b09d7220598b104505913f00872f4a0e51782c",
}


@pytest.fixture(scope="module")
def churn_records():
    # 3000 branches overflow every main table at 0.906 KB and rbtb's
    # 2048-slot page table at 58 KB.
    spec = GeneratorSpec(static_branches=3000, records=20_000, pattern="uniform",
                         seed=3, width_buckets=((0, 6, 0.5), (7, 20, 0.3),
                                                (21, 30, 0.2)))
    return list(gen_records(spec))


class TestEventDigests:
    @pytest.mark.parametrize("name, budget_kb", list(EVENT_DIGESTS))
    def test_event_stream_matches_pinned_digest(self, churn_records, name,
                                                budget_kb):
        model = build_model(name, budget_kb=budget_kb)
        digest = hashlib.sha256()
        for r in churn_records:
            pred = model.lookup(r.pc)
            digest.update(b"m\n" if pred is None else pred.source.encode() + b"\n")
            if r.taken:
                digest.update(model.commit_update(r).event().encode() + b"\n")
        assert digest.hexdigest() == EVENT_DIGESTS[name, budget_kb]


# The same stream under the byte-granular profile at its 0.93, 14.9 and
# 59.5 KB presets, where way widths, tag widths and geometry all differ from
# aligned4.  Recorded from the implementation whose models probed through
# BtbModel._lookup_probe and _main_probe.
BYTE_EVENT_DIGESTS = {
    ("conv", 0.9296875): "5110299b64fe970a03c48c2e3614365bf311bce4d2e36920c818cbdd49497043",
    ("rbtb", 0.9296875): "849c57cd50674f61e1c95ae3d00b8970cbd85443da0c2c4cb6597e90a2b3d77a",
    ("pdede", 0.9296875): "2774d0727325648bb708a9e83e29b25ba0c540ade547042183ac5802946a69f4",
    ("btbx", 0.9296875): "09c43a6f2cae667cf36bfbfe8e06fae66b32819ef91b1755ca0b0e5a7232c0f1",
    ("conv", 14.875): "6c899e6034d87bb3a4e3aa8f5b56a38c4a54c6385f6e9390407c28ecd3d63494",
    ("rbtb", 14.875): "e117af1b82b3929461d86f7d1b8729f212434354d752be85324ace43fbc31ec9",
    ("pdede", 14.875): "f6f31b55f7a4c670f27374d195ed03af9bb71e4fe218919fd307936bd3b1db6a",
    ("btbx", 14.875): "da4bdd7416092dd09d3bf32614cc76ce6da0a0638461c7f2c8d850f4c790dc20",
    ("conv", 59.5): "23ed0f3e54f24ab13148333af52612a33c2c586e1aed78f8bb0cf4fcc26bd113",
    ("rbtb", 59.5): "8c90db9bc555d2cc5ed665c6ebf20b8d2fafa2bc5e764fbc9bf7443dc7fa73b0",
    ("pdede", 59.5): "c12834c68e9f9f766fd8dc2a4c4cded9ace0564db7c79c73b31e599f20389788",
    ("btbx", 59.5): "9e2a85141d277742da7eaf148d217558d7bcc6b4438f078e9e43890550fe4f41",
}


@pytest.fixture(scope="module")
def byte_churn_records():
    spec = GeneratorSpec(static_branches=3000, records=20_000, pattern="uniform",
                         seed=3, width_buckets=((0, 6, 0.5), (7, 20, 0.3),
                                                (21, 30, 0.2)), isa_mode=1)
    return list(gen_records(spec))


class TestByteEventDigests:
    @pytest.mark.parametrize("name, budget_kb", list(BYTE_EVENT_DIGESTS))
    def test_event_stream_matches_pinned_digest(self, byte_churn_records,
                                                name, budget_kb):
        model = build_model(name, budget_kb=budget_kb, isa=BYTE)
        digest = hashlib.sha256()
        for r in byte_churn_records:
            pred = model.lookup(r.pc)
            digest.update(b"m\n" if pred is None else pred.source.encode() + b"\n")
            if r.taken:
                digest.update(model.commit_update(r).event().encode() + b"\n")
        assert digest.hexdigest() == BYTE_EVENT_DIGESTS[name, budget_kb]


class TestFactory:
    def test_budget_resolution(self):
        m = build_model("btbx", budget_kb=14.5)
        assert m.geometry.branch_capacity == 4160
        m = build_model("conv", budget_kb=14.5)
        assert m.entries == 1856
        m = build_model("pdede", budget_kb=14.5)
        assert m.sets == 3190 // 8 and m.page_entries == 512
        m = build_model("rbtb", budget_kb=14.5)
        assert 1856 < m.main_entries < 3190

    def test_rounded_budget_accepted(self):
        assert build_model("btbx", budget_kb=0.9).sets == 32

    def test_off_preset_budget_rejected(self):
        with pytest.raises(ConfigError):
            build_model("btbx", budget_kb=5.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            build_model("tage", budget_kb=14.5)

    @pytest.mark.parametrize("isa, tag_bits", [(ALIGNED4, 12), (BYTE, 10)])
    def test_conv_tag_width_same_on_both_routes(self, isa, tag_bits):
        by_sets = build_model("conv", sets=64, isa=isa)
        budget = storage.standard_budgets_kb(isa)[4]  # 14.5 or 14.875 KB
        by_budget = build_model("conv", budget_kb=budget, isa=isa)
        assert by_sets._main.tag_bits == by_budget._main.tag_bits == tag_bits

    def test_btbx_geometry_profile_must_match_model(self):
        BtbX(BtbxGeometry(32, BYTE), BYTE)
        with pytest.raises(ValueError, match="byte profile"):
            BtbX(BtbxGeometry(32, BYTE), ALIGNED4)

    @pytest.mark.parametrize("cls, sizes, message", [
        (ConvBtb, (0,), "entries must be >= 1, got 0"),
        (RBtb, (0, 8), "main_entries and page_entries must be >= 1"),
        (RBtb, (64, 0), "main_entries and page_entries must be >= 1"),
        (PdedeBtb, (ASSOC - 1, 16), f"need at least {ASSOC} main entries"),
    ], ids=["conv", "rbtb-main", "rbtb-page", "pdede-main"])
    def test_a_constructor_refuses_a_size_it_cannot_build(self, cls, sizes,
                                                           message):
        with pytest.raises(ValueError, match=message):
            cls(*sizes)

    def test_sets_sizing(self):
        assert build_model("btbx", sets=64).sets == 64
        with pytest.raises(ConfigError):
            build_model("pdede", sets=64)

    def test_requires_exactly_one_size(self):
        with pytest.raises(ConfigError):
            build_model("btbx", budget_kb=14.5, sets=64)
        with pytest.raises(ConfigError):
            build_model("btbx")


class TestSettableValues:
    """Every constructor parameter of the models, their geometry, the run
    configuration and the ISA profile, by name, so a new knob means editing
    this list.  Everything else is a named constant or derived from the
    ISA profile."""

    @pytest.mark.parametrize("cls, params", [
        (ConvBtb, ["entries", "isa"]),
        (RBtb, ["main_entries", "page_entries", "isa"]),
        (PdedeBtb, ["main_entries", "page_entries", "region_entries", "isa"]),
        (BtbX, ["geometry", "isa"]),
        (BtbxGeometry, ["sets", "isa"]),
        (SimConfig, ["isa", "warmup_records", "measure_records", "debug"]),
        (IsaProfile, ["mode", "name", "align_shift"]),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else "params")
    def test_constructor_parameters(self, cls, params):
        assert list(inspect.signature(cls).parameters) == params


def geometry_of(model):
    """Every sizing a build resolves to: each table's sets, ways and tag
    width, and each occupancy structure's capacity."""
    tables = [model._main] + [getattr(model, a) for a in ("_pt", "_rt", "_xc")
                              if hasattr(model, a)]
    return (model.name, [(t.sets, t.ways, t.tag_bits) for t in tables],
            [(name, cap) for name, _, cap in model.occupancy_items()])


def geometry_digest(builds) -> str:
    return hashlib.sha256(repr([geometry_of(m) for m in builds]).encode()).hexdigest()


# Recorded before the models shared one constructor and pdede's split moved
# into the budget preset table; a sizing change of any build fails these.
GEOMETRY_DIGESTS = {
    "presets": "fcd928c40a810138fb7d255d523d850420c1e08ec2e870bf504da88726e182e0",
    "sets": "209cdf89f59eebec297b35247a39544504e211577f6e8e4d70b5d49789cd9887",
}
CAPACITY_CSV_DIGESTS = {
    ("aligned4", None): "f463cd9aba878e106e4197ff6377de785f65cc48c4997c5480a168a2e40f0a32",
    ("byte", None): "b4791feac86f244ba990e5704f259309f7f22dbb57301f6fbe3b7bd15fb1675d",
    ("aligned4", (5, 0.5, 100)): "099d73c96dfed9eed04bd20ddca51bbc6b8ca09cdc6c924d6928f086e5903789",
    ("byte", (5, 0.5, 100)): "099d73c96dfed9eed04bd20ddca51bbc6b8ca09cdc6c924d6928f086e5903789",
}


class TestGeometryPin:
    def test_preset_builds(self):
        builds = [build_model(name, budget_kb=kb, isa=isa)
                  for isa in (ALIGNED4, BYTE)
                  for kb in storage.standard_budgets_kb(isa)
                  for name in MODEL_NAMES]
        assert len(builds) == 56
        assert geometry_digest(builds) == GEOMETRY_DIGESTS["presets"]

    def test_sets_builds(self):
        builds = [build_model(name, sets=sets, isa=isa)
                  for isa in (ALIGNED4, BYTE) for sets in (8, 32, 512)
                  for name in ("conv", "btbx")]
        assert geometry_digest(builds) == GEOMETRY_DIGESTS["sets"]

    @pytest.mark.parametrize("mode, budgets", list(CAPACITY_CSV_DIGESTS))
    def test_capacity_csv(self, mode, budgets):
        isa = {"aligned4": ALIGNED4, "byte": BYTE}[mode]
        text = storage.capacity_table_csv(storage.capacity_table(budgets, isa))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == CAPACITY_CSV_DIGESTS[mode, budgets]

import logging

import pytest

from btblab.core import ALIGNED4, BYTE, PROFILES
from btblab.storage import (CONV_ENTRY_BITS, PER_ENTRY_OVERHEAD_BITS,
                            TAG_BITS, WAY_WIDTHS, BtbxGeometry,
                            GeometryError, STANDARD_PRESETS, arm64_geometry,
                            btbx_geometry_for_budget,
                            btbx_total_bits, capacity_table,
                            capacity_table_csv, conv_capacity, conv_tag_bits,
                            match_preset, round_kb)

# Canonical budget rows: total bits, displayed-KB label, conventional entries.
EXPECTED_ROWS = [
    (32, 7424, "0.9", 116),
    (64, 14848, "1.8", 232),
    (128, 29696, "3.6", 464),
    (256, 59392, "7.25", 928),
    (512, 118784, "14.5", 1856),
    (1024, 237568, "29", 3712),
    (2048, 475136, "58", 7424),
]


class TestBtbxTotals:
    @pytest.mark.parametrize("sets,bits,label,conv", EXPECTED_ROWS)
    def test_total_bits(self, sets, bits, label, conv):
        assert btbx_total_bits(arm64_geometry(sets)) == bits

    @pytest.mark.parametrize("sets,bits,label,conv", EXPECTED_ROWS)
    def test_kb_labels(self, sets, bits, label, conv):
        preset = next(p for p in STANDARD_PRESETS if p.sets == sets)
        assert preset.kb_label() == label

    def test_set_composition(self):
        g = arm64_geometry(32)
        assert sum(g.way_widths) == 80
        assert g.set_bits == 224
        assert g.xc_entries == 4

    def test_linear_in_sets(self):
        for sets in (32, 64, 256, 1024):
            assert (btbx_total_bits(arm64_geometry(2 * sets))
                    == 2 * btbx_total_bits(arm64_geometry(sets)))


class TestGeometryValidation:
    def test_zero_sets_rejected(self):
        with pytest.raises(GeometryError):
            BtbxGeometry(sets=0)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(GeometryError):
            BtbxGeometry(sets=48)

    def test_replace_and_make_check_the_set_count(self):
        with pytest.raises(GeometryError):
            BtbxGeometry(64)._replace(sets=3)
        with pytest.raises(GeometryError):
            BtbxGeometry._make((5, ALIGNED4))
        assert BtbxGeometry(64)._replace(sets=128) == BtbxGeometry(128)
        assert type(BtbxGeometry._make((8, BYTE))) is BtbxGeometry

    def test_tiny_geometry_keeps_one_companion_slot(self):
        assert BtbxGeometry(sets=2).xc_entries == 1


class TestWayWidthTables:
    """BtbX's `_first` finds a branch's eligible ways by bisecting the
    widths, which needs exactly 8 non-decreasing widths per profile."""

    @pytest.mark.parametrize("isa, total", [(ALIGNED4, 80), (BYTE, 86)])
    def test_eight_non_decreasing_widths(self, isa, total):
        widths = WAY_WIDTHS[isa]
        assert len(widths) == 8
        assert list(widths) == sorted(widths)
        assert sum(widths) == total
        assert BtbxGeometry(32, isa).way_widths is widths

    def test_one_table_entry_per_profile(self):
        assert list(WAY_WIDTHS) == list(PROFILES)


class TestConvCapacity:
    def test_entry_is_64_bits(self):
        assert CONV_ENTRY_BITS == 64
        # byte-addressed mode: wider target, narrower tag, same 64-bit entry
        for isa, tag in ((ALIGNED4, 12), (BYTE, 10)):
            assert conv_tag_bits(isa) == tag
            assert (PER_ENTRY_OVERHEAD_BITS - TAG_BITS + tag
                    + isa.max_stored_target_bits) == 64

    @pytest.mark.parametrize("sets,bits,label,conv", EXPECTED_ROWS)
    def test_capacity_column(self, sets, bits, label, conv):
        assert conv_capacity(bits) == conv

    def test_single_entry_budget(self):
        assert conv_capacity(64) == 1

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            conv_capacity(0)


class TestCapacityTable:
    def test_default_rows(self):
        rows = capacity_table()
        assert len(rows) == 7
        for row, (sets, bits, label, conv) in zip(rows, EXPECTED_ROWS):
            assert row.budget_label == label
            assert row.btbx == sets * 8 + sets // 8
            assert row.conv == conv
            assert not row.extrapolated

    def test_mid_budget_row(self):
        row = capacity_table([14.5])[0]
        assert (row.btbx, row.pdede, row.conv) == (4160, 3190, 1856)
        assert row.ratio_conv == pytest.approx(2.2414, abs=5e-4)

    def test_conv_ratio_every_budget(self):
        for row in capacity_table():
            assert row.ratio_conv == pytest.approx(2.24, abs=0.01)

    def test_pdede_ratio_endpoints(self):
        rows = capacity_table()
        assert rows[0].ratio_pdede == pytest.approx(1.24, abs=0.01)
        assert rows[-1].ratio_pdede == pytest.approx(1.34, abs=0.01)
        assert rows[-1].btbx / rows[-1].pdede == pytest.approx(16640 / 12405)

    def test_extrapolated_budget_flagged(self, caplog):
        with caplog.at_level(logging.WARNING):
            row = capacity_table([64 / 8192])[0]  # one conventional entry
        assert row.conv == 1
        assert row.pdede is None
        assert row.btbx is None  # below the smallest valid geometry
        assert row.extrapolated
        assert "preset" in caplog.text

    def test_csv_schema(self):
        text = capacity_table_csv(capacity_table())
        lines = text.strip().split("\n")
        assert lines[0] == "budget_kb,btbx,pdede,conv,ratio_conv,ratio_pdede"
        assert lines[5].startswith("14.5,4160,3190,1856,2.2414,")

    def test_csv_empty_cells_for_extrapolated(self):
        text = capacity_table_csv(capacity_table([64 / 8192]))
        assert text.strip().split("\n")[1] == "0.0078125,,,1,,"


class TestX86Mode:
    def test_way_widths(self):
        g = BtbxGeometry(512, BYTE)
        assert g.way_widths == (0, 5, 6, 7, 9, 12, 20, 27)
        assert sum(g.way_widths) == 86
        assert g.set_bits == 230
        assert sum(WAY_WIDTHS[ALIGNED4]) == 80

    def test_companion_entry_stays_64_bits(self):
        g = BtbxGeometry(512, BYTE)
        assert btbx_total_bits(g) - g.sets * g.set_bits == g.xc_entries * 64

    def test_capacity_ratio(self):
        for row in capacity_table(isa=BYTE):
            assert row.ratio_conv == pytest.approx(2.18, abs=0.01)

    def test_mid_geometry_ratio(self):
        g = BtbxGeometry(512, BYTE)
        conv = conv_capacity(btbx_total_bits(g))
        assert g.branch_capacity / conv == pytest.approx(2.18, abs=0.01)


PDEDE_PRESETS = [p.pdede for p in STANDARD_PRESETS]


class TestPdedePresets:
    def test_entry_arithmetic_consistent(self):
        # main entries stay within rounding of main_kb * 8192 / avg_entry_bits
        for p in PDEDE_PRESETS:
            derived = p.main_btb_kb * 8192 / p.avg_entry_bits
            assert abs(p.branch_capacity - derived) / p.branch_capacity < 0.005

    def test_page_table_halves_with_budget(self):
        entries = [p.page_entries for p in PDEDE_PRESETS]
        assert entries == [32, 64, 128, 256, 512, 1024, 2048]

    def test_pointer_width_tracks_page_entries(self):
        assert [p.page_ptr_bits for p in PDEDE_PRESETS] == [5, 6, 7, 8, 9, 10, 11]

    def test_region_storage_fixed(self):
        assert all(p.region_entries == 4 for p in PDEDE_PRESETS)


class TestBudgetResolution:
    def test_rounded_label_matches_preset(self):
        # "0.9" is within the 0.01 KB tolerance of the exact 0.90625
        assert match_preset(0.9).sets == 32
        assert match_preset(14.5).sets == 512

    def test_off_budget_rejected(self):
        assert match_preset(0.92) is None
        assert match_preset(15.0) is None

    def test_floor_geometry_for_loose_budget(self):
        g = btbx_geometry_for_budget(20.0)
        assert g.sets == 512  # largest geometry within 20 KB

    def test_no_geometry_fits(self):
        assert btbx_geometry_for_budget(0.1) is None


class TestRounding:
    def test_half_up(self):
        assert round_kb(0.90625, 1) == 0.9
        assert round_kb(3.625, 1) == 3.6
        assert round_kb(7.25, 2) == 7.25
        assert round_kb(2.25, 1) == 2.3  # half rounds up, not to even

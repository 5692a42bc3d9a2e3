import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btblab import cli
from btblab.core import (ALIGNED4, BYTE, PROFILES, BranchKind, BranchRecord,
                         IsaProfile, OffsetEncoding, decode_target, encode_offset,
                         profile_for_mode, profile_named,
                         required_offset_width, xor_fold)
from btblab.models import UpdateOutcome
from btblab.sim import Metrics, OffsetHistogram, SimConfig
from btblab.storage import BtbxGeometry, BudgetPreset, CapacityRow, PdedePreset
from btblab.trace import (GeneratorSpec, TraceFile, TraceHeader, load_trace,
                          write_records)

# Worked example: pc/target differ first at bit 5 (1-based); with 4-byte
# alignment the two trailing zeros are dropped, leaving the 3 bits "110".
WORKED_PC = 0x168      # ...101101000
WORKED_TARGET = 0x178  # ...101111000


def highest_differing_bit(a, b):
    # independent oracle: position of the MSB of the XOR, via the bit string
    x = a ^ b
    return 0 if x == 0 else len(bin(x)) - 2


class TestRequiredWidth:
    def test_worked_example(self):
        assert highest_differing_bit(WORKED_PC, WORKED_TARGET) == 5
        assert required_offset_width(WORKED_PC, WORKED_TARGET, ALIGNED4) == 3

    def test_equal_addresses(self):
        assert required_offset_width(0x4000, 0x4000, ALIGNED4) == 0

    def test_adjacent_instructions(self):
        # 0x1000 ^ 0x1004 = 0b100: differing bit 3, one bit stored
        assert highest_differing_bit(0x1000, 0x1004) == 3
        assert required_offset_width(0x1000, 0x1004, ALIGNED4) == 1

    def test_byte_mode_keeps_alignment_bits(self):
        assert required_offset_width(0x1000, 0x1004, BYTE) == 3

    def test_matches_oracle_randomly(self):
        rng = random.Random(1)
        for _ in range(2000):
            pc = rng.getrandbits(46) << 2
            target = rng.getrandbits(46) << 2
            n = highest_differing_bit(pc, target)
            expect = 0 if n == 0 else n - 2
            assert required_offset_width(pc, target, ALIGNED4) == expect


class TestCodec:
    def test_worked_example_encodes_110(self):
        assert encode_offset(WORKED_PC, WORKED_TARGET, ALIGNED4) == (3, 0b110)

    def test_worked_example_decodes_back(self):
        enc = OffsetEncoding(3, 0b110)
        assert decode_target(WORKED_PC, enc, ALIGNED4) == WORKED_TARGET

    def test_self_branch(self):
        assert encode_offset(0x42fc, 0x42fc, ALIGNED4) == (0, 0)
        assert decode_target(0x42fc, OffsetEncoding(0, 0), ALIGNED4) == 0x42fc

    @given(pc=st.integers(0, 2**46 - 1), target=st.integers(0, 2**46 - 1))
    @settings(max_examples=300)
    def test_round_trip_aligned(self, pc, target):
        pc, target = pc << 2, target << 2
        enc = encode_offset(pc, target, ALIGNED4)
        assert decode_target(pc, enc, ALIGNED4) == target

    @given(pc=st.integers(0, 2**48 - 1), target=st.integers(0, 2**48 - 1))
    @settings(max_examples=300)
    def test_round_trip_byte(self, pc, target):
        enc = encode_offset(pc, target, BYTE)
        assert decode_target(pc, enc, BYTE) == target

    @given(pc=st.integers(0, 2**46 - 1), target=st.integers(0, 2**46 - 1))
    @settings(max_examples=300)
    def test_minimality(self, pc, target):
        pc, target = pc << 2, target << 2
        width, bits = encode_offset(pc, target, ALIGNED4)
        if width == 0:
            return
        narrower = OffsetEncoding(width - 1, bits & ((1 << (width - 1)) - 1))
        assert decode_target(pc, narrower, ALIGNED4) != target

    @given(pc=st.integers(0, 2**46 - 1), target=st.integers(0, 2**46 - 1),
           extra=st.integers(0, 12))
    @settings(max_examples=300)
    def test_monotone_sufficiency(self, pc, target, extra):
        # any width at least the required one, loaded with the low target
        # bits, still decodes exactly
        pc, target = pc << 2, target << 2
        width = required_offset_width(pc, target, ALIGNED4)
        wider = min(width + extra, ALIGNED4.max_stored_target_bits)
        enc = OffsetEncoding(wider, (target >> 2) & ((1 << wider) - 1))
        assert decode_target(pc, enc, ALIGNED4) == target

    @given(pc=st.integers(0, 2**46 - 1), width=st.integers(0, 46),
           bits=st.integers(0, 2**46 - 1))
    @settings(max_examples=300)
    def test_decoded_targets_stay_aligned(self, pc, width, bits):
        enc = OffsetEncoding(width, bits & ((1 << width) - 1))
        assert decode_target(pc << 2, enc, ALIGNED4) % 4 == 0


class TestIsaProfile:
    def test_default_stored_bits(self):
        assert ALIGNED4.max_stored_target_bits == 46
        assert BYTE.max_stored_target_bits == 48

    def test_address_validation(self):
        assert ALIGNED4.valid_address(0x1000)
        assert not ALIGNED4.valid_address(0x1001)  # misaligned
        assert not ALIGNED4.valid_address(1 << 48)
        assert BYTE.valid_address(0x1001)

    def test_mode_codes(self):
        assert profile_for_mode(0) is ALIGNED4
        assert profile_for_mode(1) is BYTE
        with pytest.raises(ValueError):
            profile_for_mode(7)

    def test_unknown_names_and_codes_rejected(self):
        for bad in ("arm64", "x86", "", None, 0):
            with pytest.raises(ValueError, match="unknown isa_mode"):
                profile_named(bad)
        for bad in (-1, len(PROFILES), "0", None):
            with pytest.raises(ValueError, match="unknown isa_mode"):
                profile_for_mode(bad)

    @pytest.mark.parametrize("isa", PROFILES, ids=lambda isa: isa.name)
    def test_profile_table_round_trips(self, tmp_path, isa):
        # code <-> profile <-> name
        assert PROFILES[isa.mode] is isa
        assert profile_for_mode(isa.mode) is isa
        assert profile_named(isa.name) is isa
        # a trace written in each form reads back as the same profile object
        records = [BranchRecord(0x1000, 0x2000, BranchKind.CALL, True, 3)]
        for name in ("t.btbt", "t.jsonl"):
            write_records(tmp_path / name, isa.mode, records, count=1)
            trace = load_trace(tmp_path / name)
            assert trace.isa is isa
            assert trace.records == records
        # the CLI's alias of each name selects the same profile
        alias = {"aligned4": "arm64", "byte": "x86"}[isa.name]
        tables = []
        for value in (isa.name, alias):
            out = tmp_path / f"{value}.csv"
            assert cli.main(["capacity-table", "--isa", value, "-o", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]


class TestXorFold:
    def test_folds_into_range(self):
        for v in (0, 1, 0xDEADBEEF, (1 << 46) - 1):
            assert 0 <= xor_fold(v, 12) < (1 << 12)

    def test_zero_bits(self):
        assert xor_fold(12345, 0) == 0

    def test_deterministic(self):
        assert xor_fold(0xABCDEF, 12) == xor_fold(0xABCDEF, 12)


class TestRecordTypes:
    """The records compare by value, and the frozen ones cannot change."""

    FROZEN = [
        (lambda: IsaProfile(0, "aligned4", 2), "align_shift"),
        (lambda: TraceHeader(0, 5), "record_count"),
        (lambda: BtbxGeometry(64, BYTE), "sets"),
        (lambda: PdedePreset(0.90625, 0.078, 0.817, 32.0, 210, 32),
         "region_entries"),
        (lambda: BudgetPreset(
            32, 1, PdedePreset(0.90625, 0.078, 0.817, 32.0, 210, 32)), "pdede"),
        (lambda: CapacityRow(14.5, "14.5", 118784, 4160, 3190, 1856), "btbx"),
        (lambda: UpdateOutcome("alloc", "main", 3, True), "victim_valid"),
    ]

    MUTABLE = [
        (lambda: SimConfig(warmup_records=5), "debug"),
        (lambda: Metrics(instructions=9, hits_by_source={"main": 2}),
         "ras_underflows"),
        (lambda: OffsetHistogram({0: 1}, 1), "total"),
        (lambda: TraceFile(ALIGNED4, []), "records"),
        (lambda: GeneratorSpec(10, 100, pattern="zipf"), "seed"),
    ]

    @pytest.mark.parametrize("make, field", FROZEN, ids=[
        type(make()).__name__ for make, _ in FROZEN])
    def test_frozen_records(self, make, field):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        assert a == b

    @pytest.mark.parametrize("make, field", MUTABLE, ids=[
        type(make()).__name__ for make, _ in MUTABLE])
    def test_mutable_records(self, make, field):
        a, b = make(), make()
        assert a is not b and a == b
        setattr(a, field, None)
        assert a != b

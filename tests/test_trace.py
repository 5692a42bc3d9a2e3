import ast
import hashlib
import json
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from itertools import starmap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOOD, RAW_HEADER, raw_trace
from dealref import deal_reference
from decoderef import check_records_reference, read_binary_reference
from btblab import cli
from btblab import trace as btrace
from btblab.core import (CALL_KINDS, BranchKind, BranchRecord, new_record,
                         profile_for_mode)
from btblab.trace import (RECORD_BYTES, GeneratorSpec, GeneratorSpecError,
                          TraceFormatError, gen_fields, gen_records, generate,
                          load_trace, open_fields, save_trace, trace_header,
                          write_records)


@pytest.fixture
def small_trace():
    return generate(GeneratorSpec(static_branches=40, records=500, seed=4))


class TestBinaryFormat:
    def test_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        save_trace(path, small_trace)
        back = load_trace(path)
        assert back.isa == small_trace.isa
        assert back.records == small_trace.records

    def test_size_matches_count(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        save_trace(path, small_trace)
        assert path.stat().st_size == 16 + 24 * len(small_trace.records)

    def test_flipped_magic_byte(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        save_trace(path, small_trace)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(TraceFormatError, match="magic"):
            load_trace(path)

    def test_truncated_record(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        save_trace(path, small_trace)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TraceFormatError) as err:
            load_trace(path)
        assert err.value.record_index == len(small_trace.records) - 1

    def test_misaligned_pc_in_aligned_mode(self, tmp_path):
        path = tmp_path / "t.btbt"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sBBHQ", b"BTBT", 1, 0, 0, 1))
            fh.write(struct.pack("<QQBBHI", 0x1001, 0x2000, 0, 1, 3, 0))
        with pytest.raises(TraceFormatError, match="alignment") as err:
            load_trace(path)
        assert err.value.record_index == 0

    def test_bad_kind_code(self, tmp_path):
        path = tmp_path / "t.btbt"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sBBHQ", b"BTBT", 1, 0, 0, 1))
            fh.write(struct.pack("<QQBBHI", 0x1000, 0x2000, 9, 1, 3, 0))
        with pytest.raises(TraceFormatError, match="kind"):
            load_trace(path)

    def test_trailing_bytes_rejected(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        save_trace(path, small_trace)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 24)
        with pytest.raises(TraceFormatError, match="trailing"):
            load_trace(path)

    def test_streaming_writer_patches_count(self, tmp_path):
        spec = GeneratorSpec(static_branches=10, records=321, seed=1)
        path = tmp_path / "t.btbt"
        n = write_records(path, 0, gen_records(spec))
        assert n == 321
        assert trace_header(path).record_count == 321
        assert len(load_trace(path).records) == 321

    def test_path_to_a_device_written_in_place(self, tmp_path):
        # A complete file replaces a regular output; a device stays itself.
        link = tmp_path / "null.btbt"
        link.symlink_to(os.devnull)
        spec = GeneratorSpec(static_branches=10, records=50, seed=1)
        assert write_records(link, 0, gen_fields(spec), spec.records) == 50
        assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link]

    def test_temporary_of_a_writer_gone_removed(self, tmp_path):
        # A writer killed outright leaves <path>.<pid>.tmp; the next write
        # to that path removes it once no process has that pid.
        dead = subprocess.Popen([sys.executable, "-S", "-c", "pass"])
        dead.wait()  # reaped, so its pid no longer runs
        path = tmp_path / "t.btbt"
        gone = tmp_path / f"t.btbt.{dead.pid}.tmp"
        live = tmp_path / f"t.btbt.{os.getppid()}.tmp"
        other = tmp_path / f"u.btbt.{dead.pid}.tmp"  # another output's
        for left in (gone, live, other):
            left.write_bytes(b"partial")
        spec = GeneratorSpec(static_branches=10, records=50, seed=1)
        assert write_records(path, 0, gen_fields(spec), spec.records) == 50
        assert sorted(tmp_path.iterdir()) == sorted([path, live, other])
        assert live.read_bytes() == b"partial"


CHUNK = btrace._CHUNK_RECORDS
# The reader's first chunk boundary, and one several chunks into the file,
# where its running offsets have moved on.
LATER = 1 << 14
assert LATER % CHUNK == 0 and LATER > CHUNK
BOUNDARIES = (CHUNK, LATER)


def decoded(read, path):
    """("ok", header, records) or ("error", message, record_index)."""
    try:
        header, records = read(path)
    except TraceFormatError as exc:
        return ("error", str(exc), exc.record_index)
    return ("ok", header, list(records))


def read_chunked(path):
    with open_fields(path) as (header, passes):
        return header, list(passes())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def agree(path):
    """The chunked reader and the per-record reference give the same result."""
    got = decoded(read_chunked, path)
    assert got == decoded(read_binary_reference, path)
    return got


MISALIGNED = (0x1001,) + GOOD[1:]


class TestChunkedDecode:
    @pytest.mark.parametrize("count", [
        count for b in BOUNDARIES for count in (b - 1, b, b + 1)])
    def test_counts_around_the_chunk_size(self, tmp_path, count):
        path = tmp_path / "t.btbt"
        path.write_bytes(raw_trace([GOOD] * count))
        status, header, records = agree(path)
        assert status == "ok" and len(records) == header.record_count == count

    @pytest.mark.parametrize("index", [
        index for b in BOUNDARIES for index in (b - 1, b)])
    def test_defect_on_either_side_of_a_chunk_boundary(self, tmp_path, index):
        records = [GOOD] * (index + 3)
        records[index] = MISALIGNED
        path = tmp_path / "t.btbt"
        path.write_bytes(raw_trace(records))
        assert agree(path)[2] == index

    @pytest.mark.parametrize("count, cut, index", [
        case for b in BOUNDARIES for case in (
            (b + 1, 5, b),        # final record cut short
            (b + 1, RECORD_BYTES, b),  # file ends on the chunk boundary
            (b, 1, b - 1),        # last record of a full chunk cut short
        )])
    def test_truncated_final_record(self, tmp_path, count, cut, index):
        path = tmp_path / "t.btbt"
        path.write_bytes(raw_trace([GOOD] * count, cut=cut))
        assert agree(path) == ("error", f"record {index}: truncated record", index)

    @pytest.mark.parametrize("count", [
        count for b in BOUNDARIES for count in (b - 1, b)])
    def test_trailing_bytes(self, tmp_path, count):
        path = tmp_path / "t.btbt"
        path.write_bytes(raw_trace([GOOD] * count, tail=b"\x00"))
        assert agree(path)[1:] == (
            f"record {count}: trailing bytes after last record", count)


ADDRESSES = st.one_of(
    st.integers(0, 2**46 - 1).map(lambda line: line << 2),  # valid either way
    st.integers(0, 2**64 - 1),
    st.sampled_from([0x1001, 0x1002, 1 << 48, (1 << 48) - 4, 2**64 - 1]))
FIELDS = st.tuples(ADDRESSES, ADDRESSES, st.integers(0, 7),
                   st.sampled_from([0, 1, 1, 1, 2, 255]),
                   st.integers(0, 0xFFFF),
                   st.sampled_from([0, 0, 0, 0, 1, 2**32 - 1]))
RECORDS = st.lists(st.one_of(st.just(GOOD), FIELDS), max_size=12)
# A record list's fields, which need not fit the format's integer fields.
LIST_FIELDS = st.tuples(ADDRESSES | st.sampled_from([-4, 1 << 64]),
                        ADDRESSES | st.sampled_from([-4, 1 << 64]),
                        st.integers(-1, 7),
                        st.sampled_from([0, 1, 1, True, False, 2, -1]),
                        st.integers(-1, 0x10000))
RECORD_LISTS = st.lists(st.one_of(st.just(GOOD[:5]), LIST_FIELDS), max_size=12)


class TestDecoderFuzz:
    @given(data=st.one_of(
        st.binary(max_size=120),
        st.builds(lambda head, body: RAW_HEADER.pack(b"BTBT", *head) + body,
                  st.tuples(st.sampled_from([1, 1, 1, 2]),
                            st.sampled_from([0, 1, 1, 2]),
                            st.sampled_from([0, 0, 0, 7]),
                            st.integers(0, 8) | st.integers(0, 2**64 - 1)),
                  st.binary(max_size=200))))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_parse_or_raise_format_error(self, fuzz_dir, data):
        path = fuzz_dir / "any.btbt"
        path.write_bytes(data)
        try:
            load_trace(path)
        except TraceFormatError:
            pass

    @given(records=RECORDS, isa_mode=st.integers(0, 1),
           count_delta=st.integers(-2, 2), cut=st.integers(0, 30),
           tail=st.sampled_from([b"", b"", b"\x00", b"\x01" * 30]))
    @settings(max_examples=400, deadline=None)
    def test_chunked_decoder_agrees_with_reference(self, fuzz_dir, records,
                                                   isa_mode, count_delta,
                                                   cut, tail):
        path = fuzz_dir / "agree.btbt"
        count = max(0, len(records) + count_delta)
        path.write_bytes(raw_trace(records, count, isa_mode, tail, cut))
        # A tiny chunk makes these short files span several chunks.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(btrace, "_CHUNK_RECORDS", 3)
            agree(path)


    @given(records=RECORD_LISTS, isa_mode=st.integers(0, 1))
    @settings(max_examples=400, deadline=None)
    def test_record_list_check_agrees_with_reference(self, records, isa_mode):
        isa = profile_for_mode(isa_mode)
        outcomes = []
        # A tiny chunk makes these short lists span several chunks.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(btrace, "_CHUNK_RECORDS", 3)
            for check in (
                    lambda: check_records_reference(records, 1 << isa.align_shift),
                    lambda: btrace.check_records(records, isa)):
                try:
                    check()
                    outcomes.append(None)
                except TraceFormatError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestDecoderReferenceImports:
    def test_reference_states_its_own_rule(self):
        """The reference decoder takes from btblab only the header reader,
        the record size, the error and the record types, never a check."""
        allowed = {"read_header", "RECORD_BYTES", "TraceFormatError",
                   "BranchKind", "BranchRecord"}
        source = (Path(__file__).parent / "decoderef.py").read_text(encoding="utf-8")
        taken = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                taken += [alias.name for alias in node.names
                          if alias.name.partition(".")[0] == "btblab"]
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").partition(".")[0] == "btblab"):
                taken += [alias.name for alias in node.names]
        assert set(taken) <= allowed, taken


class TestJsonlFormat:
    def test_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(path, small_trace)
        back = load_trace(path)
        assert back.records == small_trace.records
        assert back.isa == small_trace.isa

    def test_extension_dispatch(self, small_trace, tmp_path):
        for name in ("t.btbt", "t.jsonl"):
            path = tmp_path / name
            save_trace(path, small_trace)
            back = load_trace(path)
            assert back.records == small_trace.records
            assert back.isa == small_trace.isa

    def test_count_mismatch_detected(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(path, small_trace)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
        with pytest.raises(TraceFormatError, match="declares"):
            load_trace(path)

    @pytest.mark.parametrize("field, value", [
        ("taken", "false"), ("taken", 1), ("gap", 1.9), ("gap", True),
        ("pc", 4096), ("target", None), ("kind", [])])
    def test_field_of_wrong_json_type_rejected(self, tmp_path, field, value):
        good = {"pc": "0x1000", "target": "0x2000", "kind": "cond",
                "taken": False, "gap": 3}
        lines = [{"format": "btbt", "version": 1, "isa_mode": "aligned4",
                  "record_count": 2}, good, {**good, field: value}]
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        with pytest.raises(TraceFormatError, match=field) as err:
            load_trace(path)
        assert err.value.record_index == 1

    def test_missing_header_object(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"pc": "0x1000"}\n')
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(path)

    @pytest.mark.parametrize("head", ["[1, 2]", '"btbt"', "7", "null"])
    def test_non_object_header_rejected(self, tmp_path, head):
        path = tmp_path / "t.jsonl"
        path.write_text(head + "\n")
        with pytest.raises(TraceFormatError, match="header") as err:
            load_trace(path)
        assert err.value.record_index is None

    @pytest.mark.parametrize("mode", ["[]", "{}", "0", '"arm"'])
    def test_isa_mode_of_any_json_type_rejected(self, tmp_path, mode):
        path = tmp_path / "t.jsonl"
        path.write_text(f'{{"format": "btbt", "isa_mode": {mode}}}\n')
        with pytest.raises(TraceFormatError, match="unknown isa_mode"):
            load_trace(path)

    @pytest.mark.parametrize("header", [True, False])
    def test_nesting_too_deep_rejected(self, tmp_path, header):
        head = '{"format": "btbt", "isa_mode": "aligned4"}\n'
        deep = "[" * 100_000 + "\n"
        path = tmp_path / "t.jsonl"
        path.write_text(deep if header else head + deep)
        with pytest.raises(TraceFormatError, match="recursion") as err:
            load_trace(path)
        assert err.value.record_index == (None if header else 0)

    @pytest.mark.parametrize("record", [
        b'{"pc": "0x1000", "target": "0x\xff", "kind": "cond"}',
        b'{"pc": "0x1000", "target": "0x2000", "kind": "cond", "taken": true, '
        b'"gap": 3, "note": "\xc3\x28"}',  # an unread field
        b"\xff\xfe"])
    def test_invalid_utf8_record_rejected_with_index(self, tmp_path, record):
        good = (b'{"pc": "0x1000", "target": "0x2000", "kind": "cond", '
                b'"taken": true, "gap": 3}')
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"format": "btbt", "isa_mode": "aligned4"}\n'
                         + good + b"\n" + record + b"\n")
        with pytest.raises(TraceFormatError, match="UTF-8") as err:
            load_trace(path)
        assert err.value.record_index == 1

    def test_invalid_utf8_header_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"format": "btbt", "isa_mode": "aligned4", "x": "\xff"}\n')
        with pytest.raises(TraceFormatError, match="UTF-8") as err:
            load_trace(path)
        assert err.value.record_index is None

    def test_valid_utf8_beyond_ascii_accepted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "btbt", "isa_mode": "aligned4", "x": "é€😀"}\n'
                        '{"pc": "0x1000", "target": "0x2000", "kind": "cond", '
                        '"taken": true, "gap": 3, "note": "ü"}\n', encoding="utf-8")
        assert len(load_trace(path).records) == 1

    @pytest.mark.parametrize("count", ["true", "false", "1.0", "-1", '"1"',
                                       "null", "[1]"])
    def test_record_count_must_be_a_non_negative_int(self, tmp_path, count):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "btbt", "isa_mode": "aligned4", '
                        f'"record_count": {count}}}\n'
                        '{"pc": "0x1000", "target": "0x2000", "kind": "cond", '
                        '"taken": true, "gap": 3}\n')
        with pytest.raises(TraceFormatError, match="record_count") as err:
            load_trace(path)
        assert err.value.record_index is None

    @pytest.mark.parametrize("version", ["2", '"1"', "true", "1.0", "null"])
    def test_version_other_than_json_int_1_rejected(self, tmp_path, version):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "btbt", "isa_mode": "aligned4", '
                        f'"version": {version}}}\n'
                        '{"pc": "0x1000", "target": "0x2000", "kind": "cond", '
                        '"taken": true, "gap": 3}\n')
        for read in (trace_header, load_trace):
            with pytest.raises(TraceFormatError, match="unsupported version") as err:
                read(path)
            assert err.value.record_index is None

    @pytest.mark.parametrize("version", ["", ', "version": 1'])
    def test_header_with_version_1_or_none_loads(self, tmp_path, version):
        path = tmp_path / "t.jsonl"
        path.write_text(f'{{"format": "btbt", "isa_mode": "aligned4"{version}}}\n'
                        '{"pc": "0x1000", "target": "0x2000", "kind": "cond", '
                        '"taken": true, "gap": 3}\n')
        assert trace_header(path).record_count is None
        assert len(load_trace(path).records) == 1

    def test_blank_line_does_not_shift_the_record_index(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "btbt", "isa_mode": "aligned4"}\n\n'
                        '{"pc": "0x1000", "target": "0x2000", "kind": "cond", '
                        '"taken": true, "gap": "x"}\n')
        with pytest.raises(TraceFormatError, match="gap") as err:
            load_trace(path)
        assert err.value.record_index == 0

    def test_same_defect_same_index_in_both_forms(self, tmp_path):
        # records 0 and 1 are good, record 2 has a misaligned pc
        pcs = (0x1000, 0x1004, 0x1001)
        binary = tmp_path / "t.btbt"
        with open(binary, "wb") as fh:
            fh.write(struct.pack("<4sBBHQ", b"BTBT", 1, 0, 0, len(pcs)))
            for pc in pcs:
                fh.write(struct.pack("<QQBBHI", pc, 0x2000, 0, 1, 3, 0))
        text = tmp_path / "t.jsonl"
        text.write_text('{"format": "btbt", "isa_mode": "aligned4"}\n' + "".join(
            f'\n{{"pc": "{pc:#x}", "target": "0x2000", "kind": "cond", '
            f'"taken": true, "gap": 3}}\n\n' for pc in pcs))
        indexes = []
        for path in (binary, text):
            with pytest.raises(TraceFormatError, match="alignment") as err:
                load_trace(path)
            indexes.append(err.value.record_index)
        assert indexes == [2, 2]

    @pytest.mark.parametrize("line", ["[1, 2]", '"0x1000"', "3", "null"])
    def test_non_object_record_rejected(self, tmp_path, line):
        head = {"format": "btbt", "version": 1, "isa_mode": "aligned4"}
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(head) + "\n" + line + "\n")
        with pytest.raises(TraceFormatError, match="not a JSON object") as err:
            load_trace(path)
        assert err.value.record_index == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["0x1000", "0x2000", "0x1001", "-0x4", "cond", "ret",
                       "ind_call", "aligned4", "byte", "btbt", ""])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
JSONL_HEADERS = st.fixed_dictionaries(
    {"format": st.sampled_from(["btbt", "btbt", "x"]) | JSON_VALUES},
    optional={"isa_mode": st.sampled_from(["aligned4", "byte"]) | JSON_VALUES,
              "record_count": st.integers(0, 3) | JSON_VALUES,
              "version": st.just(1) | JSON_VALUES})
JSONL_RECORDS = st.fixed_dictionaries(
    {}, optional={"pc": st.sampled_from(["0x1000", "0x2000"]) | JSON_VALUES,
                  "target": st.sampled_from(["0x1000", "0x2000"]) | JSON_VALUES,
                  "kind": st.sampled_from(["cond", "ret", "call"]) | JSON_VALUES,
                  "taken": st.booleans() | JSON_VALUES,
                  "gap": st.integers(-1, 70000) | JSON_VALUES})


class TestJsonlFuzz:
    @given(text=st.one_of(
        st.text(max_size=200),
        st.builds(lambda head, lines: "\n".join([head, *lines]) + "\n",
                  JSONL_HEADERS.map(json.dumps),
                  st.lists(JSONL_RECORDS.map(json.dumps) | JSON_VALUES.map(json.dumps)
                           | st.text(max_size=20), max_size=4))))
    @settings(max_examples=400, deadline=None)
    def test_any_text_parses_or_raises_format_error(self, fuzz_dir, text):
        path = fuzz_dir / "any.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            declared = trace_header(path).record_count
            records = load_trace(path).records
        except TraceFormatError:
            return
        assert declared in (None, len(records))

    @given(data=st.one_of(
        st.binary(max_size=200),
        st.builds(lambda text, edits: _edited(text.encode("utf-8"), edits),
                  st.builds(lambda head, lines: "\n".join([head, *lines]) + "\n",
                            JSONL_HEADERS.map(json.dumps),
                            st.lists(JSONL_RECORDS.map(json.dumps), max_size=4)),
                  st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                           max_size=4))))
    @settings(max_examples=400, deadline=None)
    def test_any_bytes_parse_or_raise_format_error(self, fuzz_dir, data):
        path = fuzz_dir / "any.jsonl"
        path.write_bytes(data)
        try:
            declared = trace_header(path).record_count
            records = load_trace(path).records
        except TraceFormatError:
            return
        assert declared in (None, len(records))


def _edited(blob, edits):
    """blob with each (position, byte value) edit applied."""
    raw = bytearray(blob)
    for pos, value in edits:
        raw[pos % len(raw)] = value
    return bytes(raw)


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        spec = GeneratorSpec(static_branches=50, records=2000, seed=7)
        a, b = tmp_path / "a.btbt", tmp_path / "b.btbt"
        save_trace(a, generate(spec))
        save_trace(b, generate(spec))
        assert a.read_bytes() == b.read_bytes()

    def test_distinct_seeds_differ(self):
        base = dict(static_branches=50, records=2000)
        t1 = generate(GeneratorSpec(seed=1, **base))
        t2 = generate(GeneratorSpec(seed=2, **base))
        assert t1.records != t2.records

    def test_bucket_shares_exact_within_tolerance(self):
        buckets = ((0, 6, 0.54), (7, 10, 0.22), (11, 25, 0.23), (26, 46, 0.01))
        spec = GeneratorSpec(static_branches=100_000, records=1,
                             width_buckets=buckets,
                             kind_mix=((BranchKind.CONDITIONAL, 1.0),))
        statics = btrace._static_fields(spec)  # stored width at index 6
        n = len(statics)
        for lo, hi, p in buckets:
            share = sum(lo <= b[6] <= hi for b in statics) / n
            assert share == pytest.approx(p, abs=0.015)

    def test_all_return_spec(self):
        spec = GeneratorSpec(static_branches=20, records=200,
                             width_buckets=((0, 0, 1.0),),
                             kind_mix=((BranchKind.RETURN, 1.0),))
        records = list(gen_records(spec))
        assert all(r.kind is BranchKind.RETURN and r.taken for r in records)

    def test_round_robin_pairing(self):
        # with the default mix (equal call/return shares, calls dealt first)
        # returns never outnumber calls at any prefix of the stream
        spec = GeneratorSpec(static_branches=200, records=5000, seed=3)
        calls = returns = 0
        for r in gen_records(spec):
            if r.kind in CALL_KINDS:
                calls += 1
            elif r.kind is BranchKind.RETURN:
                returns += 1
            assert returns <= calls

    def test_returns_target_their_call_sites(self):
        spec = GeneratorSpec(static_branches=100, records=4000, seed=5,
                             kind_mix=((BranchKind.CALL, 0.5),
                                       (BranchKind.RETURN, 0.5)))
        call_sites = set()
        paired = 0
        for r in gen_records(spec):
            if r.kind is BranchKind.CALL:
                call_sites.add(r.pc + 4)
            elif r.kind is BranchKind.RETURN and r.target in call_sites:
                paired += 1
        assert paired > 0

    def test_generated_addresses_valid(self, tmp_path):
        for mode in (0, 1):
            spec = GeneratorSpec(static_branches=500, records=500,
                                 isa_mode=mode, seed=6,
                                 width_buckets=((0, 30, 1.0),))
            trace = generate(spec)
            for name in ("t.btbt", "t.jsonl"):  # each reader checks every record
                save_trace(tmp_path / name, trace)
                assert load_trace(tmp_path / name).records == trace.records

    def test_static_pcs_distinct_pages(self):
        statics = btrace._static_fields(GeneratorSpec(static_branches=3000, records=1))
        pages = {b[0] >> 12 for b in statics}  # pc at index 0
        assert len(pages) == 3000

    def test_gap_mean(self):
        spec = GeneratorSpec(static_branches=10, records=20_000, gap_mean=9, seed=8)
        gaps = [r.gap for r in gen_records(spec)]
        assert 0 <= min(gaps) and max(gaps) <= 18
        assert sum(gaps) / len(gaps) == pytest.approx(9, abs=0.2)

    def test_infeasible_bucket_rejected(self):
        spec = GeneratorSpec(static_branches=10, records=10,
                             width_buckets=((0, 47, 1.0),))
        with pytest.raises(GeneratorSpecError, match="exceeds"):
            spec.validate()

    @pytest.mark.parametrize("field,value", [
        ("static_branches", 0), ("records", 0), ("taken_rate", 1.5),
        ("pattern", "sawtooth"), ("gap_mean", 70000),
    ])
    def test_bad_specs_rejected(self, field, value):
        spec = GeneratorSpec(static_branches=10, records=10)
        setattr(spec, field, value)
        with pytest.raises(GeneratorSpecError):
            spec.validate()

    @pytest.mark.parametrize("zipf_s", [0.0, -1.0])
    def test_non_positive_zipf_s_accepted_outside_zipf(self, zipf_s):
        GeneratorSpec(static_branches=10, records=10, zipf_s=zipf_s).validate()

    def test_zipf_s_whose_weights_overflow_rejected(self):
        spec = GeneratorSpec(static_branches=10, records=20, pattern="zipf",
                             zipf_s=1000.0)
        with pytest.raises(GeneratorSpecError, match="overflows"):
            spec.validate()
        # 10 ** 300 is still a float, and one branch's weight is always 1.
        for branches, zipf_s in ((10, 300.0), (1, 1000.0)):
            ok = GeneratorSpec(static_branches=branches, records=20,
                               pattern="zipf", zipf_s=zipf_s)
            ok.validate()
            assert len(generate(ok).records) == 20
        # Outside zipf the exponent is never raised to.
        GeneratorSpec(static_branches=10, records=20, zipf_s=1000.0).validate()

    def test_probabilities_must_sum_to_one(self):
        spec = GeneratorSpec(static_branches=10, records=10,
                             width_buckets=((0, 5, 0.6), (6, 10, 0.3)))
        with pytest.raises(GeneratorSpecError, match="sum"):
            spec.validate()

    def test_zipf_skews_dynamic_counts(self):
        spec = GeneratorSpec(static_branches=100, records=20_000,
                             pattern="zipf", zipf_s=1.5, seed=9)
        counts = {}
        for r in gen_records(spec):
            counts[r.pc] = counts.get(r.pc, 0) + 1
        statics = btrace._static_fields(spec)  # pc at index 0
        assert counts[statics[0][0]] > 10 * counts.get(statics[99][0], 1)


# Generator specs whose traces were hashed before the generator was rewritten
# for speed (3 patterns x 2 ISA modes, gap_mean 0 and 9, taken_rate 0 and 1,
# equal call and return shares, wide and zero offsets); the rewrite must
# reproduce every byte.  Each has 700 static branches, 5000 records and seed
# 3 unless it says otherwise.
PINNED_SPECS = {
    "rr-aligned4": dict(pattern="round_robin"),
    "rr-byte": dict(pattern="round_robin", isa_mode=1),
    "uniform-aligned4": dict(pattern="uniform"),
    "uniform-byte": dict(pattern="uniform", isa_mode=1),
    "zipf-aligned4": dict(pattern="zipf", zipf_s=1.0),
    "zipf-byte": dict(pattern="zipf", isa_mode=1),
    "gap0": dict(pattern="uniform", gap_mean=0),
    "gap9": dict(pattern="uniform", gap_mean=9, seed=11),
    "taken0": dict(pattern="uniform", taken_rate=0.0),
    "taken1": dict(pattern="uniform", taken_rate=1.0),
    "call-ret": dict(pattern="uniform", kind_mix=((BranchKind.CALL, 0.5),
                                                  (BranchKind.RETURN, 0.5))),
    "wide-byte": dict(pattern="zipf", isa_mode=1, seed=5,
                      width_buckets=((0, 0, 0.2), (1, 20, 0.5), (21, 46, 0.3))),
}
PINNED_DIGESTS = {
    "rr-aligned4.btbt": "191210b37cf3ea5a32bdace4e3ebf07dde636f91b186883177ef69881a3aac4e",
    "rr-aligned4.jsonl": "c3f4cc11b1db1fff0b5749d743c2b486938fa758af573dc212bcf644cb222e3a",
    "rr-byte.btbt": "d185c7925f594e1ce5da4e0fb3b7c42022dd3d6db5da8cbc80253089f5a9015d",
    "uniform-aligned4.btbt": "b94a759ff226d1480c5d95af8df6aa89d3d8405e0974a9c2bac3912207a930e4",
    "uniform-byte.btbt": "583edc831d05820091d4e94253cc7a88032dc26186d2668f4b64db2e6cdd94fb",
    "zipf-aligned4.btbt": "88c8003252152998418ea8ad4c5cd312eb5acd14be431a947d0d8e753d0bd7db",
    "zipf-byte.btbt": "b819cfc12169422d6d521c7a5b051feccc762f1201681adfb85a507b185490a6",
    "gap0.btbt": "381dc87c067e889c639b66980d9e4bd260deea3d3a24c61c7ac7e299c666f113",
    "gap9.btbt": "f5870999b8632eb9b372ffca79c0e4267da0ea2b8debfbd4e4c40c59ff398072",
    "taken0.btbt": "3dbad4500642149c056b1d0171a9fac65a45d386d09217983a27e37c606a5f78",
    "taken1.btbt": "40a1f9427082c7256923d81b6602cdd1ef1a6b4a87e14e033d4bab0a81fd0280",
    "call-ret.btbt": "025b840bc666dbf2b70f635bbd1f01213ce2fffae1cd382b1cd08a649ddd63c0",
    "call-ret.jsonl": "48714d50d68bea60bf5f9b88d9dc4e8deb0f13f654cf1a2f378d112e6939c4af",
    "wide-byte.btbt": "36a8daf8c7535ed3385c5f2dc3ed185465ffa177fdf12014662d49915db5f6b0",
}
# The two benchmark `gen-trace` specs at full scale, hashed as the packed
# records of the `gen_fields` stream (no header): zipf over 16000 branches
# with s = 1.0 for 16000 records, and round robin over 3000 branches for
# 60000 records, each at two seeds in both ISA modes.
BENCH_SPECS = {
    "zipf16k": dict(static_branches=16_000, records=16_000, pattern="zipf",
                    zipf_s=1.0),
    "rr3k": dict(static_branches=3000, records=60_000, pattern="round_robin"),
}
BENCH_DIGESTS = {
    ("zipf16k", 0, 0): "8cecb410c668e63f4cd45b45932fa7de0e459e779c6ece7f5f039f27732196df",
    ("zipf16k", 0, 1): "33f7d46ee5bdc065347eb798a3f3936d3ce3a9a259d93fd89cc7547fafa8dc52",
    ("zipf16k", 5, 0): "8dbecd1b45f781f859aac23d201023449a2f025a0dc728d424c1008fddd4de19",
    ("zipf16k", 5, 1): "7b4c71af81b21f656be4b48e0eb84a14dd2fb919930829da754edb393492ccf1",
    ("rr3k", 0, 0): "76b056adb0db8641f52286b2d8ddf4fd4b72f6957080e272473893f047517f45",
    ("rr3k", 0, 1): "1fe1194d9b6bb7732ba74098729106593a2cc6095e935ef2cbef1485f74d46bc",
    ("rr3k", 5, 0): "238cfa37d9f61414b1aee99b61875de7c5c7951e464983e154105888ebf79f03",
    ("rr3k", 5, 1): "36f6b01c6bba9a731b4583cfa5e9e978080b268e23d1b694b71743bc8f7a4738",
}


def pinned_spec(name):
    fields = {"seed": 3, **PINNED_SPECS[name.rsplit(".", 1)[0]]}
    return GeneratorSpec(static_branches=700, records=5000, **fields)


class TestPinnedGenerator:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_streamed_bytes_match_pinned_digest(self, tmp_path, name):
        spec = pinned_spec(name)
        path = tmp_path / name
        assert write_records(path, spec.isa_mode, gen_records(spec),
                             count=spec.records) == spec.records
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", ["rr-aligned4.jsonl", "zipf-byte.btbt"])
    def test_saved_trace_matches_pinned_digest(self, tmp_path, name):
        path = tmp_path / name
        save_trace(path, generate(pinned_spec(name)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name]

    def test_cli_gen_trace_matches_pinned_digest(self, tmp_path, capsys):
        path = tmp_path / "t.btbt"
        # rr-byte: 700 branches, 5000 records, seed 3, default mix and gaps
        assert cli.main(["gen-trace", "--branches", "700", "--records", "5000",
                         "--seed", "3", "--isa", "byte", "-o", str(path)]) == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == PINNED_DIGESTS["rr-byte.btbt"])

    @pytest.mark.parametrize("name, seed, isa_mode", sorted(BENCH_DIGESTS))
    def test_bench_scale_fields_match_pinned_digest(self, name, seed, isa_mode):
        spec = GeneratorSpec(seed=seed, isa_mode=isa_mode, **BENCH_SPECS[name])
        digest = hashlib.sha256()
        for record in starmap(btrace._FIELDS.pack, gen_fields(spec)):
            digest.update(record)
        assert digest.hexdigest() == BENCH_DIGESTS[name, seed, isa_mode]

    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_records_are_the_generated_fields(self, name):
        spec = pinned_spec(name)
        fields = list(gen_fields(spec))
        assert all(type(f) is tuple and type(f[2]) is BranchKind
                   and type(f[3]) is bool for f in fields)
        records = list(gen_records(spec))
        assert records == list(map(new_record, fields))
        assert all(type(r) is BranchRecord and type(r.kind) is BranchKind
                   and type(r.taken) is bool for r in records)

    @pytest.mark.parametrize("name", ["call-ret.btbt", "call-ret.jsonl",
                                      "wide-byte.btbt", "wide-byte.jsonl"])
    def test_fields_and_records_write_the_same_bytes(self, tmp_path, name):
        spec = pinned_spec(name)
        from_fields, from_records = tmp_path / f"f-{name}", tmp_path / f"r-{name}"
        write_records(from_fields, spec.isa_mode, gen_fields(spec), spec.records)
        write_records(from_records, spec.isa_mode, gen_records(spec), spec.records)
        assert from_fields.read_bytes() == from_records.read_bytes()


class TestDraws:
    @pytest.mark.parametrize("weights", [
        [p for _, p in btrace.DEFAULT_KIND_MIX],
        [p for _, _, p in btrace.DEFAULT_WIDTH_BUCKETS],
        [0.5, 0.5], [0.25] * 4, [1.0], [0.0, 1.0, 0.0], [0.3, 0.0, 0.7],
        [0.54, 0.22, 0.23, 0.01], [1 / 3] * 3, [0.1, 0.45, 0.45],
    ])
    def test_deal_matches_key_based_reference(self, weights):
        assert btrace._deal(weights, 5000) == deal_reference(weights, 5000)

    @given(weights=st.lists(st.integers(0, 12), min_size=1, max_size=8)
           .filter(any), n=st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_deal_matches_reference_on_any_shares(self, weights, n):
        shares = [w / sum(weights) for w in weights]
        assert btrace._deal(shares, n) == deal_reference(shares, n)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (0, 18), (5, 5), (1, 4),
                                        (12, 19), (20, 25), (0, 2 ** 20),
                                        (3, 2 ** 40 + 3)])
    def test_bounded_draw_matches_randint(self, seed, lo, hi):
        ours, theirs = random.Random(seed), random.Random(seed)
        draws = [lo + btrace._below(ours.getrandbits, hi - lo + 1)
                 for _ in range(300)]
        assert draws == [theirs.randint(lo, hi) for _ in range(300)]
        assert ours.getstate() == theirs.getstate()


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingGenTrace:
    def test_peak_memory_flat_in_record_count(self, tmp_path, capsys):
        def gen_trace(records):
            args = ["gen-trace", "--branches", "3000", "--records", str(records),
                    "--seed", "1", "-o", str(tmp_path / f"{records}.btbt")]
            return lambda: cli.main(args)

        small = traced_peak(gen_trace(20_000))
        large = traced_peak(gen_trace(200_000))
        # A list of 10x the records would add megabytes; the shadow call
        # stack's slow growth (about 1% of records) stays well below this.
        assert large - small < 256 * 1024, (small, large)

    def test_static_set_built_once(self):
        # Building the static set is all a first record costs.  One list of
        # 7-tuples, their pcs and targets, measures about 185 B per branch;
        # keeping a second list of the branches as named tuples reads about
        # 250.
        spec = GeneratorSpec(static_branches=50_000, records=1, seed=1)
        peak = traced_peak(lambda: next(gen_fields(spec)))
        assert peak < 200 * spec.static_branches, peak

    def test_binary_writer_packs_small_blocks(self, tmp_path):
        # One block of 4096 packed records peaks at about 0.7 MB under
        # tracemalloc (its bytes objects, the join's buffer table and the
        # joined block), and this whole write at 0.86 MB; a writer that
        # lists 16384 packed records at a time peaks at 2.84 MB.  The text
        # writer formats the same 4096-record blocks: 1.31 MB, against
        # 5.14 MB for 16384 lines at a time.
        spec = GeneratorSpec(static_branches=300, records=60_000, seed=1)
        for path in tmp_path / "t.btbt", tmp_path / "t.jsonl":
            peak = traced_peak(
                lambda: write_records(path, 0, gen_fields(spec), spec.records))
            assert peak < 1_500_000, (path.name, peak)
            assert trace_header(path).record_count == 60_000
        assert (tmp_path / "t.btbt").stat().st_size == (
            btrace.HEADER_BYTES + 60_000 * RECORD_BYTES)

    def test_jsonl_written_as_generated(self, tmp_path):
        spec = GeneratorSpec(static_branches=50, records=600, seed=2)
        streamed, saved = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert write_records(streamed, 0, gen_records(spec),
                             count=spec.records) == 600
        save_trace(saved, generate(spec))
        assert streamed.read_bytes() == saved.read_bytes()
        assert load_trace(streamed).records == generate(spec).records

    def test_jsonl_without_count_gathers_records_first(self, tmp_path):
        spec = GeneratorSpec(static_branches=50, records=300, seed=2)
        path = tmp_path / "a.jsonl"
        assert write_records(path, 0, gen_records(spec)) == 300
        assert trace_header(path).record_count == 300

    def test_jsonl_wrong_count_rejected(self, tmp_path):
        spec = GeneratorSpec(static_branches=50, records=300, seed=2)
        with pytest.raises(ValueError, match="declares 400"):
            write_records(tmp_path / "a.jsonl", 0, gen_records(spec), count=400)


class TestJsonlStreaming:
    def test_trace_header_reads_jsonl(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(path, small_trace)
        assert trace_header(path).record_count == len(small_trace.records)
        assert load_trace(path).records == small_trace.records

    @pytest.mark.parametrize("declared", [2, 4])
    def test_count_mismatch_raised_once_exhausted(self, small_trace, tmp_path,
                                                  declared):
        path = tmp_path / "t.jsonl"
        write_records(path, 0, small_trace.records[:3], count=3)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0].replace('"record_count": 3',
                                         f'"record_count": {declared}')
                        + "".join(lines[1:]))
        assert trace_header(path).record_count == declared
        # The count is checked after the last line, which `open_fields`
        # reads when it opens a text trace, before any pass.
        with pytest.raises(TraceFormatError, match=f"declares {declared}"):
            with open_fields(path):
                pass

    def test_peak_memory_flat_in_record_count(self, tmp_path):
        def consume(records):
            spec = GeneratorSpec(static_branches=3000, records=records, seed=1)
            path = tmp_path / f"{records}.jsonl"
            write_records(path, 0, gen_records(spec), count=records)

            def count():
                with open_fields(path) as (_, passes):
                    return sum(1 for _ in passes())
            return count

        small = traced_peak(consume(20_000))
        large = traced_peak(consume(200_000))
        assert large - small < 256 * 1024, (small, large)


class TestOpenFields:
    """`open_fields` streams a trace's raw fields pass after pass, as many
    as its header counts and equal to the records `load_trace` reads."""

    @pytest.fixture(params=["t.btbt", "t.jsonl", "uncounted.jsonl"])
    def path(self, request, tmp_path):
        spec = GeneratorSpec(static_branches=300,
                             records=btrace._CHUNK_RECORDS + 16,
                             pattern="uniform", taken_rate=0.7, seed=5)
        path = tmp_path / request.param
        write_records(path, 0, gen_records(spec), count=spec.records)
        if request.param.startswith("uncounted"):
            head, body = path.read_text().split("\n", 1)
            head = json.loads(head)
            del head["record_count"]
            path.write_text(json.dumps(head) + "\n" + body)
            assert trace_header(path).record_count is None
        return path

    def test_passes_repeat_the_loaded_records(self, path):
        loaded = load_trace(path).records
        with open_fields(path) as (header, passes):
            first, second = list(passes()), list(passes())
        assert header.record_count == len(first) == len(loaded)
        assert all(type(fields) is tuple for fields in first)
        assert first == second == loaded

    def test_a_pass_writes_the_text_of_the_loaded_records(self, path,
                                                           tmp_path):
        """Raw fields, whose kind and taken flag are int codes, write the
        same text as the records they load as, which reads back equal."""
        loaded = load_trace(path)
        with open_fields(path) as (header, passes):
            write_records(tmp_path / "raw.jsonl", header.isa_mode, passes(),
                          header.record_count)
        write_records(tmp_path / "loaded.jsonl", header.isa_mode,
                      loaded.records)
        assert ((tmp_path / "raw.jsonl").read_bytes()
                == (tmp_path / "loaded.jsonl").read_bytes())
        assert load_trace(tmp_path / "raw.jsonl") == loaded


class TestLargeTrace:
    def test_million_record_stream_round_trip(self, tmp_path):
        spec = GeneratorSpec(static_branches=1000, records=1_000_000, seed=2)
        path = tmp_path / "big.btbt"
        n = write_records(path, 0, gen_records(spec))
        assert n == 1_000_000
        assert path.stat().st_size == 16 + 24 * n
        with open_fields(path) as (header, passes):
            assert header.record_count == n
            count = sum(1 for _ in passes())
        assert count == n

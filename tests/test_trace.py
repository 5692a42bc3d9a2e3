import gc
import json
import struct
import sys
import warnings

import pytest

from btblab.core import BranchKind
from btblab.trace import (GeneratorSpec, GeneratorSpecError,
                          TraceFormatError, build_static_branches, gen_records,
                          generate, iter_records, load_trace, read_trace,
                          read_trace_jsonl, save_trace, write_records,
                          write_trace, write_trace_jsonl)


@pytest.fixture
def small_trace():
    return generate(GeneratorSpec(static_branches=40, records=500, seed=4))


class TestBinaryFormat:
    def test_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        write_trace(path, small_trace)
        back = read_trace(path)
        assert back.header == small_trace.header
        assert back.records == small_trace.records

    def test_size_matches_count(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        write_trace(path, small_trace)
        assert path.stat().st_size == 16 + 24 * len(small_trace.records)

    def test_flipped_magic_byte(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        write_trace(path, small_trace)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(path)

    def test_truncated_record(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        write_trace(path, small_trace)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.record_index == len(small_trace.records) - 1

    def test_misaligned_pc_in_aligned_mode(self, tmp_path):
        path = tmp_path / "t.btbt"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sBBHQ", b"BTBT", 1, 0, 0, 1))
            fh.write(struct.pack("<QQBBHI", 0x1001, 0x2000, 0, 1, 3, 0))
        with pytest.raises(TraceFormatError, match="alignment") as err:
            read_trace(path)
        assert err.value.record_index == 0

    def test_bad_kind_code(self, tmp_path):
        path = tmp_path / "t.btbt"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sBBHQ", b"BTBT", 1, 0, 0, 1))
            fh.write(struct.pack("<QQBBHI", 0x1000, 0x2000, 9, 1, 3, 0))
        with pytest.raises(TraceFormatError, match="kind"):
            read_trace(path)

    def test_trailing_bytes_rejected(self, small_trace, tmp_path):
        path = tmp_path / "t.btbt"
        write_trace(path, small_trace)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 24)
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(path)

    def test_streaming_writer_patches_count(self, tmp_path):
        spec = GeneratorSpec(static_branches=10, records=321, seed=1)
        path = tmp_path / "t.btbt"
        n = write_records(path, 0, gen_records(spec))
        assert n == 321
        header, records = iter_records(path)
        assert header.record_count == 321
        assert sum(1 for _ in records) == 321

    def test_unread_iterator_leaves_no_open_file(self, small_trace, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "t.btbt"
        write_trace(path, small_trace)
        # A file closed by the collector warns from its finalizer, where an
        # error-level warning surfaces through sys.unraisablehook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            header, records = iter_records(path)
            del records
            gc.collect()
        assert header.record_count == len(small_trace.records)
        assert unraisable == []


class TestJsonlFormat:
    def test_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace_jsonl(path, small_trace)
        back = read_trace_jsonl(path)
        assert back.records == small_trace.records
        assert back.header.isa_mode == small_trace.header.isa_mode

    def test_extension_dispatch(self, small_trace, tmp_path):
        for name in ("t.btbt", "t.jsonl"):
            path = tmp_path / name
            save_trace(path, small_trace)
            assert load_trace(path).records == small_trace.records

    def test_count_mismatch_detected(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace_jsonl(path, small_trace)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
        with pytest.raises(TraceFormatError, match="declares"):
            read_trace_jsonl(path)

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
            read_trace_jsonl(path)
        assert err.value.record_index == 1

    def test_missing_header_object(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"pc": "0x1000"}\n')
        with pytest.raises(TraceFormatError, match="header"):
            read_trace_jsonl(path)

    @pytest.mark.parametrize("head", ["[1, 2]", '"btbt"', "7", "null"])
    def test_non_object_header_rejected(self, tmp_path, head):
        path = tmp_path / "t.jsonl"
        path.write_text(head + "\n")
        with pytest.raises(TraceFormatError, match="header") as err:
            read_trace_jsonl(path)
        assert err.value.record_index is None

    @pytest.mark.parametrize("line", ["[1, 2]", '"0x1000"', "3", "null"])
    def test_non_object_record_rejected(self, tmp_path, line):
        head = {"format": "btbt", "version": 1, "isa_mode": "aligned4"}
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(head) + "\n" + line + "\n")
        with pytest.raises(TraceFormatError, match="not a JSON object") as err:
            read_trace_jsonl(path)
        assert err.value.record_index == 0


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        spec = GeneratorSpec(static_branches=50, records=2000, seed=7)
        a, b = tmp_path / "a.btbt", tmp_path / "b.btbt"
        write_trace(a, generate(spec))
        write_trace(b, generate(spec))
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
        statics = build_static_branches(spec)
        n = len(statics)
        for lo, hi, p in buckets:
            share = sum(lo <= b.stored_width <= hi for b in statics) / n
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
            if r.kind.is_call:
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

    def test_generated_addresses_valid(self):
        for mode in (0, 1):
            spec = GeneratorSpec(static_branches=500, records=500,
                                 isa_mode=mode, seed=6,
                                 width_buckets=((0, 30, 1.0),))
            trace = generate(spec)
            isa = trace.isa
            for r in trace.records:
                r.validate(isa)

    def test_static_pcs_distinct_pages(self):
        statics = build_static_branches(GeneratorSpec(static_branches=3000, records=1))
        pages = {b.pc >> 12 for b in statics}
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
        statics = build_static_branches(spec)
        assert counts[statics[0].pc] > 10 * counts.get(statics[99].pc, 1)


class TestLargeTrace:
    def test_million_record_stream_round_trip(self, tmp_path):
        spec = GeneratorSpec(static_branches=1000, records=1_000_000, seed=2)
        path = tmp_path / "big.btbt"
        n = write_records(path, 0, gen_records(spec))
        assert n == 1_000_000
        assert path.stat().st_size == 16 + 24 * n
        header, records = iter_records(path)
        assert header.record_count == n
        count = sum(1 for _ in records)
        assert count == n

import struct
import subprocess
import sys
import tracemalloc

import pytest

from conftest import raw_trace, rec, taken_branch_trace
from btblab import trace as btrace
from btblab.core import ALIGNED4, BYTE, MODEL_NAMES, BranchKind, BranchRecord
from btblab.models import build_model
from btblab.models.base import UpdateOutcome
from btblab.models.conv import ConvBtb
from btblab.sim import (Metrics, SimConfig, compare, compare_csv,
                        offset_histogram, run)
from btblab.storage import standard_budgets_kb
from btblab.trace import (GeneratorSpec, TraceFile, gen_records,
                          generate, load_trace, open_fields, write_records)

WORKED_PC = 0x168
WORKED_TARGET = 0x178


class TestRun:
    def test_steady_hit_metrics(self):
        trace = taken_branch_trace([(0x1000, 0x2000)], repeats=1000, gap=9)
        m = ConvBtb(entries=64)
        metrics = run(m, trace, SimConfig(warmup_records=1))
        assert metrics.taken_btb_misses == 0
        assert metrics.instructions == 999 * 10
        assert metrics.taken_branches == 999
        assert metrics.mpki == 0.0

    def test_cold_miss_counted_without_warmup(self):
        trace = taken_branch_trace([(0x1000, 0x2000)], repeats=5)
        metrics = run(ConvBtb(entries=64), trace, SimConfig(warmup_records=0))
        assert metrics.taken_btb_misses == 1

    def test_warmup_excludes_events(self):
        trace = taken_branch_trace([(0x1000, 0x2000)], repeats=10)
        metrics = run(ConvBtb(entries=64), trace, SimConfig(warmup_records=5))
        assert metrics.measured_records == 5
        assert metrics.taken_btb_misses == 0  # the cold miss fell in warmup

    def test_lru_round_robin_thrash_rate_is_one(self):
        pairs = [(0x1000 + 4 * i, 0x8000) for i in range(9)]
        trace = taken_branch_trace(pairs, repeats=20)
        metrics = run(ConvBtb(entries=8), trace,
                      SimConfig(warmup_records=9))
        assert metrics.taken_miss_rate == 1.0

    def test_fitting_working_set_rate_is_zero(self):
        pairs = [(0x1000 + 4 * i, 0x8000) for i in range(8)]
        trace = taken_branch_trace(pairs, repeats=20)
        metrics = run(ConvBtb(entries=8), trace,
                      SimConfig(warmup_records=8))
        assert metrics.taken_miss_rate == 0.0

    def test_monotone_capacity(self):
        spec = GeneratorSpec(static_branches=300, records=6000,
                             pattern="uniform", seed=12)
        records = list(gen_records(spec))
        small = run(ConvBtb(entries=64), records, SimConfig(warmup_records=0))
        large = run(ConvBtb(entries=128), records, SimConfig(warmup_records=0))
        assert large.taken_btb_misses <= small.taken_btb_misses

    @pytest.mark.parametrize("name", ["conv", "rbtb", "pdede", "btbx"])
    def test_accounting_identity(self, name):
        spec = GeneratorSpec(static_branches=400, records=5000,
                             pattern="uniform", seed=3, taken_rate=0.7)
        trace = generate(spec)
        model = build_model(name, budget_kb=0.9)
        metrics = run(model, trace, SimConfig(debug=True))
        assert metrics.taken_hits + metrics.taken_btb_misses == metrics.taken_branches

    def test_not_taken_never_allocates(self):
        trace = [rec(0x1000, 0x2000, taken=False)] * 10
        m = ConvBtb(entries=64)
        metrics = run(m, trace, SimConfig(warmup_records=0))
        assert metrics.taken_branches == 0
        assert m.occupancy_items()[0][1] == 0
        assert metrics.instructions == 10  # still instructions, just no events

    def test_wrong_target_counts_as_miss(self):
        # same pc committed with alternating indirect targets: each lookup
        # sees the previous target, so every measured branch is a miss
        a = rec(0x1000, 0x2000, BranchKind.INDIRECT)
        b = rec(0x1000, 0x3000, BranchKind.INDIRECT)
        metrics = run(ConvBtb(entries=64), [a, b] * 10, SimConfig(warmup_records=2))
        assert metrics.taken_btb_misses == metrics.taken_branches == 18
        assert metrics.wrong_target_misses == 18

    def test_ras_pairing_clean(self):
        call = rec(0x1000, 0x5000, BranchKind.CALL)
        ret = rec(0x5008, 0x1004, BranchKind.RETURN)  # back to call site + 4
        metrics = run(ConvBtb(entries=64), [call, ret] * 20,
                      SimConfig(warmup_records=0))
        assert metrics.ras_mispredicts == 0
        assert metrics.ras_underflows == 0

    def test_ras_underflow_counted(self):
        ret = rec(0x5008, 0x1004, BranchKind.RETURN)
        metrics = run(ConvBtb(entries=64), [ret] * 5, SimConfig(warmup_records=0))
        assert metrics.ras_underflows == 5

    def test_ras_mispredict_counted(self):
        call = rec(0x1000, 0x5000, BranchKind.CALL)
        ret = rec(0x5008, 0x2000, BranchKind.RETURN)  # not the call site
        metrics = run(ConvBtb(entries=64), [call, ret] * 5,
                      SimConfig(warmup_records=0))
        assert metrics.ras_mispredicts == 5
        assert metrics.taken_btb_misses == 2  # one cold miss per pc, no more

    def test_ras_holds_64_returns_and_drops_the_oldest(self):
        # 65 nested calls overflow the 64-entry RAS by one: the 64 innermost
        # returns find their call sites, and the outermost one underflows.
        calls = [rec(0x1000 + 0x40 * i, 0x100000 + 0x40 * i, BranchKind.CALL)
                 for i in range(65)]
        returns = [rec(0x200000 + 0x40 * i, call.pc + 4, BranchKind.RETURN)
                   for i, call in enumerate(reversed(calls))]
        metrics = run(ConvBtb(entries=64), calls + returns,
                      SimConfig(warmup_records=0))
        assert metrics.ras_mispredicts == 0
        assert metrics.ras_underflows == 1

    def test_ras_carries_over_from_warmup(self):
        call = rec(0x1000, 0x5000, BranchKind.CALL)
        ret = rec(0x5008, 0x1004, BranchKind.RETURN)
        metrics = run(ConvBtb(entries=64), [call, ret], SimConfig(warmup_records=1))
        assert metrics.ras_underflows == 0 and metrics.ras_mispredicts == 0

    def test_invariants_checked_in_warmup_window_and_tail(self):
        class CountingConv(ConvBtb):
            checks = 0

            def check_invariants(self):
                self.checks += 1
                super().check_invariants()

        spec = GeneratorSpec(static_branches=50, records=400,
                             pattern="uniform", seed=4, taken_rate=0.7)
        records = list(gen_records(spec))
        model = CountingConv(entries=32)
        metrics = run(model, records, SimConfig(warmup_records=100,
                                                measure_records=200, debug=True))
        assert metrics.measured_records == 200  # 100 tail records follow
        assert 0 < metrics.taken_branches < sum(r.taken for r in records)
        assert model.checks == sum(r.taken for r in records)

    def test_isa_mode_mismatch_rejected(self):
        trace = TraceFile(BYTE, [])
        with pytest.raises(ValueError, match="isa_mode"):
            run(ConvBtb(entries=64), trace, SimConfig(isa=ALIGNED4))

    def test_replay_determinism(self):
        spec = GeneratorSpec(static_branches=200, records=4000,
                             pattern="zipf", seed=5)
        trace = generate(spec)
        a = run(build_model("btbx", budget_kb=0.9), trace, SimConfig())
        b = run(build_model("btbx", budget_kb=0.9), trace, SimConfig())
        assert a.to_dict() == b.to_dict()

    def test_occupancy_reported(self):
        trace = taken_branch_trace([(0x1000, 0x1010)], repeats=100)
        metrics = run(build_model("btbx", sets=8), trace,
                      SimConfig(warmup_records=10))
        assert 0 < metrics.occupancy_by_way["way1"] <= 1.0
        assert metrics.occupancy_by_way["xc"] == 0.0


def sampled_occupancy(model, records, warmup, end):
    """Reference: read occupancy_items() after every measured record."""
    sums, caps = {}, {}
    for i, r in enumerate(records):
        model.lookup(r.pc)
        if r.taken:
            model.commit_update(r)
        if warmup <= i < end:
            for name, valid, cap in model.occupancy_items():
                sums[name] = sums.get(name, 0) + valid
                caps[name] = cap
    return {name: sums[name] / (caps[name] * (end - warmup)) for name in sums}


class TestOccupancy:
    RECORDS = 3000

    @pytest.fixture(scope="class")
    def churn_trace(self):
        spec = GeneratorSpec(static_branches=600, records=self.RECORDS,
                             pattern="uniform", seed=8,
                             width_buckets=((0, 6, 0.5), (7, 20, 0.3),
                                            (21, 30, 0.2)))
        return list(gen_records(spec))

    @pytest.mark.parametrize("name", ["conv", "rbtb", "pdede", "btbx"])
    @pytest.mark.parametrize("warmup, measure, window", [
        (None, None, (RECORDS // 10, RECORDS)),
        (250, 1700, (250, 1950)),
        (0, None, (0, RECORDS)),
        (RECORDS, None, (RECORDS, RECORDS)),
        (RECORDS + 5, 10, (RECORDS, RECORDS)),
    ])
    def test_matches_per_record_sampling(self, churn_trace, name, warmup,
                                         measure, window):
        # At 0.9 KB the churn trace's counts settle early; at 14.5 KB they
        # move, and are re-read, on hundreds of the measured commits.
        config = SimConfig(warmup_records=warmup, measure_records=measure)
        for budget in 0.9, 14.5:
            metrics = run(build_model(name, budget_kb=budget), churn_trace,
                          config)
            expected = sampled_occupancy(build_model(name, budget_kb=budget),
                                         churn_trace, *window)
            assert metrics.measured_records == window[1] - window[0]
            assert metrics.occupancy_by_way == expected, budget
            assert list(metrics.occupancy_by_way) == list(expected)

    def test_thrashing_run_rereads_counts_rarely(self):
        # 3000 round-robin branches thrash conv's 116 entries: nearly every
        # measured commit allocates over a valid victim, which moves no
        # count, so the counts are re-read only while empty ways remain.
        spec = GeneratorSpec(static_branches=3000, records=20_000, seed=1)
        model = build_model("conv", budget_kb=0.9)
        read, reads, allocs = model.occupancy_items, [], []
        commit = model.commit_update

        def counted_read():
            reads.append(None)
            return read()

        def counted_commit(record):
            outcome = commit(record)
            allocs.append(outcome.kind == "alloc")
            return outcome

        model.occupancy_items, model.commit_update = counted_read, counted_commit
        metrics = run(model, list(gen_records(spec)), SimConfig(warmup_records=0))
        assert sum(allocs) > 15_000
        assert len(reads) <= model.entries + 1
        assert metrics.occupancy_by_way["main"] > 0.9


class TestShadowedEntryPoints:
    """A model's `lookup`, `commit_update` and `occupancy_items` can be
    shadowed on the instance, as the traced benchmark does to time them:
    `run` calls the instance's own, through the same per-record path."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_shadows_called_and_metrics_unchanged(self, name):
        spec = GeneratorSpec(static_branches=600, records=4000,
                             pattern="uniform", taken_rate=0.7, seed=9)
        records = list(gen_records(spec))
        assert not all(r.taken for r in records)
        plain = run(build_model(name, budget_kb=0.9), records)
        model = build_model(name, budget_kb=0.9)
        calls = dict.fromkeys(("lookup", "commit_update", "occupancy_items"), 0)
        for method in calls:
            def shadow(*args, method=method, inner=getattr(model, method)):
                calls[method] += 1
                return inner(*args)

            setattr(model, method, shadow)
        assert run(model, records).to_dict() == plain.to_dict()
        assert all(calls.values()), calls


class TestMemory:
    @pytest.fixture(scope="class")
    def round_robin(self):
        spec = GeneratorSpec(static_branches=3000, records=200_000, seed=1)
        return list(gen_records(spec))

    @pytest.mark.parametrize("name", ["conv", "pdede"])
    def test_peak_flat_in_trace_length(self, round_robin, name):
        """Memos and stored predictions grow with the branches, not with the
        records: ten times the records keep the same peak."""
        peaks = []
        for n in (20_000, 200_000):
            model = build_model(name, budget_kb=14.5)
            records = round_robin[:n]
            tracemalloc.start()
            try:
                run(model, records)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestProfile:
    """A TraceFile brings its own profile: `run` checks it against the
    model's, and `compare` builds its models for it."""

    @pytest.fixture(scope="class")
    def byte_trace(self):
        return generate(GeneratorSpec(static_branches=300, records=5000,
                                      seed=1, isa_mode=BYTE.mode))

    def test_model_of_other_profile_rejected(self, byte_trace):
        # the config's profile does not stand in for the model's
        with pytest.raises(ValueError, match="isa_mode"):
            run(build_model("btbx", budget_kb=14.5), byte_trace,
                SimConfig(isa=BYTE))

    def test_model_of_trace_profile_runs_under_default_config(self, byte_trace):
        metrics = run(build_model("btbx", budget_kb=14.875, isa=BYTE),
                      byte_trace, SimConfig())
        assert metrics.taken_branches > 0
        assert metrics.wrong_target_misses == 0

    def test_compare_builds_models_for_trace_profile(self, byte_trace):
        results = compare(["conv", "btbx"], byte_trace, 14.875, SimConfig())
        for name, metrics in results:
            alone = run(build_model(name, budget_kb=14.875, isa=BYTE),
                        byte_trace, SimConfig())
            assert metrics.to_dict() == alone.to_dict()


CHUNK = btrace._CHUNK_RECORDS
# The reader's first chunk boundary, and one several chunks into the file.
LATER = 1 << 14
assert LATER % CHUNK == 0 and LATER > CHUNK


class TestStreamedPath:
    """`run` given a trace file's path streams the records' raw fields from
    disk and gives the metrics of `run` over the loaded records."""

    @pytest.fixture(scope="class", params=[ALIGNED4, BYTE],
                    ids=lambda isa: isa.name)
    def traces(self, request, tmp_path_factory):
        """{records: (path, loaded TraceFile)}: one trace a little longer
        than several chunks, and a short one for invariant-checked runs."""
        isa, out = request.param, {}
        for records in (LATER + 16, 1000):
            spec = GeneratorSpec(static_branches=300, records=records,
                                 pattern="uniform", taken_rate=0.7, seed=9,
                                 isa_mode=isa.mode)
            path = tmp_path_factory.mktemp("streamed") / f"{records}.btbt"
            write_records(path, isa.mode, gen_records(spec), count=records)
            out[records] = str(path), load_trace(path)
        return out

    @staticmethod
    def metrics(name, trace, isa, config):
        model = build_model(name, budget_kb=standard_budgets_kb(isa)[0], isa=isa)
        return run(model, trace, config).to_dict()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("warmup, measure", [(None, None)] + [
        case for b in (CHUNK, LATER) for case in (
            (b - 1, None), (b, None), (b + 1, None),
            (0, b - 1), (0, b), (0, b + 1))])
    def test_path_equals_loaded_records(self, traces, name, warmup, measure):
        path, loaded = traces[LATER + 16]
        config = SimConfig(warmup_records=warmup, measure_records=measure)
        assert (self.metrics(name, path, loaded.isa, config)
                == self.metrics(name, loaded, loaded.isa, config))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_path_equals_loaded_records_with_invariant_checks(self, traces, name):
        path, loaded = traces[1000]
        config = SimConfig(debug=True)
        assert (self.metrics(name, path, loaded.isa, config)
                == self.metrics(name, loaded, loaded.isa, config))

    def test_model_of_other_profile_rejected(self, traces):
        path, loaded = traces[1000]
        other = BYTE if loaded.isa == ALIGNED4 else ALIGNED4
        with pytest.raises(ValueError, match="isa_mode"):
            run(build_model("btbx", budget_kb=standard_budgets_kb(other)[0],
                            isa=other), path)


class TestBareByteList:
    """A bare record list in either profile, as the traced benchmark passes
    it, replays as the path of its trace does; read in a profile it breaks,
    it raises instead of running."""

    @pytest.fixture(scope="class")
    def byte_file(self, tmp_path_factory):
        spec = GeneratorSpec(static_branches=3000, records=12_000,
                             pattern="zipf", seed=6, isa_mode=BYTE.mode)
        path = tmp_path_factory.mktemp("bare") / "byte.btbt"
        write_records(path, BYTE.mode, gen_records(spec), count=spec.records)
        return str(path), load_trace(path)

    def test_compare_equals_the_path_model_by_model(self, byte_file):
        path, trace = byte_file
        config = SimConfig(isa=BYTE)
        listed = compare(MODEL_NAMES, trace.records, 14.875, config)
        streamed = compare(MODEL_NAMES, path, 14.875, config)
        assert [name for name, _ in listed] == list(MODEL_NAMES)
        for (name, on_list), (_, on_path) in zip(listed, streamed):
            assert on_list.to_dict() == on_path.to_dict(), name

    def test_offset_histogram_equals_the_path(self, byte_file):
        path, trace = byte_file
        assert offset_histogram(trace.records, BYTE) == offset_histogram(path)
        # the list's own profile: its first record is no aligned4 branch
        with pytest.raises(btrace.TraceFormatError,
                           match=r"^record 0: (pc|target) 0x[0-9a-f]+ invalid "
                                 "for 48-bit space with 4-byte alignment$"):
            offset_histogram(trace.records)

    def test_byte_list_read_as_aligned4_raises(self, byte_file):
        """The case that once ran silently, with 2,946 of its 2,953 misses
        wrong-target."""
        records = byte_file[1].records
        for call in (lambda: run(build_model("btbx", budget_kb=14.5), records),
                     lambda: compare(MODEL_NAMES, records, 14.5)):
            with pytest.raises(btrace.TraceFormatError, match="^record 0: ") as err:
                call()
            assert err.value.record_index == 0

    @pytest.fixture(scope="class")
    def aligned4_file(self, tmp_path_factory):
        spec = GeneratorSpec(static_branches=3000, records=12_000,
                             pattern="zipf", seed=6)
        path = tmp_path_factory.mktemp("bare") / "aligned4.btbt"
        write_records(path, ALIGNED4.mode, gen_records(spec), count=spec.records)
        return str(path), load_trace(path)

    def test_aligned4_list_equals_the_path(self, aligned4_file):
        """The form `bench/layers.py` passes: a list with SimConfig(isa=...)."""
        path, trace = aligned4_file
        config = SimConfig(isa=ALIGNED4)
        for name in MODEL_NAMES:
            on_list, on_path = (run(build_model(name, budget_kb=14.5), t, config)
                                for t in (trace.records, path))
            assert on_list.to_dict() == on_path.to_dict(), name
        listed = compare(MODEL_NAMES, trace.records, 14.5, config)
        streamed = compare(MODEL_NAMES, path, 14.5, config)
        assert ([(name, m.to_dict()) for name, m in listed]
                == [(name, m.to_dict()) for name, m in streamed])
        assert (offset_histogram(trace.records, ALIGNED4)
                == offset_histogram(trace.records) == offset_histogram(path))


def outcome_stream(model, records):
    """Each record's lookup and, for a taken one, its commit outcome; each
    record is read by position only."""
    out = []
    for record in records:
        out.append(model.lookup(record[0]))
        if record[3]:
            out.append(model.commit_update(record))
    return out


class TestRecordShape:
    """A BranchRecord is the tuple of its fields: generated and loaded ones
    keep BranchKind kinds and bool taken flags, and a model does the same
    with them as with a binary trace's raw fields."""

    @pytest.fixture(scope="class", params=[ALIGNED4, BYTE],
                    ids=lambda isa: isa.name)
    def traces(self, request, tmp_path_factory):
        isa = request.param
        spec = GeneratorSpec(static_branches=600, records=6000,
                             pattern="uniform", taken_rate=0.7, seed=8,
                             isa_mode=isa.mode)
        out = tmp_path_factory.mktemp("shape")
        for name in ("t.btbt", "t.jsonl"):
            write_records(out / name, isa.mode, gen_records(spec),
                          count=spec.records)
        return isa, spec, out

    def test_record_equals_its_plain_tuple(self):
        record = BranchRecord(0x1000, 0x2000, BranchKind.CALL, True, 3)
        assert record == (0x1000, 0x2000, BranchKind.CALL, True, 3)
        assert BranchRecord(0x1000, 0x1008, BranchKind.CONDITIONAL,
                            False) == (0x1000, 0x1008, 0, False, 0)

    def test_generated_and_loaded_records_keep_their_types(self, traces):
        _, spec, out = traces
        for records in (list(gen_records(spec)),
                        load_trace(out / "t.btbt").records,
                        load_trace(out / "t.jsonl").records):
            assert len(records) == spec.records
            assert all(type(r) is BranchRecord and type(r.kind) is BranchKind
                       and type(r.taken) is bool for r in records)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_models_take_records_and_raw_fields_alike(self, traces, name):
        isa, _, out = traces
        path = out / "t.btbt"
        with open_fields(path) as (_, passes):
            raw = list(passes())
        budget = standard_budgets_kb(isa)[0]
        streams = [outcome_stream(build_model(name, budget_kb=budget, isa=isa),
                                  records)
                   for records in (load_trace(path).records, raw)]
        assert streams[0] == streams[1]
        assert {"hit", "alloc"} <= {outcome.kind for outcome in streams[0]
                                    if isinstance(outcome, UpdateOutcome)}


class TestOffsetHistogram:
    def test_all_returns_collapse_to_zero_width(self):
        trace = [rec(0x1000 + 8 * i, 0x9000, BranchKind.RETURN) for i in range(50)]
        hist = offset_histogram(trace, ALIGNED4)
        assert hist.counts == {0: 50}

    def test_worked_pair_single_bucket(self):
        hist = offset_histogram([rec(WORKED_PC, WORKED_TARGET)], ALIGNED4)
        assert hist.counts == {3: 1}

    def test_cumulative_ends_at_exactly_one(self):
        trace = generate(GeneratorSpec(static_branches=500, records=5000, seed=1))
        hist = offset_histogram(trace)
        assert hist.rows()[-1][3] == 1.0

    def test_cumulative_curve_monotone(self):
        trace = generate(GeneratorSpec(static_branches=500, records=5000, seed=1))
        rows = offset_histogram(trace).rows()
        cum = [r[3] for r in rows]
        assert cum == sorted(cum)

    def test_not_taken_excluded(self):
        trace = [rec(0x1000, 0x2000, taken=False), rec(0x1000, 0x2000)]
        assert offset_histogram(trace, ALIGNED4).total == 1

    def test_csv_shape(self):
        text = offset_histogram([rec(WORKED_PC, WORKED_TARGET)], ALIGNED4).csv()
        lines = text.strip().split("\n")
        assert lines[0] == "stored_width,count,fraction,cumulative"
        assert lines[1] == "3,1,1.000000,1.000000"

    def test_byte_mode_counts_alignment_bits(self):
        hist = offset_histogram([rec(0x1000, 0x1004)], BYTE)
        assert hist.counts == {3: 1}


class TestCompare:
    def test_empty_trace_all_zero_rows(self):
        results = compare(["conv", "btbx"], [], budget_kb=0.9)
        for _, metrics in results:
            assert metrics.taken_branches == 0
            assert metrics.mpki == 0.0

    def test_duplicate_model_rows_identical(self):
        trace = generate(GeneratorSpec(static_branches=100, records=2000, seed=4))
        results = compare(["btbx", "btbx"], trace, budget_kb=0.9)
        assert results[0][1].to_dict() == results[1][1].to_dict()

    def test_declaration_order_preserved(self):
        trace = generate(GeneratorSpec(static_branches=50, records=500, seed=4))
        results = compare(["pdede", "conv", "btbx"], trace, budget_kb=0.9)
        assert [name for name, _ in results] == ["pdede", "conv", "btbx"]

    def test_capacity_ordering_between_organizations(self):
        # working set sized between conv (116) and the offset BTB (260) at
        # the smallest budget; a fifth of branches hop one page so the page
        # table (32 slots vs 40 live pages) stays under pressure
        spec = GeneratorSpec(
            static_branches=200, records=20_000,
            width_buckets=((1, 4, 0.8), (11, 11, 0.2)),
            kind_mix=((BranchKind.CONDITIONAL, 1.0),),
            taken_rate=1.0, pattern="round_robin", seed=7)
        trace = generate(spec)
        config = SimConfig(warmup_records=4000)
        results = dict(compare(["conv", "pdede", "btbx"], trace, 0.9, config))
        conv, pdede, btbx = (results[n].taken_miss_rate
                             for n in ("conv", "pdede", "btbx"))
        assert conv > pdede > btbx

    def test_csv_schema(self):
        trace = generate(GeneratorSpec(static_branches=50, records=500, seed=4))
        results = compare(["conv"], trace, budget_kb=0.9)
        lines = compare_csv(results, 0.9).strip().split("\n")
        assert lines[0] == ("model,budget_kb,instructions,taken_branches,"
                            "taken_btb_misses,taken_miss_rate,mpki")
        assert lines[1].startswith("conv,0.9,")


class TestMetrics:
    def test_mpki_identity(self):
        m = Metrics(instructions=5000, taken_branches=400, taken_btb_misses=37)
        assert m.mpki == 37 * 1000 / 5000

    def test_empty_is_zero(self):
        assert Metrics().mpki == 0.0
        assert Metrics().taken_miss_rate == 0.0

    def test_dict_keys_stable(self):
        keys = list(Metrics().to_dict())
        assert keys[:6] == ["instructions", "taken_branches", "taken_btb_misses",
                            "mpki", "hits_by_source", "occupancy_by_way"]


class TestAddressDomain:
    """A record list's pcs and targets must be addresses of its profile, as
    a trace file's are: below 2**48 and aligned.  `sim` rejects any other
    with the trace format's own message and the record's index before a
    model sees it, for a bare list and a TraceFile's alike."""

    def test_a_negative_pc_raises_instead_of_hanging(self):
        # Its tag fold never returned, so the replay runs in a child.
        script = (
            "from btblab.core import xor_fold\n"
            "from btblab.models import build_model\n"
            "from btblab.sim import run\n"
            "records = [(0x1000, 0x2000, 0, 1, 0), (-4, 0x2000, 0, 1, 0)]\n"
            "for call in (lambda: xor_fold(-1, 12),\n"
            "             lambda: run(build_model('conv', budget_kb=14.5),\n"
            "                         records)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        res = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "cannot fold a negative value: -1",
            "record 1: pc -0x4 invalid for 48-bit space with 4-byte alignment"]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_a_target_beyond_u64_is_rejected_with_its_index(self, name):
        records = [rec(0x1000, 0x2000)] * 3 + [(0x1000, 1 << 64, 0, 1, 0)]
        message = ("^record 3: target 0x1" + "0" * 16
                   + " invalid for 48-bit space with 4-byte alignment$")
        with pytest.raises(btrace.TraceFormatError, match=message):
            run(build_model(name, budget_kb=14.5), records)
        with pytest.raises(btrace.TraceFormatError, match=message):
            compare([name], TraceFile(ALIGNED4, records), 14.5)
        with pytest.raises(btrace.TraceFormatError, match=message):
            offset_histogram(records)

    def test_the_48_bit_bounds_themselves_replay(self):
        top = (1 << 48) - 4
        records = [rec(0, 0x2000), rec(top, top - 4), rec(0x1000, top)]
        for name in MODEL_NAMES:
            assert run(build_model(name, budget_kb=14.5), records,
                       SimConfig(warmup_records=0)).taken_branches == 3
        for pc in (1 << 48, 0x1002):
            with pytest.raises(btrace.TraceFormatError,
                               match=f"^record 1: pc {pc:#x} invalid for "
                                     "48-bit space with 4-byte alignment$"):
                run(build_model("conv", budget_kb=14.5),
                    [rec(0, 0x2000), rec(pc, 0x2000)])


# One record for each per-field rule of the trace format, with the message
# that rule gives.  Each is put past the first chunk of a list of good
# records, so its index is counted across chunks.
BROKEN_RECORDS = {
    "unknown kind": ((0x1000, 0x2000, 9, 1, 0), "unknown kind code 9"),
    "negative kind": ((0x1000, 0x2000, -1, 1, 0), "unknown kind code -1"),
    "taken flag 2": ((0x1000, 0x2000, 0, 2, 0), "bad taken flag 2"),
    "negative taken flag": ((0x1000, 0x2000, 0, -1, 0), "bad taken flag -1"),
    "pc past 48 bits": ((1 << 48, 0x2000, 0, 1, 0), "pc 0x1000000000000 "
                        "invalid for 48-bit space with 4-byte alignment"),
    "unaligned pc": ((0x1001, 0x2000, 0, 1, 0), "pc 0x1001 invalid for "
                     "48-bit space with 4-byte alignment"),
    "target past 48 bits": ((0x1000, 1 << 50, 0, 1, 0), "target "
                            "0x4000000000000 invalid for 48-bit space with "
                            "4-byte alignment"),
    "unaligned target": ((0x1000, 0x2002, 0, 1, 0), "target 0x2002 invalid "
                         "for 48-bit space with 4-byte alignment"),
    "always-taken kind not taken": (
        (0x1000, 0x2000, BranchKind.CALL, False, 0),
        "call branch at 0x1000 marked not-taken"),
    "gap above 65535": ((0x1000, 0x2000, 0, 1, 70_000),
                        "gap 70000 exceeds format limit"),
    "negative gap": ((0x1000, 0x2000, 0, 1, -1), "negative gap -1"),
}
BROKEN_AT = CHUNK + 5


class TestOneRecordRule:
    """A record list is checked by the trace format's own rule: a record
    that breaks one per-field rule fails `run`, `compare` and
    `offset_histogram` with the message a trace file holding it gives."""

    @pytest.mark.parametrize("case", BROKEN_RECORDS)
    def test_every_entry_point_raises_the_format_message(self, case, tmp_path):
        bad, message = BROKEN_RECORDS[case]
        records = [rec(0x1000, 0x2000)] * BROKEN_AT + [bad] + [rec(0x40, 0x80)]
        expected = f"record {BROKEN_AT}: {message}"
        calls = [lambda: run(build_model("conv", budget_kb=14.5), records),
                 lambda: compare(["conv", "btbx"], records, 14.5),
                 lambda: compare(["rbtb"], TraceFile(ALIGNED4, records), 14.5),
                 lambda: offset_histogram(records)]
        try:  # a trace file can hold every field but those out of its range
            raw = [(*r, 0) for r in records]
            (tmp_path / "t.btbt").write_bytes(raw_trace(raw))
            calls.append(lambda: offset_histogram(tmp_path / "t.btbt"))
        except struct.error:
            assert case in ("negative kind", "negative taken flag",
                            "gap above 65535", "negative gap")
        for call in calls:
            with pytest.raises(btrace.TraceFormatError) as err:
                call()
            assert str(err.value) == expected
            assert err.value.record_index == BROKEN_AT

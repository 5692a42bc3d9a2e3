import argparse
import ast
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOOD, raw_trace
from btblab import cli as btblab_cli
from btblab import jsonl as btblab_jsonl
from btblab import models as btblab_models
from btblab import trace as btrace
from btblab.core import KIND_NAMES, MODEL_NAMES
from btblab.models import build_model
from btblab.trace import (GeneratorSpec, TraceFormatError, gen_records,
                          generate, load_trace, save_trace, write_records)

RUN = [sys.executable, "-m", "btblab.cli"]


def cli(args, cwd):
    res = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True)
    assert "No module named 'btblab'" not in res.stderr, res.stderr
    return res


def gen_args(out, branches=300, records=3000, seed=7, extra=()):
    return ["gen-trace", "--branches", str(branches), "--records", str(records),
            "--pattern", "round-robin", "--seed", str(seed), "-o", out,
            *extra]


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def small_trace(workdir):
    spec = GeneratorSpec(static_branches=50, records=500, seed=1)
    save_trace(workdir / "ws.btbt", generate(spec))
    return "ws.btbt"


class TestGenTrace:
    def test_record_count_contract(self, workdir):
        res = cli(gen_args("ws.btbt", records=5000), workdir)
        assert res.returncode == 0, res.stderr
        trace = load_trace(workdir / "ws.btbt")
        assert len(trace.records) == 5000
        assert (workdir / "ws.btbt.manifest.json").exists()

    def test_dist_flag(self, workdir):
        res = cli(gen_args("ws.btbt", extra=[
            "--dist", "0-6:0.54,7-10:0.22,11-25:0.23,26-46:0.01"]), workdir)
        assert res.returncode == 0, res.stderr

    def test_same_flags_same_digests(self, workdir):
        for d in ("a", "b"):
            (workdir / d).mkdir()
            res = cli(gen_args("ws.btbt"), workdir / d)
            assert res.returncode == 0, res.stderr
        assert ((workdir / "a" / "ws.btbt").read_bytes()
                == (workdir / "b" / "ws.btbt").read_bytes())
        assert ((workdir / "a" / "ws.btbt.manifest.json").read_bytes()
                == (workdir / "b" / "ws.btbt.manifest.json").read_bytes())

    @pytest.mark.parametrize("name", ["ws.btbt", "ws.jsonl"])
    @pytest.mark.parametrize("existing", [None, b"an earlier trace"])
    def test_failure_mid_stream_leaves_no_partial_output(
            self, workdir, monkeypatch, capsys, name, existing):
        def failing(spec):  # two binary blocks' worth of records, then a fault
            yield from islice(btrace.gen_fields(spec), 2 * btrace._PACK_RECORDS)
            raise OSError("device full")

        monkeypatch.setattr(btblab_cli, "gen_fields", failing)
        path = workdir / name
        if existing is not None:
            path.write_bytes(existing)
        assert btblab_cli.main(gen_args(str(path), records=20_000)) == 2
        assert "device full" in capsys.readouterr().err
        assert [p.name for p in workdir.iterdir()] == ([] if existing is None
                                                       else [name])
        if existing is not None:
            assert path.read_bytes() == existing

    def test_bad_dist_is_usage_error(self, workdir):
        res = cli(gen_args("ws.btbt", extra=["--dist", "nonsense"]), workdir)
        assert res.returncode == 1
        assert "bucket" in res.stderr

    def test_infeasible_spec_is_usage_error(self, workdir):
        res = cli(gen_args("ws.btbt", extra=["--dist", "0-47:1.0"]), workdir)
        assert res.returncode == 1

    @pytest.mark.parametrize("extra", [
        ["--pattern", "zipf", "--zipf-s", "nan"],
        ["--zipf-s", "inf"],  # recorded in the manifest under any pattern
        ["--kind-mix", "cond:1.5,ret:-0.5"],
        ["--kind-mix", "cond:nan"],
        ["--dist", "1-4:nan"],
        ["--dist", "1-4:1.5,5-5:-0.5"],
        ["--pattern", "zipf", "--zipf-s", "1000"],  # its weights overflow
    ])
    def test_bad_share_or_zipf_s_is_usage_error(self, workdir, extra):
        res = cli(gen_args("ws.btbt", extra=extra), workdir)
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("btblab: error:"), res.stderr
        assert not list(workdir.iterdir())  # neither trace nor manifest

    def test_defaults_are_the_generators(self):
        args = btblab_cli.build_parser().parse_args(
            ["gen-trace", "--branches", "1", "--records", "1", "-o", "ws.btbt"])
        defaults = {name: p.default for name, p
                    in inspect.signature(GeneratorSpec).parameters.items()}
        assert args.pattern.replace("-", "_") == defaults["pattern"]
        for name in ("zipf_s", "taken_rate", "gap_mean", "seed"):
            assert getattr(args, name) == defaults[name], name

    def test_jsonl_output(self, workdir):
        res = cli(gen_args("ws.jsonl", records=100), workdir)
        assert res.returncode == 0
        first = (workdir / "ws.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["format"] == "btbt"


class TestAnalyzeOffsets:
    def test_csv_columns(self, workdir):
        cli(gen_args("ws.btbt", records=2000), workdir)
        res = cli(["analyze-offsets", "ws.btbt", "-o", "hist.csv"], workdir)
        assert res.returncode == 0, res.stderr
        lines = (workdir / "hist.csv").read_text().strip().split("\n")
        assert lines[0] == "stored_width,count,fraction,cumulative"
        assert lines[-1].endswith("1.000000")

    def test_stdout_when_no_output(self, workdir):
        cli(gen_args("ws.btbt", records=500), workdir)
        res = cli(["analyze-offsets", "ws.btbt"], workdir)
        assert res.returncode == 0
        assert res.stdout.startswith("stored_width,")

    def test_peak_flat_in_trace_length(self, workdir):
        """The histogram takes one pass over the streamed records: ten times
        the records keep the same peak."""
        import btblab.sim  # noqa: F401 -- keep the import out of the peaks
        peaks = []
        for n in (20_000, 200_000):
            spec = GeneratorSpec(static_branches=3000, records=n, seed=1)
            path = str(workdir / f"rr{n}.btbt")
            write_records(path, spec.isa_mode, gen_records(spec), count=n)
            tracemalloc.start()
            try:
                code = btblab_cli.main(["analyze-offsets", path,
                                        "-o", str(workdir / "hist.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < 1.5 * peaks[0]

    def test_corrupt_trace_exit_2(self, workdir):
        (workdir / "bad.btbt").write_bytes(b"NOPE" + b"\x00" * 20)
        res = cli(["analyze-offsets", "bad.btbt"], workdir)
        assert res.returncode == 2
        assert "magic" in res.stderr

    def test_missing_trace_exit_2(self, workdir):
        res = cli(["analyze-offsets", "nothere.btbt"], workdir)
        assert res.returncode == 2


class TestCapacityTable:
    def test_default_budgets(self, workdir):
        res = cli(["capacity-table"], workdir)
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "budget_kb,btbx,pdede,conv,ratio_conv,ratio_pdede"
        assert len(lines) == 8
        assert lines[5].startswith("14.5,4160,3190,1856,")

    def test_explicit_budgets_and_isa(self, workdir):
        res = cli(["capacity-table", "--budgets", "14.875", "--isa", "x86",
                   "-o", "cap.csv"], workdir)
        assert res.returncode == 0
        body = (workdir / "cap.csv").read_text().strip().split("\n")[1]
        assert body.startswith("14.9,4160,")

    def test_manifest_records_resolved_profile(self, workdir):
        manifests = []
        for isa in ("arm64", "aligned4"):
            res = cli(["capacity-table", "--isa", isa, "-o", "cap.csv"], workdir)
            assert res.returncode == 0, res.stderr
            manifests.append((workdir / "cap.csv.manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"]["isa"] == "aligned4"

    def test_bad_budget_list(self, workdir):
        res = cli(["capacity-table", "--budgets", "abc"], workdir)
        assert res.returncode == 1


class TestSimulate:
    def test_metrics_json(self, workdir):
        cli(gen_args("ws.btbt", branches=200, records=4000), workdir)
        res = cli(["simulate", "--model", "btbx", "--budget-kb", "0.9",
                   "ws.btbt", "-o", "m.json"], workdir)
        assert res.returncode == 0, res.stderr
        doc = json.loads((workdir / "m.json").read_text())
        for key in ("instructions", "taken_branches", "taken_btb_misses",
                    "mpki", "hits_by_source", "occupancy_by_way"):
            assert key in doc
        assert doc["model"] == "btbx"
        assert (workdir / "m.json.manifest.json").exists()

    def test_unresolvable_budget_exit_1(self, workdir):
        cli(gen_args("ws.btbt", records=500), workdir)
        res = cli(["simulate", "--model", "btbx", "--budget-kb", "5.0",
                   "ws.btbt"], workdir)
        assert res.returncode == 1
        assert "preset" in res.stderr

    def test_unknown_model_exit_1(self, workdir):
        cli(gen_args("ws.btbt", records=500), workdir)
        res = cli(["simulate", "--model", "tage", "--budget-kb", "0.9",
                   "ws.btbt"], workdir)
        assert res.returncode == 1

    def test_sets_sizing(self, workdir):
        cli(gen_args("ws.btbt", records=500), workdir)
        res = cli(["simulate", "--model", "btbx", "--sets", "64", "ws.btbt"],
                  workdir)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["sets"] == 64

    @pytest.mark.parametrize("record, message", [
        ('{"pc": 4096, "target": "0x2000", "kind": "cond", "taken": true,'
         ' "gap": 0}', "record 0: pc"),
        ('{"pc": "0x1000", "target": "0x2000", "kind": [], "taken": true,'
         ' "gap": 0}', "record 0: kind"),
        ("[1, 2]", "record 0: record is not a JSON object"),
        (None, "header"),  # the header line itself is [1, 2]
        ("[" * 100_000, "record 0: maximum recursion depth"),
    ], ids=lambda v: v if v is None or len(v) < 100 else "deeply-nested")
    def test_malformed_jsonl_exit_2(self, workdir, record, message):
        head = '{"format": "btbt", "version": 1, "isa_mode": "aligned4"}'
        text = "[1, 2]\n" if record is None else f"{head}\n{record}\n"
        (workdir / "bad.jsonl").write_text(text)
        res = cli(["simulate", "--model", "conv", "--budget-kb", "0.9",
                   "bad.jsonl"], workdir)
        assert res.returncode == 2, res.stderr
        assert message in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("version", ["2", '"1"', "true", "1.0"])
    def test_unsupported_jsonl_version_exit_2(self, workdir, version):
        (workdir / "v.jsonl").write_text(
            f'{{"format": "btbt", "version": {version}, "isa_mode": "aligned4"}}\n'
            '{"pc": "0x1000", "target": "0x2000", "kind": "cond", '
            '"taken": true, "gap": 0}\n')
        res = cli(["simulate", "--model", "conv", "--budget-kb", "0.9",
                   "v.jsonl"], workdir)
        assert res.returncode == 2, res.stderr
        assert "unsupported version" in res.stderr
        assert "Traceback" not in res.stderr

    def test_repeat_runs_identical(self, workdir):
        cli(gen_args("ws.btbt", branches=200, records=4000), workdir)
        outs = []
        for name in ("m1.json", "m2.json"):
            cli(["simulate", "--model", "pdede", "--budget-kb", "0.9",
                 "ws.btbt", "-o", name], workdir)
            outs.append((workdir / name).read_bytes())
        assert outs[0] == outs[1]


class TestCompare:
    def test_rows_in_declaration_order(self, workdir):
        cli(gen_args("ws.btbt", branches=200, records=4000), workdir)
        res = cli(["compare", "--models", "pdede,conv,btbx",
                   "--budget-kb", "0.9", "ws.btbt", "-o", "cmp.csv"], workdir)
        assert res.returncode == 0, res.stderr
        lines = (workdir / "cmp.csv").read_text().strip().split("\n")
        assert [l.split(",")[0] for l in lines[1:]] == ["pdede", "conv", "btbx"]

    def test_unknown_model_listed_exit_1(self, workdir):
        cli(gen_args("ws.btbt", records=500), workdir)
        res = cli(["compare", "--models", "conv,nope", "--budget-kb", "0.9",
                   "ws.btbt"], workdir)
        assert res.returncode == 1

    def test_minimal_environment(self, workdir):
        cli(gen_args("ws.btbt", branches=100, records=1000), workdir)
        res = subprocess.run(
            RUN + ["compare", "--models", "conv,btbx", "--budget-kb", "0.9",
                   "ws.btbt"],
            cwd=workdir, capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1",
                 "PYTHONPATH": os.environ["PYTHONPATH"]})
        assert res.returncode == 0, res.stderr


def main_in_process(args):
    """(exit code, stderr) of the CLI run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = btblab_cli.main(args)
    return code, err.getvalue()


def churn_trace(path):
    spec = GeneratorSpec(static_branches=200, records=2000, pattern="uniform",
                         seed=3, width_buckets=((0, 6, 0.5), (7, 20, 0.3),
                                                (21, 30, 0.2)))
    save_trace(path, generate(spec))
    return str(path)


class TestCheckInvariants:
    @pytest.mark.parametrize("command, output", [
        (["simulate", "--model", "pdede", "--budget-kb", "0.9"], "m.json"),
        (["simulate", "--model", "btbx", "--sets", "8"], "m.json"),
        (["compare", "--models", "conv,rbtb,pdede,btbx", "--budget-kb", "0.9"],
         "c.csv"),
    ])
    def test_outputs_identical_with_and_without(self, workdir, command, output):
        trace = churn_trace(workdir / "ws.btbt")
        outs = []
        for flag in ([], ["--check-invariants"]):
            out = workdir / f"{len(flag)}-{output}"
            assert main_in_process([*command, *flag, trace, "-o", str(out)])[0] == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_corrupted_memo_exits_3(self, workdir, monkeypatch):
        def corrupted(*args, **kwargs):
            model = build_model(*args, **kwargs)
            s, tag = model._main.set_tag(0x12345)
            model._main.memo[0x12345] = (s, tag ^ 1)
            return model

        monkeypatch.setattr(btblab_models, "build_model", corrupted)
        args = ["simulate", "--model", "btbx", "--budget-kb", "0.9",
                churn_trace(workdir / "ws.btbt")]
        assert main_in_process(args)[0] == 0  # nothing reads the stray entry
        code, err = main_in_process([*args, "--check-invariants"])
        assert code == 3
        assert "memo of line 0x12345" in err and "Traceback" not in err


CHUNK = btrace._CHUNK_RECORDS


def jsonl_trace(records):
    """Text of an aligned4 trace of raw (pc, target, kind, taken, gap, pad)
    records, the pad left out."""
    lines = [{"format": "btbt", "isa_mode": "aligned4"}]
    lines += [{"pc": hex(pc), "target": hex(target), "kind": KIND_NAMES[kind],
               "taken": bool(taken), "gap": gap}
              for pc, target, kind, taken, gap, _ in records]
    return "".join(json.dumps(line) + "\n" for line in lines)


class TestStreamedRuns:
    """`simulate` and `compare` stream the trace from disk a chunk at a
    time, once per model, and a text trace is parsed once per command."""

    @pytest.fixture(scope="class")
    def round_robin(self, tmp_path_factory):
        """Paths of 300-branch traces of 2x10^4 and 2x10^5 records."""
        workdir, paths = tmp_path_factory.mktemp("flat"), []
        for n in (20_000, 200_000):
            spec = GeneratorSpec(static_branches=300, records=n, seed=1)
            paths.append(str(workdir / f"rr{n}.btbt"))
            write_records(paths[-1], spec.isa_mode, gen_records(spec), count=n)
        return paths

    @pytest.mark.parametrize("command", [["simulate", "--model", "conv"],
                                         ["compare", "--models", "conv,pdede"]],
                             ids=["simulate", "compare"])
    def test_peak_flat_in_trace_length(self, round_robin, workdir, command):
        """Ten times the records keep the same peak."""
        import btblab.sim  # noqa: F401 -- keep the imports out of the peaks
        peaks = []
        for path in round_robin:
            tracemalloc.start()
            try:
                code = btblab_cli.main([*command, "--budget-kb", "14.5", path,
                                        "-o", str(workdir / "out")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < 1.5 * peaks[0]

    BAD = CHUNK + 50  # a record in the second chunk

    @pytest.mark.parametrize("bad, text, message", [
        ((0x1000, 0x2000, 7, 1, 3, 0), False, None),            # unknown kind code
        ((0x1000, 0x2000, 0, 2, 3, 0), False, None),            # bad taken flag
        ((0x1000, 0x2000, 0, 1, 3, 1), False, None),            # nonzero pad
        ((0x1001, 0x2000, 0, 1, 3, 0), False, None),            # misaligned pc
        ((0x1000, 0x2000 | 1 << 48, 0, 1, 3, 0), False, None),  # a bit at VA_BITS
        ((0x1000, 0x2000, 2, 0, 3, 0), False, None),            # a not-taken call
        (None, False, None),                        # the last record cut short
        # the same faults in a text trace, reported as its binary twin's are
        ((0x1001, 0x2000, 0, 1, 3, 0), True, None),
        ((0x1000, 0x2000 | 1 << 48, 0, 1, 3, 0), True, None),
        ((0x1000, 0x2000, 2, 0, 3, 0), True, None),
        # faults that only a text trace can hold
        ((0x1000, 0x2000, 0, 1, -1, 0), True, "negative gap -1"),
        ((0x1000, 0x2000, 0, 1, 1 << 16, 0), True,
         "gap 65536 exceeds format limit"),
        ((1 << 64, 0x2000, 0, 1, 3, 0), True, "pc 0x10000000000000000 invalid "
         "for 48-bit space with 4-byte alignment"),
    ], ids=["kind", "taken", "pad", "misaligned", "va-bits", "not-taken-call",
            "truncated", "misaligned-jsonl", "va-bits-jsonl",
            "not-taken-call-jsonl", "negative-gap-jsonl", "gap-65536-jsonl",
            "pc-2^64-jsonl"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--model", "conv", "--budget-kb", "0.9"],
        ["compare", "--models", "conv,btbx", "--budget-kb", "0.9"],
    ], ids=["simulate", "compare"])
    def test_bad_record_after_first_chunk_exits_2(self, workdir, tmp_path_factory,
                                                  command, bad, text, message):
        records = [GOOD] * (CHUNK + 100)
        if bad is not None:
            records[self.BAD] = bad
        path = workdir / ("bad.jsonl" if text else "bad.btbt")
        if text:
            path.write_text(jsonl_trace(records))
        else:
            path.write_bytes(raw_trace(records, cut=5 if bad is None else 0))
        with pytest.raises(TraceFormatError) as loaded:
            load_trace(path)
        assert loaded.value.record_index == (
            self.BAD if bad is not None else len(records) - 1)
        if message is not None:
            assert str(loaded.value) == f"record {self.BAD}: {message}"
        elif text:
            twin = tmp_path_factory.mktemp("twin") / "bad.btbt"
            twin.write_bytes(raw_trace(records))
            with pytest.raises(TraceFormatError) as binary:
                load_trace(twin)
            assert str(binary.value) == str(loaded.value)
        code, err = main_in_process([*command, str(path),
                                     "-o", str(workdir / "out")])
        assert (code, err) == (2, f"btblab: input error: {loaded.value}\n")
        assert list(workdir.iterdir()) == [path]  # no output, no manifest

    @pytest.mark.parametrize("declared", [True, False],
                             ids=["declared-count", "no-count"])
    def test_jsonl_outputs_equal_binary_twin(self, workdir, monkeypatch,
                                             declared):
        spec = GeneratorSpec(static_branches=300, records=3000,
                             pattern="uniform", taken_rate=0.8, seed=4)
        trace = generate(spec)
        save_trace(workdir / "t.btbt", trace)
        save_trace(workdir / "t.jsonl", trace)
        if not declared:
            head, *lines = (workdir / "t.jsonl").read_text().splitlines(True)
            head = json.loads(head)
            del head["record_count"]
            (workdir / "t.jsonl").write_text(json.dumps(head) + "\n"
                                             + "".join(lines))
        parsed = []
        parse = btblab_jsonl._jsonl_record
        monkeypatch.setattr(btblab_jsonl, "_jsonl_record",
                            lambda *args: parsed.append(None) or parse(*args))
        outputs = {}
        for name in ("t.btbt", "t.jsonl"):
            sim, cmp = workdir / f"{name}.json", workdir / f"{name}.csv"
            for args in (["simulate", "--model", "pdede", "--budget-kb", "0.9",
                          "-o", str(sim)],
                         ["compare", "--models", ",".join(MODEL_NAMES),
                          "--budget-kb", "0.9", "-o", str(cmp)]):
                assert main_in_process([*args, str(workdir / name)])[0] == 0
            doc = json.loads(sim.read_text())
            assert doc.pop("trace") == str(workdir / name)
            outputs[name] = doc, cmp.read_bytes()
        assert outputs["t.jsonl"] == outputs["t.btbt"]
        assert len(parsed) == 2 * spec.records  # once per command


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutated(blob, edits, cut, tail):
    raw = bytearray(blob)
    for pos, value in edits:
        raw[pos % len(raw)] = value
    return bytes(raw[:len(raw) - cut]) + tail


class TestFuzzedInput:
    @given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)),
                          max_size=4),
           cut=st.integers(0, 30), tail=st.sampled_from([b"", b"", b"\x00"]))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_binary_exits_2_without_traceback(self, fuzz_dir, edits,
                                                     cut, tail):
        spec = GeneratorSpec(static_branches=4, records=6, seed=1)
        clean = fuzz_dir / "clean.btbt"
        save_trace(clean, generate(spec))
        path = fuzz_dir / "fuzzed.btbt"
        path.write_bytes(_mutated(clean.read_bytes(), edits, cut, tail))
        try:
            load_trace(path)
            parses = True
        except TraceFormatError:
            parses = False
        code, err = main_in_process(["simulate", "--model", "conv", "--sets",
                                     "4", str(path)])
        assert "Traceback" not in err
        if parses:
            assert code == 0, err
        else:
            assert code == 2 and "btblab: input error:" in err


def modules_after(workdir, *commands):
    """The modules a fresh process has loaded once the CLI has run each of
    `commands` in `workdir`, every one exiting 0."""
    script = ("import json, sys\n"
              "from btblab.cli import main\n"
              f"codes = [main(args) for args in {list(commands)!r}]\n"
              "print(json.dumps([codes, sorted(sys.modules)]))\n")
    res = subprocess.run([sys.executable, "-c", script], cwd=workdir,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    codes, modules = json.loads(res.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    return set(modules)


class TestLazyImports:
    def test_gen_trace_loads_no_model_stack(self, workdir):
        modules = modules_after(workdir, gen_args("ws.btbt"))
        assert "btblab.trace" in modules
        loaded = {"btblab.models", "btblab.sim", "btblab.storage",
                  "logging"} & modules
        assert not loaded

    def test_binary_gen_trace_loads_no_dataclasses_or_jsonl(self, workdir):
        modules = modules_after(workdir, gen_args("ws.btbt"))
        assert not {"dataclasses", "btblab.jsonl"} & modules

    def test_binary_replay_loads_no_dataclasses_or_jsonl(self, workdir):
        trace = small_trace(workdir)
        modules = modules_after(
            workdir,
            ["simulate", "--model", "btbx", "--budget-kb", "14.5", trace,
             "-o", "m.json"],
            ["compare", "--models", ",".join(MODEL_NAMES), "--budget-kb",
             "14.5", trace, "-o", "c.csv"])
        assert "btblab.sim" in modules
        assert not {"dataclasses", "btblab.jsonl"} & modules

    def test_capacity_table_warning_reaches_stderr(self, workdir):
        res = cli(["capacity-table", "--budgets", "5"], workdir)
        assert res.returncode == 0, res.stderr
        assert res.stderr.startswith("btblab: budget 5 KB matches no preset")

    def test_every_export_resolves(self):
        import btblab
        namespace = {}
        exec("from btblab import *", namespace)
        for name in btblab.__all__:
            assert namespace[name] is getattr(btblab, name)
            assert name in dir(btblab)
        with pytest.raises(AttributeError):
            btblab.no_such_name


def resolve(name):
    """The object a module-qualified name such as `trace.open_fields` or
    `models.base.SetArray` names in btblab: its longest prefix that is a
    module, then attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(["btblab", *parts[:cut]]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


class TestReadme:
    def test_module_qualified_names_resolve(self):
        """Each backticked name that README.md qualifies with a btblab
        module still exists, so the prose cannot cite a removed function."""
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        names = set(re.findall(
            r"`((?:core|trace|jsonl|sim|storage|cli|models)(?:\.\w+)+)", readme))
        assert len(names) >= 10
        missing = []
        for name in sorted(names):
            try:
                resolve(name)
            except (AttributeError, ModuleNotFoundError):
                missing.append(name)
        assert not missing


class TestStdlibOnly:
    def test_package_imports_only_stdlib(self):
        """Every absolute import in the package names the standard library
        or btblab itself."""
        import btblab
        allowed = sys.stdlib_module_names | {"btblab"}
        foreign = []
        for path in sorted(Path(btblab.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign += [f"{path.name}: {name}" for name in names
                            if name.partition(".")[0] not in allowed]
        assert not foreign


class TestUnusedImports:
    def test_every_import_is_used_or_exported(self):
        """Each name a package module imports is read somewhere in that
        module or listed in its literal `__all__`, so a name left behind
        when its last use goes fails here rather than lingering."""
        import btblab
        unused = []
        for path in sorted(Path(btblab.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.partition(".")[0]
                        imported[bound] = node.lineno
                elif (isinstance(node, ast.ImportFrom)
                      and node.module != "__future__"):
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__all__"
                                for t in node.targets)
                        and isinstance(node.value, (ast.List, ast.Tuple))):
                    used.update(elt.value for elt in node.value.elts
                                if isinstance(elt, ast.Constant))
            unused += [f"{path.name}:{line}: {name}"
                       for name, line in sorted(imported.items())
                       if name not in used]
        assert not unused


class TestUnusedAttributes:
    def test_every_stored_private_attribute_is_read(self):
        """Each `self._name` a package module stores is loaded somewhere in
        the package, so state left behind when its last reader goes (a
        payload grid, say) fails here rather than lingering."""
        import btblab
        stored, loaded = {}, set()
        for path in sorted(Path(btblab.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (not isinstance(node, ast.Attribute)
                        or not node.attr.startswith("_")):
                    continue
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif (isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"):
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
        assert [f"{where}: self.{name}" for name, where in sorted(stored.items())
                if name not in loaded] == []


class TestUnusedPrivateNames:
    # A NamedTuple hook: `_replace` calls it, so no module of the package does.
    HOOKS = {"storage.BtbxGeometry._make"}

    def test_every_private_definition_is_loaded(self):
        """Each private function, method and class a package module defines,
        and each private name bound at module or class level, is loaded
        somewhere in the package, so a helper left behind when its last
        caller goes (an `_allocate`, say) fails here rather than lingering."""
        import btblab
        root = Path(btblab.__file__).parent
        defined, loaded = {}, set()

        def private(name):
            return name.startswith("_") and not name.endswith("__")

        def visit(node, scope, where, in_function=False):
            for child in ast.iter_child_nodes(node):
                names = []
                function = isinstance(child, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                if function or isinstance(child, ast.ClassDef):
                    names = [child.name]
                elif isinstance(child, ast.Assign) and not in_function:
                    names = [n.id for t in child.targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)]
                elif isinstance(child, ast.AnnAssign) and not in_function:
                    names = [n.id for n in ast.walk(child.target)
                             if isinstance(n, ast.Name)]
                for name in filter(private, names):
                    defined[f"{scope}.{name}"] = f"{where}:{child.lineno}"
                inner = (f"{scope}.{child.name}"
                         if isinstance(child, ast.ClassDef) else scope)
                visit(child, inner, where, in_function or function)

        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            module = ".".join(path.relative_to(root).with_suffix("").parts)
            visit(tree, module, path.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    loaded.add(node.attr)
        assert [f"{where}: {name}" for name, where in sorted(defined.items())
                if name.rpartition(".")[2] not in loaded
                and name not in self.HOOKS] == []
        assert self.HOOKS <= set(defined)


class TestUsage:
    def test_no_command_exit_1(self, workdir):
        res = cli([], workdir)
        assert res.returncode == 1

    def test_bad_flag_exit_1(self, workdir):
        res = cli(["simulate", "--model", "conv", "--budget-kb", "14.5",
                   "t.btbt", "--frobnicate"], workdir)
        assert res.returncode == 1
        assert "unrecognized arguments: --frobnicate" in res.stderr

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--model", "btbx", "--sets", "30"], "power of two"),
        (["simulate", "--model", "conv", "--sets", "0"], "sets must be >= 1"),
        (["simulate", "--model", "conv", "--budget-kb", "0.9", "--warmup", "-5"],
         "--warmup: must be >= 0"),
        (["simulate", "--model", "conv", "--budget-kb", "0.9", "--measure", "-5"],
         "--measure: must be >= 0"),
        (["compare", "--models", "conv", "--budget-kb", "0.9", "--warmup", "-5"],
         "--warmup: must be >= 0"),
        *[(["capacity-table", f"--budgets={value}"], "at least one bit")
          for value in ("inf", "-5", "0", "nan", "1e-9")],
        (["compare", "--models", ",", "--budget-kb", "0.9"], "names no model"),
    ])
    def test_bad_values_exit_1(self, workdir, args, message):
        # capacity-table reads no trace
        trace = [] if args[0] == "capacity-table" else [small_trace(workdir)]
        res = cli([*args, *trace], workdir)
        assert res.returncode == 1, res.stderr
        assert message in res.stderr

    def test_simulate_and_compare_share_option_help(self, workdir):
        def entries(command):
            """{first word: the whole entry} of each line of --help that
            starts at column 0 or 2, with the lines indented under it."""
            res = cli([command, "--help"], workdir)
            assert res.returncode == 0, res.stderr
            return {entry.split()[0]: " ".join(entry.split())
                    for entry in re.split(r"\n+(?=  \S|\S)", res.stdout)}

        simulate, compare = entries("simulate"), entries("compare")
        for name in ("--warmup", "--measure", "--check-invariants", "trace"):
            assert simulate[name] == compare[name]
        for name in ("--warmup", "--measure", "--check-invariants", "trace",
                     "--budget-kb"):
            for help_entries in (simulate, compare):
                # the option (and any metavar) is followed by help text
                assert len(help_entries[name].split()) > 2, help_entries[name]
        assert "(default: 10%)" in compare["--warmup"]

    def test_every_argument_has_help(self):
        parser = btblab_cli.build_parser()
        (commands,) = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        missing = [f"{command} {action.option_strings or action.dest}"
                   for command, sub in commands.choices.items()
                   for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)
                   and not action.help]
        assert not missing

    def test_version(self, workdir):
        res = cli(["--version"], workdir)
        assert res.returncode == 0
        assert res.stdout.strip()


# Commands whose manifests are pinned, each with the output it writes: both
# trace forms, the default and a custom width/kind mix in both ISAs, and
# every other command on the traces they make.
CUSTOM_MIX = ["--dist", "0-6:0.54,7-10:0.22,11-25:0.23,26-46:0.01",
              "--kind-mix", "cond:0.6,uncond:0.1,call:0.1,ret:0.1,ind:0.1",
              "--pattern", "zipf", "--zipf-s", "1.1", "--taken-rate", "0.7",
              "--gap-mean", "5"]
PINNED_COMMANDS = [
    *[(gen_args(f"{mix}-{isa}.{form}", extra=["--isa", isa, *extra]),
       f"{mix}-{isa}.{form}")
      for mix, extra in (("default", []), ("custom", CUSTOM_MIX))
      for isa in ("aligned4", "byte") for form in ("btbt", "jsonl")],
    (["simulate", "--model", "btbx", "--budget-kb", "14.5",
      "default-aligned4.btbt", "-o", "sim.json"], "sim.json"),
    (["simulate", "--model", "pdede", "--budget-kb", "0.9296875", "--warmup",
      "100", "custom-byte.jsonl", "-o", "sim-byte.json"], "sim-byte.json"),
    (["compare", "--models", ",".join(MODEL_NAMES), "--budget-kb", "14.5",
      "default-aligned4.btbt", "-o", "cmp.csv"], "cmp.csv"),
    (["compare", "--models", "btbx,conv", "--budget-kb", "14.875", "--measure",
      "1000", "custom-byte.jsonl", "-o", "cmp-byte.csv"], "cmp-byte.csv"),
    (["analyze-offsets", "custom-aligned4.btbt", "-o", "offsets.csv"],
     "offsets.csv"),
    (["capacity-table", "--isa", "x86", "-o", "cap-byte.csv"], "cap-byte.csv"),
    (["capacity-table", "--budgets", "0.90625,14.5", "--isa", "arm64", "-o",
      "cap.csv"], "cap.csv"),
]
HELP_COMMANDS = [[], ["gen-trace"], ["analyze-offsets"], ["capacity-table"],
                 ["simulate"], ["compare"]]


def manifest_digests() -> dict:
    """SHA-256 of the manifest of each pinned command, run in the working
    directory."""
    digests = {}
    for args, output in PINNED_COMMANDS:
        assert main_in_process(args) == (0, ""), args
        digests[output] = hashlib.sha256(
            Path(f"{output}.manifest.json").read_bytes()).hexdigest()
    return digests


def help_digests() -> dict:
    """SHA-256 of `btblab --help` and of each command's, at 80 columns."""
    digests = {}
    for command in HELP_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            btblab_cli.main([*command, "--help"])
        digests[" ".join(["btblab", *command])] = hashlib.sha256(
            out.getvalue().encode()).hexdigest()
    return digests


# Recorded before the records stopped being dataclasses and the text form
# moved to `jsonl`; the help texts under Python 3.11's argparse.
MANIFEST_DIGESTS = {
    "default-aligned4.btbt":
        "9a5088155d5cc170322ba77103e85fba5426fb233a091afd787597f6bb5c1574",
    "default-aligned4.jsonl":
        "a404b2e9570170e8df6da3cd108d89f9c558c55a19cf0da7afc399b3a849ec58",
    "default-byte.btbt":
        "9683f380642f74059066e4cea203926138f433b2ee7fbf491b31ecfd4f19fba9",
    "default-byte.jsonl":
        "21001563755c91cf248de4f600150a769f98d597d5c073d70e53c209564f223e",
    "custom-aligned4.btbt":
        "b4ecbebd4f73d219e79cfc2a272e576f31abef9d8f11896961af49f768716119",
    "custom-aligned4.jsonl":
        "258700cffd4138daa2fd4822a432ea5c278d548219bb162ec981745ed8b76d0a",
    "custom-byte.btbt":
        "b84360e37f7bfbc2fe08eebec3087cae33185d79dc1c4089f98da74bf924d04c",
    "custom-byte.jsonl":
        "2ae99db4e6a71c2b864fa20a03dfbec2f932c8be8b12113cb0bc83d4cb16f068",
    "sim.json":
        "4ef0fa9595205067e6f3c059dc181d0d76450bcacff65acc989f9c4c99b6a41a",
    "sim-byte.json":
        "ce4e4932fedc0b5648d542e47124adf48acbb1db78e9a0ccd305a10441b44c70",
    "cmp.csv":
        "7e4706f99e66e7d9e1d1b9e6f69a055dc27f5497580b8939e7eae733606ee56a",
    "cmp-byte.csv":
        "cafda4882429e0b45b746cc796a773b422e0c5e551e01580747aea7964587082",
    "offsets.csv":
        "4e803980a93afffd68702b92879c4449f5b88ec7077e2af48cb775237b3c06d4",
    "cap-byte.csv":
        "4e8c605a415d626aa7dced408456966a6740dd1510e75e6838624de48839554b",
    "cap.csv":
        "6e3bd940a8fb364e52b33218e87793dc238e71e93a43ecf09988f78d09f6ff10",
}
HELP_DIGESTS = {
    "btblab":
        "db8e0b72b0280029072f4fd1716e20febaf733992034b8f786c703754d2b380c",
    "btblab gen-trace":
        "a8e20560e55f4b169be725d217ee15032d9555483fdca6687ef88a4546a92461",
    "btblab analyze-offsets":
        "a7a1b01a07c352c8484b6bbf36d1e99f0561e2b2d903b328f1394a7cbd7804d9",
    "btblab capacity-table":
        "42c2aeeb423787077ef7f2ad737919cc76189ab4d91fadf444d8cd61c69aedd4",
    "btblab simulate":
        "e580f415ee2d1caa94e7756ed1ff874794f9289ec73ad8bab8bb8556de8c0dd3",
    "btblab compare":
        "99264b7cd45b924047143ea99075c21f41d9763fd0327b87838bb68842ac42d4",
}


class TestOutputPins:
    def test_manifest_bytes(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        assert manifest_digests() == MANIFEST_DIGESTS

    def test_help_texts(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert help_digests() == HELP_DIGESTS

"""Traced run: one workload replayed in-process, timed layer by layer.

Every timing is taken from outside the library: the benchmark calls the
public functions of `trace`, `storage`, `core`, `models`, `sim` and `cli`
and wraps a built model's `lookup`, `commit_update` and `occupancy_items`
on the instance before handing it to the real `sim.run`.  The wrappers'
own cost is calibrated on a model whose methods do nothing and subtracted.

Each model replays the whole trace at every budget the workload uses.
Occupancy figures come from the workload's largest budget.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
import tracemalloc
from typing import Callable, Dict, Tuple

from workloads import (MODELS, TRACE_NAME, CliRunner, Tally, Workload,
                       load_golden, metric, sha256_file)

CALIBRATION_CALLS = 100_000
REPEATS = 3

clock = time.perf_counter


class ModelProbe:
    """Time and counts of one model's wrapped calls, summed over runs."""

    __slots__ = ("lookup_s", "lookups", "hits", "commit_s", "commits",
                 "allocs", "evictions", "occupancy_s", "occupancy_calls")

    def __init__(self):
        self.lookup_s = self.commit_s = self.occupancy_s = 0.0
        self.lookups = self.hits = self.commits = 0
        self.allocs = self.evictions = self.occupancy_calls = 0


def instrument(model, probe: ModelProbe) -> None:
    """Shadow the model's three entry points on the instance."""
    lookup = model.lookup
    commit = model.commit_update
    occupancy = model.occupancy_items

    def timed_lookup(pc):
        t0 = clock()
        pred = lookup(pc)
        probe.lookup_s += clock() - t0
        probe.lookups += 1
        if pred is not None:
            probe.hits += 1
        return pred

    def timed_commit(record):
        t0 = clock()
        outcome = commit(record)
        probe.commit_s += clock() - t0
        probe.commits += 1
        if outcome.kind in ("alloc", "migrate"):
            probe.allocs += 1
        if outcome.victim_valid:
            probe.evictions += 1
        return outcome

    def timed_occupancy():
        t0 = clock()
        items = occupancy()
        probe.occupancy_s += clock() - t0
        probe.occupancy_calls += 1
        return items

    model.lookup = timed_lookup
    model.commit_update = timed_commit
    model.occupancy_items = timed_occupancy


class Calibration:
    """Per-call wrapper cost, measured on a model whose methods do nothing.

    For each wrapped method: `extra` is what one wrapped call costs beyond a
    direct call, and `inner` is the time the wrapper measures around a call
    that does nothing.  A model method's own time is its measured time less
    `inner`; an untraced run would take the traced run less `extra` per call.
    """

    def __init__(self, outcome):
        class Idle:
            def lookup(self, pc):
                return None

            def commit_update(self, record):
                return outcome

            def occupancy_items(self):
                return ()

        direct, wrapped, probe = Idle(), Idle(), ModelProbe()
        instrument(wrapped, probe)
        self.extra: Dict[str, float] = {}
        self.inner: Dict[str, float] = {}
        for method, arg, measured in (("lookup", (0,), "lookup_s"),
                                      ("commit_update", (None,), "commit_s"),
                                      ("occupancy_items", (), "occupancy_s")):
            extras, inners = [], []
            for _ in range(5):
                base = _loop(getattr(direct, method), arg)
                before = getattr(probe, measured)
                full = _loop(getattr(wrapped, method), arg)
                extras.append((full - base) / CALIBRATION_CALLS)
                inners.append((getattr(probe, measured) - before) / CALIBRATION_CALLS)
            self.extra[method] = statistics.median(extras)
            self.inner[method] = statistics.median(inners)

    def overhead_s(self, probe: ModelProbe) -> float:
        """Wrapper cost added to a run with these call counts."""
        return (probe.lookups * self.extra["lookup"]
                + probe.commits * self.extra["commit_update"]
                + probe.occupancy_calls * self.extra["occupancy_items"])

    def own_s(self, probe: ModelProbe) -> float:
        """Time spent inside the three model methods themselves."""
        return (probe.lookup_s - probe.lookups * self.inner["lookup"]
                + probe.commit_s - probe.commits * self.inner["commit_update"]
                + probe.occupancy_s
                - probe.occupancy_calls * self.inner["occupancy_items"])


def _loop(fn: Callable, args: tuple) -> float:
    t0 = clock()
    for _ in range(CALIBRATION_CALLS):
        fn(*args)
    return clock() - t0


def _timed(fn: Callable, *args, **kwargs):
    t0 = clock()
    result = fn(*args, **kwargs)
    return clock() - t0, result


def _median_time(fn: Callable, *args) -> float:
    return statistics.median(_timed(fn, *args)[0] for _ in range(REPEATS))


def run_traced(wl: Workload, input_seed: int, workdir: str,
               deadline: float) -> Tuple[Tally, dict, dict]:
    from btblab import cli, core, sim
    from btblab import trace as btrace
    from btblab.models import UpdateOutcome, build_model

    golden = load_golden(wl.name, input_seed)
    tally = Tally()
    out: Dict[str, dict] = {}
    started = clock()

    # -- trace: generate, write, read -------------------------------------
    spec = btrace.GeneratorSpec(
        static_branches=wl.branches, records=wl.records,
        pattern=wl.pattern.replace("-", "_"),
        zipf_s=wl.zipf_s if wl.zipf_s is not None else btrace.GeneratorSpec.zipf_s,
        seed=input_seed)
    generate_s, generated = _timed(btrace.generate, spec)
    trace_path = os.path.join(workdir, TRACE_NAME)
    write_s, _ = _timed(btrace.save_trace, trace_path, generated)
    tally.check(sha256_file(trace_path) == golden[TRACE_NAME],
                "generate + save_trace: trace differs from its golden digest")
    read_s, trace = _timed(btrace.load_trace, trace_path)
    tally.check(trace.records == generated.records,
                "load_trace does not return the generated records")
    del generated
    tracemalloc.start()
    try:
        btrace.load_trace(trace_path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(trace.records)
    out["trace.read_s"] = metric(read_s, "s")
    out["trace.read_us_per_rec"] = metric(read_s / n * 1e6, "us")
    out["trace.read_peak_mb"] = metric(read_peak / (1 << 20), "MB")
    out["trace.generate_s"] = metric(generate_s, "s")
    out["trace.write_s"] = metric(write_s, "s")

    # -- sim.offset_histogram and core.required_offset_width --------------
    hist_s, _ = _timed(sim.offset_histogram, trace)
    out["sim.offset_histogram_s"] = metric(hist_s, "s")
    isa = trace.isa
    pairs = [(r.pc, r.target) for r in trace.records
             if r.taken and r.kind is not core.BranchKind.RETURN]
    width = core.required_offset_width

    def widths():
        for pc, target in pairs:
            width(pc, target, isa)

    out["core.offset_width_us"] = metric(_median_time(widths) / len(pairs) * 1e6, "us")

    # -- models and sim: wrapped runs, bare runs, compare -----------------
    calib = Calibration(UpdateOutcome("hit", "main", 0))
    records = trace.records
    config = sim.SimConfig(isa=isa)
    budgets = wl.budget_list()
    probes = {name: ModelProbe() for name in MODELS}
    wrapped_s = dict.fromkeys(MODELS, 0.0)
    bare_s = dict.fromkeys(MODELS, 0.0)
    occupancy: Dict[str, dict] = {}
    # Allocations and evictions of each model at each budget, to show where
    # commits fill empty slots and where they evict.
    write_path: Dict[str, dict] = {}
    build_s = compare_s = 0.0
    for kb in budgets:
        results = {}
        for name in MODELS:
            dt, model = _timed(build_model, name, budget_kb=kb, isa=isa)
            build_s += dt
            p = probes[name]
            commits, allocs, evictions = p.commits, p.allocs, p.evictions
            instrument(model, p)
            dt, results[name] = _timed(sim.run, model, records, config)
            wrapped_s[name] += dt
            write_path.setdefault(f"{kb:g}", {})[name] = {
                "commit_alloc_frac": (p.allocs - allocs) / (p.commits - commits),
                "evictions": p.evictions - evictions}
            if kb == budgets[-1]:
                occupancy[name] = results[name].occupancy_by_way
        for name in MODELS:
            dt, bare = _timed(sim.run, build_model(name, budget_kb=kb, isa=isa),
                              records, config)
            bare_s[name] += dt
            tally.check(bare.to_dict() == results[name].to_dict(),
                        f"{name} at {kb:g} KB: wrapped run changed the metrics")
        dt, compared = _timed(sim.compare, MODELS, records, kb, config)
        compare_s += dt
        tally.check(all(m.to_dict() == results[name].to_dict() for name, m in compared),
                    f"compare at {kb:g} KB differs from serial runs")
        tally.check(_digest_text(sim.compare_csv(compared, kb))
                    == golden[f"compare-{kb:g}.csv"],
                    f"compare at {kb:g} KB: CSV differs from its golden digest")

    replayed = len(records) * len(budgets)
    for name in MODELS:
        p = probes[name]
        prefix = f"models.{name}."
        out[prefix + "lookup_us"] = metric(
            (p.lookup_s / p.lookups - calib.inner["lookup"]) * 1e6, "us")
        out[prefix + "commit_us"] = metric(
            (p.commit_s / p.commits - calib.inner["commit_update"]) * 1e6, "us")
        out[prefix + "occupancy_us"] = metric(
            (p.occupancy_s / p.occupancy_calls
             - calib.inner["occupancy_items"]) * 1e6, "us")
        out[prefix + "lookup_hit_frac"] = metric(p.hits / p.lookups, "fraction")
        out[prefix + "commit_alloc_frac"] = metric(p.allocs / p.commits, "fraction")
        out[prefix + "evictions"] = metric(p.evictions, "count")
        for structure, value in occupancy[name].items():
            out[f"{prefix}occupancy.{structure}"] = metric(value, "fraction")
        harness = wrapped_s[name] - calib.overhead_s(p) - calib.own_s(p)
        out[f"sim.{name}.harness_us_per_rec"] = metric(harness / replayed * 1e6, "us")
    out["sim.compare_s"] = metric(compare_s, "s")
    out["sim.compare_speedup"] = metric(sum(bare_s.values()) / compare_s, "x")
    out["storage.build_model_s"] = metric(build_s, "s")
    out["tracing_overhead_frac"] = metric(
        sum(wrapped_s.values()) / sum(bare_s.values()) - 1.0, "fraction")

    # -- cli: interpreter start-up and manifest hashing -------------------
    runner = CliRunner(workdir, deadline)
    startups = []
    for _ in range(REPEATS):
        res = runner.run(["--version"])
        tally.check(res.returncode == 0, f"--version exited {res.returncode}")
        startups.append(res.wall_s)
    out["cli.startup_s"] = metric(statistics.median(startups), "s")
    output_path = os.path.join(workdir, f"compare-{budgets[-1]:g}.csv")
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(sim.compare_csv(compared, budgets[-1]))
    out["cli.manifest_s"] = metric(_median_time(
        cli.write_manifest, output_path, "bench", {}, [trace_path]), "s")

    detail = {"traced_s": clock() - started, "budgets_kb": budgets,
              "write_path_by_budget_kb": write_path,
              "calibration_us": {k: v * 1e6 for k, v in calib.extra.items()}}
    return tally, out, detail


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

"""Drive a BTB model over a branch trace and account for taken-branch misses.

Every record gets a lookup (the front-end probes on the predicted path),
but only taken branches update the BTB at commit and only taken branches
inside the measured window count toward hits/misses.  A taken record's
lookup is part of its `commit_update`, which leaves it in `model.predicted`.
A hit means the BTB both found the branch and would have steered fetch
correctly: for returns that is a matching return-type entry (the target
itself comes from the RAS), for everything else a matching target.  A tag
hit whose target is wrong counts as a miss and is also reported separately.

The counts that do not depend on the model (instructions, taken branches
and the RAS's underflows and mispredicts) are taken once per trace.

MPKI denominators come from the per-record gap field: each record stands
for itself plus `gap` preceding non-branch instructions.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from functools import partial
from itertools import islice
from operator import itemgetter
from os import PathLike
from types import SimpleNamespace
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from .core import (ALIGNED4, CALL_BYTES, CALL_KINDS, RAS_CAPACITY, RETURN,
                   BranchRecord, Fields, IsaProfile, required_offset_width)
from .models import build_model
from .models.base import ADDRESS_BITS, BtbModel
from .trace import TraceFile, open_fields

# What `run`, `compare` and `offset_histogram` replay: a trace file's path
# (str or PathLike), a TraceFile, or a bare list of records.
Trace = Union[str, PathLike, TraceFile, Sequence[BranchRecord]]


class SimConfig(SimpleNamespace):
    # isa is the profile of a bare record list given to `compare`: a
    # TraceFile brings its own, and `run` takes its model's.
    def __init__(self, isa: IsaProfile = ALIGNED4,
                 warmup_records: Optional[int] = None,   # None: 10% of the trace
                 measure_records: Optional[int] = None,  # None: everything after warmup
                 debug: bool = False):  # verify model invariants per commit
        if warmup_records is not None and warmup_records < 0:
            raise ValueError("warmup_records must be >= 0")
        if measure_records is not None and measure_records < 0:
            raise ValueError("measure_records must be >= 0")
        super().__init__(isa=isa, warmup_records=warmup_records,
                         measure_records=measure_records, debug=debug)


class Metrics(SimpleNamespace):
    def __init__(self, instructions: int = 0, taken_branches: int = 0,
                 taken_btb_misses: int = 0,
                 hits_by_source: Optional[Dict[str, int]] = None,
                 occupancy_by_way: Optional[Dict[str, float]] = None,
                 measured_records: int = 0, wrong_target_misses: int = 0,
                 ras_underflows: int = 0, ras_mispredicts: int = 0):
        super().__init__(
            instructions=instructions, taken_branches=taken_branches,
            taken_btb_misses=taken_btb_misses,
            hits_by_source={} if hits_by_source is None else hits_by_source,
            occupancy_by_way={} if occupancy_by_way is None else occupancy_by_way,
            measured_records=measured_records,
            wrong_target_misses=wrong_target_misses,
            ras_underflows=ras_underflows, ras_mispredicts=ras_mispredicts)

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.taken_btb_misses * 1000.0 / self.instructions

    @property
    def taken_hits(self) -> int:
        return sum(self.hits_by_source.values())

    @property
    def taken_miss_rate(self) -> float:
        if self.taken_branches == 0:
            return 0.0
        return self.taken_btb_misses / self.taken_branches

    def to_dict(self) -> dict:
        return {
            "instructions": self.instructions,
            "taken_branches": self.taken_branches,
            "taken_btb_misses": self.taken_btb_misses,
            "mpki": self.mpki,
            "hits_by_source": dict(sorted(self.hits_by_source.items())),
            "occupancy_by_way": self.occupancy_by_way,
            "measured_records": self.measured_records,
            "wrong_target_misses": self.wrong_target_misses,
            "ras_underflows": self.ras_underflows,
            "ras_mispredicts": self.ras_mispredicts,
        }


@contextmanager
def _opened(trace: Trace, isa: IsaProfile) -> Iterator[
        Tuple[IsaProfile, int, Callable[[], Iterator[Fields]]]]:
    """(profile, record count, passes) of a trace, where each call of
    `passes()` iterates its records' `Fields` from the first.

    A path is streamed from disk on every pass (`trace.open_fields`), so
    no more than a chunk of it is in memory.  A TraceFile brings its
    own profile, and a bare record list takes `isa`.
    """
    if isinstance(trace, (str, PathLike)):
        with open_fields(trace) as (header, passes):
            yield header.isa, header.record_count, passes
        return
    if isinstance(trace, TraceFile):
        isa, trace = trace.isa, trace.records
    _check_addresses(trace)
    yield isa, len(trace), partial(iter, trace)


def _check_addresses(records: Sequence[Fields]) -> None:
    """Reject a record list whose pcs or targets leave [0, 2**64), the
    range of a trace file's u64 fields, naming the first such record.
    The bounds are taken in C, by `min` and `max` over each column; only
    a list that fails them is scanned record by record."""
    end = 1 << ADDRESS_BITS
    if records and not all(
            min(map(column, records)) >= 0 and max(map(column, records)) < end
            for column in (itemgetter(0), itemgetter(1))):
        index, (pc, target, *_) = next(
            (i, r) for i, r in enumerate(records)
            if not (0 <= r[0] < end and 0 <= r[1] < end))
        raise ValueError(f"record {index}: pc {pc:#x} and target {target:#x} "
                         f"must both lie in [0, 2**{ADDRESS_BITS})")


def run(model: BtbModel, trace: Trace,
        config: Optional[SimConfig] = None) -> Metrics:
    """Replay a trace through a model and account for its taken branches.

    `trace` is a trace file's path, streamed from disk a chunk at a time, a
    TraceFile, or a bare record list in the model's profile.
    """
    with _opened(trace, model.isa) as (isa, total, passes):
        if isa != model.isa:
            raise ValueError(
                f"trace isa_mode {isa.mode} does not match the model's "
                f"profile (mode {model.isa.mode})")
        config = config or SimConfig()
        warmup, counts = _trace_counts(passes(), total, config)
        return _run(model, passes(), warmup, counts, config)


def _trace_counts(records: Iterator[Fields], total: int,
                  config: SimConfig) -> Tuple[int, Metrics]:
    """The warmup length, and the instructions, taken branches and RAS
    traffic of the measured window after it: the same for every model, so
    taken in one pass per trace.  The RAS runs from the first record; the
    records after the window are not read."""
    warmup = config.warmup_records if config.warmup_records is not None else total // 10
    warmup = min(warmup, total)
    end = total if config.measure_records is None else min(
        total, warmup + config.measure_records)
    ras = deque(maxlen=RAS_CAPACITY)  # pushing when full drops the oldest
    push, pop = ras.append, ras.pop

    def count(records):
        instructions = taken_branches = underflows = mispredicts = 0
        for pc, target, kind, taken, gap in records:
            instructions += gap + 1
            if not taken:
                continue
            taken_branches += 1
            if kind in CALL_KINDS:
                push(pc + CALL_BYTES)
            elif kind == RETURN:
                if not ras:
                    underflows += 1
                elif pop() != target:
                    mispredicts += 1
        return instructions, taken_branches, underflows, mispredicts

    count(islice(records, warmup))  # only the RAS it leaves counts
    instructions, taken_branches, underflows, mispredicts = count(
        islice(records, end - warmup))
    return warmup, Metrics(
        instructions=instructions, taken_branches=taken_branches,
        measured_records=end - warmup, ras_underflows=underflows,
        ras_mispredicts=mispredicts)


def _run(model: BtbModel, records: Iterator[Fields], warmup: int,
         counts: Metrics, config: SimConfig) -> Metrics:
    """One model's pass over a trace: a `lookup` for each not-taken record
    and a `commit_update` for each taken one, handed the record as it came.
    Only hits are counted; every other taken branch is a miss."""
    lookup, commit, changes = model.lookup, model.commit_update, model.changes
    if config.debug:
        def commit(record, commit=commit, check=model.check_invariants):
            outcome = commit(record)
            check()
            return outcome

    def replay(records):
        """The warmup and the tail: the same lookups, commits and checks as
        the measured window, without counting."""
        for rec in records:
            if rec[3]:
                commit(rec)
            else:
                lookup(rec[0])

    replay(islice(records, warmup))
    measured = counts.measured_records
    hits: Dict[str, int] = {}
    wrong = 0
    # Occupancy: each measured record adds the valid counts as they stand
    # after it.  Those move only with the change counter, so they are read
    # at the window's start and re-read after each commit that moved it,
    # closing one span of valid x records per structure; the integer sums
    # equal a per-record sample exactly.
    items, seen, since = model.occupancy_items(), changes[0], warmup
    area = [0] * len(items)
    for i, rec in enumerate(islice(records, measured), warmup):
        pc, target, kind, taken, _ = rec
        if not taken:
            lookup(pc)
            continue
        commit(rec)
        pred = model.predicted
        if pred is not None:
            if pred.kind == RETURN if kind == RETURN else pred.target == target:
                source = pred.source
                hits[source] = hits.get(source, 0) + 1
            else:
                wrong += 1
        if changes[0] != seen:
            for k, (_, valid, _) in enumerate(items):
                area[k] += valid * (i - since)
            items, seen, since = model.occupancy_items(), changes[0], i
    replay(records)

    span = warmup + measured - since
    return Metrics(**dict(
        vars(counts), hits_by_source=hits, wrong_target_misses=wrong,
        taken_btb_misses=counts.taken_branches - sum(hits.values()),
        occupancy_by_way={name: (a + valid * span) / (cap * measured)
                          for (name, valid, cap), a in zip(items, area)}
        if measured else {}))


class OffsetHistogram(SimpleNamespace):
    """Stored-offset-width distribution over dynamic taken branches."""

    def __init__(self, counts: Dict[int, int], total: int):
        super().__init__(counts=counts, total=total)

    def cumulative_at(self, width: int) -> float:
        if not self.total:
            return 0.0
        return sum(c for w, c in self.counts.items() if w <= width) / self.total

    def rows(self) -> List[Tuple[int, int, float, float]]:
        rows = []
        running = 0
        for width in sorted(self.counts):
            count = self.counts[width]
            running += count
            rows.append((width, count, count / self.total, running / self.total))
        return rows

    def csv(self) -> str:
        lines = ["stored_width,count,fraction,cumulative"]
        for width, count, frac, cum in self.rows():
            lines.append(f"{width},{count},{frac:.6f},{cum:.6f}")
        return "\n".join(lines) + "\n"


def offset_histogram(trace: Trace,
                     isa: Optional[IsaProfile] = None) -> OffsetHistogram:
    """Bucket every dynamic taken branch by its required stored width; a
    bare record list is in `isa`, aligned4 by default.

    Returns are counted at width 0 regardless of target: their targets come
    from the RAS, so a BTB entry stores no offset bits for them.
    """
    counts: Dict[int, int] = {}
    total = 0
    with _opened(trace, isa or ALIGNED4) as (isa, _, passes):
        for pc, target, kind, taken, _ in passes():
            if not taken:
                continue
            if kind == RETURN:
                width = 0
            else:
                width = required_offset_width(pc, target, isa)
            counts[width] = counts.get(width, 0) + 1
            total += 1
    return OffsetHistogram(counts, total)


def compare(model_names: Sequence[str], trace: Trace, budget_kb: float,
            config: Optional[SimConfig] = None) -> List[Tuple[str, Metrics]]:
    """Run several organizations at the same budget over one trace.

    The models run one after another in declaration order, each on its own
    freshly built model for the trace's profile and its own pass over the
    trace, so one model is alive at a time.  A bare record list is in
    `config.isa`.
    """
    config = config or SimConfig()
    with _opened(trace, config.isa) as (isa, total, passes):
        warmup, counts = _trace_counts(passes(), total, config)
        return [(name, _run(build_model(name, budget_kb=budget_kb, isa=isa),
                            passes(), warmup, counts, config))
                for name in model_names]


COMPARE_CSV_HEADER = ("model,budget_kb,instructions,taken_branches,"
                      "taken_btb_misses,taken_miss_rate,mpki")


def compare_csv(results: Sequence[Tuple[str, Metrics]], budget_kb: float) -> str:
    lines = [COMPARE_CSV_HEADER]
    for name, m in results:
        lines.append(f"{name},{budget_kb:g},{m.instructions},{m.taken_branches},"
                     f"{m.taken_btb_misses},{m.taken_miss_rate:.6f},{m.mpki:.6f}")
    return "\n".join(lines) + "\n"

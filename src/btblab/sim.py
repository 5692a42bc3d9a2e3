"""Drive a BTB model over a branch trace and account for taken-branch misses.

Every record gets a lookup (the front-end probes on the predicted path),
but only taken branches update the BTB at commit and only taken branches
inside the measured window count toward hits/misses.  A hit means the BTB
both found the branch and would have steered fetch correctly: for returns
that is a matching return-type entry (the target itself comes from the
RAS), for everything else a matching target.  A tag hit whose target is
wrong counts as a miss and is also reported separately.

MPKI denominators come from the per-record gap field: each record stands
for itself plus `gap` preceding non-branch instructions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (ALIGNED4, CALL_BYTES, CALL_KINDS, RAS_CAPACITY, BranchKind,
                   BranchRecord, IsaProfile, required_offset_width)
from .models import build_model
from .models.base import BtbModel
from .trace import TraceFile


@dataclass
class SimConfig:
    # The profile of a bare record list given to `compare`: a TraceFile
    # brings its header's, and `run` takes its model's.
    isa: IsaProfile = ALIGNED4
    warmup_records: Optional[int] = None   # None: 10% of the trace
    measure_records: Optional[int] = None  # None: everything after warmup
    debug: bool = False                    # verify model invariants per commit

    def __post_init__(self):
        if self.warmup_records is not None and self.warmup_records < 0:
            raise ValueError("warmup_records must be >= 0")
        if self.measure_records is not None and self.measure_records < 0:
            raise ValueError("measure_records must be >= 0")


@dataclass
class Metrics:
    instructions: int = 0
    taken_branches: int = 0
    taken_btb_misses: int = 0
    hits_by_source: Dict[str, int] = field(default_factory=dict)
    occupancy_by_way: Dict[str, float] = field(default_factory=dict)
    measured_records: int = 0
    wrong_target_misses: int = 0
    ras_underflows: int = 0
    ras_mispredicts: int = 0

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


def _profiled(trace: Union[TraceFile, Iterable[BranchRecord]],
              isa: IsaProfile) -> Tuple[IsaProfile, Iterable[BranchRecord]]:
    """(profile, records) of a trace: a TraceFile brings its header's
    profile, a bare record list takes `isa`."""
    if isinstance(trace, TraceFile):
        return trace.isa, trace.records
    return isa, trace


def run(model: BtbModel, trace: Union[TraceFile, Sequence[BranchRecord]],
        config: Optional[SimConfig] = None) -> Metrics:
    config = config or SimConfig()
    isa, records = _profiled(trace, model.isa)
    if isa != model.isa:
        raise ValueError(
            f"trace isa_mode {isa.mode} does not match the model's profile "
            f"(mode {model.isa.mode})")
    total = len(records)
    warmup = config.warmup_records if config.warmup_records is not None else total // 10
    warmup = min(warmup, total)
    end = total if config.measure_records is None else min(
        total, warmup + config.measure_records)

    ras = deque(maxlen=RAS_CAPACITY)  # pushing when full drops the oldest
    push, pop = ras.append, ras.pop
    lookup, commit, changes = model.lookup, model.commit_update, model.changes
    check = model.check_invariants if config.debug else None
    RETURN = BranchKind.RETURN
    hits: Dict[str, int] = {}
    instructions = taken = misses = wrong = underflows = ras_mispredicts = 0

    def replay(records):
        """The warmup and the tail: the same lookups, commits, checks and
        RAS traffic as the measured window, without counting."""
        for rec in records:
            lookup(rec.pc)
            if not rec.taken:
                continue
            commit(rec)
            if check is not None:
                check()
            kind = rec.kind
            if kind in CALL_KINDS:
                push(rec.pc + CALL_BYTES)
            elif kind is RETURN and ras:
                pop()

    it = iter(records)
    replay(islice(it, warmup))
    if end > warmup:
        occupancy = _OccupancyArea(model, warmup)
    for i, rec in enumerate(islice(it, end - warmup), warmup):
        pred = lookup(rec.pc)
        instructions += rec.gap + 1
        if not rec.taken:
            continue
        kind = rec.kind
        taken += 1
        if pred is None:
            misses += 1
        elif (pred.kind is RETURN if kind is RETURN
              else pred.target == rec.target):
            source = pred.source
            hits[source] = hits.get(source, 0) + 1
        else:
            misses += 1
            wrong += 1
        commit(rec)
        if changes[0] != occupancy.seen:
            occupancy.change(i)
        if check is not None:
            check()
        if kind in CALL_KINDS:
            push(rec.pc + CALL_BYTES)
        elif kind is RETURN:
            if not ras:
                underflows += 1
            elif pop() != rec.target:
                ras_mispredicts += 1
    replay(it)

    metrics = Metrics(instructions=instructions, taken_branches=taken,
                      taken_btb_misses=misses, hits_by_source=hits,
                      measured_records=end - warmup,
                      wrong_target_misses=wrong, ras_underflows=underflows,
                      ras_mispredicts=ras_mispredicts)
    if end > warmup:
        metrics.occupancy_by_way = occupancy.by_way(end)

    assert metrics.taken_hits + metrics.taken_btb_misses == metrics.taken_branches
    return metrics


class _OccupancyArea:
    """Valid entries per structure summed over the measured records.

    Each record contributes the valid counts as they stand after it.  Those
    change only when the model's change counter moves, so the model is read
    at the window's start and after each commit that moved it.  A count's
    area grows by count x records over each span it held, closed when that
    count moves; the integer sums equal a per-record sample exactly.
    """

    def __init__(self, model: BtbModel, start: int):
        self._read = model.occupancy_items
        self._changes = model.changes
        self.seen = self._changes[0]  # counter value `items` was read at
        self.items = self._read()
        self.area = [0] * len(self.items)
        self.start = start
        # per structure, the first record whose state its count describes
        self.since = [start] * len(self.items)

    def change(self, i: int) -> None:
        """Record i's commit moved the model's change counter."""
        self.seen = self._changes[0]
        items, old = self._read(), self.items
        area, since = self.area, self.since
        for k in range(len(items)):
            valid = old[k][1]
            if valid != items[k][1]:
                area[k] += valid * (i - since[k])
                since[k] = i
        self.items = items

    def by_way(self, stop: int) -> Dict[str, float]:
        records = stop - self.start
        return {name: (area + valid * (stop - since)) / (cap * records)
                for (name, valid, cap), area, since
                in zip(self.items, self.area, self.since)}


@dataclass
class OffsetHistogram:
    """Stored-offset-width distribution over dynamic taken branches."""

    counts: Dict[int, int]
    total: int

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


def offset_histogram(trace: Union[TraceFile, Iterable[BranchRecord]],
                     isa: Optional[IsaProfile] = None) -> OffsetHistogram:
    """Bucket every dynamic taken branch by its required stored width.

    Returns are counted at width 0 regardless of target: their targets come
    from the RAS, so a BTB entry stores no offset bits for them.
    """
    isa, records = _profiled(trace, isa or ALIGNED4)
    counts: Dict[int, int] = {}
    total = 0
    for rec in records:
        if not rec.taken:
            continue
        if rec.kind is BranchKind.RETURN:
            width = 0
        else:
            width = required_offset_width(rec.pc, rec.target, isa)
        counts[width] = counts.get(width, 0) + 1
        total += 1
    return OffsetHistogram(counts, total)


def compare(model_names: Sequence[str],
            trace: Union[TraceFile, Sequence[BranchRecord]],
            budget_kb: float,
            config: Optional[SimConfig] = None) -> List[Tuple[str, Metrics]]:
    """Run several organizations at the same budget over one trace.

    The models run one after another in declaration order, each on its own
    freshly built model for the trace's profile.
    """
    config = config or SimConfig()
    isa, records = _profiled(trace, config.isa)
    return [(name, run(build_model(name, budget_kb=budget_kb, isa=isa),
                       records, config))
            for name in model_names]


COMPARE_CSV_HEADER = ("model,budget_kb,instructions,taken_branches,"
                      "taken_btb_misses,taken_miss_rate,mpki")


def compare_csv(results: Sequence[Tuple[str, Metrics]], budget_kb: float) -> str:
    lines = [COMPARE_CSV_HEADER]
    for name, m in results:
        lines.append(f"{name},{budget_kb:g},{m.instructions},{m.taken_branches},"
                     f"{m.taken_btb_misses},{m.taken_miss_rate:.6f},{m.mpki:.6f}")
    return "\n".join(lines) + "\n"

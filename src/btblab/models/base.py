"""Shared lookup/update contract and set-associative tables for all BTB models.

Every organization exposes the same two entry points, written in `BtbModel`.
`commit_update(record)` is the only path that changes contents, driven by
taken branches at commit: it first does what the front end's probe of that
branch would do, leaving the result in `predicted`, then commits.
`lookup(pc)` is that probe on its own, for a branch that is not taken (it
may refresh recency on a valid hit but never allocates or evicts).  An
organization states what its entry, one value per way, stores: how a hit
rebuilds its target (`_predict_at`), how an entry is written (`_write`)
and checked (`_rebuilt`), and its first way (`_first`).  Only `BtbModel`
commits, places (`_place`) or moves (`_change`) an entry; btbx adds its
companion to `lookup`, `_miss` and `_place`, pdede a rewrite to `_hit_at`.
The record is a tuple `pc, target, kind, taken, gap`, read positionally: a
`BranchRecord` or the raw fields of a binary trace, whose kind is a plain
int code.  So kinds compare by value, with `core.RETURN` and `core.CALL_KINDS`.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from ..core import RETURN, Fields, InvariantError, IsaProfile, xor_fold


class Prediction(NamedTuple):
    """A BTB hit: target is None when the entry says "take it from the RAS"
    (only ever the case for return-type entries).  kind is the committed
    record's, a BranchKind or its plain int code.  Immutable, so a model
    builds one when it writes an entry and returns it on every hit."""

    target: Optional[int]
    kind: int
    source: str


# Builds a Prediction from a (target, kind, source) tuple in C, skipping the
# generated Python __new__; the models build one on every write.
new_prediction = partial(tuple.__new__, Prediction)


class UpdateOutcome(NamedTuple):
    """What one commit-stage update did.

    kind: "hit" (recency only), "rewrite" (target refreshed in place),
    "migrate" (entry moved between slots/structures), "alloc" (fresh fill).
    """

    kind: str
    structure: str
    way: Optional[int] = None
    victim_valid: bool = False

    def event(self) -> str:
        way = "-" if self.way is None else str(self.way)
        return f"{self.kind}:{self.structure}:{way}"


ASSOC = 8  # nominal ways of every main array
ADDRESS_BITS = 64  # a trace record's pc and target are u64 fields


def divisor_ways(entries: int) -> int:
    """The largest associativity, at most ASSOC, that divides `entries`."""
    return next(a for a in range(min(ASSOC, entries), 0, -1)
                if entries % a == 0)


INVALID = -1  # tag of an empty way: folded tags, page bits and regions are >= 0


MEMO_LINES = 1 << 14  # the most lines a LineMemo stores


class LineMemo(dict):
    """line -> (set, tag) of one table.  A line's set and tag are computed
    on its first probe and kept for the life of the table, so a probe is
    `s, tag = memo[line]`.  The memo stores the first MEMO_LINES distinct
    lines it sees and no more: a later line's set and tag are computed on
    each of its probes, so memory stays bounded however large the code
    footprint, and the early (hot) lines stay memoized."""

    __slots__ = ("sets", "tag_bits")

    def __init__(self, sets: int, tag_bits: int):
        super().__init__()
        self.sets, self.tag_bits = sets, tag_bits

    def __missing__(self, line: int):
        st = self.set_tag(line)
        if len(self) < MEMO_LINES:
            self[line] = st
        return st

    def set_tag(self, line: int):
        """(set, tag) of a line address: the set is line % sets and the tag
        is line // sets folded to tag_bits."""
        return line % self.sets, xor_fold(line // self.sets, self.tag_bits)


class SetArray:
    """Tags, true-LRU recency and per-way valid counts of one set-associative
    table.  An empty way holds the tag INVALID, so a probe is one list
    search.  What an entry stores lives in the owning model's `_entry`;
    which ways an entry may use is the `first` argument of `fill`.  `memo`
    gives each line's set and tag (see `LineMemo`).

    Recency is true LRU: a touch advances the clock and stamps the way with
    it, so `stamps[s][way]` is the clock value of the way's last touch and
    the least recently used way holds the smallest stamp.  One clock serves
    every set, which orders each set's stamps exactly as a per-set clock or
    a permutation of recency counters would.

    `changes` is a one-item list counting the fills into empty ways and the
    invalidations, the only writes that move a valid count.  A model shares
    one such counter among all its tables (see `BtbModel.changes`).
    """

    __slots__ = ("sets", "ways", "tag_bits", "tags", "stamps", "clock",
                 "way_valid", "memo", "set_tag", "changes")

    def __init__(self, sets: int, ways: int, tag_bits: int = 0):
        self.sets, self.ways, self.tag_bits = sets, ways, tag_bits
        self.tags = [[INVALID] * ways for _ in range(sets)]
        self.stamps = [list(range(ways)) for _ in range(sets)]
        self.clock = ways - 1  # the last stamp handed out
        self.way_valid = [0] * ways
        self.memo = LineMemo(sets, tag_bits)
        self.set_tag = self.memo.set_tag  # computed afresh, not memoized
        self.changes = [0]

    def probe(self, s: int, tag: int) -> Optional[int]:
        row = self.tags[s]
        return row.index(tag) if tag in row else None

    def touch(self, s: int, way: int) -> None:
        """Make a way the most recently used of its set.  The models' main
        arrays do the same inline on their per-record paths."""
        self.stamps[s][way] = self.clock = self.clock + 1

    def fill(self, s: int, tag: int, first: int = 0):
        """Write tag into the lowest-index empty way at or after `first`,
        else into the least recently used of those ways, and touch it.  Ways
        before `first` are never chosen, empty or not.  Returns (way, whether
        the victim was valid)."""
        if first >= self.ways:
            raise InvariantError(f"no eligible way at or after way {first}")
        row = self.tags[s]
        stamps = self.stamps[s]
        if INVALID in (row[first:] if first else row):
            way = row.index(INVALID, first)
            self.way_valid[way] += 1
            self.changes[0] += 1
            victim_valid = False
        else:
            way = stamps.index(min(stamps[first:] if first else stamps), first)
            victim_valid = True
        row[way] = tag
        stamps[way] = self.clock = self.clock + 1
        return way, victim_valid

    def invalidate(self, s: int, way: int) -> None:
        self.tags[s][way] = INVALID
        self.way_valid[way] -= 1
        self.changes[0] += 1

    def valid(self) -> int:
        return sum(self.way_valid)

    def occupied(self):
        """(set, way) of every valid entry."""
        for s, row in enumerate(self.tags):
            for way, tag in enumerate(row):
                if tag != INVALID:
                    yield s, way

    def check(self) -> None:
        counts = [sum(row[way] != INVALID for row in self.tags)
                  for way in range(self.ways)]
        if counts != self.way_valid:
            raise InvariantError(f"per-way valid drift: {counts} != {self.way_valid}")
        for stamps in self.stamps:
            if len(set(stamps)) != len(stamps):
                raise InvariantError(f"recency stamps not distinct: {stamps}")
        for line, st in self.memo.items():
            if st != self.set_tag(line):
                raise InvariantError(f"memo of line {line:#x} holds {st}, "
                                     f"expected {self.set_tag(line)}")


class BtbModel:
    """Interface and main-array skeleton shared by the four organizations.

    The constructor builds what every organization has: a main array of
    `sets` x `ways` in `self._main`, the prediction sources "way0", "way1",
    ..., the main array's outcome table, and `self._entry`, which holds one
    stored entry per way: conv's is its `Prediction`; the others' is a
    plain tuple, read by position, that starts with that prediction:
      rbtb   (prediction, page_ptr, page_gen, in_page_offset)
      pdede  (prediction, page_ptr, page_gen, in_page_offset, owner_pc)
      btbx   (prediction, offset_field, owner_pc)
    An organization adds its sizing rule and, where a hit's target is
    rebuilt or needs a live link, its `_predict_at`; it overrides `_write`
    and `_rebuilt` (what `check_invariants` compares each stored prediction
    with) where an entry stores more than its prediction.  A placement policy
    (btbx's way widths, pdede's same-page ways) is a table: `first`, the
    lowest way an entry may use, is `_first[(pc ^ target).bit_length()]`
    (a return's is 0).  `_place` fills the LRU of the ways from `first` on;
    `_change` rewrites in place or, below `first`, moves the entry.

    A taken branch costs one call.  `commit_update` probes the main array,
    applies the recency touch a lookup's hit would, and leaves in
    `predicted` exactly what `lookup(pc)` would have returned just before
    it (btbx's `_miss` fills in its companion's hit); then it commits: a
    hit (`_hit_at`), a `_change` of the entry, or a `_miss`.  A lookup's
    touch and then the commit's touch of the same way leave the LRU order
    of the one touch, so a model driven by commits alone goes through the
    same states and outcomes as one also looked up before each commit.

    `changes` is the model's change counter, a one-item list shared by all
    its tables: whenever a count in `occupancy_items()` may have moved, it
    has moved, so a reader re-reads the counts only when it differs.
    """

    name = "?"
    predicted: Optional[Prediction] = None  # the last commit's lookup result

    def __init__(self, sets: int, ways: int, tag_bits: int, isa: IsaProfile):
        self.isa = isa
        self.sets, self.ways = sets, ways
        self._shift = isa.align_shift
        self._main = SetArray(sets, ways, tag_bits)
        self.changes = self._main.changes
        self._sources = tuple(f"way{w}" for w in range(ways))
        # Every outcome a commit can return, built once and frozen, so a
        # commit hands one out: _hit[way], _out[kind][way][victim_valid].
        self._hit, self._rewrite = (
            tuple(UpdateOutcome(kind, "main", way) for way in range(ways))
            for kind in ("hit", "rewrite"))
        self._out = {kind: tuple((UpdateOutcome(kind, "main", way, False),
                                  UpdateOutcome(kind, "main", way, True))
                                 for way in range(ways))
                     for kind in ("migrate", "alloc")}
        self._entry = [[None] * ways for _ in range(sets)]
        self._first = (0,) * (ADDRESS_BITS + 1)  # any way, for any offset

    def lookup(self, pc: int) -> Optional[Prediction]:
        """The front end's probe: the main array's tag search, then what the
        hit way predicts for pc (`_predict_at`).  A hit that predicts
        something becomes its set's most recently used way."""
        main = self._main
        s, tag = main.memo[pc >> self._shift]
        row = main.tags[s]
        if tag not in row:
            return None
        way = row.index(tag)
        pred = self._predict_at(pc, s, way)
        if pred is not None:
            main.stamps[s][way] = main.clock = main.clock + 1
        return pred

    def _predict_at(self, pc: int, s: int, way: int) -> Optional[Prediction]:
        """What the entry at (s, way) predicts for pc, or None when a link
        it needs has died (a miss, never a wrong target).  By default, the
        prediction that is the entry."""
        return self._entry[s][way]

    def commit_update(self, record: Fields) -> UpdateOutcome:
        """Probe as `lookup(pc)` would and leave its result in `predicted`;
        a hit needs that prediction's kind and, but for a return, target.
        Else `_change` the entry, or on a tag miss place it with `_miss`.
        The record is one a trace of the model's profile may hold: `sim`
        checks a record list by the format's rule (`trace.check_records`)."""
        main = self._main
        pc, target, kind, _, _ = record
        s, tag = main.memo[pc >> self._shift]
        row = main.tags[s]
        if tag not in row:
            self.predicted = None
            return self._miss(pc, target, kind, s, tag)
        way = row.index(tag)
        main.stamps[s][way] = main.clock = main.clock + 1
        self.predicted = pred = self._predict_at(pc, s, way)
        if pred is not None and pred.kind == kind and (
                kind == RETURN or pred.target == target):
            return self._hit_at(pc, target, kind, s, tag, way)
        return self._change(pc, target, kind, s, tag, way)

    def _hit_at(self, pc: int, target: int, kind: int, s: int, tag: int,
                way: int):
        """The outcome of a right prediction from (s, way): a hit."""
        return self._hit[way]

    def _place(self, pc: int, target: int, kind: int, s: int, tag: int,
               first: int = 0, outcome: str = "alloc"):
        """Fill the LRU of the set's ways at or after `first` (an empty one
        first), `_write` the entry there and return `outcome`."""
        way, victim_valid = self._main.fill(s, tag, first)
        self._write(s, way, pc, target, kind)
        return self._out[outcome][way][victim_valid]

    _miss = _place  # any way: a model with a placement rule reads `_first`

    def _change(self, pc: int, target: int, kind: int, s: int, tag: int,
                way: int):
        """Rewrite the entry in place or, if its way is below its first way,
        move it: invalidate the way and `_place` the entry with "migrate"."""
        first = 0 if kind == RETURN else self._first[(pc ^ target).bit_length()]
        if way < first:
            self._main.invalidate(s, way)
            return self._place(pc, target, kind, s, tag, first, "migrate")
        self._write(s, way, pc, target, kind)
        return self._rewrite[way]

    def _write(self, s: int, way: int, pc: int, target: int, kind: int):
        """Store the entry, its prediction; a return's target is the RAS's."""
        self._entry[s][way] = new_prediction(
            (None if kind == RETURN else target, kind, self._sources[way]))

    def occupancy_items(self):
        """[(structure name, currently valid entries, capacity), ...]"""
        return [("main", self._main.valid(), self.sets * self.ways)]

    def check_invariants(self) -> None:
        """Each valid entry's stored prediction is what `_rebuilt` rebuilds
        from its payload, unless a link the entry needs has died."""
        self._main.check()
        for s, way in self._main.occupied():
            entry, rebuilt = self._entry[s][way], self._rebuilt(s, way)
            pred = entry if isinstance(entry, Prediction) else entry[0]
            if rebuilt is not None and pred != rebuilt:
                raise InvariantError(f"set {s} way {way}: stored prediction "
                                     f"{pred} differs from its payload")

    def _rebuilt(self, s: int, way: int) -> Optional[Prediction]:
        """The entry's prediction for the pc that wrote it, rebuilt from its
        payload, or None when a page or region link has died; a model also
        raises here on an entry that breaks its own rules.  By default: the
        entry itself, with its way's source and no target for a return."""
        pred = self._entry[s][way]
        return new_prediction((None if pred.kind == RETURN else pred.target,
                               pred.kind, self._sources[way]))

"""Branch-trace file formats and the seeded synthetic workload generator.

Binary layout (little-endian):
  header: magic "BTBT" (4B), version u8 = 1, isa_mode u8 (0 = 4-byte aligned,
          1 = byte-aligned), reserved u16 = 0, record_count u64
  record: pc u64, target u64, kind u8, taken u8, gap u16, pad u32 = 0

Text form is one JSON object per line: a header object first, then one
object per record with pc/target as hex strings.

The generator builds a fixed static branch set and replays it under a
round-robin, uniform, or zipf access pattern.  Branch PCs are laid out one
per page (stride of a page plus one line) so that set indices stay uniform
for any set count while target pages stay distinct; kind and offset-width
classes are dealt out by largest-remainder interleaving, which pins the
realized class shares to the requested ones and spreads each class evenly
across sets.  Returns take their per-record target from a shadow call
stack, so call/return pairing is meaningful to a RAS.
"""

from __future__ import annotations

import bisect
import json
import random
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .core import (CALL_BYTES, BranchKind, BranchRecord, IsaProfile,
                   KIND_NAMES, KINDS_BY_NAME, mode_name, profile_for_mode)

MAGIC = b"BTBT"
VERSION = 1
_HEADER = struct.Struct("<4sBBHQ")
_RECORD = struct.Struct("<QQBBHI")
HEADER_BYTES = _HEADER.size
RECORD_BYTES = _RECORD.size
MAX_GAP = 0xFFFF


class TraceFormatError(ValueError):
    """Malformed trace input; record_index is None for header problems."""

    def __init__(self, message: str, record_index: Optional[int] = None):
        if record_index is not None:
            message = f"record {record_index}: {message}"
        super().__init__(message)
        self.record_index = record_index


@dataclass(frozen=True)
class TraceHeader:
    isa_mode: int
    record_count: int
    version: int = VERSION

    @property
    def isa(self) -> IsaProfile:
        return profile_for_mode(self.isa_mode)


@dataclass
class TraceFile:
    header: TraceHeader
    records: List[BranchRecord]

    @property
    def isa(self) -> IsaProfile:
        return self.header.isa


def _validate_record(rec: BranchRecord, isa: IsaProfile, index: int) -> None:
    try:
        rec.validate(isa)
    except ValueError as exc:
        raise TraceFormatError(str(exc), index) from None
    if rec.gap > MAX_GAP:
        raise TraceFormatError(f"gap {rec.gap} exceeds format limit", index)


# -- binary form -------------------------------------------------------------

def write_trace(path, trace: TraceFile) -> None:
    write_records(path, trace.header.isa_mode, trace.records,
                  count=len(trace.records))


def write_records(path, isa_mode: int, records: Iterable[BranchRecord],
                  count: Optional[int] = None) -> int:
    """Stream records to a binary trace; patches the header count afterwards
    when it is not known up front.  Returns the record count."""
    profile_for_mode(isa_mode)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, isa_mode, 0, count or 0))
        written = 0
        for rec in records:
            fh.write(_RECORD.pack(rec.pc, rec.target, int(rec.kind),
                                  int(rec.taken), rec.gap, 0))
            written += 1
        if count is None or count != written:
            fh.seek(8)  # record_count field offset
            fh.write(struct.pack("<Q", written))
    return written


def read_header(fh) -> TraceHeader:
    raw = fh.read(HEADER_BYTES)
    if len(raw) < HEADER_BYTES:
        raise TraceFormatError("truncated header")
    magic, version, isa_mode, reserved, count = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported version {version}")
    if reserved != 0:
        raise TraceFormatError(f"reserved field is {reserved}, expected 0")
    if isa_mode not in (0, 1):
        raise TraceFormatError(f"unknown isa_mode {isa_mode}")
    return TraceHeader(isa_mode=isa_mode, record_count=count)


def iter_records(path) -> Tuple[TraceHeader, Iterator[BranchRecord]]:
    """Streaming reader; the iterator validates each record as it goes.

    The file belongs to the iterator, which has already started: closing
    or dropping it closes the file, even before the first record.
    """
    records = _read_binary(path)
    return next(records), records


_CHUNK_RECORDS = 1 << 14  # records read and unpacked at a time
_KINDS = tuple(BranchKind)  # indexed by kind code


def _read_binary(path):
    """Yield the trace header, then each validated record.

    Records are read a chunk at a time and unpacked with `iter_unpack`.  One
    combined test passes every well-formed record; a record it flags goes
    through the per-field checks, which raise with the record's index.
    """
    with open(path, "rb") as fh:
        header = read_header(fh)
        yield header
        isa = header.isa
        # Bits a valid pc or target leaves clear in its u64 field: those at
        # and above va_bits, and the alignment bits.
        bad_bits = (((1 << 64) - (1 << isa.va_bits))
                    | ((1 << isa.align_shift) - 1))
        count = header.record_count
        start = 0
        while start < count:
            want = min(count - start, _CHUNK_RECORDS) * RECORD_BYTES
            chunk = fh.read(want)
            whole = len(chunk) - len(chunk) % RECORD_BYTES
            for index, (pc, target, kind, taken, gap, pad) in enumerate(
                    _RECORD.iter_unpack(memoryview(chunk)[:whole]), start):
                if (pad or kind > 5 or taken > 1 or (pc | target) & bad_bits
                        or (kind and not taken)):
                    yield _checked_record(pc, target, kind, taken, gap, pad,
                                          isa, index)
                else:
                    yield BranchRecord(pc, target, _KINDS[kind], taken == 1, gap)
            start += whole // RECORD_BYTES
            if len(chunk) < want:
                raise TraceFormatError("truncated record", start)
        if fh.read(1):
            raise TraceFormatError("trailing bytes after last record", count)


def _checked_record(pc: int, target: int, kind: int, taken: int, gap: int,
                    pad: int, isa: IsaProfile, index: int) -> BranchRecord:
    """One record through the per-field checks, which raise on the first
    field that fails."""
    if pad != 0:
        raise TraceFormatError(f"nonzero pad {pad}", index)
    if kind > 5:
        raise TraceFormatError(f"unknown kind code {kind}", index)
    if taken > 1:
        raise TraceFormatError(f"bad taken flag {taken}", index)
    rec = BranchRecord(pc, target, BranchKind(kind), bool(taken), gap)
    _validate_record(rec, isa, index)
    return rec


def read_trace(path) -> TraceFile:
    header, records = iter_records(path)
    return TraceFile(header, list(records))


# -- text (JSON lines) form ---------------------------------------------------

def write_trace_jsonl(path, trace: TraceFile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "btbt", "version": VERSION,
                             "isa_mode": mode_name(trace.header.isa_mode),
                             "record_count": len(trace.records)}) + "\n")
        for rec in trace.records:
            fh.write(json.dumps({"pc": hex(rec.pc), "target": hex(rec.target),
                                 "kind": KIND_NAMES[rec.kind],
                                 "taken": rec.taken, "gap": rec.gap}) + "\n")


# JSON type of each record field; pc and target are hex strings.
_JSONL_FIELDS = {"pc": str, "target": str, "kind": str, "taken": bool, "gap": int}


def _jsonl_record(line: str, index: int) -> BranchRecord:
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise TraceFormatError(str(exc), index) from None
    if not isinstance(obj, dict):
        raise TraceFormatError("record is not a JSON object", index)
    for name, json_type in _JSONL_FIELDS.items():
        if name not in obj:
            raise TraceFormatError(f"missing field {name!r}", index)
        value = obj[name]
        if (not isinstance(value, json_type)
                or (json_type is int and isinstance(value, bool))):
            raise TraceFormatError(
                f"{name} must be a JSON {json_type.__name__}, got {value!r}", index)
    try:
        return BranchRecord(int(obj["pc"], 16), int(obj["target"], 16),
                            KINDS_BY_NAME[obj["kind"]], obj["taken"], obj["gap"])
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"bad field value: {exc}", index) from None


def read_trace_jsonl(path) -> TraceFile:
    with open(path, "r", encoding="utf-8") as fh:
        head_line = fh.readline()
        try:
            head = json.loads(head_line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TraceFormatError(f"bad header line: {exc}") from None
        if not isinstance(head, dict) or head.get("format") != "btbt":
            raise TraceFormatError("missing btbt header object")
        mode_names = {"aligned4": 0, "byte": 1}
        name = head.get("isa_mode")
        if not isinstance(name, str) or name not in mode_names:
            raise TraceFormatError(f"unknown isa_mode {name!r}")
        mode = mode_names[name]
        isa = profile_for_mode(mode)
        records = []
        for index, line in enumerate(fh):
            if not line.strip():
                continue
            rec = _jsonl_record(line, index)
            _validate_record(rec, isa, index)
            records.append(rec)
        declared = head.get("record_count")
        if declared is not None and declared != len(records):
            raise TraceFormatError(
                f"header declares {declared} records, found {len(records)}")
    return TraceFile(TraceHeader(mode, len(records)), records)


def load_trace(path) -> TraceFile:
    """Read either form; .jsonl/.json extensions select the text reader."""
    text = str(path).endswith((".jsonl", ".json"))
    return read_trace_jsonl(path) if text else read_trace(path)


def save_trace(path, trace: TraceFile) -> None:
    if str(path).endswith((".jsonl", ".json")):
        write_trace_jsonl(path, trace)
    else:
        write_trace(path, trace)


# -- synthetic workloads ------------------------------------------------------

# Offset-width class shares for generated working sets.  Short offsets
# dominate (as they do in real branch profiles), and every class fits the
# main array, so round-robin working sets below nominal capacity are held
# without pathological way pressure.
DEFAULT_WIDTH_BUCKETS = (
    (1, 4, 0.45),
    (5, 5, 0.15),
    (6, 7, 0.15),
    (8, 9, 0.10),
    (10, 11, 0.10),
    (12, 19, 0.04),
    (20, 25, 0.01),
)

DEFAULT_KIND_MIX = (
    (BranchKind.CONDITIONAL, 0.72),
    (BranchKind.UNCONDITIONAL_DIRECT, 0.10),
    (BranchKind.CALL, 0.07),
    (BranchKind.RETURN, 0.07),
    (BranchKind.INDIRECT, 0.03),
    (BranchKind.INDIRECT_CALL, 0.01),
)

PATTERNS = ("round_robin", "uniform", "zipf")

BASE_LINE = 1 << 22  # keep generated code away from the null page
RETURN_FALLBACK_WIDTH = 12


class GeneratorSpecError(ValueError):
    """Infeasible or inconsistent generator parameters."""


@dataclass
class GeneratorSpec:
    static_branches: int
    records: int
    width_buckets: Tuple = DEFAULT_WIDTH_BUCKETS
    kind_mix: Tuple = DEFAULT_KIND_MIX
    taken_rate: float = 0.9
    gap_mean: int = 9
    pattern: str = "round_robin"
    zipf_s: float = 1.2
    seed: int = 0
    isa_mode: int = 0

    def validate(self) -> None:
        isa = profile_for_mode(self.isa_mode)
        if self.static_branches < 1:
            raise GeneratorSpecError("static_branches must be >= 1")
        if self.records < 1:
            raise GeneratorSpecError("records must be >= 1")
        if abs(sum(p for _, _, p in self.width_buckets) - 1.0) > 1e-9:
            raise GeneratorSpecError("width bucket probabilities must sum to 1")
        if abs(sum(p for _, p in self.kind_mix) - 1.0) > 1e-9:
            raise GeneratorSpecError("kind mix probabilities must sum to 1")
        for lo, hi, p in self.width_buckets:
            if not (0 <= lo <= hi):
                raise GeneratorSpecError(f"bad width bucket range {lo}-{hi}")
            if hi > isa.max_stored_target_bits:
                raise GeneratorSpecError(
                    f"width bucket {lo}-{hi} exceeds the {isa.max_stored_target_bits}-bit "
                    "limit of this address space")
            if p < 0:
                raise GeneratorSpecError("negative bucket probability")
        if not 0.0 <= self.taken_rate <= 1.0:
            raise GeneratorSpecError("taken_rate must be within [0, 1]")
        if not 0 <= self.gap_mean <= MAX_GAP // 2:
            raise GeneratorSpecError(f"gap_mean must be within [0, {MAX_GAP // 2}]")
        if self.pattern not in PATTERNS:
            raise GeneratorSpecError(f"unknown pattern {self.pattern!r}")
        if self.pattern == "zipf" and self.zipf_s <= 0:
            raise GeneratorSpecError("zipf_s must be positive")

    def to_dict(self) -> dict:
        return {
            "static_branches": self.static_branches,
            "records": self.records,
            "width_buckets": [[lo, hi, p] for lo, hi, p in self.width_buckets],
            "kind_mix": [[KIND_NAMES[k], p] for k, p in self.kind_mix],
            "taken_rate": self.taken_rate,
            "gap_mean": self.gap_mean,
            "pattern": self.pattern,
            "zipf_s": self.zipf_s,
            "seed": self.seed,
            "isa_mode": self.isa_mode,
        }


def _deal(weights: List[float], n: int) -> List[int]:
    """Largest-remainder interleave: deal n draws over classes so realized
    shares track `weights` exactly and classes spread evenly through the
    sequence.  Integer arithmetic keeps ties exact, breaking toward the
    earlier class (so equal call/return shares alternate call-first)."""
    scaled = [round(w * 10**9) for w in weights]
    total = sum(scaled)
    err = [0] * len(scaled)
    out = []
    for _ in range(n):
        for i, w in enumerate(scaled):
            err[i] += w
        pick = max(range(len(scaled)), key=lambda i: (err[i], -i))
        err[pick] -= total
        out.append(pick)
    return out


@dataclass
class StaticBranch:
    pc: int
    target: int
    kind: BranchKind
    stored_width: int


def build_static_branches(spec: GeneratorSpec) -> List[StaticBranch]:
    spec.validate()
    isa = profile_for_mode(spec.isa_mode)
    rng = random.Random(spec.seed)
    n = spec.static_branches
    kind_ids = _deal([p for _, p in spec.kind_mix], n)
    bucket_ids = _deal([p for _, _, p in spec.width_buckets], n)
    # One branch per page keeps target pages distinct while the +1 keeps
    # line addresses (hence set indices) marching through every set.
    stride = (1 << (12 - isa.align_shift)) + 1
    branches = []
    for j in range(n):
        line = BASE_LINE + j * stride
        pc = line << isa.align_shift
        kind = spec.kind_mix[kind_ids[j]][0]
        lo, hi, _ = spec.width_buckets[bucket_ids[j]]
        width = rng.randint(lo, hi)
        if kind is BranchKind.RETURN:
            width = RETURN_FALLBACK_WIDTH  # placeholder; real targets come from pairing
        if width == 0:
            target = pc
        else:
            flip = (1 << (width - 1)) | rng.getrandbits(width - 1)
            target = (line ^ flip) << isa.align_shift
        branches.append(StaticBranch(pc, target, kind, width))
    return branches


def _index_stream(spec: GeneratorSpec, rng: random.Random) -> Iterator[int]:
    n = spec.static_branches
    if spec.pattern == "round_robin":
        for t in range(spec.records):
            yield t % n
    elif spec.pattern == "uniform":
        for _ in range(spec.records):
            yield rng.randrange(n)
    else:  # zipf over branch index (lower index = hotter)
        weights = [1.0 / (r + 1) ** spec.zipf_s for r in range(n)]
        cum = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc)
        for _ in range(spec.records):
            yield bisect.bisect_left(cum, rng.random() * acc)


def gen_records(spec: GeneratorSpec) -> Iterator[BranchRecord]:
    """Dynamic stream over the static set; deterministic for a fixed seed."""
    statics = build_static_branches(spec)
    rng = random.Random(spec.seed + 1)  # stream draws, distinct from static draws
    shadow: List[int] = []
    for idx in _index_stream(spec, rng):
        b = statics[idx]
        gap = rng.randint(0, 2 * spec.gap_mean) if spec.gap_mean else 0
        if b.kind is BranchKind.CONDITIONAL:
            taken = rng.random() < spec.taken_rate
        else:
            taken = True
        if b.kind is BranchKind.RETURN:
            target = shadow.pop() if shadow else b.target
        else:
            target = b.target
        if taken and b.kind.is_call:
            shadow.append(b.pc + CALL_BYTES)
        yield BranchRecord(b.pc, target, b.kind, taken, gap)


def generate(spec: GeneratorSpec) -> TraceFile:
    records = list(gen_records(spec))
    return TraceFile(TraceHeader(spec.isa_mode, len(records)), records)

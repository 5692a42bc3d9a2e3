"""Branch-trace file formats and the seeded synthetic workload generator.

Binary layout (little-endian):
  header: magic "BTBT" (4B), version u8 = 1, isa_mode u8 (0 = 4-byte aligned,
          1 = byte-aligned), reserved u16 = 0, record_count u64
  record: pc u64, target u64, kind u8, taken u8, gap u16, pad u32 = 0

The text form, one JSON object per line, is read and written by `jsonl`.

The generator builds a fixed static branch set and replays it under a
round-robin, uniform, or zipf access pattern.  Branch PCs are laid out one
per page (stride of a page plus one line), which keeps target pages
distinct.  Set indices are not uniform for every set count: the stride
shares a factor with many of them, so such a table sees only some of its
sets (ROADMAP.md, item 2).  Kind and offset-width classes are dealt out by
largest-remainder interleaving, which pins the realized class shares to
the requested ones and spreads each class evenly through the branch
order.  Returns take their per-record target from a shadow call stack, so
call/return pairing is meaningful to a RAS.  Generation streams: each
record's fields are drawn one at a time and the writer takes any iterable
of them, so a trace of any length is written in constant memory.
"""

from __future__ import annotations

import math
import os
import random
import struct
from array import array
from bisect import bisect_left
from contextlib import contextmanager, suppress
from itertools import accumulate, chain, cycle, islice, repeat, starmap
from operator import add, truediv
from types import SimpleNamespace
from typing import (Callable, Iterable, Iterator, List, NamedTuple, Optional,
                    Tuple)

from .core import (CALL_BYTES, CALL_KINDS, PAGE_SHIFT, PROFILES, VA_BITS,
                   BranchKind, BranchRecord, Fields, IsaProfile, KIND_NAMES,
                   new_record, profile_for_mode)

MAGIC = b"BTBT"
VERSION = 1
_HEADER = struct.Struct("<4sBBHQ")
_RECORD = struct.Struct("<QQBBHI")
_FIELDS = struct.Struct("<QQBBH4x")  # a record without its pad: its Fields
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


class TraceHeader(NamedTuple):
    """record_count is None for a text trace whose header declares none."""

    isa_mode: int
    record_count: Optional[int]

    @property
    def isa(self) -> IsaProfile:
        return profile_for_mode(self.isa_mode)


class TraceFile(SimpleNamespace):
    def __init__(self, isa: IsaProfile, records: List[BranchRecord]):
        super().__init__(isa=isa, records=records)


_CHUNK_RECORDS = 1 << 12  # records the binary reader takes at a time
_PACK_RECORDS = 1 << 10  # records either writer formats and writes at a time


def _is_text(path) -> bool:
    return str(path).endswith((".jsonl", ".json"))


def _remove_stale_temporaries(path) -> None:
    """Remove each `<path>.<pid>.tmp` whose writer no longer runs, as one
    killed outright leaves it.  A file whose pid runs, or cannot be
    checked, is kept."""
    directory, name = os.path.split(os.fspath(path))
    prefix = f"{name}."
    try:
        entries = os.listdir(directory or ".")
    except OSError:
        return  # opening the output reports what is wrong with it
    for entry in entries:
        pid = entry[len(prefix):-len(".tmp")]
        if not (entry.startswith(prefix) and entry.endswith(".tmp")
                and pid.isdecimal()):
            continue
        try:
            os.kill(int(pid), 0)  # signal 0: only checks that pid runs
        except ProcessLookupError:
            with suppress(OSError):
                os.remove(os.path.join(directory, entry))
        except (OSError, OverflowError):
            pass  # it runs under another user, or is no pid at all


@contextmanager
def open_output(path, mode: str = "wb", **options) -> Iterator:
    """`open(path, mode, **options)` for writing, under a temporary name in
    `path`'s directory: the file is moved onto `path` once the block
    completes, and removed if it raises, so `path` is never left partial.
    Temporary files of `path` that earlier writers killed outright left
    behind are removed first.  A path that exists but is no regular file,
    such as /dev/null, is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **options) as fh:
            yield fh
        return
    _remove_stale_temporaries(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, mode, **options) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temporary)
        raise


def write_records(path, isa_mode: int, records: Iterable[Fields],
                  count: Optional[int] = None) -> int:
    """Stream records to a trace file and return how many were written.

    Each record is read positionally, so `BranchRecord`s and plain field
    tuples write the same bytes.  A .jsonl/.json path selects the text
    form, any other the binary form.  The file appears under `path` only
    once it is complete (`open_output`).
    `count` is the header's record count: the binary writer patches it
    afterwards when it is missing or wrong, while the text form needs it up
    front, so without it the records are gathered into a list first.
    """
    isa = profile_for_mode(isa_mode)
    if _is_text(path):
        from . import jsonl
        return jsonl.write(path, isa, records, count)
    with open_output(path) as fh:
        return _write_binary(fh, isa, records, count)


def trace_header(path) -> TraceHeader:
    """The header of a trace of either form, read without its records."""
    if _is_text(path):
        from . import jsonl
        with jsonl.open_text(path) as fh:
            return jsonl.read_header(fh)
    with open(path, "rb") as fh:
        return read_header(fh)


@contextmanager
def open_fields(path) -> Iterator[Tuple[TraceHeader, Callable[[], Iterator[Fields]]]]:
    """Open a trace of either form to be streamed once or more.

    Yields (header, passes): each call of `passes()` reads the records'
    `Fields` from the first record on, a chunk at a time, validated as they
    are read, and builds no record object.  A binary trace streams from its
    own file.  A text trace is parsed and validated once, here, into packed
    records in an anonymous temporary file (`jsonl.packed`), and its
    header's record_count is then the number of records; a declared count
    that differs raises here, after the last line.  The passes share one
    file position, so only one may be read at a time.
    """
    if _is_text(path):
        from .jsonl import packed
        opened = packed(path)
    else:
        opened = open(path, "rb")
    with opened as fh:
        header = read_header(fh)

        def passes() -> Iterator[Fields]:
            fh.seek(HEADER_BYTES)
            return _binary_fields(fh, header)

        yield header, passes


def load_trace(path) -> TraceFile:
    """Read either form into memory, through one pass of `open_fields`."""
    with open_fields(path) as (header, passes):
        return TraceFile(header.isa, [
            new_record((pc, target, _KINDS[kind], taken == 1, gap))
            for pc, target, kind, taken, gap in passes()])


def save_trace(path, trace: TraceFile) -> None:
    write_records(path, trace.isa.mode, trace.records,
                  count=len(trace.records))


# -- binary form -------------------------------------------------------------

def _write_binary(fh, isa: IsaProfile, records: Iterable[Fields],
                  count: Optional[int]) -> int:
    """Write a binary trace to a file open for writing at its start."""
    written = 0
    fh.write(_HEADER.pack(MAGIC, VERSION, isa.mode, 0, count or 0))
    records = iter(records)  # packed as drawn, a small block at a time
    while block := b"".join(starmap(_FIELDS.pack,
                                    islice(records, _PACK_RECORDS))):
        fh.write(block)
        written += len(block) // RECORD_BYTES
    if count != written:
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
    if isa_mode >= len(PROFILES):  # a u8, so never negative
        raise TraceFormatError(f"unknown isa_mode {isa_mode}")
    return TraceHeader(isa_mode=isa_mode, record_count=count)


_KINDS = tuple(BranchKind)  # indexed by kind code

# Byte offsets within a record that hold zero in every valid one: the pad,
# and the pc's and the target's bytes at and above VA_BITS (a whole byte).
_ZERO_OFFSETS = (*range(VA_BITS // 8, 8), *range(8 + VA_BITS // 8, 16),
                 *range(20, 24))
# Kind codes mapped to the least taken flag they allow: 0 for a
# conditional, 1 for the other kinds (always taken), 2 (none) for an
# unknown code.
_LEAST_TAKEN = bytes([kind is not BranchKind.CONDITIONAL for kind in _KINDS]
                     + [2] * (256 - len(_KINDS)))


def _valid_chunk(chunk: bytes, isa: IsaProfile) -> bool:
    """Whether every record in a buffer of whole records would pass the
    per-field checks, tested on the whole buffer at once: each strided
    slice holds one byte of every record, and `translate` deletes the byte
    values a valid record may hold there."""
    n = RECORD_BYTES
    least, taken = chunk[16::n].translate(_LEAST_TAKEN), chunk[17::n]
    return not (
        b"".join([chunk[i::n] for i in _ZERO_OFFSETS]).translate(None, b"\0")
        or (chunk[0::n] + chunk[8::n]).translate(
            None, bytes(range(0, 256, 1 << isa.align_shift)))
        or (least + taken).translate(None, b"\0\1")
        # with both in {0, 1}: some always-taken kind not taken
        or int.from_bytes(least, "little") & ~int.from_bytes(taken, "little"))


def _valid_chunks(fh, header: TraceHeader) -> Iterator[bytes]:
    """The buffers of whole records of a binary trace, read after its
    header, each validated before it is yielded.

    A chunk that fails the whole-buffer test goes record by record through
    the per-field checks, which raise with the first bad record's index.
    """
    isa = header.isa
    count = header.record_count
    start = 0
    while start < count:
        want = min(count - start, _CHUNK_RECORDS) * RECORD_BYTES
        chunk = fh.read(want)
        whole = len(chunk) - len(chunk) % RECORD_BYTES
        if whole < len(chunk):
            chunk = chunk[:whole]
        if not _valid_chunk(chunk, isa):
            for index, fields in enumerate(_RECORD.iter_unpack(chunk), start):
                _checked_record(*fields, isa, index)
        yield chunk
        del chunk  # so that the next read holds the only chunk
        start += whole // RECORD_BYTES
        if whole < want:
            raise TraceFormatError("truncated record", start)
    if fh.read(1):
        raise TraceFormatError("trailing bytes after last record", count)


def _binary_fields(fh, header: TraceHeader) -> Iterator[Fields]:
    """The validated `Fields` of a binary trace's records, read a chunk at
    a time after its header."""
    return chain.from_iterable(map(_FIELDS.iter_unpack, _valid_chunks(fh, header)))


def _checked_record(pc: int, target: int, kind: int, taken: int, gap: int,
                    pad: int, isa: IsaProfile, index: int) -> None:
    """One record's raw fields through the per-field checks, which raise on
    the first field that fails: what a valid record is, in either form."""
    if pad != 0:
        raise TraceFormatError(f"nonzero pad {pad}", index)
    if kind >= len(_KINDS):
        raise TraceFormatError(f"unknown kind code {kind}", index)
    if taken > 1:
        raise TraceFormatError(f"bad taken flag {taken}", index)
    for what, address in (("pc", pc), ("target", target)):
        if not isa.valid_address(address):
            raise TraceFormatError(
                f"{what} {address:#x} invalid for {VA_BITS}-bit space with "
                f"{1 << isa.align_shift}-byte alignment", index)
    if gap < 0:
        raise TraceFormatError(f"negative gap {gap}", index)
    if taken < _LEAST_TAKEN[kind]:
        raise TraceFormatError(
            f"{KIND_NAMES[kind]} branch at {pc:#x} marked not-taken", index)
    if gap > MAX_GAP:
        raise TraceFormatError(f"gap {gap} exceeds format limit", index)


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


class GeneratorSpec(SimpleNamespace):
    # Each default is also a class attribute, which the CLI reads.
    width_buckets: Tuple = DEFAULT_WIDTH_BUCKETS
    kind_mix: Tuple = DEFAULT_KIND_MIX
    taken_rate: float = 0.9
    gap_mean: int = 9
    pattern: str = "round_robin"
    zipf_s: float = 1.2
    seed: int = 0
    isa_mode: int = 0

    def __init__(self, static_branches: int, records: int,
                 width_buckets: Tuple = width_buckets,
                 kind_mix: Tuple = kind_mix, taken_rate: float = taken_rate,
                 gap_mean: int = gap_mean, pattern: str = pattern,
                 zipf_s: float = zipf_s, seed: int = seed,
                 isa_mode: int = isa_mode):
        super().__init__(
            static_branches=static_branches, records=records,
            width_buckets=width_buckets, kind_mix=kind_mix,
            taken_rate=taken_rate, gap_mean=gap_mean, pattern=pattern,
            zipf_s=zipf_s, seed=seed, isa_mode=isa_mode)

    def validate(self) -> None:
        isa = profile_for_mode(self.isa_mode)
        if self.static_branches < 1:
            raise GeneratorSpecError("static_branches must be >= 1")
        if self.records < 1:
            raise GeneratorSpecError("records must be >= 1")
        for what, shares in (("width bucket", [p for _, _, p in self.width_buckets]),
                             ("kind mix", [p for _, p in self.kind_mix])):
            if not all(0 <= p < math.inf for p in shares):  # a NaN fails too
                raise GeneratorSpecError(
                    f"{what} probabilities must be finite and non-negative")
            if abs(sum(shares) - 1.0) > 1e-9:
                raise GeneratorSpecError(f"{what} probabilities must sum to 1")
        for lo, hi, _ in self.width_buckets:
            if not (0 <= lo <= hi):
                raise GeneratorSpecError(f"bad width bucket range {lo}-{hi}")
            if hi > isa.max_stored_target_bits:
                raise GeneratorSpecError(
                    f"width bucket {lo}-{hi} exceeds the {isa.max_stored_target_bits}-bit "
                    "limit of this address space")
        if not 0.0 <= self.taken_rate <= 1.0:
            raise GeneratorSpecError("taken_rate must be within [0, 1]")
        if not 0 <= self.gap_mean <= MAX_GAP // 2:
            raise GeneratorSpecError(f"gap_mean must be within [0, {MAX_GAP // 2}]")
        if self.pattern not in PATTERNS:
            raise GeneratorSpecError(f"unknown pattern {self.pattern!r}")
        if not math.isfinite(self.zipf_s):  # the manifest records it
            raise GeneratorSpecError("zipf_s must be finite")
        if self.pattern == "zipf":
            if self.zipf_s <= 0:
                raise GeneratorSpecError("zipf_s must be positive")
            try:  # the largest denominator of the zipf weights
                self.static_branches ** self.zipf_s
            except OverflowError:
                raise GeneratorSpecError("zipf_s overflows the weights") from None

    def to_dict(self) -> dict:
        return {**vars(self),
                "kind_mix": [[KIND_NAMES[k], p] for k, p in self.kind_mix]}


def _deal(weights: List[float], n: int) -> List[int]:
    """Largest-remainder interleave: deal n draws over classes so realized
    shares track `weights` exactly and classes spread evenly through the
    sequence.  Integer arithmetic keeps ties exact, and `index` finds the
    first maximum, so a tie goes to the earlier class (equal call/return
    shares alternate call-first).

    The remainders are the whole state, so once they are all back at zero
    the deal repeats from its start; shares in whole percent come back
    every 100 draws, and only one period is computed."""
    scaled = [round(w * 10**9) for w in weights]
    total = sum(scaled)
    err = [0] * len(scaled)
    out = []
    while len(out) < n:
        err = list(map(add, err, scaled))
        pick = err.index(max(err))
        err[pick] -= total
        out.append(pick)
        if not any(err):
            out *= -(-n // len(out))  # whole periods, at least n draws
    return out[:n]


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from range(n), n >= 1, that takes the same bits from
    the generator as CPython's `randrange(n)`: rejection sampling on
    n.bit_length() bits.  `randint(lo, hi)` is lo + _below(.., hi - lo + 1)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _static_fields(spec: GeneratorSpec) -> List[tuple]:
    """The static branch set as the record loop reads it, one tuple (pc,
    target, kind, is conditional, is a return, is a call, stored width) per
    branch, built in one pass over the dealt kind and width classes.  Each
    branch draws its width from its bucket (`_below`, inlined), then,
    unless the width is 0, the low bits of its offset."""
    spec.validate()
    shift = profile_for_mode(spec.isa_mode).align_shift
    getrandbits = random.Random(spec.seed).getrandbits
    n = spec.static_branches
    kinds = [(kind, kind is BranchKind.CONDITIONAL, kind is BranchKind.RETURN,
              kind in CALL_KINDS) for kind, _ in spec.kind_mix]
    # (lowest width, number of widths, bits a draw takes) of each bucket
    spans = [(lo, hi - lo + 1, (hi - lo + 1).bit_length())
             for lo, hi, _ in spec.width_buckets]
    classes = zip(map(kinds.__getitem__, _deal([p for _, p in spec.kind_mix], n)),
                  map(spans.__getitem__,
                      _deal([p for _, _, p in spec.width_buckets], n)))
    # One branch per page keeps target pages distinct, and the +1 moves each
    # branch to the next line within its page.  Set indices do not reach
    # every set: the stride shares a factor with many set counts (ROADMAP.md,
    # item 2).
    stride = (1 << (PAGE_SHIFT - shift)) + 1
    statics = []
    append = statics.append
    line = BASE_LINE
    for (kind, is_cond, is_ret, is_call), (lo, span, bits) in classes:
        pc = line << shift
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        # a return's width is a placeholder; real targets come from pairing
        width = RETURN_FALLBACK_WIDTH if is_ret else lo + r
        if width == 0:
            target = pc
        else:
            target = (line ^ (1 << (width - 1)) ^ getrandbits(width - 1)) << shift
        append((pc, target, kind, is_cond, is_ret, is_call, width))
        line += stride
    return statics


def _index_stream(spec: GeneratorSpec, rng: random.Random) -> Iterator[int]:
    """Static branch index of each record, drawn lazily from rng."""
    n, records = spec.static_branches, spec.records
    if spec.pattern == "round_robin":
        return islice(cycle(range(n)), records)
    if spec.pattern == "uniform":
        getrandbits = rng.getrandbits
        return (_below(getrandbits, n) for _ in range(records))
    # zipf over branch index (lower index = hotter): rank r weighs 1 / r**s
    cum = list(accumulate(map(truediv, repeat(1.0),
                              map(pow, range(1, n + 1), repeat(spec.zipf_s)))))
    draws = starmap(rng.random, repeat((), records))
    return map(bisect_left, repeat(cum), map(cum[-1].__rmul__, draws))


def gen_fields(spec: GeneratorSpec) -> Iterator[Fields]:
    """Dynamic stream over the static set, as the plain field tuple
    (pc, target, kind, taken, gap) of each record, with `BranchKind` kinds
    and `bool` taken flags; deterministic for a fixed seed.

    Each record takes its draws from one generator in a fixed order: the
    branch index (uniform and zipf only), the gap, then the direction of a
    conditional branch.
    """
    statics = _static_fields(spec)
    rng = random.Random(spec.seed + 1)  # stream draws, distinct from static draws
    getrandbits, draw = rng.getrandbits, rng.random
    taken_rate = spec.taken_rate
    gaps = 2 * spec.gap_mean + 1  # a gap is drawn from range(gaps)
    gap_bits = gaps.bit_length()
    # The shadow call stack grows by about 1% of records (calls outnumber
    # returns), so it holds packed u64s rather than int objects.
    shadow = array("Q")
    for idx in _index_stream(spec, rng):
        pc, target, kind, is_cond, is_ret, is_call, _ = statics[idx]
        gap = 0
        if gaps > 1:  # _below(getrandbits, gaps), inlined
            gap = getrandbits(gap_bits)
            while gap >= gaps:
                gap = getrandbits(gap_bits)
        taken = draw() < taken_rate if is_cond else True
        if is_ret and shadow:
            target = shadow.pop()
        elif is_call:  # calls are never conditional, so always taken
            shadow.append(pc + CALL_BYTES)
        yield pc, target, kind, taken, gap


def gen_records(spec: GeneratorSpec) -> Iterator[BranchRecord]:
    """`gen_fields` as `BranchRecord`s."""
    return map(new_record, gen_fields(spec))


def generate(spec: GeneratorSpec) -> TraceFile:
    return TraceFile(profile_for_mode(spec.isa_mode), list(gen_records(spec)))

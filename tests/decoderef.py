"""Reference binary-trace decoder: one read, unpack and validation per record.

The production reader decodes in chunks with a combined fast test; this
plain per-record loop is what it must agree with, record for record and
error for error.  It states the per-field rule itself, from the format's
description, rather than calling the production check, so a fault in
either shows up as a disagreement.  `check_records_reference` holds a
record list to the same rule, one record at a time.
"""

import struct

from btblab.core import BranchKind, BranchRecord
from btblab.trace import RECORD_BYTES, TraceFormatError, read_header

_RECORD = struct.Struct("<QQBBHI")
_KIND_NAMES = ("cond", "uncond", "call", "ret", "ind", "ind_call")  # by code


def _check(pc, target, kind, taken, gap, pad, align, index):
    """Raise for the first field of a record that breaks the format."""
    if pad != 0:
        raise TraceFormatError(f"nonzero pad {pad}", index)
    if not 0 <= kind <= 5:  # a record list's fields may be negative
        raise TraceFormatError(f"unknown kind code {kind}", index)
    if not 0 <= taken <= 1:
        raise TraceFormatError(f"bad taken flag {taken}", index)
    for what, address in (("pc", pc), ("target", target)):
        if not 0 <= address < 1 << 48 or address % align:
            raise TraceFormatError(f"{what} {address:#x} invalid for 48-bit "
                                   f"space with {align}-byte alignment", index)
    if gap < 0:  # a u16 gap passes both gap tests; they complete the rule
        raise TraceFormatError(f"negative gap {gap}", index)
    if kind != 0 and not taken:  # every kind but a conditional is always taken
        raise TraceFormatError(f"{_KIND_NAMES[kind]} branch at {pc:#x} "
                               "marked not-taken", index)
    if gap > 0xFFFF:
        raise TraceFormatError(f"gap {gap} exceeds format limit", index)


def read_binary_reference(path):
    """(header, records) of a binary trace, or TraceFormatError."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        align = 1 << header.isa.align_shift
        records = []
        for index in range(header.record_count):
            raw = fh.read(RECORD_BYTES)
            if len(raw) < RECORD_BYTES:
                raise TraceFormatError("truncated record", index)
            pc, target, kind, taken, gap, pad = _RECORD.unpack(raw)
            _check(pc, target, kind, taken, gap, pad, align, index)
            records.append(BranchRecord(pc, target, BranchKind(kind),
                                        bool(taken), gap))
        if fh.read(1):
            raise TraceFormatError("trailing bytes after last record",
                                   header.record_count)
    return header, records


def check_records_reference(records, align):
    """Raise for the first record of a list that breaks the format, the
    rule a list shares with a binary trace's records (its pad is 0)."""
    for index, (pc, target, kind, taken, gap) in enumerate(records):
        _check(pc, target, kind, taken, gap, 0, align, index)

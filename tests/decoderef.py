"""Reference binary-trace decoder: one read, unpack and validation per record.

The production reader decodes in chunks with a combined fast test; this
plain per-record loop is what it must agree with, record for record and
error for error.
"""

import struct

from btblab.core import BranchKind, BranchRecord
from btblab.trace import (RECORD_BYTES, TraceFormatError, _validate_record,
                          read_header)

_RECORD = struct.Struct("<QQBBHI")


def read_binary_reference(path):
    """(header, records) of a binary trace, or TraceFormatError."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        isa = header.isa
        records = []
        for index in range(header.record_count):
            raw = fh.read(RECORD_BYTES)
            if len(raw) < RECORD_BYTES:
                raise TraceFormatError("truncated record", index)
            pc, target, kind, taken, gap, pad = _RECORD.unpack(raw)
            if pad != 0:
                raise TraceFormatError(f"nonzero pad {pad}", index)
            if kind > 5:
                raise TraceFormatError(f"unknown kind code {kind}", index)
            if taken > 1:
                raise TraceFormatError(f"bad taken flag {taken}", index)
            rec = BranchRecord(pc, target, BranchKind(kind), bool(taken), gap)
            _validate_record(rec, isa, index)
            records.append(rec)
        if fh.read(1):
            raise TraceFormatError("trailing bytes after last record",
                                   header.record_count)
    return header, records

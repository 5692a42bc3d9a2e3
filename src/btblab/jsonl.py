"""The text trace form, JSON lines: a header object, then one object per
record with pc/target as hex strings.  `trace` imports it only for a text
path, so a command on a binary trace never loads it."""

from __future__ import annotations

import json
import tempfile
from contextlib import contextmanager
from itertools import islice
from typing import Iterable, Iterator, Optional

from .core import Fields, IsaProfile, KIND_NAMES, KINDS_BY_NAME, profile_named
from .trace import (_PACK_RECORDS, VERSION, TraceFormatError, TraceHeader,
                    _checked_record, _write_binary, open_output)


def open_text(path):
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


@contextmanager
def packed(path) -> Iterator:
    """A text trace parsed and validated into packed binary records in an
    anonymous temporary file, open at its start (see `trace.open_fields`)."""
    with tempfile.TemporaryFile() as fh:
        with open_text(path) as lines:
            header = read_header(lines)
            _write_binary(fh, header.isa, read_fields(lines, header),
                          header.record_count)
        fh.seek(0)
        yield fh


def write(path, isa: IsaProfile, records: Iterable[Fields],
          count: Optional[int]) -> int:
    if count is None:
        records = list(records)
        count = len(records)
    dumps = json.dumps
    written = 0
    with open_output(path, "w", encoding="utf-8") as fh:
        fh.write(dumps({"format": "btbt", "version": VERSION,
                        "isa_mode": isa.name,
                        "record_count": count}) + "\n")
        records = iter(records)
        # taken == 1 is a bool for a bool flag and for a binary trace's code
        while lines := [dumps({"pc": hex(pc), "target": hex(target),
                               "kind": KIND_NAMES[kind],
                               "taken": taken == 1, "gap": gap}) + "\n"
                        for pc, target, kind, taken, gap
                        in islice(records, _PACK_RECORDS)]:
            fh.write("".join(lines))
            written += len(lines)
        if written != count:
            raise ValueError(f"{path}: header declares {count} records, "
                             f"{written} were written")
    return written


# JSON type of each record field; pc and target are hex strings.
_JSONL_FIELDS = {"pc": str, "target": str, "kind": str, "taken": bool, "gap": int}


def _jsonl_record(line: str, isa: IsaProfile, index: int) -> Fields:
    """The checked `Fields` of one record line."""
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
        fields = (int(obj["pc"], 16), int(obj["target"], 16),
                  KINDS_BY_NAME[obj["kind"]], obj["taken"], obj["gap"])
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"bad field value: {exc}", index) from None
    _checked_record(*fields, 0, isa, index)
    return fields


def _utf8(line: str) -> bool:
    """Whether a line read with errors="surrogateescape" was valid UTF-8:
    that handler turns each undecodable byte into a lone surrogate, which
    valid UTF-8 never decodes to."""
    if line.isascii():
        return True
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_header(fh) -> TraceHeader:
    head_line = fh.readline()
    if not _utf8(head_line):
        raise TraceFormatError("bad header line: not valid UTF-8")
    try:
        head = json.loads(head_line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceFormatError(f"bad header line: {exc}") from None
    if not isinstance(head, dict) or head.get("format") != "btbt":
        raise TraceFormatError("missing btbt header object")
    # A header may leave out its version; one it states is the JSON int 1.
    version = head.get("version", VERSION)
    if type(version) is not int or version != VERSION:
        raise TraceFormatError(f"unsupported version {version!r}")
    try:
        isa = profile_named(head.get("isa_mode"))
    except ValueError as exc:
        raise TraceFormatError(str(exc)) from None
    declared = head.get("record_count")
    if "record_count" in head and (not isinstance(declared, int)
                                   or isinstance(declared, bool)
                                   or declared < 0):
        raise TraceFormatError(
            f"record_count must be a non-negative JSON int, got {declared!r}")
    return TraceHeader(isa.mode, declared)


def read_fields(fh, header: TraceHeader) -> Iterator[Fields]:
    """The checked `Fields` of a text trace's record lines, read after its
    header line; the declared count is checked after the last line."""
    isa = header.isa
    found = 0  # records read so far: the index of the next one
    for line in fh:
        if not _utf8(line):
            raise TraceFormatError("line is not valid UTF-8", found)
        if not line.strip():
            continue
        yield _jsonl_record(line, isa, found)
        found += 1
    declared = header.record_count
    if declared is not None and declared != found:
        raise TraceFormatError(
            f"header declares {declared} records, found {found}")

import os
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# An absolute src/ on sys.path lets the tests import btblab from a plain
# checkout, and on PYTHONPATH it lets the CLI tests' `python -m btblab.cli`
# children, which run with cwd=tmp_path, do the same.
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from btblab.core import BranchKind, BranchRecord


def rec(pc, target, kind=BranchKind.CONDITIONAL, taken=True, gap=0):
    return BranchRecord(pc, target, kind, taken, gap)


def taken_branch_trace(pairs, repeats=1, gap=0, kind=BranchKind.CONDITIONAL):
    """Cycle through (pc, target) pairs `repeats` times as taken branches."""
    out = []
    for _ in range(repeats):
        for pc, target in pairs:
            out.append(BranchRecord(pc, target, kind, True, gap))
    return out


RAW_HEADER = struct.Struct("<4sBBHQ")
RAW_RECORD = struct.Struct("<QQBBHI")
GOOD = (0x1000, 0x2000, 0, 1, 3, 0)  # pc, target, kind, taken, gap, pad


def raw_trace(records, count=None, isa_mode=0, tail=b"", cut=0):
    """Bytes of a binary trace built field by field; `count` overrides the
    header's record count, `cut` drops bytes from the end."""
    blob = (RAW_HEADER.pack(b"BTBT", 1, isa_mode, 0,
                            len(records) if count is None else count)
            + b"".join(RAW_RECORD.pack(*r) for r in records) + tail)
    return blob[:len(blob) - cut]

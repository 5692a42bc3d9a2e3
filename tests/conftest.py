import os
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

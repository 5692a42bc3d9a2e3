import os
import subprocess
import sys
from pathlib import Path

from btblab.core import MODEL_NAMES

OPCOUNT = Path(__file__).with_name("opcount.py")


def test_bytecode_counts_do_not_depend_on_the_hash_seed():
    """`opcount.py` counts bytecodes per replayed record, which a second
    process with another string hash seed must reproduce exactly."""
    children = [subprocess.Popen(
        [sys.executable, str(OPCOUNT), "--records", "2000"],
        env=dict(os.environ, PYTHONHASHSEED=seed),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in ("0", "1")]
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    rows = [line.split() for line in outputs[0].splitlines()]
    points = [("fit3k", "14.5"), ("zipf16k", "0.90625"), ("zipf16k", "14.5"),
              ("zipf16k", "58")]
    assert [tuple(row[:3]) for row in rows] == [
        (*point, name) for point in points for name in (*MODEL_NAMES, "sum")]
    assert all(int(row[3]) > 0 for row in rows if row[2] != "sum")

"""Count the bytecodes each BTB model executes per replayed record.

Replays short fixed traces through `sim.run` under `sys.settrace` with
`frame.f_trace_opcodes` set, and prints, for each point (trace, budget)
and model, the bytecodes executed and their count per record, then the
sum per record over the four models.  Stdlib only; the counts depend on
the code and the Python version, not on timing or on `PYTHONHASHSEED`.

    PYTHONPATH=src python tests/opcount.py [--records N]

The traces are shaped like the benchmark's workloads: fit3k, 3000
branches in round robin, at 14.5 KB; zipf16k, 16000 branches drawn with
zipf s = 1.0, at 0.90625, 14.5 and 58 KB.  `--records` shortens both.
"""

from __future__ import annotations

import argparse
import sys

from btblab.core import MODEL_NAMES
from btblab.models import build_model
from btblab.sim import run
from btblab.trace import GeneratorSpec, generate

# (name, generator spec arguments, budgets in KB)
POINTS = (
    ("fit3k", dict(static_branches=3000, records=20_000, seed=3), (14.5,)),
    ("zipf16k", dict(static_branches=16_000, records=16_000, pattern="zipf",
                     zipf_s=1.0, seed=3), (0.90625, 14.5, 58.0)),
)


def count_bytecodes(call) -> int:
    """Bytecodes executed by Python frames while `call()` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int,
                        help="records per trace (default: 20000 and 16000)")
    args = parser.parse_args(argv)
    for name, spec, budgets in POINTS:
        if args.records is not None:
            spec = dict(spec, records=args.records)
        trace = generate(GeneratorSpec(**spec))
        records = len(trace.records)
        for kb in budgets:
            total = 0.0
            for model in MODEL_NAMES:
                m = build_model(model, budget_kb=kb)
                ops = count_bytecodes(lambda: run(m, trace))
                total += ops / records
                print(f"{name} {kb:g} {model} {ops} {ops / records:.1f}")
            print(f"{name} {kb:g} sum {total:.1f}")


if __name__ == "__main__":
    main()

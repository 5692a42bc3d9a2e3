"""btblab benchmark: host-time cost of the CLI on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload fit3k-rr --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload's CLI commands run one subprocess at a time,
in turn, until ``--seconds`` have passed; the end-to-end metrics are built
from each command's median time.  With ``--trace 1`` the same workload is
replayed in-process through the library's public functions (see
``layers.py``) and the per-layer metrics are reported instead.

Every output a command writes is checked against the SHA-256 recorded in
``golden.json``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import time
from typing import List, Optional, Tuple

from layers import run_traced
from workloads import (INPUT_SEEDS, RUN_DEADLINE_S, SRC_DIR, TRACE_NAME,
                       WORK_ROOT, WORKLOADS, CliRunner, Tally, Workload,
                       checked_run, environment, load_golden, metric)


def run_untraced(wl: Workload, input_seed: int, seconds: float,
                 workdir: str, deadline: float) -> Tuple[Tally, dict, dict]:
    golden = load_golden(wl.name, input_seed)
    runner = CliRunner(workdir, deadline)
    tally = Tally()
    # gen-trace (the set-up, command 0) runs `setup_runs` times before each
    # timed command, so its median rests on many samples.  The commands go
    # round, at least once each, until the next one would end after
    # `seconds`.  Each metric takes every command's median, so slow spells
    # of a shared host touch all of them alike.
    commands = [(wl.gen_args(input_seed), TRACE_NAME), *wl.commands()]
    schedule = [k for timed in range(1, len(commands))
                for k in (0,) * wl.setup_runs + (timed,)]
    times: List[List[float]] = [[] for _ in commands]
    rss: List[float] = []
    end = min(time.monotonic() + seconds, deadline)
    for k in itertools.cycle(schedule):
        if all(times) and time.monotonic() + statistics.median(times[k]) > end:
            break
        args, output = commands[k]
        res = checked_run(runner, tally, args, output, golden)
        times[k].append(res.wall_s)
        rss.append(res.max_rss_mb)

    medians = [statistics.median(t) for t in times]
    wall_s = sum(medians[1:])
    metrics = {
        "sim_rec_per_s": metric(wl.records * wl.model_runs() / wall_s, "rec/s"),
        "wall_s": metric(wall_s, "s"),
        "setup_s": metric(medians[0], "s"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }
    detail = {"command_runs_s": {f"{args[0]} {out}": t
                                 for (args, out), t in zip(commands, times)}}
    return tally, metrics, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "btblab", "cli.py")):
        print(f"bench: no btblab sources under {SRC_DIR}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)

    deadline = time.monotonic() + RUN_DEADLINE_S
    wl = WORKLOADS[args.workload]
    input_seed = args.seed % INPUT_SEEDS
    workdir = os.path.join(WORK_ROOT, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            tally, metrics, detail = run_traced(wl, input_seed, workdir, deadline)
        else:
            tally, metrics, detail = run_untraced(wl, input_seed, args.seconds,
                                                  workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "input_seed": input_seed, "trace": args.trace,
                      "env": environment(), "failures": tally.reasons, **detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

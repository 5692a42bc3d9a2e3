"""Record golden.json: the SHA-256 of every output each workload writes.

Run from the repository root, at a commit whose outputs are known good:

    python3 bench/record_golden.py            # every workload, every input seed
    python3 bench/record_golden.py fit3k-rr   # one workload

Outputs are the generated trace and the compare CSVs.  Manifests are not
recorded: they name the tool version and may grow fields without any result
changing.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from workloads import (GOLDEN_PATH, INPUT_SEEDS, SRC_DIR, TRACE_NAME,
                       WORK_ROOT, WORKLOADS, CliRunner, sha256_file)


def record(name: str, input_seed: int) -> dict:
    wl = WORKLOADS[name]
    workdir = os.path.join(WORK_ROOT, f"golden-{name}-{input_seed}")
    os.makedirs(workdir)
    try:
        runner = CliRunner(workdir, time.monotonic() + 600)
        digests = {}
        for args, output in [(wl.gen_args(input_seed), TRACE_NAME), *wl.commands()]:
            res = runner.run(args)
            if res.returncode != 0:
                raise SystemExit(f"{name} seed {input_seed}: {args[0]} exited "
                                 f"{res.returncode}")
            digests[output] = sha256_file(os.path.join(workdir, output))
        return digests
    finally:
        shutil.rmtree(workdir)


def main(argv) -> int:
    sys.path.insert(0, SRC_DIR)
    names = argv or sorted(WORKLOADS)
    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
    for name in names:
        golden[name] = {str(s): record(name, s) for s in range(INPUT_SEEDS)}
        print(f"recorded {name}", flush=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

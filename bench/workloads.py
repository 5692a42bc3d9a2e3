"""Workload definitions and the pieces shared by the untraced and traced runs."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
SRC_DIR = os.path.abspath("src")
WORK_ROOT = os.path.abspath(".bench_work")

MODELS = ("conv", "rbtb", "pdede", "btbx")
TRACE_NAME = "trace.btbt"
# Golden digests exist for this many input seeds per workload; --seed n
# selects input seed n mod INPUT_SEEDS.
INPUT_SEEDS = 32
# Index of the 14.5 KB row in the preset budgets.
CANONICAL_PRESET = 4
# A run must end within 180 s; children still running at this point are
# killed and count as failed.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One seeded trace plus the CLI commands timed on it."""

    name: str
    branches: int
    records: int
    pattern: str
    zipf_s: Optional[float] = None
    # False: the 14.5 KB preset only; True: all seven presets.
    sweep: bool = False
    # gen-trace runs this many times before each timed command, so that a
    # run samples the set-up some 30 times however few its commands are.
    setup_runs: int = 1

    def gen_args(self, seed: int) -> List[str]:
        args = ["gen-trace", "--branches", str(self.branches),
                "--records", str(self.records), "--pattern", self.pattern,
                "--seed", str(seed)]
        if self.zipf_s is not None:
            args += ["--zipf-s", repr(self.zipf_s)]
        return args + ["-o", TRACE_NAME]

    def budget_list(self) -> List[float]:
        """Budgets from the library's presets, never from documentation
        labels: `--budget-kb 1.8` matches no preset, 1.8125 does."""
        from btblab.storage import standard_budgets_kb
        budgets = standard_budgets_kb()
        return budgets if self.sweep else [budgets[CANONICAL_PRESET]]

    def commands(self) -> List[Tuple[List[str], str]]:
        """(CLI arguments, output file) of each timed command: one 4-model
        `compare` per budget."""
        return [(["compare", "--models", ",".join(MODELS), "--budget-kb",
                  repr(kb), TRACE_NAME, "-o", f"compare-{kb:g}.csv"],
                 f"compare-{kb:g}.csv") for kb in self.budget_list()]

    def model_runs(self) -> int:
        return len(MODELS) * len(self.budget_list())


# Why each workload is here (also in BENCHMARK.json and README.md):
# - fit3k-rr: the paper's canonical scenario.  3000 branches sit between
#   conv's capacity (1856) and btbx's (4160) at 14.5 KB, so btbx and pdede
#   run the lookup-hit / recency-only commit path while conv and rbtb thrash.
# - sweep-zipf16k: the paper's miss-vs-budget sweep.  The trace touches
#   some 4.4k of its 16000 branches, so commits evict heavily up to 14.5 KB
#   and mostly fill empty slots above; seven processes, decodes and 28
#   build_model calls per pass.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fit3k-rr", branches=3000, records=60_000,
             pattern="round-robin", setup_runs=3),
    Workload("sweep-zipf16k", branches=16_000, records=16_000,
             pattern="zipf", zipf_s=1.0, sweep=True),
)}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_golden(workload: str, input_seed: int) -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(input_seed)]


def cli_env() -> Dict[str, str]:
    """Child environment: btblab importable from any working directory, and
    compare's worker count left at its default."""
    env = dict(os.environ)
    env.pop("BTBLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class CliResult:
    wall_s: float
    max_rss_mb: float
    returncode: int


class CliRunner:
    """Runs `python -m btblab.cli` one process at a time in `workdir`."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = cli_env()
        self.log_path = os.path.join(workdir, "cli.log")

    def run(self, args: List[str]) -> CliResult:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "btblab.cli", *args],
                                    cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=log)
            killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                # wait4 gives this child's own max-RSS; RUSAGE_CHILDREN
                # would carry the largest earlier child into later ones.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        # Reaped by wait4 above; record it so Popen does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(wall, usage.ru_maxrss / 1024.0, proc.returncode)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def checked_run(runner: CliRunner, tally: Tally, args: List[str], output: str,
                golden: Dict[str, str]) -> CliResult:
    # A command that exits 0 without writing must not pass on an earlier
    # pass's file.
    path = os.path.join(runner.workdir, output)
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    res = runner.run(args)
    if res.returncode != 0:
        tally.check(False, f"{args[0]} exited {res.returncode}")
    elif not os.path.exists(path):
        tally.check(False, f"{args[0]} wrote no {output}")
    else:
        tally.check(sha256_file(path) == golden[output],
                    f"{args[0]}: {output} differs from its golden digest")
    return res


def environment() -> dict:
    cpus = os.cpu_count() or 1
    return {"python": platform.python_version(), "nproc": cpus,
            "compare_workers": min(len(MODELS), cpus)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}

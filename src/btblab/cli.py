"""Command-line surface: trace generation, analysis, accounting, simulation.

Every file-producing command drops a sibling `<output>.manifest.json`
recording the resolved configuration plus SHA-256 digests of inputs and
outputs; re-running the same invocation reproduces outputs byte for byte,
so equal manifests mean equal results.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal
invariant violation.

Each command imports the modules it needs when it runs, so `gen-trace`
never loads the models, the simulator or the storage tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import List, Optional

from . import __version__
from .core import (KINDS_BY_NAME, MODEL_NAMES, PROFILES, ConfigError,
                   InvariantError, profile_named)
from .trace import (PATTERNS, GeneratorSpec, GeneratorSpecError,
                    TraceFormatError, gen_fields, open_output, trace_header,
                    write_records)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_ISA_ALIASES = {"arm64": "aligned4", "x86": "byte"}
_ISA_CHOICES = sorted([isa.name for isa in PROFILES] + list(_ISA_ALIASES))
_ISA_HELP = "aligned4 or byte, or their aliases arm64 and x86 (default: %(default)s)"
_TRACE_HELP = "trace file: .jsonl or .json text, else binary"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; usage errors are exit 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(output_path, command: str, config: dict,
                   inputs: Optional[List[str]] = None) -> str:
    manifest = {
        "schema": "btblab.manifest/v1",
        "tool": "btblab",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in (inputs or [])},
        "outputs": {str(output_path): _sha256(output_path)},
    }
    path = f"{output_path}.manifest.json"
    with open_output(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_dist(text: str):
    """`0-6:0.54,7-10:0.22,...`; a bare number is a single-width bucket."""
    buckets = []
    for part in text.split(","):
        try:
            span, prob = part.split(":")
            lo, _, hi = span.partition("-")
            lo_i = int(lo)
            hi_i = int(hi) if hi else lo_i
            buckets.append((lo_i, hi_i, float(prob)))
        except ValueError:
            raise UsageError(f"bad width bucket {part!r}; expected lo-hi:prob") from None
    return tuple(buckets)


def _parse_kind_mix(text: str):
    mix = []
    for part in text.split(","):
        try:
            name, prob = part.split(":")
            mix.append((KINDS_BY_NAME[name], float(prob)))
        except (ValueError, KeyError):
            names = ", ".join(KINDS_BY_NAME)
            raise UsageError(f"bad kind {part!r}; expected one of {names}, "
                             "as name:prob") from None
    return tuple(mix)


def _isa(name: str):
    """The ISA profile an --isa value names."""
    return profile_named(_ISA_ALIASES.get(name, name))


def _write_text(path: Optional[str], text: str, command: str, config: dict,
                inputs: Optional[List[str]] = None) -> None:
    """Write a report to `path` and its manifest beside it, or to stdout."""
    if path:
        with open_output(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        write_manifest(path, command, config, inputs)
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------

def cmd_gen_trace(args) -> int:
    spec = GeneratorSpec(
        static_branches=args.branches,
        records=args.records,
        width_buckets=_parse_dist(args.dist) if args.dist else GeneratorSpec.width_buckets,
        kind_mix=_parse_kind_mix(args.kind_mix) if args.kind_mix else GeneratorSpec.kind_mix,
        taken_rate=args.taken_rate,
        gap_mean=args.gap_mean,
        pattern=args.pattern.replace("-", "_"),
        zipf_s=args.zipf_s,
        seed=args.seed,
        isa_mode=_isa(args.isa).mode,
    )
    spec.validate()
    written = write_records(args.output, spec.isa_mode, gen_fields(spec),
                            count=spec.records)
    manifest = write_manifest(args.output, "gen-trace", spec.to_dict())
    print(f"wrote {args.output} ({written} records), {manifest}")
    return EXIT_OK


def cmd_analyze_offsets(args) -> int:
    from .sim import offset_histogram
    _write_text(args.output, offset_histogram(args.trace).csv(),
                "analyze-offsets", {"trace": str(args.trace)}, [args.trace])
    return EXIT_OK


def cmd_capacity_table(args) -> int:
    import logging  # for the extrapolated-budget warning
    from .storage import BITS_PER_KB, capacity_table, capacity_table_csv
    logging.basicConfig(level=logging.WARNING, format="btblab: %(message)s")
    budgets = None
    if args.budgets:
        try:
            budgets = [float(b) for b in args.budgets.split(",")]
        except ValueError:
            raise UsageError(f"bad budget list {args.budgets!r}") from None
        for budget in budgets:
            if not 1 <= budget * BITS_PER_KB < math.inf:
                raise UsageError(f"budget {budget:g} KB is not a finite size "
                                 "of at least one bit")
    isa = _isa(args.isa)
    _write_text(args.output, capacity_table_csv(capacity_table(budgets, isa)),
                "capacity-table", {"budgets": budgets, "isa": isa.name})
    return EXIT_OK


def _sim_config(args):
    from .sim import SimConfig
    return SimConfig(warmup_records=args.warmup, measure_records=args.measure,
                     debug=args.check_invariants)


def cmd_simulate(args) -> int:
    from .models import build_model
    from .sim import run
    config = _sim_config(args)
    model = build_model(args.model, budget_kb=args.budget_kb, sets=args.sets,
                        isa=trace_header(args.trace).isa)
    metrics = run(model, args.trace, config)
    doc = {
        "schema": "btblab.metrics/v1",
        "model": args.model,
        "budget_kb": args.budget_kb,
        "sets": args.sets,
        "warmup_records": config.warmup_records,
        "trace": str(args.trace),
        **metrics.to_dict(),
    }
    _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n",
                "simulate", doc, [args.trace])
    return EXIT_OK


def cmd_compare(args) -> int:
    from .sim import compare, compare_csv
    names = [m.strip() for m in args.models.split(",") if m.strip()]
    if not names:
        raise UsageError(f"--models names no model; choose from "
                         f"{', '.join(MODEL_NAMES)}")
    for name in names:
        if name not in MODEL_NAMES:
            raise ConfigError(f"unknown model {name!r}; choose from "
                              f"{', '.join(MODEL_NAMES)}")
    config = _sim_config(args)
    results = compare(names, args.trace, args.budget_kb, config)
    _write_text(args.output, compare_csv(results, args.budget_kb), "compare",
                {"models": names, "budget_kb": args.budget_kb,
                 "warmup_records": config.warmup_records,
                 "trace": str(args.trace)}, [args.trace])
    return EXIT_OK


# -- wiring -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btblab",
                     description="BTB organization simulator and accounting tool")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    # What `simulate` and `compare` share: how a trace is replayed.
    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument("--warmup", type=_non_negative_int,
                        help="warmup records (default: 10%%)")
    replay.add_argument("--measure", type=_non_negative_int,
                        help="records to measure after warmup "
                             "(default: the rest)")
    replay.add_argument("--check-invariants", action="store_true",
                        help="check the model's internal invariants after "
                             "every commit (slow; exit 3 on a violation)")
    replay.add_argument("trace", help=_TRACE_HELP)

    p = sub.add_parser("gen-trace", help="generate a synthetic branch trace")
    p.add_argument("--branches", type=int, required=True,
                   help="static branch working-set size")
    p.add_argument("--records", type=int, required=True,
                   help="dynamic records to emit")
    p.add_argument("--dist", help="width buckets, e.g. 0-6:0.54,7-10:0.22,...")
    p.add_argument("--kind-mix", help="branch kind mix, e.g. cond:0.8,ret:0.2")
    p.add_argument("--pattern", default=GeneratorSpec.pattern.replace("_", "-"),
                   choices=[pattern.replace("_", "-") for pattern in PATTERNS],
                   help="branch access order (default: %(default)s)")
    p.add_argument("--zipf-s", type=float, default=GeneratorSpec.zipf_s,
                   help="zipf exponent for --pattern zipf (default: %(default)s)")
    p.add_argument("--taken-rate", type=float, default=GeneratorSpec.taken_rate,
                   help="share of conditionals taken (default: %(default)s)")
    p.add_argument("--gap-mean", type=int, default=GeneratorSpec.gap_mean,
                   help="mean instructions between records (default: %(default)s)")
    p.add_argument("--seed", type=int, default=GeneratorSpec.seed,
                   help="random seed (default: %(default)s)")
    p.add_argument("--isa", default="aligned4", choices=_ISA_CHOICES, help=_ISA_HELP)
    p.add_argument("-o", "--output", required=True, help=_TRACE_HELP)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("analyze-offsets",
                       help="stored-offset-width histogram of a trace")
    p.add_argument("trace", help=_TRACE_HELP)
    p.add_argument("-o", "--output", help="CSV file (default: stdout)")
    p.set_defaults(func=cmd_analyze_offsets)

    p = sub.add_parser("capacity-table",
                       help="branch capacity per organization and budget")
    p.add_argument("--budgets", help="comma-separated KB values (default: presets)")
    p.add_argument("--isa", default="aligned4", choices=_ISA_CHOICES, help=_ISA_HELP)
    p.add_argument("-o", "--output", help="CSV file (default: stdout)")
    p.set_defaults(func=cmd_capacity_table)

    p = sub.add_parser("simulate", parents=[replay],
                       help="run one model over a trace")
    p.add_argument("--model", required=True, choices=MODEL_NAMES,
                   help="BTB organization to run")
    p.add_argument("--budget-kb", type=float,
                   help="storage budget in KB, a preset (or use --sets)")
    p.add_argument("--sets", type=int, help="main-array sets, in place of --budget-kb")
    p.add_argument("-o", "--output", help="metrics JSON file (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[replay],
                       help="run several models at one budget")
    p.add_argument("--models", required=True,
                   help=f"comma-separated subset of: {','.join(MODEL_NAMES)}")
    p.add_argument("--budget-kb", type=float, required=True,
                   help="every model's storage budget in KB, a preset")
    p.add_argument("-o", "--output", help="CSV file (default: stdout)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError, GeneratorSpecError) as exc:
        print(f"btblab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceFormatError, OSError, ValueError) as exc:
        print(f"btblab: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InvariantError, AssertionError) as exc:
        print(f"btblab: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

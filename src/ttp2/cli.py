"""Command-line front end: generate instances, build and check schedules,
evaluate travel, benchmark, and print the approximation-factor table.

Exit codes: 0 success, 1 usage or input error, 2 internal construction
failure (including over-budget benchmark trials), 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
import time

from .analysis import (evaluation_report, factors_exact, format_report, lower_bound,
                       report_to_json, total_travel)
from .errors import (InstanceError, SchedulingError, TTP2Error, ValidationError, decimal,
                     read_text, shown, team_count)
from .instance import (FORMATS, GENERATOR_KINDS, emit_instance, generate_instance,
                       load_instance, save_instance)
from .scheduler import (build_schedule, check_team_count, format_level_table,
                        schedule_from_json, schedule_to_json)
from .validator import _schedule, parse_day_list, validate_schedule

DEFAULT_SEED = 0
BENCH_DEFAULT_NS = "8,12,16,20,24,28,32"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; remap to this tool's convention (1)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("TTP2_SEED")
    if env is not None:
        seed = decimal(env, InstanceError,
                       "TTP2_SEED must be an integer in ASCII digits, got {value}")
        if seed < 0:
            raise InstanceError(f"TTP2_SEED must be a non-negative integer, got {shown(env)}")
        return seed
    return DEFAULT_SEED


def _obtain_instance(args):
    """Instance from -i PATH or --gen KIND --n N [--seed S]."""
    if getattr(args, "input", None):
        return load_instance(args.input)
    if getattr(args, "gen", None) or getattr(args, "n", None) is not None:
        if args.n is None:
            raise InstanceError("--gen requires --n")
        kind = args.gen or "euclidean"
        return generate_instance(args.n, kind, _resolve_seed(args.seed))
    raise InstanceError("provide an instance via -i PATH or --gen KIND --n N")


def _load_schedule_file(path: str):
    """A ``Schedule`` from JSON (constructor output), else the day-list
    text, which ``parse_day_list`` reads once its team count is settled."""
    text = read_text(path, ValidationError, f"schedule file {path} is not UTF-8 text")
    return schedule_from_json(text) if text.lstrip().startswith("{") else text


def _print_report(report, file=None) -> None:
    """The violations a report keeps, one a line, then '... and N more'
    for each constraint whose list it cut, then the exact total."""
    for v in report.violations:
        print(f"{v.constraint}: day={v.day} teams={v.teams} {v.detail}", file=file)
    for constraint, count in report.counts:
        cut = count - len(report.by_constraint(constraint))
        if cut:
            print(f"... and {cut} more {constraint}", file=file)
    print(f"{report.total} violation(s)", file=file)


def cmd_gen(args) -> int:
    inst = generate_instance(args.n, args.kind, _resolve_seed(args.seed))
    if args.output:
        save_instance(inst, args.output, fmt=args.fmt)
    else:
        sys.stdout.write(emit_instance(inst, fmt=args.fmt or "json"))
    return 0


def cmd_schedule(args) -> int:
    if not args.input and args.n is not None:   # before an instance of that size is made
        check_team_count(args.n)
    inst = _obtain_instance(args)
    sched = build_schedule(inst)
    report = validate_schedule(sched)
    if not report.ok:
        _print_report(report, sys.stderr)
        return 2
    text = schedule_to_json(sched) if args.output or args.json else None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
        return 0
    if args.table:
        sys.stdout.write(format_level_table(sched))
    lb = lower_bound(inst, sched.team_pairs)
    total = total_travel(sched, inst)
    print(f"flips: {sched.flips}")
    print(f"lower bound: {lb:.6f}")
    print(f"total travel: {total:.6f}")
    if lb > 0:
        print(f"ratio: {total / lb:.6f}")
    else:
        print("ratio: n/a")
    return 0


def cmd_validate(args) -> int:
    sched, n = _load_schedule_file(args.input), args.n
    text = isinstance(sched, str)
    if not text:
        n = _schedule(sched, n).n   # refused if -n gives another count
    if args.instance:
        inst = load_instance(args.instance)
        if n is not None and inst.n != n:
            raise InstanceError(f"instance has n={inst.n} but "
                                f"{'-n gives' if text else 'schedule has'} n={shown(n)}")
        n = inst.n
    report = validate_schedule(parse_day_list(sched, n) if text else sched)
    if report.ok:
        print("valid")
        return 0
    _print_report(report)
    return 3


def cmd_evaluate(args) -> int:
    sched, inst = _load_schedule_file(args.input), load_instance(args.instance)
    if isinstance(sched, str):
        sched = parse_day_list(sched, inst.n)
    rep = evaluation_report(sched, inst)
    if args.json:
        sys.stdout.write(report_to_json(rep))
    else:
        sys.stdout.write(format_report(rep))
    return 0 if rep.valid else 3


def cmd_bench(args) -> int:
    for n in args.n_set:
        check_team_count(n)
    base_seed = _resolve_seed(args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "seed", "LB", "total", "ratio", "flips", "budget",
                     "factor_ours", "factor_XK", "valid", "millis"])
    any_invalid = False
    any_over = False
    for n in args.n_set:
        max_ratio = None
        all_valid = True
        for trial in range(args.trials):
            seed = base_seed + trial
            inst = generate_instance(n, "euclidean", seed)
            t0 = time.perf_counter()
            sched = build_schedule(inst)
            millis = (time.perf_counter() - t0) * 1000.0
            rep = evaluation_report(sched, inst)
            budget = math.ceil(rep.flip_budget)
            ratio = rep.ratio if rep.ratio is not None else float("nan")
            writer.writerow([n, seed, f"{rep.lower_bound:.6f}",
                             f"{rep.total_travel:.6f}", f"{ratio:.9f}",
                             rep.flips, budget, f"{rep.factor_ours:.9f}",
                             f"{rep.factor_xiao_kou:.9f}",
                             "true" if rep.valid else "false",
                             f"{millis:.3f}"])
            all_valid = all_valid and rep.valid
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
            if rep.flips > budget or rep.bound_satisfied is False:
                any_over = True
        any_invalid = any_invalid or not all_valid
        writer.writerow([n, "max", "", "", f"{max_ratio:.9f}", "", "",
                         f"{rep.factor_ours:.9f}", "",
                         "true" if all_valid else "false", ""])
    text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any_invalid:
        return 3
    if any_over:
        return 2
    return 0


def cmd_factors(args) -> int:
    rows = []
    for n in range(8, args.n_max + 1, 4):
        ours, xk = factors_exact(n)
        rows.append((n, ours, xk, ours <= xk))
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "factor_ours", "factor_XK", "ours_le_XK"])
        for n, ours, xk, le in rows:
            writer.writerow([n, f"{float(ours):.9f}", f"{float(xk):.9f}",
                             "true" if le else "false"])
        return 0
    print(f"{'n':>4}  {'factor_ours':>12}  {'factor_XK':>12}  ours<=XK")
    for n, ours, xk, le in rows:
        print(f"{n:>4}  {float(ours):>12.9f}  {float(xk):>12.9f}  "
              f"{'yes' if le else 'no'}")
    return 0


def _int_arg(text: str) -> int:
    """An integer option's value, in ASCII digits (``errors.decimal``)."""
    return decimal(text, argparse.ArgumentTypeError,
                   "expected an integer in ASCII digits, got {value}")


def _team_count_arg(text: str) -> int:
    """A team count option's value: ASCII digits, at most TEAMS_MAX."""
    return team_count(_int_arg(text), argparse.ArgumentTypeError)


def _team_counts(text: str) -> list[int]:
    try:
        counts = [decimal(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        counts = []
    if not counts:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {shown(text)}")
    return counts


def _positive_int(text: str) -> int:
    refusal = "expected a positive integer, got {value}"
    value = decimal(text, argparse.ArgumentTypeError, refusal)
    if value < 1:
        raise argparse.ArgumentTypeError(refusal.format(value=shown(text)))
    return value


def _add_gen_source(sub):
    sub.add_argument("-i", "--input", metavar="PATH",
                     help="instance file (matrix, csv, or json)")
    sub.add_argument("--gen", choices=GENERATOR_KINDS, metavar="KIND",
                     help="generate an instance instead of reading one "
                          f"(one of: {', '.join(GENERATOR_KINDS)})")
    sub.add_argument("--n", type=_int_arg, help="team count for --gen")
    sub.add_argument("--seed", type=_int_arg, default=None,
                     help="RNG seed (default: $TTP2_SEED or 0)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parsing leaves it unchanged, so every
    ``main`` call shares it."""
    parser = _Parser(prog="ttp2", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a distance-matrix instance")
    p.add_argument("--kind", choices=GENERATOR_KINDS, default="euclidean")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("--fmt", choices=FORMATS, default=None)
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("schedule", help="build a schedule")
    _add_gen_source(p)
    p.add_argument("-o", "--output", metavar="PATH", help="write schedule JSON")
    shown_as = p.add_mutually_exclusive_group()
    shown_as.add_argument("--table", action="store_true",
                          help="print the round/level block table")
    shown_as.add_argument("--json", action="store_true",
                          help="print schedule JSON to stdout")
    p.set_defaults(func=cmd_schedule)

    p = subs.add_parser("validate", help="check a schedule against the constraints")
    p.add_argument("-i", "--input", metavar="PATH", required=True,
                   help="schedule file (JSON or day-list text)")
    p.add_argument("-d", "--instance", metavar="PATH",
                   help="instance file, for cross-checking the team count")
    p.add_argument("-n", type=_int_arg, default=None, help="team count for text schedules")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("evaluate", help="travel totals, bounds, and ratio")
    p.add_argument("-i", "--input", metavar="PATH", required=True,
                   help="schedule file (JSON or day-list text)")
    p.add_argument("-d", "--instance", metavar="PATH", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("bench", help="seeded benchmark sweep, CSV output")
    p.add_argument("--n-set", type=_team_counts, default=BENCH_DEFAULT_NS,
                   help=f"comma-separated team counts (default {BENCH_DEFAULT_NS})")
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("factors", help="approximation factor table")
    p.add_argument("--n-max", type=_team_count_arg, default=40)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_factors)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except SchedulingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TTP2Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

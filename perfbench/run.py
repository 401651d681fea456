"""Benchmark for ttp2: times schedule construction end to end and per layer,
and checks every output against computations made apart from ttp2.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``ttp2`` from its
``src`` directory.  One process on one thread (BLAS threads pinned to 1)
drives a closed loop: an operation starts when the previous one ends.  A
run attempts whole rounds, each running every generated input once; the
amount of work is sized from ``--seconds`` so that the run measures about
that long on the reference machine (README.md).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` every operation of half the work
runs once untraced and once traced, the last line holds the per-layer
metrics of the traced pass and the tracing overhead, and the spans are
written to ``perfbench/out/``.  The exit code is 1 if any check fails, 2
if the run cannot start.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("sweep", "ties", "audit")
SETUP_SAMPLES = 3           # set-ups per run: this process plus fresh interpreters
SETUP_TIMEOUT_S = 150
SHOWN_PROBLEMS = 10
PROBE_LOOPS = 4000
PROBE_REF_S = 0.0005        # the probe's time on the reference machine, undisturbed
# reported in the result line; the rest of end_to_end() is printed only
# (see README.md for why)
END_TO_END = ("setup_s", "op_ms_p50", "op_ms_geomean", "travel_ratio_mean")


@dataclass
class Phase:
    """Timings and check results of one timed pass."""

    times: list = field(default_factory=list)   # (input key, seconds, probe seconds) per op
    claims: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    elapsed: float = 0.0
    slowdowns: list = field(default_factory=list)   # traced / untraced scaled time per op
    last_probe: float = 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once in this interpreter and print the seconds taken")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop much like ttp2's own inner
    loops: how fast the shared machine is running this process right now."""
    start = time.perf_counter()
    counts, total = {}, 0
    for i in range(PROBE_LOOPS):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += i * i % 7
    return time.perf_counter() - start


def attempt(phase: Phase, workload, case, refs) -> None:
    """One timed operation between two speed probes; its output is checked
    after the clock stops."""
    from workloads import Reference

    phase.attempted += 1
    before = phase.last_probe or probe()
    t0 = time.perf_counter()
    try:
        result = workload.run(case)
    except Exception as exc:  # a failing operation is counted, not fatal
        phase.failed += 1
        print(f"failed: {case.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    seconds = time.perf_counter() - t0
    phase.last_probe = probe()
    # a probe only runs slower than undisturbed, so the faster of the two
    # around the operation is the better estimate of the machine's speed
    phase.times.append((case.key, seconds, min(before, phase.last_probe)))
    problems, claim = workload.check(case, result, refs.setdefault(case.key, Reference()))
    phase.problems.extend(f"{case.key}: {p}" for p in problems)
    phase.claims.append(claim)


def measure(workload, cases, refs, rounds: int, tracer=None) -> list[Phase]:
    """Closed loop over ``rounds`` whole rounds.  With a tracer, every
    operation runs both untraced and traced, back to back, so both passes
    see the same inputs in the same state; returns [untraced, traced]."""
    phases = [Phase()] + ([Phase()] if tracer is not None else [])
    start = time.perf_counter()
    for _ in range(rounds):
        for i, case in enumerate(cases):
            if tracer is None:
                attempt(phases[0], workload, case, refs)
                continue
            # a repeat of an operation runs faster than its first run, so
            # which pass goes first alternates
            done = [len(ph.times) for ph in phases]
            for traced in ((False, True) if i % 2 else (True, False)):
                if not traced:
                    attempt(phases[0], workload, case, refs)
                    continue
                tracer.op = phases[1].attempted
                with tracer.installed():
                    attempt(phases[1], workload, case, refs)
            if [len(ph.times) for ph in phases] == [d + 1 for d in done]:
                _, t_plain, q_plain = phases[0].times[-1]
                _, t_traced, q_traced = phases[1].times[-1]
                phases[1].slowdowns.append((t_traced / q_traced) / (t_plain / q_plain))
    for phase in phases:
        phase.rounds, phase.elapsed = rounds, time.perf_counter() - start
    return phases


def reference_checks(claims):
    """Compare each claim with networkx matchings and the travel guarantee;
    returns (problems, travel ratios of feasible schedules)."""
    import checks

    per_case, per_super = {}, {}
    problems, ratios = [], []
    for c in claims:
        case = c.case
        dist = case.inst.dist
        if case.key not in per_case:
            per_case[case.key] = (checks.is_metric(dist), checks.pairwise_sum(dist),
                                  checks.reference_matching(dist))
            if not per_case[case.key][0]:
                problems.append(f"{case.key}: instance is not metric")
        _, w_t, w_m = per_case[case.key]
        if not checks.close(c.team_pairs.weight, w_m):
            problems.append(f"{case.key}: team matching weighs {c.team_pairs.weight!r}, "
                            f"networkx finds {w_m!r}")
        skey = (case.key, c.team_pairs.pairs)
        if skey not in per_super:
            per_super[skey] = checks.reference_matching(
                checks.super_graph(dist, c.team_pairs.pairs))
        if not checks.close(c.super_pairs.weight, per_super[skey]):
            problems.append(f"{case.key}: super-pair matching weighs {c.super_pairs.weight!r}, "
                            f"networkx finds {per_super[skey]!r}")
        bound = 2.0 * w_t + case.n * w_m
        if c.lower_bound is not None and not checks.close(c.lower_bound, bound):
            problems.append(f"{case.key}: lower bound {c.lower_bound!r} != {bound!r}")
        if not c.feasible:
            continue
        ratio = c.travel / bound
        if not 1.0 - checks.RATIO_SLACK <= ratio <= checks.factor_bound(case.n) + checks.RATIO_SLACK:
            problems.append(f"{case.key}: travel ratio {ratio!r} outside "
                            f"[1, {checks.factor_bound(case.n)!r}]")
        if c.ratio is not None and not checks.close(c.ratio, ratio):
            problems.append(f"{case.key}: reported ratio {c.ratio!r} != {ratio!r}")
        ratios.append(ratio)
    return problems, ratios


def quantile(sorted_values, q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(phase: Phase, ratios, setup_samples, peak_rss_mib: float) -> dict:
    """Operation times are scaled to the reference machine's undisturbed
    speed: each is multiplied by PROBE_REF_S over the probe time measured
    around it, since other tenants of a shared machine slow this process by
    up to 1.7x for seconds at a time.  An input's time is the fastest of
    the rounds the run made (only audit repeats inputs)."""
    fastest: dict = {}
    for key, seconds, speed in phase.times:
        scaled = seconds * PROBE_REF_S / speed
        fastest[key] = min(scaled, fastest.get(key, scaled))
    times = sorted(fastest.values())
    raw = sorted(seconds for _, seconds, _ in phase.times)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "op_ms_p90": (1000.0 * quantile(times, 0.90), "ms"),
        "op_ms_geomean": (1000.0 * math.exp(math.fsum(math.log(t) for t in times) / len(times)), "ms"),
        "op_ms_p50_unscaled": (1000.0 * statistics.median(raw), "ms"),
        "ops_per_s": (len(phase.times) / math.fsum(
            seconds * PROBE_REF_S / speed for _, seconds, speed in phase.times), "ops/s"),
        "travel_ratio_mean": (math.fsum(ratios) / len(ratios), "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "probe_slowdown": (statistics.median(speed for _, _, speed in phase.times) / PROBE_REF_S, "x"),
    }


def per_layer(tracer, workload, traced: Phase) -> dict:
    calls, total, own, setup, team_solves = tracer.layer_totals()
    ops = traced.attempted
    counters = tracer.counters
    # span times are scaled by the run's median probe, like operation times
    slowdown = statistics.median(speed for _, _, speed in traced.times) / PROBE_REF_S

    def ms(seconds, per=ops):
        return 1000.0 * seconds / per / slowdown

    builds = calls["scheduler.build_schedule"]
    metrics = {
        "matching.min_weight_perfect_matching.ms": ms(total["matching.min_weight_perfect_matching"]),
        "matching.min_weight_perfect_matching.calls": calls["matching.min_weight_perfect_matching"] / ops,
        "matching.team_solves_per_instance": team_solves / builds if builds else 0.0,
        "matching.build_super_graph.ms": ms(total["matching.build_super_graph"]),
        "matching.super_pair_matching.ms": ms(total["matching.super_pair_matching"]),
        "scheduler.build_schedule.ms": ms(total["scheduler.build_schedule"]),
        "scheduler.build_schedule.self_ms": ms(own["scheduler.build_schedule"]),
        "scheduler.build_schedule.setup_ms": ms(setup["scheduler.build_schedule"], per=1),
        "blocks.expand_block.ms": ms(total["blocks.expand_block"]),
        "blocks.expand_block.calls": calls["blocks.expand_block"] / ops,
        "scheduler.flips": (counters["scheduler.flips"] / counters["scheduler.schedules"]
                            if counters["scheduler.schedules"] else 0.0),
        "scheduler.schedule_from_json.ms": ms(total["scheduler.schedule_from_json"]),
        "instance.load_instance.ms": ms(total["instance.load_instance"]),
        "instance.generate_instance.ms": ms(setup["instance.generate_instance"], per=1),
        "validator.parse_day_list.ms": ms(total["validator.parse_day_list"]),
        "validator.validate_schedule.ms": ms(total["validator.validate_schedule"]),
        "validator.validate_schedule.calls": calls["validator.validate_schedule"] / ops,
        "validator.violations": counters["validator.violations"] / ops,
        "analysis.total_travel.ms": ms(total["analysis.total_travel"]),
        "analysis.lower_bound.ms": ms(total["analysis.lower_bound"]),
        "analysis.evaluation_report.ms": ms(total["analysis.evaluation_report"]),
        "analysis.evaluation_report.self_ms": ms(own["analysis.evaluation_report"]),
        "cli.main.ms": ms(total["cli.main"]),
        "cli.main.self_ms": ms(own["cli.main"]),
        "trace.overhead_pct": 100.0 * (statistics.median(traced.slowdowns) - 1.0),
    }
    units = {"calls": "count", "flips": "count", "violations": "count",
             "team_solves_per_instance": "ratio", "overhead_pct": "%"}
    for name in sorted(tracer.missing):
        print(f"warning: {name} was not found in ttp2; its layer is not traced", file=sys.stderr)
    for name in workload.expected:
        if calls[name] == 0:
            print(f"warning: {name} recorded no calls on {workload.name}", file=sys.stderr)
    for name in ("instance.generate_instance", "scheduler.build_schedule"):
        if setup[name] == 0:
            print(f"warning: {name} recorded no calls during set-up", file=sys.stderr)
    return {k: (v, units.get(k.rsplit(".", 1)[-1], "ms")) for k, v in metrics.items()}


def setup_in_fresh_interpreter(workload: str, seed: int, seconds: float) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run(args, workdir: str) -> int:
    clock = time.perf_counter
    before = probe()
    start = clock()
    import workloads   # numpy and ttp2 load here, inside the timed set-up
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed, args.seconds, workdir)
        print((clock() - start) * PROBE_REF_S / min(before, probe()))
        return 0

    refs: dict = {}
    if args.trace:
        # every operation runs twice, so the work is sized from half the time
        from spans import Tracer
        tracer = Tracer()
        with tracer.installed():
            cases = workload.setup(args.seed, args.seconds / 2, workdir)
        phases = measure(workload, cases, refs, workload.rounds(args.seconds / 2), tracer)
    else:
        cases = workload.setup(args.seed, args.seconds, workdir)
        setup_samples = [(clock() - start) * PROBE_REF_S / min(before, probe())]
        phases = [phase] = measure(workload, cases, refs, workload.rounds(args.seconds))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for ph in phases for p in ph.problems]
    more, ratios = reference_checks([c for ph in phases for c in ph.claims])
    problems += more
    if args.trace:
        metrics = per_layer(tracer, workload, phases[1])
        os.makedirs(OUT, exist_ok=True)
        span_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(span_file)
        print(f"spans written to {os.path.relpath(span_file)}")
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(setup_in_fresh_interpreter(args.workload, args.seed, args.seconds))
        metrics = end_to_end(phase, ratios, setup_samples, peak_rss_mib)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} inputs, "
          f"{phases[0].rounds} rounds, {attempted} operations ({failed} failed) "
          f"in {phases[0].elapsed:.1f} s")
    reported = {k: v for k, v in metrics.items() if args.trace or k in END_TO_END}
    for name, (value, unit) in metrics.items():
        note = "" if name in reported else "  (printed only)"
        print(f"  {name:44s} {value:14.6f} {unit}{note}")
    for p in problems[:SHOWN_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > SHOWN_PROBLEMS:
        print(f"... and {len(problems) - SHOWN_PROBLEMS} more failed checks", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ttp2", "__init__.py")):
        print(f"error: ttp2 sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Inputs, operations and per-operation checks of the three workloads.

Every input comes from the ``--seed`` argument; ``ttp2`` only ever sees the
generated instances and files.  An operation returns what the program
produced; ``check`` then compares it with ``checks`` (which never calls
``ttp2``) outside the timed interval and returns a ``Claim`` holding the
numbers that the networkx references are compared with after the timed
phase.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

import ttp2
import ttp2.cli

import checks

# A run does a fixed amount of work, sized from --seconds so that it takes
# about that long on the reference machine (README.md): sweep and ties make
# one pass over inputs whose count grows with --seconds, audit repeats its
# fixed inputs a number of rounds that grows with --seconds.
SWEEP_SIZES = (8, 12, 16, 20, 24, 28, 32)
SWEEP_KINDS = ("euclidean", "random_metric")
SWEEP_PER_CELL_PER_S = 0.64     # instances per (size, kind), per second of run
# n=16 is left out: its m=16 team matching goes to the subset DP, whose
# work does not depend on ties, and its fixed cost sat at the median
TIES_SIZES = (20, 24, 28, 32)
TIES_PER_SIZE_PER_S = 4.0
# distinct points on an 8 x 8 grid: Manhattan distances take only the values
# 1..14, so many matchings tie at the optimum, and n=32 still leaves half the
# cells empty so each seed gives a different layout
LATTICE = 8
AUDIT_SIZES = (16, 20, 24, 28, 32)
AUDIT_PER_SIZE = 3
AUDIT_ROUNDS_PER_S = 2.0


def sized(rate: float, seconds: float) -> int:
    return max(1, round(rate * seconds))


C1_PREFIX = "C1_double_round_robin:"
_TEAMS = re.compile(r"teams=\((\d+), (\d+)\)")


@dataclass
class Case:
    """One distinct input; a round runs every case once."""

    key: str
    inst: ttp2.Instance
    # audit only
    path: str = ""
    inst_path: str = ""
    fmt: str = ""
    swapped: Optional[tuple[int, int]] = None   # (away, home) written after the swap
    team_pairs: Optional[ttp2.PairMatching] = None
    super_pairs: Optional[ttp2.PairMatching] = None

    @property
    def n(self) -> int:
        return self.inst.n


@dataclass
class Claim:
    """What one operation reported, for the checks against networkx."""

    case: Case
    travel: float
    feasible: bool
    team_pairs: Optional[ttp2.PairMatching] = None
    super_pairs: Optional[ttp2.PairMatching] = None
    lower_bound: Optional[float] = None
    ratio: Optional[float] = None


@dataclass
class Reference:
    """Per-case values computed apart from ttp2, filled in on first use."""

    days: Optional[list] = None
    problems: Optional[list] = None
    travel: Optional[float] = None


def subseed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def lattice_instance(n: int, seed: int) -> ttp2.Instance:
    rng = np.random.default_rng(seed)
    cells = rng.choice(LATTICE * LATTICE, size=n, replace=False)
    points = np.stack([cells // LATTICE, cells % LATTICE], axis=1)
    dist = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    return ttp2.Instance(n=n, dist=dist.astype(float))


def warm_templates(sizes) -> None:
    """First build per size: fills the per-size level template cache."""
    for n in sizes:
        ttp2.build_schedule(ttp2.generate_instance(n, "unit"))


def _schedule_days(sched) -> list[list[tuple[int, int]]]:
    return [[(f.away, f.home) for f in day] for day in sched.days]


def _levels(sched) -> list[list[tuple[int, int, int]]]:
    return [[(sm.a_pair, sm.b_pair, sm.block_type) for sm in lp.super_matches]
            for lp in sched.levels]


def _built_schedule_problems(case: Case, sched, ref: Reference) -> list[str]:
    """Checks shared by every workload that builds a schedule."""
    days = _schedule_days(sched)
    problems = checks.feasibility_problems(days, case.n)
    problems += checks.structure_problems(case.n, sched.flips, _levels(sched),
                                          sched.super_pairs.pairs)
    problems += checks.matching_problems(sched.team_pairs.pairs, sched.team_pairs.weight,
                                         case.inst.dist)
    sg = checks.super_graph(case.inst.dist, sched.team_pairs.pairs)
    problems += checks.matching_problems(sched.super_pairs.pairs, sched.super_pairs.weight, sg)
    if ref.travel is None:
        ref.travel = checks.travel(days, case.inst.dist)
    return problems


class Sweep:
    """``ttp2 bench`` per trial: build, validate, evaluate."""

    name = "sweep"
    expected = ("matching.min_weight_perfect_matching", "matching.build_super_graph",
                "matching.super_pair_matching", "blocks.expand_block",
                "scheduler.build_schedule", "validator.validate_schedule",
                "analysis.evaluation_report")

    def rounds(self, seconds: float) -> int:
        return 1

    def setup(self, seed: int, seconds: float, workdir: str) -> list[Case]:
        cases = []
        for k in range(sized(SWEEP_PER_CELL_PER_S, seconds)):
            for n in SWEEP_SIZES:
                for kind_index, kind in enumerate(SWEEP_KINDS):
                    inst = ttp2.generate_instance(n, kind, subseed(seed, n, kind_index, k))
                    cases.append(Case(key=f"{kind}-{n}-{k}", inst=inst))
        warm_templates(SWEEP_SIZES)
        return cases

    def run(self, case: Case):
        sched = ttp2.build_schedule(case.inst)
        report = ttp2.validate_schedule(sched)
        return sched, report, ttp2.evaluation_report(sched, case.inst)

    def check(self, case: Case, result, ref: Reference):
        sched, report, ev = result
        problems = _built_schedule_problems(case, sched, ref)
        if not report.ok or not ev.valid:
            problems.append("ttp2 rejected its own schedule")
        if not checks.close(ev.total_travel, ref.travel):
            problems.append(f"evaluation_report travel {ev.total_travel!r} != {ref.travel!r}")
        if ev.flips != sched.flips:
            problems.append(f"evaluation_report flips {ev.flips} != {sched.flips}")
        claim = Claim(case=case, travel=ev.total_travel, feasible=True,
                      team_pairs=sched.team_pairs, super_pairs=sched.super_pairs,
                      lower_bound=ev.lower_bound, ratio=ev.ratio)
        return problems, claim


class Ties:
    """Tie-heavy lattice instances: build, validate, total travel."""

    name = "ties"
    expected = ("matching.min_weight_perfect_matching", "matching.build_super_graph",
                "matching.super_pair_matching", "blocks.expand_block",
                "scheduler.build_schedule", "validator.validate_schedule",
                "analysis.total_travel")

    def rounds(self, seconds: float) -> int:
        return 1

    def setup(self, seed: int, seconds: float, workdir: str) -> list[Case]:
        cases = [Case(key=f"lattice-{n}-{k}", inst=lattice_instance(n, subseed(seed, n, k)))
                 for k in range(sized(TIES_PER_SIZE_PER_S, seconds)) for n in TIES_SIZES]
        warm_templates(TIES_SIZES)
        return cases

    def run(self, case: Case):
        sched = ttp2.build_schedule(case.inst)
        report = ttp2.validate_schedule(sched)
        return sched, report, ttp2.total_travel(sched, case.inst)

    def check(self, case: Case, result, ref: Reference):
        sched, report, travel = result
        problems = _built_schedule_problems(case, sched, ref)
        if not report.ok:
            problems.append("ttp2 rejected its own schedule")
        if not checks.close(travel, ref.travel):
            problems.append(f"total_travel {travel!r} != {ref.travel!r}")
        claim = Claim(case=case, travel=travel, feasible=True,
                      team_pairs=sched.team_pairs, super_pairs=sched.super_pairs)
        return problems, claim


def _day_list_text(days) -> str:
    return "".join(f"day {d + 1}: " + " ".join(f"{a}@{h}" for a, h in day) + "\n"
                   for d, day in enumerate(days))


class Audit:
    """Stored schedules: ``ttp2 validate`` through the CLI, then travel and
    the lower bound from the schedule's stored team pairs."""

    name = "audit"
    expected = ("instance.load_instance", "scheduler.schedule_from_json",
                "validator.validate_schedule", "validator.parse_day_list",
                "analysis.total_travel", "analysis.lower_bound", "cli.main")

    def rounds(self, seconds: float) -> int:
        return sized(AUDIT_ROUNDS_PER_S, seconds)

    def setup(self, seed: int, seconds: float, workdir: str) -> list[Case]:
        cases = []
        for n in AUDIT_SIZES:
            for k in range(AUDIT_PER_SIZE):
                inst = ttp2.generate_instance(n, "euclidean", subseed(seed, n, k))
                sched = ttp2.build_schedule(inst)
                stem = os.path.join(workdir, f"n{n}-{k}")
                ttp2.save_instance(inst, stem + "-instance.json")
                obj = json.loads(ttp2.schedule_to_json(sched))
                rng = np.random.default_rng(subseed(seed, n, k, 1))
                d = int(rng.integers(len(obj["days"])))
                f = int(rng.integers(len(obj["days"][d])))
                bad = copy.deepcopy(obj)
                fixture = bad["days"][d][f]
                fixture["away"], fixture["home"] = fixture["home"], fixture["away"]
                swapped = (fixture["away"], fixture["home"])
                for suffix, content, fmt, swap in (
                        (".json", obj, "json", None), (".txt", obj, "text", None),
                        ("-bad.json", bad, "json", swapped), ("-bad.txt", bad, "text", swapped)):
                    path = stem + suffix
                    with open(path, "w", encoding="utf-8") as fh:
                        if fmt == "json":
                            json.dump(content, fh)
                        else:
                            fh.write(_day_list_text(
                                [[(g["away"], g["home"]) for g in day] for day in content["days"]]))
                    cases.append(Case(key=os.path.basename(path), inst=inst, path=path,
                                      inst_path=stem + "-instance.json", fmt=fmt, swapped=swap,
                                      team_pairs=sched.team_pairs,
                                      super_pairs=sched.super_pairs))
        return cases

    def run(self, case: Case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ttp2.cli.main(["validate", "-i", case.path, "-d", case.inst_path])
        inst = ttp2.load_instance(case.inst_path)
        with open(case.path, encoding="utf-8") as fh:
            text = fh.read()
        if case.fmt == "json":
            sched = ttp2.schedule_from_json(text)
            pairs = sched.team_pairs
        else:
            sched = ttp2.parse_day_list(text)
            pairs = case.team_pairs
        travel = ttp2.total_travel(sched, inst)
        return code, out.getvalue(), sched, pairs, travel, ttp2.lower_bound(inst, pairs)

    def check(self, case: Case, result, ref: Reference):
        code, output, sched, pairs, travel, bound = result
        if ref.days is None:
            with open(case.path, encoding="utf-8") as fh:
                ref.days = checks.parse_schedule_file(fh.read())
            ref.problems = checks.feasibility_problems(ref.days, case.n)
            ref.travel = checks.travel(ref.days, case.inst.dist)
        problems = []
        if case.swapped is None:
            if ref.problems:
                problems.append(f"stored schedule {case.key} is infeasible: {ref.problems[0]}")
            if code != 0:
                problems.append(f"ttp2 validate exited {code} on feasible {case.key}")
        else:
            a, h = case.swapped
            named = {tuple(map(int, m.groups())) for line in output.splitlines()
                     if line.startswith(C1_PREFIX) for m in [_TEAMS.search(line)] if m}
            if not ref.problems:
                problems.append(f"mutated {case.key} passed the independent check")
            if code != 3:
                problems.append(f"ttp2 validate exited {code} on mutated {case.key}")
            if not {(a, h), (h, a)} <= named:
                problems.append(f"C1 violations on {case.key} do not name {a}@{h} and {h}@{a}")
        if not checks.close(travel, ref.travel):
            problems.append(f"total_travel {travel!r} != {ref.travel!r} on {case.key}")
        problems += checks.matching_problems(pairs.pairs, pairs.weight, case.inst.dist)
        if case.fmt == "json":
            problems += checks.structure_problems(case.n, sched.flips, _levels(sched),
                                                  sched.super_pairs.pairs)
        stored = sched.super_pairs if case.fmt == "json" else case.super_pairs
        claim = Claim(case=case, travel=travel, feasible=case.swapped is None,
                      team_pairs=pairs, super_pairs=stored, lower_bound=bound)
        return problems, claim


WORKLOADS = {w.name: w for w in (Sweep(), Ties(), Audit())}

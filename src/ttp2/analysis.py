"""Travel evaluation, the travel lower bound, flip budget, and factor math.

Travel semantics: a team leaves home, drives directly between consecutive
away venues, and returns home as soon as it has a home game (and at the end
of the tournament).  The lower bound 2*W_t + n*W_m combines every pair of
venues twice (W_t) with n traversals of the minimum matching (W_m).

The readers take a ``Schedule`` of the instance's team count
(``validator._schedule`` refuses anything else) and use the normal form it
keeps.  Travel and W_t are exact ``math.fsum`` sums, and distances whose
sum passes the float range raise InstanceError.  The flip budget and the
factors take an integer n, read by ``errors.integer`` (a numpy integer or
an integral float included), and refuse anything else with TTP2Error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InstanceError, MatchingError, TTP2Error, ValidationError, integer, shown
from .instance import Instance, check_metric
from .matching import PairMatching, min_weight_perfect_matching
from .validator import ScheduleArray, _schedule

BOUND_SLACK = 1e-9   # floating slack when checking the ratio bound
SIZES_KEPT = 64      # team counts whose per-size figures and indices are kept

# EvaluationReport.bound_reason: why bound_satisfied is None
NO_FACTOR = "no factor for this n (n is not a multiple of 4, or is below 8)"
ZERO_BOUND = "zero lower bound, so no ratio"
NOT_METRIC = "the instance breaks the triangle inequality, so the lower bound need not hold"


@dataclass(frozen=True)
class Itinerary:
    """Venue path of one team: home first, one venue per day, then the
    implicit return home folded into ``travel``."""

    team: int
    venues: tuple[int, ...]
    travel: float


@dataclass(frozen=True)
class EvaluationReport:
    n: int
    total_travel: float
    lower_bound: float
    ratio: Optional[float]          # None when the lower bound is zero
    flips: Optional[int]
    flip_budget: Optional[float]
    factor_ours: Optional[float]
    factor_xiao_kou: Optional[float]
    W_t: float
    W_m: float
    valid: bool
    bound_satisfied: Optional[bool]
    bound_reason: Optional[str]     # why bound_satisfied is None; else None
    per_team: tuple[Itinerary, ...]


def _fsum(values) -> float:
    """``math.fsum``, refusing a sum past the float range with InstanceError."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise InstanceError("the distances sum past the float range") from None


def _legs(g: ScheduleArray, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every team's venues, home first and then one per day, and the
    distance of each leg, the return home last; both (days + 1) x teams.

    The first fixture of a day naming a team sets its venue; a day where
    the team does not appear keeps it where it is (only relevant for
    partial schedules; complete schedules have no byes).
    """
    num_days, n = g.games.shape
    teams = np.arange(n)
    # row 0 is home; row d + 1 is where the team plays on day d
    spots = np.vstack([teams, np.where(g.at_home, teams, g.opponent)])
    played = np.where(g.opponent >= 0, np.arange(1, num_days + 1)[:, None], 0)
    last = np.maximum.accumulate(np.vstack([np.zeros(n, dtype=int), played]), axis=0)
    venues = spots[last, teams]
    return venues, dist[venues, np.vstack([venues[1:], teams])]   # ... then home


def _itineraries(g: ScheduleArray, inst: Instance) -> list[Itinerary]:
    """Every team's itinerary, from the schedule's normal form."""
    venues, legs = _legs(g, inst.dist)
    return [Itinerary(team=t, venues=tuple(v), travel=_fsum(leg))
            for t, (v, leg) in enumerate(zip(venues.T.tolist(), legs.T.tolist()))]


def team_itinerary(sched, inst: Instance, team: int) -> Itinerary:
    """Venue sequence and travel for one team of ``sched``, a ``Schedule``
    of ``inst.n`` teams.  ``team`` is an integer in 0..n-1, read by
    ``errors.integer``; anything else raises ValidationError."""
    team = integer(team, "team", ValidationError, "team must be an integer, got {value}")
    if not 0 <= team < inst.n:
        raise ValidationError(f"team {shown(team)} out of range for n={inst.n}")
    return _itineraries(_schedule(sched, inst.n)._array, inst)[team]


def total_travel(sched, inst: Instance) -> float:
    """Sum of all team travels of ``sched``, a ``Schedule`` of ``inst.n``
    teams; each team's travel is summed first, then the teams in team
    order, for determinism."""
    _, legs = _legs(_schedule(sched, inst.n)._array, inst.dist)
    return _fsum(map(math.fsum, legs.T.tolist()))


@lru_cache(maxsize=SIZES_KEPT)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the n(n-1)/2 entries above the
    diagonal of an n x n matrix."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def pairwise_sum(inst: Instance) -> float:
    """W_t: the sum of all inter-venue distances (each unordered pair once)."""
    return _fsum(inst.dist[_upper(inst.n)].tolist())


def lower_bound(inst: Instance, team_matching: PairMatching) -> float:
    """2*W_t + n*W_m, the travel floor every feasible schedule obeys on
    metric instances; a bound past the float range raises InstanceError.

    ``team_matching`` must be a perfect matching of 0..n-1 whose ``weight``
    is bit-equal to the ``math.fsum`` of its pairs' distances on ``inst``;
    any other raises MatchingError.  A perfect matching that is not of
    minimum weight but states its weight honestly passes: only
    ``evaluation_report``, which solves the team matching itself, catches
    that."""
    if not team_matching.covers(inst.n):
        raise MatchingError(f"team pairs {list(team_matching.pairs)} are not a perfect "
                            f"matching of 0..{inst.n - 1}")
    weight = _fsum(float(inst.dist[i, j]) for i, j in team_matching.pairs)
    if weight != team_matching.weight:
        raise MatchingError(f"team matching weight {team_matching.weight!r} is not the "
                            f"{weight!r} its pairs sum to on this instance")
    return _bound(pairwise_sum(inst), inst.n, team_matching.weight)


def _bound(w_t: float, n: int, w_m: float) -> float:
    """2*w_t + n*w_m, refusing a sum past the float range with InstanceError."""
    lb = 2.0 * w_t + n * w_m
    if math.isinf(lb):
        raise InstanceError("the distances sum past the float range")
    return lb


def _ceil_log2(x: int) -> int:
    """ceil(log2(x)) of an int x >= 1."""
    return (x - 1).bit_length()


def flip_budget(n: int) -> float:
    """F_n = (n/8) * ceil(log2(n/4)); schedules may use at most ceil(F_n)
    Type-2 blocks."""
    n = integer(n, "n", TTP2Error, "n must be an integer, got {value}")
    if n % 4 != 0 or n < 4:
        raise TTP2Error(f"flip budget needs 4 | n, got {shown(n)}")
    try:
        return n * _ceil_log2(n // 4) / 8.0
    except OverflowError:   # an n past the float range
        raise TTP2Error(f"the flip budget of n={shown(n)} is past the float range") from None


def factors_exact(n: int) -> tuple[Fraction, Fraction]:
    """Both approximation factors as exact rationals: this construction's
    and the benchmark (XK) it is compared against."""
    n = integer(n, "n", TTP2Error, "n must be an integer, got {value}")
    if n % 4 != 0 or n < 8:
        raise TTP2Error(f"factors need 4 | n and n >= 8, got {shown(n)}")
    ours = 1 + Fraction(_ceil_log2(n // 4) + 4, 2 * (n - 2))
    xk = 1 + Fraction(2, n - 2) + Fraction(2, n)
    return ours, xk


def factor_ours(n: int) -> float:
    return float(factors_exact(n)[0])


def factor_xiao_kou(n: int) -> float:
    return float(factors_exact(n)[1])


@lru_cache(maxsize=SIZES_KEPT)
def _size_figures(n: int) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """The flip budget and both factors of an int team count, each None
    where n has none."""
    try:
        budget: Optional[float] = flip_budget(n)
    except TTP2Error:
        budget = None
    if n % 4 != 0 or n < 8:
        return budget, None, None
    ours, xk = factors_exact(n)
    return budget, float(ours), float(xk)


def evaluation_report(sched, inst: Instance) -> EvaluationReport:
    """All headline quantities for one schedule on one instance.

    ``sched`` is a ``Schedule`` of ``inst.n`` teams; both the validity
    check and the itineraries use the read and the verdict it keeps.
    The schedule may be invalid; the report then carries valid=False and the
    ratio loses its guarantee (it is still computed when the bound is > 0).
    ``bound_satisfied`` is None in three cases, and ``bound_reason`` then
    names the first that applies: ``NO_FACTOR``, an n with no factor (n not
    a multiple of 4, or below 8); ``ZERO_BOUND``, a zero lower bound (no
    ratio); ``NOT_METRIC``, an instance that breaks the triangle inequality
    (the lower bound needs it).  ``bound_reason`` is None when
    ``bound_satisfied`` is a bool.
    ``flips`` is the Type-2 count of the schedule's level plan, None for
    a schedule that stores no levels (a day list).  Anything but a
    ``Schedule``, or one of another team count, raises ValidationError.
    Distances that sum past the float range raise InstanceError.

    The team matching is solved from ``inst`` rather than read from the
    schedule, which may come from anywhere; right after ``build_schedule``
    on the same instance the solve is a memo hit.
    """
    n = inst.n
    sched = _schedule(sched, n)
    g, verdict = sched._array, sched._report
    teams = min_weight_perfect_matching(inst.dist)
    per_team = tuple(_itineraries(g, inst))
    total = _fsum(it.travel for it in per_team)
    w_t = pairwise_sum(inst)
    lb = _bound(w_t, n, teams.weight)   # lower_bound's, without summing W_t again
    ratio = (total / lb) if lb > 0 else None
    flips = sched.flips if len(sched._plan) else None
    budget, ours_f, xk_f = _size_figures(n)
    bound_ok = reason = None
    if ours_f is None:
        reason = NO_FACTOR
    elif ratio is None:
        reason = ZERO_BOUND
    elif not check_metric(inst).triangle_ok:
        reason = NOT_METRIC
    else:
        bound_ok = ratio <= ours_f + BOUND_SLACK
    return EvaluationReport(
        n=n, total_travel=total, lower_bound=lb, ratio=ratio, flips=flips,
        flip_budget=budget, factor_ours=ours_f, factor_xiao_kou=xk_f,
        W_t=w_t, W_m=teams.weight, valid=verdict.ok, bound_satisfied=bound_ok,
        bound_reason=reason, per_team=per_team)


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "n": report.n,
        "total_travel": report.total_travel,
        "lower_bound": report.lower_bound,
        "ratio": report.ratio,
        "flips": report.flips,
        "flip_budget": report.flip_budget,
        "factor_ours": report.factor_ours,
        "factor_xiao_kou": report.factor_xiao_kou,
        "W_t": report.W_t,
        "W_m": report.W_m,
        "valid": report.valid,
        "bound_satisfied": report.bound_satisfied,
        "bound_reason": report.bound_reason,
        "per_team": [{"team": it.team, "travel": it.travel} for it in report.per_team],
    }


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _fmt(x, width: int) -> str:
    if x is None:
        s = "n/a"
    elif isinstance(x, bool):
        s = "yes" if x else "no"
    elif isinstance(x, float):
        s = f"{x:.4f}"
    else:
        s = str(x)
    return s.rjust(width)


def format_report(report: EvaluationReport) -> str:
    """Aligned one-line summary table."""
    budget_ceil = None if report.flip_budget is None else math.ceil(report.flip_budget)
    cols = [
        ("n", report.n), ("LB", report.lower_bound), ("ALG", report.total_travel),
        ("ratio", report.ratio), ("flips", report.flips), ("ceilF", budget_ceil),
        ("factor_ours", report.factor_ours), ("factor_XK", report.factor_xiao_kou),
        ("valid", report.valid),
    ]
    widths = [max(len(name), len(_fmt(val, 0).strip())) for name, val in cols]
    header = "  ".join(name.rjust(w) for (name, _), w in zip(cols, widths))
    values = "  ".join(_fmt(val, w) for (_, val), w in zip(cols, widths))
    return header + "\n" + values + "\n"

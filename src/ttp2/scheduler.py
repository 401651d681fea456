"""Schedule construction: two-level matching, level planning, flip placement.

Construction outline for n teams (4 | n, n >= 8), m = n/2 pairs:

1. Match the n teams into m pairs M_0..M_{m-1} (minimum-weight matching,
   lexicographic order), then match the m pairs into m/2 super-pairs N_i
   on the cross-distance super graph.
2. Plan m-1 levels, each a perfect matching of the pairs, forming a single
   round robin on pairs whose final level is exactly the N_i pairing.
3. 2-color the pairs A/B per level.  Every super-match must pair an A with
   a B; a Type-2 block swaps both participants' colors for the next level.
   An explicit per-group rule, applied as the levels are planned, picks the
   flip set of each level.  A size whose plan needs more than ceil(F_n)
   flips is not served (``check_team_count``).
4. Expand levels to games: level k starts on day 4k; non-final levels
   are 4-day blocks, the final level is the 6-day block with the intra-pair
   games.  Day count is 4(m-2) + 6 = 2n-2.  A build renames the per-size
   template's plan from slots to pairs and expands that plan on the team
   pairs, all its 4-day blocks in one ``expand_block`` call and its 6-day
   blocks in another; every schedule holds its plan as one read-only int
   array, making its levels only when they are first read.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .analysis import flip_budget
from .blocks import Fixture, SuperMatch, expand_block
from .errors import (TEAMS_MAX, InstanceError, SchedulingError, ValidationError, integer,
                     load_json, shown, team_count)
from .instance import Instance
from .matching import (SIZE_MAX, PairMatching, build_super_graph,
                       min_weight_perfect_matching, super_pair_matching)
from .validator import (REPORT_LIMIT, Violation, ViolationReport, _fixture_days,
                        _fixture_teams, _normal_form, _validate)

S_BLOCK_TYPE = "structural_block_type"


def _tuple_of(cls: type, values, what: str) -> tuple:
    """``values``, read once, as a tuple of ``cls`` values, else ValidationError."""
    try:
        values = tuple(values)
        if all(isinstance(v, cls) for v in values):
            return values
    except TypeError:   # not iterable
        pass
    raise ValidationError(f"{what} must be {cls.__name__} values, got {shown(values)}")


@dataclass(frozen=True)
class LevelPlan:
    """One level: n/4 super-matches, labeled (round, level) 1-based.  It
    reads its labels by ``errors.integer`` and its blocks once, into a
    tuple of ``SuperMatch`` values; anything else raises ValidationError."""

    round: int
    level: int
    super_matches: tuple[SuperMatch, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "round", integer(self.round, "round", ValidationError))
        object.__setattr__(self, "level", integer(self.level, "level", ValidationError))
        object.__setattr__(self, "super_matches",
                           _tuple_of(SuperMatch, self.super_matches, "super_matches"))


@dataclass(frozen=True)
class Schedule:
    """``days[d]`` holds the fixtures played on day d.  ``levels`` is the
    typed level plan the days were expanded from; it is empty for a
    schedule found some other way.

    A schedule is the one input the readers (``validate_schedule``,
    ``total_travel``, ``team_itinerary``, ``evaluation_report``) take: raw
    day lists become one with ``Schedule(n, days)``, day-list text with
    ``validator.parse_day_list``.  Made by hand or loaded, it reads its
    team count, which may not be None, then ``levels`` once, each a
    ``LevelPlan``, and each matching, a ``PairMatching`` or None: types
    that read their own numbers.  It checks the plan (``_check_plan``),
    then reads its games once, into their normal form
    (``validator._normal_form``); each step can raise ValidationError.
    Every schedule holds its plan only as ``_plan``, one read-only int64
    array of (n/2 - 1) x n/4 blocks, each (a_pair, b_pair, type), in the
    order of ``levels`` (a build's levels hold their blocks in the order of
    their lower pair; a schedule without a plan holds no block), and its
    days only as the normal form; it makes ``levels`` and ``days`` from
    them the first time they are read.  The readers work from the normal
    form and the plan array alone.  Once judged, a schedule keeps its
    report too; a copy or an unpickled schedule keeps its plan read-only."""

    n: int
    days: tuple[tuple[Fixture, ...], ...]
    # a factory, not a class-level default, which would hide ``levels``
    # from ``__getattr__``
    levels: tuple[LevelPlan, ...] = field(default_factory=tuple)
    team_pairs: Optional[PairMatching] = None
    super_pairs: Optional[PairMatching] = None

    def __post_init__(self) -> None:
        n = self._read_count()
        levels = _tuple_of(LevelPlan, vars(self).pop("levels"), "levels")
        self._read_plan(n, _plan_parts(levels))
        teams, counts = _fixture_teams(vars(self).pop("days"))
        object.__setattr__(self, "_array", _normal_form(teams, counts, n))

    @classmethod
    def _from_teams(cls, n, teams, counts: list[int], plan=((), (), ()),
                    team_pairs: Optional[PairMatching] = None,
                    super_pairs: Optional[PairMatching] = None) -> Schedule:
        """The schedule of the games whose teams ``teams`` lists, away
        first, flattened, with ``counts[d]`` games on day d: plain ints or
        an int64 array, as a stored form's reader makes them; ``plan`` is
        the plan's (labels, rows, sizes), as ``_check_plan`` takes them.  It
        refuses what ``Schedule(n, days)`` of the same games refuses, in the
        same order."""
        sched = cls.__new__(cls)
        vars(sched).update(n=n, team_pairs=team_pairs, super_pairs=super_pairs)
        n = sched._read_count()
        sched._read_plan(n, plan)
        object.__setattr__(sched, "_array", _normal_form(teams, counts, n))
        return sched

    def _read_count(self) -> int:
        """Read the team count and keep it as read."""
        if self.n is None:
            raise ValidationError("a Schedule needs its team count n, got None")
        n = team_count(self.n, ValidationError)
        object.__setattr__(self, "n", n)
        return n

    def _read_plan(self, n: int, plan) -> None:
        """Check the plan's (labels, rows, sizes) against the count and the
        matchings, and keep it as the plan array."""
        object.__setattr__(self, "_plan",
                           _check_plan(n, *plan, self.team_pairs, self.super_pairs))

    def __getattr__(self, name: str):
        # only ``days`` and ``levels`` are looked up here, until first read
        if name == "days" and "_array" in vars(self):
            value = _fixture_days(self._array)
        elif name == "levels" and "_plan" in vars(self):
            value = _pair_levels(self)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __setstate__(self, state: dict) -> None:
        # a deep copy or an unpickled schedule holds a new, writable plan array
        vars(self).update(state)
        self._plan.flags.writeable = False

    @cached_property
    def _report(self) -> ViolationReport:
        """The days' violations, then the stored block types that contradict
        their level or the days, given once."""
        days = _validate(self._array)
        kept, count = _block_type_violations(self)
        if not count:
            return days
        return ViolationReport(days.violations + kept, days.counts + ((S_BLOCK_TYPE, count),))

    @property
    def flips(self) -> int:
        """The number of Type-2 blocks in ``levels``."""
        return _flip_count(self._plan[..., 2])


def _flip_count(types) -> int:
    """The Type-2 count of ``types``, block types."""
    return int(np.count_nonzero(np.asarray(types) == 2))


def _pair_levels(sched: Schedule) -> tuple[LevelPlan, ...]:
    """A schedule's plan as ``LevelPlan`` values, labeled by ``_round_labels``."""
    return tuple(LevelPlan(round=r, level=l,
                           super_matches=tuple(itertools.starmap(SuperMatch, blocks)))
                 for (r, l), blocks in zip(_round_labels(sched.n), sched._plan.tolist()))


def _plan_parts(levels: tuple[LevelPlan, ...]) -> tuple[list, list[int], list[int]]:
    """The (labels, rows, sizes) of ``levels``, as ``_check_plan`` takes them."""
    return ([(lp.round, lp.level) for lp in levels],
            [v for lp in levels for sm in lp.super_matches
             for v in (sm.a_pair, sm.b_pair, sm.block_type)],
            [len(lp.super_matches) for lp in levels])


# the plan of a schedule that stores none
_NO_PLAN = np.zeros((0, 0, 3), np.int64)
_NO_PLAN.flags.writeable = False


def _check_plan(n: int, labels, rows, sizes, team_pairs: Optional[PairMatching],
                super_pairs: Optional[PairMatching]) -> np.ndarray:
    """The plan on ``n`` teams as one read-only int64 array of (n/2 - 1) x
    n/4 blocks, each (a_pair, b_pair, type), from each level's (round,
    level) label in ``labels``, every block's three numbers flattened in
    level order in ``rows`` (ints, or an int64 array) and each level's block
    count in ``sizes``; the empty ``_NO_PLAN`` when no level is stored.

    Refuse with ValidationError a plan that contradicts itself: team pairs
    or super-pairs that are no ``PairMatching`` of all the teams 0..n-1 or
    pairs 0..n/2 - 1, or, when levels are stored, other than n/2 - 1
    levels labeled by ``_round_labels(n)``, each naming every pair 0..n/2 -
    1 once (so n/4 blocks), or super-pairs not the last level's.  The levels
    are checked in bulk, with numpy; a plan that check refuses is gone
    through level by level (``_plan_fault``) only to name its first fault."""
    for key, pm, what, m in (("team_pairs", team_pairs, "teams", n),
                             ("super_pairs", super_pairs, "pairs", n // 2)):
        if pm is not None and not isinstance(pm, PairMatching):
            raise ValidationError(f"{key} must be a PairMatching or None, got {shown(pm)}")
        if pm is not None and not pm.covers(m):
            raise ValidationError(f"stored {key} {shown([list(p) for p in pm.pairs])} are "
                                  f"not a perfect matching of the {what} 0..{m - 1}")
    if not labels:
        return _NO_PLAN
    m, count = n // 2, len(labels)
    if 2 * (count + 1) != n:
        raise ValidationError(f"stored levels: {count} level(s), "
                              f"expected n/2 - 1 = {n / 2 - 1:g}")
    plan = None
    if m % 2 == 0 and sizes.count(m // 2) == count and tuple(labels) == _round_labels(n):
        try:
            plan = np.asarray(rows, np.int64).reshape(count, m // 2, 3)
        except OverflowError:   # a pair past int64
            pass
        else:
            if not (np.sort(plan[..., :2].reshape(count, m), axis=1) == np.arange(m)).all():
                plan = None
    if plan is None:
        raise ValidationError(_plan_fault(n, labels, rows, sizes))
    if super_pairs is not None:
        last = sorted(map(tuple, np.sort(plan[-1, :, :2], axis=1).tolist()))
        if sorted(tuple(sorted(p)) for p in super_pairs.pairs) != last:
            raise ValidationError(f"stored super_pairs {shown(list(super_pairs.pairs))} differ "
                                  f"from the pairs {shown(last)} of the last level")
    plan.flags.writeable = False
    return plan


def _plan_fault(n: int, labels, rows, sizes) -> str:
    """The first fault of ``_check_plan``'s levels, in level order: a
    level labeled other than ``_round_labels(n)`` says, or one that does not
    name every pair 0..n/2 - 1 once.  The bulk check refuses no other plan."""
    values = rows.tolist() if isinstance(rows, np.ndarray) else rows
    pairs, start = list(range(n // 2)), 0
    for k, ((r, l), expected, size) in enumerate(zip(labels, _round_labels(n), sizes)):
        if (r, l) != expected:
            return (f"stored levels: level {k + 1} is labeled round {shown(r)} level "
                    f"{shown(l)}, expected round {expected[0]} level {expected[1]}")
        level = values[3 * start:3 * (start + size)]
        start += size
        named = sorted(level[0::3] + level[1::3])
        if named != pairs:
            return (f"stored levels: level {k + 1} names pairs {shown(named)}, "
                    f"expected each of 0..{len(pairs) - 1} once")


# each level's second day, 4k + 1, for every level a schedule may hold
_SECOND_DAYS = np.arange(1, 2 * TEAMS_MAX, 4)[:, None]


def _block_type_violations(sched: Schedule) -> tuple[tuple[Violation, ...], int]:
    """The first ``REPORT_LIMIT`` stored block types of ``sched`` that
    contradict their level or its days, and the count of all of them.

    Every level but the last holds Type-1 or Type-2 blocks, the last only
    Type-3.  Where team pairs are stored, the days are checked too: level k
    starts on day 4k, and on its second day, 4k+1, the A pair's lower team
    plays away in a Type-1 block and at home in a Type-2 block
    (``blocks._LAYOUT``).  Levels past the last day are not checked against
    days; the day count check reports those schedules.  The check reads the
    plan array in bulk, so a built schedule's ``levels`` are not made.
    """
    plan, g = sched._plan, sched._array
    last = len(plan) - 1
    if last < 0:
        return (), 0
    t = plan[..., 2]
    # block types are 1, 2 or 3: a 3 before the last level, anything else on it
    bad = t == 3
    bad[last] = ~bad[last]
    if sched.team_pairs is not None:
        # the A pair's lower team on the second day of each non-final level played
        played = min(last, (len(g.at_home) + 2) // 4)
        lower = np.array([min(p) for p in sched.team_pairs.pairs])[plan[:played, :, 0]]
        home = g.at_home[_SECOND_DAYS[:played], lower]
        bad[:played] |= home != (t[:played] == 2)
    if not bad.any():
        return (), 0
    found = np.argwhere(bad)
    out = []
    for k, i in found[:REPORT_LIMIT].tolist():
        a, b, btype = plan[k, i].tolist()
        if (btype == 3) != (k == last):
            out.append(Violation(
                constraint=S_BLOCK_TYPE, day=None, teams=(),
                detail=f"level {k + 1} block of pairs {a} and {b} has type {btype}, "
                       f"expected {'3' if k == last else '1 or 2'}"))
        else:
            team, d = int(lower[k, i]), 4 * k + 1
            out.append(Violation(
                constraint=S_BLOCK_TYPE, day=d, teams=(team,),
                detail=f"team {team} of A pair {a} plays "
                       f"{'at home' if g.at_home[d, team] else 'away'} "
                       f"on day {d}, but its level-{k + 1} block is stored as Type-{btype}"))
    return tuple(out), len(found)


# --- level template on "slots" ---------------------------------------------
#
# Levels are planned on abstract slots 0..m-1; a build maps each slot to a
# pair (sigma) and keeps its plan renamed to pairs, one int array.  The
# generator recursively schedules a group (X, Y) of two ordered slot lists
# of equal size q:
#
# * q even: q complete-bipartite levels (shift 0..q-1), then the group
#   splits in two: X's even positions against X's odd positions, and their
#   shift-(q-1) partners crossed; the sub-levels run in parallel.
# * q odd: q-1 bipartite levels (shifts 0..q-2, leaving shift q-1 unplayed),
#   then q levels each holding one odd-circle round inside X, one inside Y,
#   and one of the reserved shift-(q-1) cross pairs.
# * q = 1: the single cross pair; it becomes part of the final level.
#
# The last level produced this way is a perfect matching (the template's
# natural super-pairing); every other pair of slots meets exactly once
# earlier, so the sequence is a single round robin.
#
# Each level also carries its flipped (Type-2) matches, which keep every
# level A-vs-B when X starts as A.  On the last bipartite level (shift q-1
# or q-2), X's odd positions flip, so for q even both split halves again
# start with X as A.  For q odd, circle level 0 flips every match inside Y,
# levels 1..q-2 flip their cross pair, and the last flips nothing.

def _group_levels(X: list[int], Y: list[int]
                  ) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """The group's levels, each as (matches, flipped matches)."""
    q = len(X)
    levels = [([(X[k], Y[(k + shift) % q]) for k in range(q)], [])
              for shift in range(q if q % 2 == 0 else q - 1)]
    if levels:   # the last bipartite level flips X's odd positions
        matches, _ = levels[-1]
        levels[-1] = (matches, matches[1::2])
    if q % 2 == 0:
        partner = {X[k]: Y[(k + q - 1) % q] for k in range(q)}
        sub1 = _group_levels(X[0::2], X[1::2])
        sub2 = _group_levels([partner[x] for x in X[1::2]],
                             [partner[x] for x in X[0::2]])
        for (l1, f1), (l2, f2) in zip(sub1, sub2):
            levels.append((l1 + l2, f1 + f2))
        return levels
    for j in range(q):
        r = (j - 1) % q
        rp = (r + q - 1) % q
        xs = [(X[(r + i) % q], X[(r - i) % q]) for i in range(1, (q - 1) // 2 + 1)]
        ys = [(Y[(rp + i) % q], Y[(rp - i) % q]) for i in range(1, (q - 1) // 2 + 1)]
        cross = (X[r], Y[rp])
        flipped = ys if j == 0 else [cross] if j < q - 1 else []
        levels.append((xs + ys + [cross], flipped))
    return levels


@lru_cache(maxsize=None)
def _round_labels(n: int) -> tuple[tuple[int, int], ...]:
    """(round, level) per level, 1-based: round i, for each 2^i < n, has
    ceil((n/2^i - 1)/2) = ceil((n - 2^i) / 2^(i+1)) of the m-1 levels."""
    return tuple((i, l) for i in range(1, n.bit_length())
                 for l in range(1, -(-(n - (1 << i)) // (1 << (i + 1))) + 1))


def _canon_level(level) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in level))


class _Template(NamedTuple):
    """A size's checked plan on slots, and ``last``, the last level's slots
    as ascending (lo, hi) pairs, which a build meets with its super-pairs."""

    plan: np.ndarray
    last: np.ndarray


@lru_cache(maxsize=None)
def _template(m: int) -> _Template:
    """Instance-independent per-size plan on slots 0..m-1: m-1 labeled
    levels of typed, oriented blocks (a_slot, b_slot, type), the last of
    which pairs the slots as the template's super-pairing.  Even slots start
    as A, and each level's flips swap the roles of their two slots for the
    next level: a match is oriented A first, a flipped match is Type-2, the
    last level is Type-3, and every other match is Type-1.  Flips past
    ceil(F_n) raise InstanceError: the size is not served.  The plan is
    checked once, here, as a stored one is (``_check_plan``, slots for
    pairs), so a build checks only what it adds: its super-pairs.  Any other
    refusal here is a fault of the planner, an ``internal:`` SchedulingError."""
    levels = _group_levels(list(range(0, m, 2)), list(range(1, m, 2)))
    n = 2 * m
    total = sum(len(flipped) for _, flipped in levels)
    budget = math.ceil(flip_budget(n))
    if total > budget:
        raise InstanceError(f"n={n}: the flip rule needs {total} flips, "
                            f"over the budget ceil(F_n) = {budget}")
    is_a = [s % 2 == 0 for s in range(m)]
    last = len(levels) - 1
    labels, rows, sizes = [], [], []
    for k, (label, (level, flipped)) in enumerate(zip(_round_labels(n), levels)):
        flipped = _canon_level(flipped)
        for i, j in _canon_level(level):
            if is_a[i] == is_a[j]:
                raise SchedulingError(
                    f"internal: level {k + 1} pairs slots {i} and {j} on the same side")
            a, b = (i, j) if is_a[i] else (j, i)
            rows += (a, b, 3 if k == last else (2 if (i, j) in flipped else 1))
        for i, j in flipped:
            is_a[i], is_a[j] = is_a[j], is_a[i]
        labels.append(label)
        sizes.append(len(level))
    try:
        plan = _check_plan(n, labels, rows, sizes, None, None)
    except ValidationError as exc:
        raise SchedulingError(f"internal: {exc}") from None
    return _Template(plan, np.sort(plan[-1, :, :2], axis=1))


def check_team_count(n: int) -> None:
    """Refuse, with InstanceError, team counts ``build_schedule`` does not
    serve: n must be an integer (read by ``errors.integer``) and a multiple
    of 4 from 8 up to the team matching's vertex limit, and its flip plan
    must stay within ceil(F_n), which ``_template``, the one flip count,
    decides; a fault of the planner passes through as SchedulingError."""
    n = integer(n, "n", InstanceError, "n must be an integer, got {value}")
    if n % 4 != 0:
        raise InstanceError(f"n must be divisible by 4, got {shown(n)}")
    if n < 8:
        raise InstanceError(f"n must be at least 8, got {shown(n)}")
    if n > SIZE_MAX:
        raise InstanceError(f"n must be at most {SIZE_MAX}, got {shown(n)}")
    _template(n // 2)


def build_schedule(inst: Instance) -> Schedule:
    """Full construction; deterministic for a given instance.

    Stages: match teams and pairs, then rename the per-size typed template
    to pairs.  Slot s is pair ``sigma[s]``: the template's last level and
    the super-pairs, both ascending (lo, hi) pairs, meet k-th to k-th and
    lo to lo.  The renamed plan, each level's blocks in the order of their
    lower pair (each pair plays once per level; one ``argsort`` per build
    orders every level), is the schedule's plan array, and it is expanded
    on the team pairs in two ``expand_block`` calls, the non-final levels'
    4-day blocks and then the final level's 6-day blocks; the teams of the
    expanded days go, day by day, block by block, as one int64 array
    straight into the schedule's normal form.  The schedule makes its
    ``Fixture`` days and its levels only when they are read.  Typing
    happens in slot space, where the flip plan lives: re-deriving roles
    from pair numbering after relabeling can cost extra flips.  The
    template was checked once for its size, and ``build_super_graph``
    refuses team pairs that do not cover the teams; the super-pairs are
    checked here, a perfect matching of the pairs, so that sigma is a
    bijection onto them.
    """
    check_team_count(inst.n)
    n, m = inst.n, inst.n // 2
    team_pairs = min_weight_perfect_matching(inst.dist)
    super_pairs = super_pair_matching(build_super_graph(inst, team_pairs))
    if not super_pairs.covers(m):
        raise SchedulingError(f"super-pairs {shown([list(p) for p in super_pairs.pairs])} "
                              f"are not a perfect matching of the pairs 0..{m - 1}")
    template = _template(m)
    sigma = np.empty(m, np.int64)
    sigma[template.last] = super_pairs.pairs
    plan = template.plan.copy()
    plan[..., :2] = sigma[plan[..., :2]]
    # each level's blocks in the order of their lower pair
    order = np.minimum(plan[..., 0], plan[..., 1]).argsort(axis=1)
    plan = plan[np.arange(len(plan))[:, None], order]
    plan.flags.writeable = False
    # the non-final levels' 4-day blocks, then the final level's 6-day
    # blocks, each level's games put day by day, block by block, away first
    pairs = np.array(team_pairs.pairs, np.int64)
    games = (expand_block(plan[:-1], pairs).transpose(0, 2, 1, 3, 4),
             expand_block(plan[-1], pairs).transpose(1, 0, 2, 3))
    teams = np.concatenate([g.ravel() for g in games])
    sched = Schedule.__new__(Schedule)
    # every day holds n/2 games, n teams
    vars(sched).update(n=n, team_pairs=team_pairs, super_pairs=super_pairs, _plan=plan,
                       _array=_normal_form(teams, [n // 2] * (len(teams) // n), n))
    return sched


# --- serialization ----------------------------------------------------------
#
# A game, a block and a level's head in the stored form, indented as
# ``json.dumps(..., indent=2)`` indents them there: a game in a day in
# ``"days"``, a block in a level in ``"levels"``.

_GAME = '{\n        "away": %d,\n        "home": %d\n      }'
_BLOCK = '{\n          "a_pair": %d,\n          "b_pair": %d,\n          "type": %d\n        }'
_LEVEL_HEAD = '{\n      "round": %d,\n      "level": %d,\n      "blocks": '


def _json_list(items: list[str], depth: int) -> str:
    """A JSON list of ``items``, texts indented by ``depth`` spaces, as
    ``json.dumps(..., indent=2)`` lays it out: ``[]`` when empty, else one
    item per line and the closing bracket two spaces less indented."""
    if not items:
        return "[]"
    pad = "\n" + " " * depth
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def schedule_to_json(sched: Schedule) -> str:
    """The stored form of ``sched``, its one writer: a JSON object whose
    keys are, in this order, ``"n"``; ``"days"``, a list per day of
    ``{"away": a, "home": h}`` games, empty days kept; ``"levels"``, one
    ``{"round", "level", "blocks"}`` per level of the plan, each block
    ``{"a_pair", "b_pair", "type"}`` in pairs (none for a schedule without
    a plan); ``"flips"``, the Type-2 count; and ``"team_pairs"`` and
    ``"super_pairs"``, each ``{"pairs": [[a, b], ...], "weight": w}`` or
    null.  It is laid out as ``json.dumps(..., indent=2)`` lays it out,
    two spaces per level of nesting, every game, block and matching pair
    over several lines, and ends in a newline.  The days are written by
    one format string, ``_GAME`` once per game, read from the normal form,
    and the levels by another, ``_BLOCK`` once per block, read from the
    plan, so a built schedule's ``days`` and ``levels`` stay unmade; only
    the flip count and the matchings go through ``json.dumps``."""
    g = sched._array
    teams = np.column_stack((g.away, g.home)).ravel().tolist()
    counts = np.bincount(g.day, minlength=len(g.games)).tolist()
    days = _json_list([_json_list([_GAME] * count, 6) for count in counts], 4)
    levels, blocks = sched._plan.shape[:2]
    plan = _json_list([_LEVEL_HEAD + _json_list([_BLOCK] * blocks, 8) + "\n    }"] * levels, 4)
    labels = np.array(_round_labels(sched.n)[:levels], np.int64).reshape(levels, 2)
    numbers = np.hstack((labels, sched._plan.reshape(levels, 3 * blocks))).ravel().tolist()
    rest: dict = {"flips": sched.flips}
    for key, pm in (("team_pairs", sched.team_pairs), ("super_pairs", sched.super_pairs)):
        rest[key] = None if pm is None else {
            "pairs": [list(p) for p in pm.pairs], "weight": pm.weight}
    return ('{\n  "n": %d,\n  "days": %s,\n  "levels": %s,\n' % (
        sched.n, days % tuple(teams), plan % tuple(numbers))
        + json.dumps(rest, indent=2)[2:] + "\n")   # past its "{\n", the last keys


def schedule_to_dict(sched: Schedule) -> dict:
    """The stored form of ``sched`` as JSON values: the text
    ``schedule_to_json`` writes, read back by ``json.loads``.  Every number
    is a plain int but the weights, floats."""
    return json.loads(schedule_to_json(sched))


_AWAY = itemgetter("away")
_HOME = itemgetter("home")
_LABEL = itemgetter("round", "level")
_BLOCKS = itemgetter("blocks")
_BLOCK_ENDS = itemgetter("a_pair", "b_pair", "type")


def _block_from_dict(b) -> SuperMatch:
    try:
        return SuperMatch(b["a_pair"], b["b_pair"], b["type"])
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"block {shown(b)}: {exc}") from None


def _read_levels(levels: list) -> tuple[list, np.ndarray | list[int], list[int]]:
    """The (labels, rows, sizes) of stored ``levels``, as ``_check_plan``
    takes them.  Every label and block number is read in one flat pass, the
    blocks' into one int64 array checked in bulk: plain ints, two pairs per
    block, a type of 1, 2 or 3.  Anything else, from a missing field to a
    float, is read level by level, block by block, through ``LevelPlan``
    and ``SuperMatch``, which name the first fault or read what plain ints
    do not hold."""
    try:
        labels = list(map(_LABEL, levels))
        blocks = list(map(_BLOCKS, levels))
        sizes = list(map(len, blocks))
        rows = list(itertools.chain.from_iterable(
            map(_BLOCK_ENDS, itertools.chain.from_iterable(blocks))))
        if set(map(type, itertools.chain(rows, *labels))) <= {int}:
            flat = np.array(rows, np.int64)
            a, b, t = flat.reshape(-1, 3).T
            if not ((a == b).any() or ((t < 1) | (t > 3)).any()):
                return labels, flat, sizes
    except (KeyError, TypeError, OverflowError):
        pass
    return _plan_parts(tuple(LevelPlan(round=lv["round"], level=lv["level"],
                                       super_matches=map(_block_from_dict, lv["blocks"]))
                             for lv in levels))


def schedule_from_dict(obj: dict) -> Schedule:
    """Schedule from its ``schedule_to_dict`` form, the one reader of that
    form.  It reads the stored plan's fields (``_read_levels``) and hands
    the matchings to ``PairMatching``, which reads its own numbers, and
    raises ValidationError, with the prefix ``malformed schedule JSON:``,
    when a field is missing or a value is refused, by ``errors.integer``
    or by those types; and when a stored ``"flips"`` differs from the
    levels' Type-2 count.  The ``Schedule`` it makes refuses the rest in
    the same way: a stored plan that contradicts itself (``_check_plan``,
    in bulk), then a team that plays itself or lies outside 0..n-1.

    The stored games are read in one flat pass: every ``"away"``, then
    every ``"home"``, then, unless all are plain ints, each through
    ``integer`` in game order.  Those teams and each stored day's length
    go straight into the normal form, and the blocks into the plan array:
    the schedule makes its ``Fixture`` days and its ``LevelPlan`` and
    ``SuperMatch`` levels from those when they are first read.  Of two
    faults in the games, a missing field is named before a team it refuses,
    and a missing ``"away"`` before a missing ``"home"``."""
    try:
        n = integer(obj["n"], "n")
        stored = list(map(list, obj["days"]))
        games = list(itertools.chain.from_iterable(stored))
        away = list(map(_AWAY, games))
        home = list(map(_HOME, games))
        teams = list(itertools.chain.from_iterable(zip(away, home)))
        if not set(map(type, teams)) <= {int}:
            teams = list(map(integer, teams, itertools.cycle(("away", "home"))))
        labels, rows, sizes = _read_levels(list(obj.get("levels", [])))
        stored_flips = integer(obj["flips"], "flips") if "flips" in obj else None
        team_pairs, super_pairs = (
            None if (pm := obj.get(key)) is None else PairMatching(pm["pairs"], pm["weight"])
            for key in ("team_pairs", "super_pairs"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, KeyError):
            raise ValidationError(f"malformed schedule JSON: missing field {exc}") from None
        raise ValidationError(f"malformed schedule JSON: {exc}") from None
    flips = _flip_count(rows[2::3])
    if stored_flips is not None and stored_flips != flips:
        raise ValidationError(f"stored flips {shown(stored_flips)} differ from the "
                              f"{flips} Type-2 blocks in the levels")
    return Schedule._from_teams(n, teams, list(map(len, stored)), (labels, rows, sizes),
                                team_pairs, super_pairs)


def schedule_from_json(text: str) -> Schedule:
    return schedule_from_dict(load_json(text, ValidationError, "invalid schedule JSON"))


def format_level_table(sched: Schedule) -> str:
    """Per-level rows in the style 'M_1 --Type-1--> M_2' (1-based pairs)."""
    lines = []
    for lp in sched.levels:
        lines.append(f"Round {lp.round} Level {lp.level}:")
        for sm in sorted(lp.super_matches, key=lambda s: s.key):
            lines.append(f"  M_{sm.a_pair + 1} --Type-{sm.block_type}--> M_{sm.b_pair + 1}")
    return "\n".join(lines) + "\n"

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
4. Expand levels to fixtures: level k starts on day 4k; non-final levels
   are 4-day blocks, the final level is the 6-day block with the intra-pair
   games.  Day count is 4(m-2) + 6 = 2n-2.  The blocks are expanded as the
   per-size template holds them, on slots, each slot standing for its pair;
   a built schedule keeps that plan, and every schedule names its levels
   in pairs only when they are first read.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
from typing import Optional

import numpy as np

from .analysis import flip_budget
from .blocks import Fixture, SuperMatch, expand_block
from .errors import (InstanceError, SchedulingError, ValidationError, integer, load_json,
                     shown, team_count)
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
    Every schedule holds its plan only as ``_blocks``, level k's blocks on
    slots (a build's template blocks, in the order of their lower pair),
    and ``_sigma``, the slot → pair map (for a schedule not built, slot s
    is pair s), and its days only as the normal form; it makes ``levels``
    and ``days`` from them the first time they are read.  The readers work
    from the normal form alone.  Once judged, a schedule keeps its report
    too."""

    n: int
    days: tuple[tuple[Fixture, ...], ...]
    # a factory, not a class-level default, which would hide ``levels``
    # from ``__getattr__``
    levels: tuple[LevelPlan, ...] = field(default_factory=tuple)
    team_pairs: Optional[PairMatching] = None
    super_pairs: Optional[PairMatching] = None

    def __post_init__(self) -> None:
        n = self._read_plan(vars(self).pop("levels"))
        teams, counts = _fixture_teams(vars(self).pop("days"))
        object.__setattr__(self, "_array", _normal_form(teams, counts, n))

    @classmethod
    def _from_teams(cls, n, teams: list[int], counts: list[int], levels=(),
                    team_pairs: Optional[PairMatching] = None,
                    super_pairs: Optional[PairMatching] = None) -> Schedule:
        """The schedule of the games whose teams ``teams`` lists, away
        first, flattened, with ``counts[d]`` games on day d: plain ints, as
        a stored form's reader makes them.  It refuses what
        ``Schedule(n, days)`` of the same games refuses, in the same
        order."""
        sched = cls.__new__(cls)
        vars(sched).update(n=n, team_pairs=team_pairs, super_pairs=super_pairs)
        n = sched._read_plan(levels)
        object.__setattr__(sched, "_array", _normal_form(teams, counts, n))
        return sched

    def _read_plan(self, levels) -> int:
        """Read the team count and the plan, check the plan against the
        count, keep the count as read and ``levels`` as blocks on slots
        that are their pairs, and return the count."""
        if self.n is None:
            raise ValidationError("a Schedule needs its team count n, got None")
        n = team_count(self.n, ValidationError)
        levels = _tuple_of(LevelPlan, levels, "levels")
        _check_plan(n, levels, self.team_pairs, self.super_pairs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_blocks", tuple(lp.super_matches for lp in levels))
        object.__setattr__(self, "_sigma", range(n // 2))
        return n

    def __getattr__(self, name: str):
        # only ``days`` and ``levels`` are looked up here, until first read
        if name == "days" and "_array" in vars(self):
            value = _fixture_days(self._array)
        elif name == "levels" and "_blocks" in vars(self):
            value = _pair_levels(self)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

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
        return _flip_count(self._blocks)


def _flip_count(levels) -> int:
    """The Type-2 count of ``levels``, each an iterable of blocks."""
    return sum(sm.block_type == 2 for blocks in levels for sm in blocks)


def _pair_levels(sched: Schedule) -> tuple[LevelPlan, ...]:
    """A schedule's plan in pairs, as ``_stored_levels`` reads it."""
    return tuple(LevelPlan(round=r, level=l,
                           super_matches=tuple(itertools.starmap(SuperMatch, blocks)))
                 for r, l, blocks in _stored_levels(sched))


def _check_plan(n: int, levels, team_pairs: Optional[PairMatching],
                super_pairs: Optional[PairMatching]) -> None:
    """Refuse with ValidationError a plan that contradicts itself: team
    pairs or super-pairs that are no ``PairMatching`` of all the teams
    0..n-1 or pairs 0..n/2 - 1, or, when levels are stored, other than
    n/2 - 1 levels labeled by ``_round_labels(n)``, each naming every pair
    0..n/2 - 1 once (so n/4 blocks), or super-pairs not the last level's."""
    for key, pm, what, m in (("team_pairs", team_pairs, "teams", n),
                             ("super_pairs", super_pairs, "pairs", n // 2)):
        if pm is not None and not isinstance(pm, PairMatching):
            raise ValidationError(f"{key} must be a PairMatching or None, got {shown(pm)}")
        if pm is not None and not pm.covers(m):
            raise ValidationError(f"stored {key} {shown([list(p) for p in pm.pairs])} are "
                                  f"not a perfect matching of the {what} 0..{m - 1}")
    if not levels:
        return
    if 2 * (len(levels) + 1) != n:
        raise ValidationError(f"stored levels: {len(levels)} level(s), "
                              f"expected n/2 - 1 = {n / 2 - 1:g}")
    pairs = list(range(n // 2))
    for k, (lp, (r, l)) in enumerate(zip(levels, _round_labels(n))):
        if (lp.round, lp.level) != (r, l):
            raise ValidationError(f"stored levels: level {k + 1} is labeled round {shown(lp.round)}"
                                  f" level {shown(lp.level)}, expected round {r} level {l}")
        ends = map(attrgetter("a_pair", "b_pair"), lp.super_matches)
        named = sorted(itertools.chain.from_iterable(ends))
        if named != pairs:
            raise ValidationError(f"stored levels: level {k + 1} names pairs {shown(named)}, "
                                  f"expected each of 0..{len(pairs) - 1} once")
    last = sorted(sm.key for sm in levels[-1].super_matches)
    if super_pairs is not None and sorted(tuple(sorted(p)) for p in super_pairs.pairs) != last:
        raise ValidationError(f"stored super_pairs {shown(list(super_pairs.pairs))} differ "
                              f"from the pairs {shown(last)} of the last level")


def _block_type_violations(sched: Schedule) -> tuple[tuple[Violation, ...], int]:
    """The first ``REPORT_LIMIT`` stored block types of ``sched`` that
    contradict their level or its days, and the count of all of them.

    Every level but the last holds Type-1 or Type-2 blocks, the last only
    Type-3.  Where team pairs are stored, the days are checked too: level k
    starts on day 4k, and on its second day, 4k+1, the A pair's lower team
    plays away in a Type-1 block and at home in a Type-2 block
    (``blocks._LAYOUT``).  Levels past the last day are not checked against
    days; the day count check reports those schedules.  The check runs on
    the slots of the plan, each named by its pair, so a built schedule's
    ``levels`` are not made.
    """
    out, count, g = [], 0, sched._array
    levels, pair = sched._blocks, sched._sigma
    lower = (None if sched.team_pairs is None
             else [min(sched.team_pairs.pairs[p]) for p in pair])
    last = len(levels) - 1
    for k, blocks in enumerate(levels):
        allowed = (3,) if k == last else (1, 2)
        d = 4 * k + 1
        # who is at home on the level's second day, for non-final levels
        home = (g.at_home[d].tolist()
                if lower is not None and k < last and d < len(g.at_home) else None)
        for sm in blocks:
            a, b, btype = sm.a_pair, sm.b_pair, sm.block_type
            if btype in allowed and (home is None or home[lower[a]] == (btype == 2)):
                continue
            count += 1
            if len(out) == REPORT_LIMIT:
                continue
            if btype not in allowed:
                out.append(Violation(
                    constraint=S_BLOCK_TYPE, day=None, teams=(),
                    detail=f"level {k + 1} block of pairs {pair[a]} and {pair[b]} has type "
                           f"{btype}, expected {' or '.join(map(str, allowed))}"))
            else:
                t = lower[a]
                out.append(Violation(
                    constraint=S_BLOCK_TYPE, day=d, teams=(t,),
                    detail=f"team {t} of A pair {pair[a]} plays {'at home' if home[t] else 'away'} "
                           f"on day {d}, but its level-{k + 1} block is stored as Type-{btype}"))
    return tuple(out), count


# --- level template on "slots" ---------------------------------------------
#
# Levels are planned on abstract slots 0..m-1; a build maps each slot to a
# pair (sigma) and names its levels in pairs only when they are read.  The
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


@lru_cache(maxsize=None)
def _template(m: int) -> tuple[LevelPlan, ...]:
    """Instance-independent per-size plan on slots 0..m-1: m-1 labeled
    levels of typed, oriented SuperMatch(a_slot, b_slot, type), the last of
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
    plans = []
    for k, ((r, l), (level, flipped)) in enumerate(zip(_round_labels(n), levels)):
        flipped = _canon_level(flipped)
        matches = []
        for i, j in _canon_level(level):
            if is_a[i] == is_a[j]:
                raise SchedulingError(
                    f"internal: level {k + 1} pairs slots {i} and {j} on the same side")
            a, b = (i, j) if is_a[i] else (j, i)
            btype = 3 if k == last else (2 if (i, j) in flipped else 1)
            matches.append(SuperMatch(a_pair=a, b_pair=b, block_type=btype))
        for i, j in flipped:
            is_a[i], is_a[j] = is_a[j], is_a[i]
        plans.append(LevelPlan(round=r, level=l, super_matches=tuple(matches)))
    plans = tuple(plans)
    try:
        _check_plan(n, plans, None, None)
    except ValidationError as exc:
        raise SchedulingError(f"internal: {exc}") from None
    return plans


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

    Stages: match teams and pairs, then walk the per-size typed template
    once.  Slot s is pair ``sigma[s]``: the template's last level and the
    super-pairs, both ascending (lo, hi) pairs, meet k-th to k-th and lo to
    lo.  Each template block is expanded as it stands, on the team pairs of
    its slots, and each level's blocks in the order of their lower pair
    (each pair plays once per level); the teams of the expanded days go,
    day by day, straight into the schedule's normal form.  The schedule
    keeps the slot blocks in that order and sigma as its plan, and names
    its levels in pairs only when they are read.  Typing happens in slot
    space, where the flip plan lives: re-deriving roles from pair numbering
    after relabeling can cost extra flips.  The template was checked once
    for its size, and ``build_super_graph`` refuses team pairs that do not
    cover the teams; the super-pairs are checked here, a perfect matching of
    the pairs, so that sigma is a bijection onto them.
    """
    check_team_count(inst.n)
    n, m = inst.n, inst.n // 2
    team_pairs = min_weight_perfect_matching(inst.dist)
    super_pairs = super_pair_matching(build_super_graph(inst, team_pairs))
    if not super_pairs.covers(m):
        raise SchedulingError(f"super-pairs {shown([list(p) for p in super_pairs.pairs])} "
                              f"are not a perfect matching of the pairs 0..{m - 1}")
    plans = _template(m)
    sigma = [0] * m
    last = map(attrgetter("key"), plans[-1].super_matches)
    for (s_lo, s_hi), pair in zip(last, super_pairs.pairs):
        sigma[s_lo], sigma[s_hi] = pair
    slot_pairs = [team_pairs.pairs[p] for p in sigma]
    flat = itertools.chain.from_iterable
    blocks, teams = [], []
    for lp in plans:
        level = tuple(sorted(lp.super_matches,
                             key=lambda sm: min(sigma[sm.a_pair], sigma[sm.b_pair])))
        blocks.append(level)
        # day by day, block by block, fixture by fixture, away first
        days = zip(*(expand_block(sm, slot_pairs) for sm in level))
        teams += flat(flat(flat(days)))
    sched = Schedule.__new__(Schedule)
    # every day holds n/2 games, n teams
    vars(sched).update(n=n, team_pairs=team_pairs, super_pairs=super_pairs,
                       _sigma=tuple(sigma), _blocks=tuple(blocks),
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


def _stored_games(sched: Schedule) -> tuple[list[int], list[int]]:
    """The teams of every game, away first, flattened in day order, and
    each day's game count, read from the normal form."""
    g = sched._array
    return (np.column_stack((g.away, g.home)).ravel().tolist(),
            np.bincount(g.day, minlength=len(g.games)).tolist())


def _stored_levels(sched: Schedule) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
    """Each level of the plan as its round, its level and its blocks, each
    (a_pair, b_pair, type) in pairs: the slot blocks renamed through sigma,
    in the order they are held."""
    if not sched._blocks:
        return []
    sigma = sched._sigma
    return [(r, l, [(sigma[sm.a_pair], sigma[sm.b_pair], sm.block_type) for sm in blocks])
            for (r, l), blocks in zip(_round_labels(sched.n), sched._blocks)]


def _stored_rest(sched: Schedule) -> dict:
    """The stored form's last keys: the flip count and both matchings."""
    obj: dict = {"flips": sched.flips}
    for key, pm in (("team_pairs", sched.team_pairs), ("super_pairs", sched.super_pairs)):
        obj[key] = None if pm is None else {
            "pairs": [list(p) for p in pm.pairs], "weight": pm.weight}
    return obj


def schedule_to_dict(sched: Schedule) -> dict:
    """The stored form of ``sched`` as JSON values, keys in this order:
    ``"n"``; ``"days"``, a list per day of ``{"away": a, "home": h}``
    games, empty days kept; ``"levels"``, one ``{"round", "level",
    "blocks"}`` per level of the plan, each block ``{"a_pair", "b_pair",
    "type"}`` in pairs (none for a schedule without a plan); ``"flips"``,
    the Type-2 count; and ``"team_pairs"`` and ``"super_pairs"``, each
    ``{"pairs": [[a, b], ...], "weight": w}`` or None.  Every number is a
    plain int but the weights, floats.  It reads the normal form and the
    plan, so a built schedule's ``days`` and ``levels`` stay unmade."""
    teams, counts = _stored_games(sched)
    ends = iter(teams)
    games = iter([{"away": a, "home": h} for a, h in zip(ends, ends)])
    return {
        "n": sched.n,
        "days": [list(itertools.islice(games, count)) for count in counts],
        "levels": [{"round": r, "level": l,
                    "blocks": [{"a_pair": a, "b_pair": b, "type": t} for a, b, t in blocks]}
                   for r, l, blocks in _stored_levels(sched)],
        **_stored_rest(sched),
    }


def schedule_to_json(sched: Schedule) -> str:
    """``json.dumps(schedule_to_dict(sched), indent=2)`` and a newline, byte
    for byte: the stored form, two spaces per level of nesting, with every
    game, block and matching pair over several lines.  The days are written
    by one format string, ``_GAME`` once per game, and the levels by
    another, ``_BLOCK`` once per block, from the integers that
    ``schedule_to_dict`` reads; only the flip count and the matchings go
    through ``json.dumps``.  A built schedule's ``days`` and ``levels`` stay
    unmade."""
    teams, counts = _stored_games(sched)
    days = _json_list([_json_list([_GAME] * count, 6) for count in counts], 4)
    levels = _stored_levels(sched)
    plan = _json_list([_LEVEL_HEAD + _json_list([_BLOCK] * len(blocks), 8) + "\n    }"
                       for _, _, blocks in levels], 4)
    numbers = [x for r, l, blocks in levels for x in (r, l, *itertools.chain(*blocks))]
    rest = json.dumps(_stored_rest(sched), indent=2)   # "{\n" then the last keys
    return ('{\n  "n": %d,\n  "days": %s,\n  "levels": %s,\n' % (
        sched.n, days % tuple(teams), plan % tuple(numbers)) + rest[2:] + "\n")


_AWAY = itemgetter("away")
_HOME = itemgetter("home")


def _block_from_dict(b) -> SuperMatch:
    try:
        return SuperMatch(b["a_pair"], b["b_pair"], b["type"])
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"block {shown(b)}: {exc}") from None


def schedule_from_dict(obj: dict) -> Schedule:
    """Schedule from its ``schedule_to_dict`` form, the one reader of that
    form.  It hands the stored plan's fields to ``LevelPlan``,
    ``SuperMatch`` and ``PairMatching``, which read their own numbers, and
    raises ValidationError, with the prefix ``malformed schedule JSON:``,
    when a field is missing or a value is refused, by ``errors.integer``
    or by those types; and when a stored ``"flips"`` differs from the
    levels' Type-2 count.  The ``Schedule`` it makes refuses the rest in
    the same way: a stored plan that contradicts itself (``_check_plan``),
    then a team that plays itself or lies outside 0..n-1.

    The stored games are read in one flat pass: every ``"away"``, then
    every ``"home"``, then, unless all are plain ints, each through
    ``integer`` in game order.  Those teams and each stored day's length
    go straight into the normal form: the schedule makes its ``Fixture``
    days from that form when they are first read.  Of two faults in the
    games, a missing field is named before a team it refuses, and a
    missing ``"away"`` before a missing ``"home"``."""
    try:
        n = integer(obj["n"], "n")
        stored = list(map(list, obj["days"]))
        games = list(itertools.chain.from_iterable(stored))
        away = list(map(_AWAY, games))
        home = list(map(_HOME, games))
        teams = list(itertools.chain.from_iterable(zip(away, home)))
        if not set(map(type, teams)) <= {int}:
            teams = list(map(integer, teams, itertools.cycle(("away", "home"))))
        levels = tuple(LevelPlan(round=lv["round"], level=lv["level"],
                                 super_matches=map(_block_from_dict, lv["blocks"]))
                       for lv in obj.get("levels", []))
        stored_flips = integer(obj["flips"], "flips") if "flips" in obj else None
        team_pairs, super_pairs = (
            None if (pm := obj.get(key)) is None else PairMatching(pm["pairs"], pm["weight"])
            for key in ("team_pairs", "super_pairs"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, KeyError):
            raise ValidationError(f"malformed schedule JSON: missing field {exc}") from None
        raise ValidationError(f"malformed schedule JSON: {exc}") from None
    flips = _flip_count(lp.super_matches for lp in levels)
    if stored_flips is not None and stored_flips != flips:
        raise ValidationError(f"stored flips {shown(stored_flips)} differ from the "
                              f"{flips} Type-2 blocks in the levels")
    return Schedule._from_teams(n, teams, list(map(len, stored)), levels, team_pairs,
                                super_pairs)


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

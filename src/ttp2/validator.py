"""Ground-truth feasibility checks for double round-robin schedules with
home-stand/away-trip cap 2.

The checker judges days only, and is deliberately independent of the
construction code.  It takes one input, a ``Schedule``: every other form
is made into one first, raw day lists with ``Schedule(n, days)``, day-list
text with ``parse_day_list`` and a stored schedule dict with
``schedule_from_dict``.  A ``Schedule`` reads its games once, when it is
made, into one normal form (``ScheduleArray``) through ``_normal_form``,
which nothing but ``Schedule`` calls, and keeps the verdict once judged;
every verdict is re-derived from the fixtures alone.  ``Schedule(n,
days)`` reads its days through ``_fixture_teams`` first; a build and the
two stored forms hand their team integers to ``_normal_form`` directly.
Day-list text reaches it as one int64 array, its teams converted by one
numpy call.  Every schedule holds only its normal form, and makes its
``Fixture`` days from it (``_fixture_days``) when they are first read.
What a ``Schedule`` stores besides its days, the plan they were expanded
from, held once as one read-only int array of blocks, is ``scheduler``'s
to check.  Every violation is counted, exactly, but a
report keeps only the first ``REPORT_LIMIT`` of each constraint, in order,
so that its size does not grow as n squared.  Travel evaluation in
``analysis`` reads the same normal form.

Every integer a schedule carries, in memory or stored, is read by
``errors.integer``, the one rule, and a team count, given or inferred from
day-list text, is at most ``TEAMS_MAX``, as instances are.  A fixture
is an ordered ``(away, home)`` pair (a set, a dict or a string is
refused), and day-list text writes teams in ASCII digits only, of no more
digits than ``int`` reads.  A team past int64, in any form, is refused as
any team outside 0..n-1 is, named with its day.  This module sets no
attribute on anything it is given.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate, chain, islice
from typing import TYPE_CHECKING, Optional

import numpy as np

from .blocks import Fixture, _fixtures
from .errors import TEAMS_MAX, ValidationError, integer, overlong_integer, shown

if TYPE_CHECKING:
    from .scheduler import Schedule

C1 = "C1_double_round_robin"
C2 = "C2_repeater"
C4 = "C4_max_run"
S_DAY_COUNT = "structural_day_count"
S_ONE_GAME = "structural_one_game_per_day"

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Violation:
    constraint: str
    day: Optional[int]
    teams: tuple[int, ...]
    detail: str


# violations kept per constraint in a report; each constraint's count stays exact
REPORT_LIMIT = 100


@dataclass(frozen=True)
class ViolationReport:
    """``counts`` holds each violated constraint with its exact number of
    violations, in report order; ``violations`` keeps the first
    ``REPORT_LIMIT`` of each."""

    violations: tuple[Violation, ...]
    counts: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.counts

    @property
    def total(self) -> int:
        return sum(count for _, count in self.counts)

    def by_constraint(self, constraint: str) -> list[Violation]:
        return [v for v in self.violations if v.constraint == constraint]


@dataclass(frozen=True, eq=False)
class ScheduleArray:
    """A schedule in normal form, as a ``Schedule`` reads and keeps it.

    ``day``, ``away`` and ``home`` list every fixture in input order.  The
    days x teams arrays describe each team's day as set by the first fixture
    of that day naming it: ``opponent`` (-1 on a day without a game) and
    ``at_home``; ``games`` counts every fixture naming the team.  The
    arrays are read-only, in a copy or an unpickled form too.
    """

    n: int
    day: np.ndarray
    away: np.ndarray
    home: np.ndarray
    opponent: np.ndarray
    at_home: np.ndarray
    games: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.day, self.away, self.home, self.opponent, self.at_home, self.games):
            arr.flags.writeable = False

    def __reduce__(self):   # copies and unpickled forms are made by the constructor too
        return ScheduleArray, tuple(getattr(self, f.name) for f in fields(self))


def _fixture_ends(fx) -> tuple[int, int]:
    try:
        # characters, keys or set members (in hash order) are no ordered pair
        if isinstance(fx, (str, bytes, dict, set, frozenset)):
            raise TypeError
        away, home = fx
        return integer(away, "away"), integer(home, "home")
    except (TypeError, ValueError):
        raise ValidationError(f"malformed fixture {shown(fx)}") from None


def _items(seq, what: str):
    """An iterator over ``seq``, refusing a non-iterable one with
    ValidationError."""
    try:
        return iter(seq)
    except TypeError:
        raise ValidationError(f"malformed {what} {shown(seq)}: not a sequence") from None


def _fixture_teams(days) -> tuple[list[int], list[int]]:
    """Both teams of every fixture of ``days``, away first, flattened in
    input order, and the number of fixtures on each day.  ``days``, a
    generator of days included, is read once, fixture by fixture, through
    ``_fixture_ends``."""
    teams, counts = [], []
    for day in _items(days, "days"):
        ends = list(map(_fixture_ends, _items(day, "day")))
        teams += chain.from_iterable(ends)
        counts.append(len(ends))
    return teams, counts


def _normal_form(teams, counts: list[int], n: int) -> ScheduleArray:
    """The normal form on ``n`` teams, a count ``errors.team_count`` has
    read, of the games whose teams ``teams`` lists, away first, flattened
    in input order, with ``counts[d]`` games on day d; every ``Schedule``
    is read through here once, when it is made.  ``teams`` is a list of
    ints or, as the day-list reader makes it, an int64 array, taken as it
    is.  Raises ValidationError for a team past int64, then for n < 2, then
    for a team that plays itself or lies outside 0..n-1, in game order."""
    if isinstance(teams, np.ndarray):
        flat = teams.reshape(-1, 2)
    else:
        try:
            flat = np.fromiter(teams, np.int64, len(teams)).reshape(-1, 2)
        except OverflowError:
            g = next(g for g, t in enumerate(teams) if not _INT64_MIN <= t <= _INT64_MAX)
            d = bisect_right(list(accumulate(counts)), g // 2)
            raise ValidationError(f"team {shown(teams[g])} out of range on day {d} (n={n})") from None
    num_days = len(counts)
    day = np.repeat(np.arange(num_days), counts)
    if n < 2:
        raise ValidationError(f"team count must be at least 2, got {shown(n)}")
    away, home = flat[:, 0], flat[:, 1]
    bad = (away == home) | (np.minimum(away, home) < 0) | (np.maximum(away, home) >= n)
    if bad.any():
        g = int(bad.argmax())
        a, h, d = int(away[g]), int(home[g]), int(day[g])
        if a == h:
            raise ValidationError(f"team {a} plays itself on day {d}")
        raise ValidationError(f"team {a if not 0 <= a < n else h} out of range on day {d} (n={n})")

    # both ends of every fixture in input order, away end first (even
    # position) and home end second; each (day, team) takes the first end
    # naming it, and one with no end the even position past the last, whose
    # opponent is -1
    key = np.repeat(day, 2) * n + flat.ravel()
    size = num_days * n
    first = np.full(size, key.size)
    np.minimum.at(first, key, np.arange(key.size))
    opponent = np.append(flat[:, ::-1].ravel(), -1)[first]
    shape = (num_days, n)
    return ScheduleArray(n=n, day=day, away=away, home=home,
                         opponent=opponent.reshape(shape),
                         at_home=(first % 2 == 1).reshape(shape),
                         games=np.bincount(key, minlength=size).reshape(shape))


def _fixture_days(g: ScheduleArray) -> tuple[tuple[Fixture, ...], ...]:
    """The days of ``g``: a tuple of day tuples of ``Fixture`` values of
    plain ints, empty days kept."""
    fixtures = _fixtures(zip(g.away.tolist(), g.home.tolist()))
    counts = np.bincount(g.day, minlength=len(g.games)).tolist()
    return tuple(tuple(islice(fixtures, count)) for count in counts)


# a day's games: away@home tokens of ASCII digits, separated by whitespace
_GAMES = re.compile(r"\s*+(?:[0-9]++@[0-9]++(?:\s++|\Z))*+")


def parse_day_list(text: str, n: Optional[int] = None) -> Schedule:
    """The plain-text day format as a ``Schedule`` of ``n`` teams, by
    default the largest team the text names plus one.

    Lines read 'day k: a@h a@h ...' (the 'day k:' prefix is optional; teams
    are 0-based integers in ASCII digits); blank lines and lines starting
    with '#' are skipped.  Every line is checked first, in order; then the
    teams of the whole text are read in one numpy conversion, into an int64
    array (``_day_list_teams``; text numpy may misread, a team past int64
    or a separator it does not know, is read token by token instead), and
    go, with each line's game count, straight into the normal form: the
    schedule makes its ``Fixture`` days from that form when they are first
    read.  ValidationError for a line it cannot read, for a team of more
    digits than ``int`` reads, for text naming no team without ``n``, and
    for what ``Schedule(n, days)`` of the same games refuses, in the same
    order.
    """
    from .scheduler import Schedule   # scheduler imports this module
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line:
            prefix, line = line.split(":", 1)
            if not prefix.strip().lower().startswith("day"):
                raise ValidationError(f"unrecognized day prefix {shown(prefix)}")
        if not _GAMES.fullmatch(line):
            bad = next(token for token in line.split() if not _GAMES.fullmatch(token))
            raise ValidationError(f"non-integer team in token {shown(bad)}" if "@" in bad else
                                  f"malformed game token {shown(bad)} (expected away@home)")
        lines.append(line)
    games = " ".join(lines)
    counts = [line.count("@") for line in lines]
    teams = _day_list_teams(games, 2 * sum(counts))
    if n is None:
        if not len(teams):
            raise ValidationError("cannot infer team count from an empty schedule")
        # numpy would read a list's team past int64 as a float
        n = (max(teams) if isinstance(teams, list) else int(teams.max())) + 1
    return Schedule._from_teams(n, teams, counts)


def _day_list_teams(games: str, count: int):
    """The ``count`` teams of ``games``, checked away@home tokens joined by
    whitespace, in order: an int64 array from one numpy conversion, or,
    where that may misread them, a list of ints read token by token.
    numpy saturates a team past int64 and stops at a separator C's
    ``isspace`` does not know but ``\\s`` does (``\\x1c``-``\\x1f``, Unicode
    spaces), and reads whitespace alone as one 0; a saturated maximum or
    another count than ``count`` sends the text to the token reader."""
    spaced = games.replace("@", " ")
    try:
        teams = np.fromstring(spaced, np.int64, sep=" ")
        if len(teams) == count and not (count and teams.max() == _INT64_MAX):
            return teams
    except ValueError:   # a separator numpy does not read
        pass
    tokens = spaced.split()
    try:
        # a day list names each team many times: convert each distinct token once
        value = {token: int(token) for token in set(tokens)}
    except ValueError:   # only a team past int's digit limit gets here
        raise ValidationError(f"team {overlong_integer(games)}") from None
    return list(map(value.__getitem__, tokens))


def _schedule(sched, n: Optional[int] = None) -> Schedule:
    """``sched`` if it is a ``Schedule``, of ``n`` teams where ``n`` is
    given; ValidationError if not.  Every reader of a schedule checks its
    input here."""
    from .scheduler import Schedule   # scheduler imports this module
    if not isinstance(sched, Schedule):
        raise ValidationError(f"expected a Schedule, got a {type(sched).__name__}: make one "
                              "with Schedule(n, days), parse_day_list or schedule_from_dict")
    if n is not None and sched.n != n:
        raise ValidationError(f"schedule n={sched.n} does not match the expected n={n}")
    return sched


def validate_schedule(sched) -> ViolationReport:
    """Check structure plus the three feasibility constraints.

    ``sched`` is a ``Schedule``, which refused malformed days (a team out
    of range, a team playing itself) when it was made; rule violations are
    collected into the report.  A ``Schedule`` is judged once and keeps
    its report, which it completes with what it finds wrong in its stored
    plan.
    """
    return _schedule(sched)._report


def _validate(g: ScheduleArray) -> ViolationReport:
    """``validate_schedule`` on ``g``, a schedule already read: every
    constraint's violations are counted, and the first ``REPORT_LIMIT`` of
    each are made ``Violation`` values."""
    n = g.n
    num_days = g.games.shape[0]
    violations: list[Violation] = []
    counts: dict[str, int] = {}
    expected_days = 2 * n - 2
    if num_days != expected_days:
        counts[S_DAY_COUNT] = 1
        violations.append(Violation(
            constraint=S_DAY_COUNT, day=None, teams=(),
            detail=f"{num_days} days, expected {expected_days}"))

    # one game per team per day
    found = np.argwhere(g.games != 1)
    counts[S_ONE_GAME] = len(found)
    for d, t in found[:REPORT_LIMIT].tolist():
        c = int(g.games[d, t])
        violations.append(Violation(
            constraint=S_ONE_GAME, day=d, teams=(t,),
            detail=f"team {t} plays {c} games on day {d}"))

    # C1: each ordered (away, home) pair exactly once; ``seen`` is flat,
    # pair (i, j) at i * n + j
    seen = np.bincount(g.away * n + g.home, minlength=n * n)
    seen[::n + 1] = 1
    found = np.flatnonzero(seen != 1)
    counts[C1] = len(found)
    for code in found[:REPORT_LIMIT].tolist():
        i, j = divmod(code, n)
        c = int(seen[code])
        violations.append(Violation(
            constraint=C1, day=None, teams=(i, j),
            detail=f"{i}@{j} occurs {c} times (expected 1)"))

    # C2: no pair meets on consecutive days (venue-blind); a meeting is
    # coded (day * n + lo) * n + hi, so the day before is n * n lower.  A
    # code found the day before is reported once, at the first of its run
    # of equal codes.
    met = np.sort((g.day * n + np.minimum(g.away, g.home)) * n + np.maximum(g.away, g.home))
    before = met - n * n
    repeat = met[np.searchsorted(met, before)] == before
    repeat[1:] &= met[1:] != met[:-1]
    found = met[repeat]
    counts[C2] = len(found)
    for code in found[:REPORT_LIMIT].tolist():
        d, pair = code // (n * n), divmod(code % (n * n), n)
        violations.append(Violation(
            constraint=C2, day=d, teams=pair,
            detail=f"teams {pair[0]} and {pair[1]} meet on days {d - 1} and {d}"))

    # C4: no 3 consecutive home or away days; one violation per run, on
    # the run's third day.  Symbols: 0 no game, 1 away, 2 home.
    sym = np.where(g.opponent < 0, 0, np.where(g.at_home, 2, 1))
    third = (sym[2:] != 0) & (sym[2:] == sym[1:-1]) & (sym[2:] == sym[:-2])
    third[1:] &= sym[3:] != sym[:-3]
    found = np.argwhere(third.T)
    counts[C4] = len(found)
    for t, k in found[:REPORT_LIMIT].tolist():
        kind = "away" if sym[k + 2, t] == 1 else "home"
        violations.append(Violation(
            constraint=C4, day=k + 2, teams=(t,),
            detail=f"team {t} has 3 consecutive {kind} games ending day {k + 2}"))
    return ViolationReport(violations=tuple(violations),
                           counts=tuple((c, k) for c, k in counts.items() if k))

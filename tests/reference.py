"""Independent references the tests compare the package against.

Nothing here shares logic with the constructor: day slates are enumerated
directly and feasibility is enforced game by game, so agreement between
these searches and the scheduler is meaningful evidence.  The two matching
references, full enumeration and subset dynamic programming, share only
input validation with the blossom solver in ``ttp2.matching``.  ``c2_repeats``
finds back-to-back meetings with sets, day by day.  ``parse_day_list_per_line``
reads day-list text line by line, each line into its day at once, and
``first_seen`` describes each team's day by its first fixture with a plain
loop; the package reads both in flat passes.  The flip DP
(``min_flip_plan``) searches every A/B coloring of a level sequence for the
fewest flips; the scheduler's explicit per-group flip rule is compared
against it, and its flip count against the closed form
``rule_flip_count``.  ``expand_block_sorted`` and ``exact_integers_frexp``
do what ``blocks.expand_block`` and ``matching._exact_integers`` do, by
sorting a copy of each pair and by decomposing every weight with
``np.frexp``, with no shortcut for integer weights; the first shares the
block layouts.  ``stored_dict`` builds a schedule's stored form as dicts
from the public ``days``, ``levels``, ``flips`` and matchings alone, and
``schedule_to_json_dumps`` writes that dict with the standard library's
encoder; ``schedule_to_dict`` must equal the first and
``schedule_to_json`` the second byte for byte.  ``block_travel`` holds
the closed forms of one block's travel, each team starting and ending at
home, and ``far_pair`` the metric on which the default build's travel
ratio is worst.  ``day_list_teams_per_token`` converts day-list teams
token by token, each distinct token once through ``int``, where the
package reads them in one numpy conversion; ``schedule_from_dict_per_block``
reads a stored plan as one ``LevelPlan`` per level and one ``SuperMatch``
per block and checks it level by level (``check_plan_per_level``), where
the package reads and checks one int array in bulk.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ttp2 import (Fixture, Instance, LevelPlan, MatchingError, PairMatching, Schedule,
                  SchedulingError, SuperMatch, TTP2Error, ValidationError, total_travel)
from ttp2.blocks import _ROLES, _fixtures
from ttp2.errors import integer, overlong_integer, shown, team_count
from ttp2.matching import _validated_weights
from ttp2.scheduler import _round_labels

BRUTE_FORCE_MATCHING_MAX = 12
DP_MATCHING_MAX = 22   # subset DP states grow as about 1.62^m


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    schedule: Schedule
    explored: int          # complete schedules examined


def _all_pairings(teams: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    if not teams:
        return [()]
    v, rest = teams[0], teams[1:]
    out = []
    for i, u in enumerate(rest):
        remainder = rest[:i] + rest[i + 1:]
        for tail in _all_pairings(remainder):
            out.append(((v, u),) + tail)
    return out


def _day_slates(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every possible day: a perfect pairing of the teams with venues chosen.
    Slates are canonicalized (games sorted) and listed in lexicographic
    order, so exploration order is reproducible."""
    slates = set()
    for pairing in _all_pairings(tuple(range(n))):
        for venues in itertools.product((0, 1), repeat=len(pairing)):
            games = []
            for (i, j), flip in zip(pairing, venues):
                games.append((i, j) if flip == 0 else (j, i))  # (away, home)
            slates.add(tuple(sorted(games)))
    return sorted(slates)


class _Search:
    """Day-by-day DFS over slates with feasibility and cost pruning."""

    def __init__(self, inst: Instance, slate_order=None):
        self.inst = inst
        self.n = inst.n
        self.n_days = 2 * self.n - 2
        self.slates = _day_slates(self.n)
        self.order = slate_order or (lambda day, slates: slates)
        self.explored = 0
        self.best_cost = math.inf
        self.best_days: Optional[list] = None

    def run(self, stop_after: Optional[int] = None) -> None:
        """DFS; ``stop_after`` ends the search after that many leaves."""
        self.stop_after = stop_after
        used = set()                      # ordered (away, home) already played
        venue = list(range(self.n))      # current location per team
        runs = [("", 0)] * self.n        # (home/away symbol, run length)
        try:
            self._dfs(0, used, (), venue, runs, 0.0, [])
        except _Stop:
            pass

    def _dfs(self, day, used, prev_pairs, venue, runs, cost, days_acc):
        if day == self.n_days:
            legs = cost
            for t in range(self.n):
                legs = legs + self.inst.dist[venue[t], t]
            self.explored += 1
            if legs < self.best_cost:
                self.best_cost = legs
                self.best_days = list(days_acc)
            if self.stop_after is not None and self.explored >= self.stop_after:
                raise _Stop
            return
        for slate in self.order(day, self.slates):
            ok = True
            pairs = []
            for away, home in slate:
                pair = (away, home) if away < home else (home, away)
                if (away, home) in used or pair in prev_pairs:
                    ok = False
                    break
                pairs.append(pair)
            if not ok:
                continue
            step = 0.0
            new_runs = list(runs)
            for away, home in slate:
                sym, length = runs[away]
                if sym == "a" and length >= 2:
                    ok = False
                    break
                new_runs[away] = ("a", length + 1 if sym == "a" else 1)
                sym, length = runs[home]
                if sym == "h" and length >= 2:
                    ok = False
                    break
                new_runs[home] = ("h", length + 1 if sym == "h" else 1)
                step = step + self.inst.dist[venue[away], home]
                step = step + self.inst.dist[venue[home], home]
            if not ok:
                continue
            new_cost = cost + step
            if new_cost >= self.best_cost:
                continue
            new_venue = list(venue)
            for away, home in slate:
                new_venue[away] = home
                new_venue[home] = home
            for away, home in slate:
                used.add((away, home))
            days_acc.append(slate)
            self._dfs(day + 1, used, frozenset(pairs), new_venue, new_runs,
                      new_cost, days_acc)
            days_acc.pop()
            for away, home in slate:
                used.discard((away, home))


class _Stop(Exception):
    pass


def _to_schedule(n: int, slate_days) -> Schedule:
    days = tuple(tuple(Fixture(a, h) for a, h in day) for day in slate_days)
    return Schedule(n=n, days=days)


def brute_force_optimal(inst: Instance) -> OracleResult:
    """Exhaustive search at n=4: every constraint-feasible schedule is
    enumerated (with running-cost pruning), so the result is the certified
    global optimum."""
    if inst.n != 4:
        raise TTP2Error(f"exhaustive oracle supports n=4 only, got n={inst.n}")
    search = _Search(inst)
    search.run()
    assert search.best_days is not None
    sched = _to_schedule(inst.n, search.best_days)
    return OracleResult(optimum=total_travel(sched, inst), schedule=sched,
                        explored=search.explored)


def sample_valid_schedules(inst: Instance, count: int, seed: int = 0
                           ) -> list[tuple[Schedule, float]]:
    """Feasible schedules from randomized backtracking (n <= 8).

    Each sample restarts the DFS with a freshly seeded slate shuffle and
    keeps the first complete schedule it reaches.
    """
    if inst.n % 2 != 0 or inst.n > 8:
        raise TTP2Error(f"sampler supports even n <= 8, got n={inst.n}")
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")

        def shuffled(day, slates, _rng=rng):
            order = list(slates)
            _rng.shuffle(order)
            return order

        search = _Search(inst, slate_order=shuffled)
        search.run(stop_after=1)
        assert search.best_days is not None
        sched = _to_schedule(inst.n, search.best_days)
        out.append((sched, total_travel(sched, inst)))
    return out


def c2_repeats(days) -> list[tuple[int, tuple[int, int]]]:
    """Every (day, (lo, hi)) whose two teams meet on that day and on the day
    before, at either venue; each once, in (day, lo, hi) order.  ``days``
    holds (away, home) fixtures."""
    met = [{(min(a, h), max(a, h)) for a, h in day} for day in days]
    return sorted((d, pair) for d in range(1, len(met)) for pair in met[d] & met[d - 1])


# a day's games: away@home tokens of ASCII digits, separated by whitespace
_DAY_GAMES = re.compile(r"\s*(?:[0-9]+@[0-9]+(?:\s+|\Z))*")


def parse_day_list_per_line(text: str, n: Optional[int] = None) -> Schedule:
    """Day-list text as a ``Schedule``, read one line at a time: each line
    is checked and then read into its day before the next is looked at.
    Blank lines and '#' comments are skipped, a 'day k:' prefix is dropped,
    and n defaults to the largest team plus one."""
    days = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line:
            prefix, line = line.split(":", 1)
            if not prefix.strip().lower().startswith("day"):
                raise ValidationError(f"unrecognized day prefix {prefix!r}")
        if not _DAY_GAMES.fullmatch(line):
            bad = next(token for token in line.split() if not _DAY_GAMES.fullmatch(token))
            raise ValidationError(f"non-integer team in token {bad!r}" if "@" in bad else
                                  f"malformed game token {bad!r} (expected away@home)")
        day = []
        for token in line.split():
            away, home = token.split("@")
            day.append(Fixture(int(away), int(home)))
        days.append(tuple(day))
    if n is None:
        teams = [t for day in days for fixture in day for t in fixture]
        if not teams:
            raise ValidationError("cannot infer team count from an empty schedule")
        n = max(teams) + 1
    return Schedule(n=n, days=tuple(days))


def day_list_teams_per_token(games: str) -> list[int]:
    """The teams of checked away@home tokens joined by whitespace, split on
    any whitespace ``str.split`` knows and converted token by token, each
    distinct token once; a team past ``int``'s digit limit is refused as
    ``parse_day_list`` refuses it."""
    tokens = games.replace("@", " ").split()
    try:
        value = {token: int(token) for token in set(tokens)}
    except ValueError:
        raise ValidationError(f"team {overlong_integer(games)}") from None
    return list(map(value.__getitem__, tokens))


def check_plan_per_level(n: int, levels, team_pairs, super_pairs) -> None:
    """Refuse with ValidationError, level by level, a plan of ``LevelPlan``
    values on ``n`` teams that contradicts itself, as ``Schedule`` refuses
    it: matchings that are no ``PairMatching`` of the teams or the pairs,
    other than n/2 - 1 levels, a level labeled other than the construction
    labels it or naming other than every pair once, or super-pairs that are
    not the last level's pairs."""
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
        named = sorted(p for sm in lp.super_matches for p in (sm.a_pair, sm.b_pair))
        if named != pairs:
            raise ValidationError(f"stored levels: level {k + 1} names pairs {shown(named)}, "
                                  f"expected each of 0..{len(pairs) - 1} once")
    last = sorted(sm.key for sm in levels[-1].super_matches)
    if super_pairs is not None and sorted(tuple(sorted(p)) for p in super_pairs.pairs) != last:
        raise ValidationError(f"stored super_pairs {shown(list(super_pairs.pairs))} differ "
                              f"from the pairs {shown(last)} of the last level")


def _block_per_item(b) -> SuperMatch:
    try:
        return SuperMatch(b["a_pair"], b["b_pair"], b["type"])
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"block {shown(b)}: {exc}") from None


def read_stored_per_block(obj: dict) -> tuple:
    """A stored schedule's (n, days, levels, team_pairs, super_pairs), read
    field by field: its games one by one, its plan as one ``LevelPlan`` per
    level holding one ``SuperMatch`` per block.  Refused where
    ``schedule_from_dict`` refuses it, with the same message: a missing or
    unreadable field, then a stored flip count that differs from the
    levels'."""
    try:
        n = integer(obj["n"], "n")
        stored = [list(day) for day in obj["days"]]
        # every away team, then every home team, then each read in game order
        away = [[g["away"] for g in day] for day in stored]
        home = [[g["home"] for g in day] for day in stored]
        days = [[(integer(a, "away"), integer(h, "home")) for a, h in zip(*day)]
                for day in zip(away, home)]
        levels = tuple(LevelPlan(round=lv["round"], level=lv["level"],
                                 super_matches=map(_block_per_item, lv["blocks"]))
                       for lv in obj.get("levels", []))
        stored_flips = integer(obj["flips"], "flips") if "flips" in obj else None
        team_pairs, super_pairs = (
            None if (pm := obj.get(key)) is None else PairMatching(pm["pairs"], pm["weight"])
            for key in ("team_pairs", "super_pairs"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, KeyError):
            raise ValidationError(f"malformed schedule JSON: missing field {exc}") from None
        raise ValidationError(f"malformed schedule JSON: {exc}") from None
    flips = sum(sm.block_type == 2 for lp in levels for sm in lp.super_matches)
    if stored_flips is not None and stored_flips != flips:
        raise ValidationError(f"stored flips {shown(stored_flips)} differ from the "
                              f"{flips} Type-2 blocks in the levels")
    return n, days, levels, team_pairs, super_pairs


def schedule_from_dict_per_block(obj: dict) -> Schedule:
    """``read_stored_per_block``, then the team count, the plan
    (``check_plan_per_level``) and the games (``Schedule(n, days)``) checked
    in that order; the schedule of the whole stored form, whose own checks
    must then pass."""
    n, days, levels, team_pairs, super_pairs = read_stored_per_block(obj)
    check_plan_per_level(team_count(n, ValidationError), levels, team_pairs, super_pairs)
    Schedule(n, days)
    try:
        return Schedule(n, days, levels, team_pairs, super_pairs)
    except ValidationError as exc:
        raise AssertionError(f"a plan the per-level check accepts is refused: {exc}") from None


def stored_dict(sched: Schedule) -> dict:
    """The stored form of ``sched`` as JSON values, one dict per game and
    per block, made from the schedule's public fields."""
    obj = {
        "n": sched.n,
        "days": [[{"away": f.away, "home": f.home} for f in day] for day in sched.days],
        "levels": [{"round": lp.round, "level": lp.level,
                    "blocks": [{"a_pair": sm.a_pair, "b_pair": sm.b_pair,
                                "type": sm.block_type} for sm in lp.super_matches]}
                   for lp in sched.levels],
        "flips": sched.flips,
    }
    for key, pm in (("team_pairs", sched.team_pairs), ("super_pairs", sched.super_pairs)):
        obj[key] = None if pm is None else {
            "pairs": [list(p) for p in pm.pairs], "weight": pm.weight}
    return obj


def schedule_to_json_dumps(sched: Schedule) -> str:
    """``stored_dict(sched)`` as ``json.dumps(..., indent=2)`` writes it,
    with a closing newline."""
    return json.dumps(stored_dict(sched), indent=2) + "\n"


# per block type, the trips over each slot edge of a block in isolation, in
# the order of ``itertools.combinations(range(4), 2)``: A1-A2, A1-B1,
# A1-B2, A2-B1, A2-B2, B1-B2
_BLOCK_TRIPS = {1: (2, 2, 2, 2, 2, 2), 2: (2, 3, 3, 3, 3, 0), 3: (2, 5, 3, 3, 5, 2)}


def block_travel(block_type: int, dists) -> float:
    """Total travel of all four teams through a block of ``block_type`` in
    isolation (each starts and ends at home), by its closed form.

    ``dists`` is a 4x4 symmetric matrix over slots (A1, A2, B1, B2), or any
    nested sequence indexable as dists[i][j]:

    Type-3: 5 d(A1,B1) + 3 d(A2,B1) + 2 d(A1,A2) + 3 d(A1,B2) + 5 d(A2,B2) + 2 d(B1,B2)
    Type-2: 3 d(A1,B1) + 3 d(A2,B1) + 2 d(A1,A2) + 3 d(A1,B2) + 3 d(A2,B2)
    Type-1: twice the sum of all six pairwise distances
    """
    return math.fsum(trips * float(dists[i][j]) for trips, (i, j)
                     in zip(_BLOCK_TRIPS[block_type], itertools.combinations(range(4), 2)))


def far_pair(n: int, p: int) -> Instance:
    """The 0/1 metric on n teams with teams 2p and 2p + 1 at distance 1
    from every other team, and every other distance 0.  Its team pairs are
    (2k, 2k + 1); on the pair that the default build puts on its busiest
    slot, one with phi Type-2 blocks, its travel is 1 + (2 + phi)/(n - 2)
    times the lower bound: the worst ratio of that build over metric
    instances, as a linear program found at every n it was run on (ROADMAP
    items 22 and 25)."""
    dist = np.zeros((n, n))
    far = [2 * p, 2 * p + 1]
    dist[far, :] = dist[:, far] = 1.0
    dist[np.ix_(far, far)] = 0.0
    return Instance(n=n, dist=dist)


def first_seen(days, n: int) -> tuple[list[list[int]], list[list[bool]], list[list[int]]]:
    """Per day and team: the opponent of the team's first fixture that day
    (-1 without one), whether it is at home there, and how many fixtures
    name it.  ``days`` holds (away, home) fixtures; in each, the away team
    is seen before the home team."""
    opponent = [[-1] * n for _ in days]
    at_home = [[False] * n for _ in days]
    games = [[0] * n for _ in days]
    for d, day in enumerate(days):
        for away, home in day:
            for team, other, home_end in ((away, home, False), (home, away, True)):
                if not games[d][team]:
                    opponent[d][team], at_home[d][team] = other, home_end
                games[d][team] += 1
    return opponent, at_home, games


def expand_block_sorted(sm: SuperMatch, pairs) -> tuple[tuple[Fixture, ...], ...]:
    """Block expansion by sorting: both pairs sorted into lists, their sizes
    checked, then the four teams checked distinct with a set."""
    a = sorted(pairs[sm.a_pair])
    b = sorted(pairs[sm.b_pair])
    if len(a) != 2 or len(b) != 2:
        raise SchedulingError("each pair must hold exactly two teams")
    teams = (a[0], a[1], b[0], b[1])
    if len(set(teams)) != 4:
        raise SchedulingError(f"super-match pairs overlap: {a} vs {b}")
    aways, homes = _ROLES[sm.block_type]
    fixtures = _fixtures(zip(aways(teams), homes(teams)))
    return tuple(zip(fixtures, fixtures))


def exact_integers_frexp(x: np.ndarray) -> np.ndarray:
    """Exact integers by decomposition: every entry an odd integer times a
    power of two, all scaled by the smallest power (never below 1), for
    integer-valued input too."""
    mant, ex = np.frexp(x)
    q = (mant * 2.0 ** 53).astype(np.int64)
    tz = np.frexp(np.where(q == 0, 1, q & -q))[1] - 1
    q >>= tz
    e = ex - 53 + tz
    low = min(int(e[q != 0].min(initial=0)), 0)
    shift = np.where(q == 0, 0, e - low)
    return q.astype(object) << shift.astype(object)


def _exact_weights(w: np.ndarray) -> list[list[int]]:
    """The weights as Python integers over one common denominator (every
    float is a dyadic fraction, so the largest denominator is a multiple of
    all the others): their sums compare exactly."""
    fr = [[Fraction(x) for x in row] for row in w.tolist()]
    den = max(x.denominator for row in fr for x in row)
    return [[x.numerator * (den // x.denominator) for x in row] for row in fr]


def brute_force_matching(weights) -> PairMatching:
    """Minimum-weight perfect matching by full (m-1)!! enumeration, with the
    same canonical rule as the production solver: enumeration visits pair
    lists in lexicographic order and keeps the first strict improvement of
    the exact weight.  The reported weight is the fsum."""
    w = _validated_weights(weights)
    m = w.shape[0]
    if m > BRUTE_FORCE_MATCHING_MAX:
        raise MatchingError(
            f"enumeration oracle limited to m <= {BRUTE_FORCE_MATCHING_MAX}, got {m}")
    wi = _exact_weights(w)
    best_weight: Optional[int] = None
    best_pairs: Optional[tuple] = None

    def rec(mask: int, pairs: list) -> None:
        nonlocal best_weight, best_pairs
        if mask == 0:
            weight = sum(wi[i][j] for i, j in pairs)
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best_pairs = tuple(pairs)
            return
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        probe = rest
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            pairs.append((v, u))
            rec(rest ^ (1 << u), pairs)
            pairs.pop()

    rec((1 << m) - 1, [])
    assert best_pairs is not None
    weight = math.fsum(float(w[i, j]) for i, j in best_pairs)
    return PairMatching(pairs=best_pairs, weight=weight)


def dp_matching(weights) -> PairMatching:
    """Minimum-weight perfect matching by subset dynamic programming, with
    the production solver's rule: minimum exact weight, then the
    lexicographically smallest pair list.  The reported weight is the fsum.

    g(S) = minimum exact weight to perfectly match the vertex set S, where
    the transition always matches S's lowest vertex v against each other u
    in S.  It is solved only for the sets reached from the full set: those
    with lowest vertex v that lack at most v of the vertices above v.
    There are Fibonacci-many of them (28,656 at m=22).
    """
    w = _validated_weights(weights)
    m = w.shape[0]
    if m > DP_MATCHING_MAX:
        raise MatchingError(f"subset DP limited to m <= {DP_MATCHING_MAX}, got {m}")
    wi = _exact_weights(w)
    memo = {0: 0}

    def others(S: int):
        # S's lowest vertex v, and (u, S without v and u) for each other u
        v = (S & -S).bit_length() - 1
        probe = S & ~(1 << v)
        out = []
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            out.append((u, S ^ (1 << v) ^ (1 << u)))
        return v, out

    def g(S: int) -> int:
        if S not in memo:
            v, choices = others(S)
            memo[S] = min(wi[v][u] + g(rest) for u, rest in choices)
        return memo[S]

    # Walk: v is forced (lowest unmatched); the smallest u whose exact
    # candidate equals g(S) extends a lex-smallest optimal matching.
    pairs: list[tuple[int, int]] = []
    S = (1 << m) - 1
    while S:
        v, choices = others(S)
        best = g(S)
        u, S = next((u, rest) for u, rest in choices if wi[v][u] + g(rest) == best)
        pairs.append((v, u))
    weight = math.fsum(float(w[i, j]) for i, j in pairs)
    return PairMatching(pairs=tuple(pairs), weight=weight)


def transition_choices(level_k, level_next, coloring: int):
    """Per-cycle flip options turning a proper coloring of level_k into a
    proper coloring of level_next.

    The union of two perfect matchings splits into alternating cycles; in
    each cycle the flip indicators of the level_k edges are chained by XOR
    constraints, leaving exactly two complementary solutions per cycle.
    """
    pk: dict[int, int] = {}
    for i, j in level_k:
        pk[i] = j
        pk[j] = i
    pn: dict[int, int] = {}
    for i, j in level_next:
        pn[i] = j
        pn[j] = i
    seen: set[int] = set()
    cycles = []
    for start in sorted(pk):
        if start in seen:
            continue
        ones: list[tuple[int, int]] = []   # edges flipped in the x(start)=0 solution
        zeros: list[tuple[int, int]] = []  # its complement within the cycle
        v, x = start, 0
        while True:
            u = pk[v]
            seen.add(v)
            seen.add(u)
            (ones if x else zeros).append((v, u) if v < u else (u, v))
            w = pn[u]
            same = ((coloring >> u) & 1) == ((coloring >> w) & 1)
            if w == start:
                if x ^ (1 if same else 0):
                    raise SchedulingError("internal: flip parity violated")
                break
            x ^= 1 if same else 0
            v = w
        cycles.append((tuple(sorted(ones)), tuple(sorted(zeros))))
    return cycles


def apply_flips(coloring: int, flips) -> int:
    for i, j in flips:
        coloring ^= (1 << i) | (1 << j)
    return coloring


def min_flip_plan(levels: Sequence[tuple[tuple[int, int], ...]], c0: int,
                   budget: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], list[int]]:
    """Forward DP over colorings; returns (flip set per non-final level,
    coloring entering each level).  Ties between equal-flip plans resolve to
    the lexicographically larger flip-edge path, which keeps the smallest
    matches unflipped."""
    for i, j in levels[0]:
        if ((c0 >> i) & 1) == ((c0 >> j) & 1):
            raise SchedulingError(f"initial roles do not 2-color level 1 pair ({i}, {j})")
    states: dict[int, tuple[int, tuple]] = {c0: (0, ())}
    for k in range(len(levels) - 1):
        nxt: dict[int, tuple[int, tuple]] = {}
        for coloring, (cost, path) in sorted(states.items()):
            cycles = transition_choices(levels[k], levels[k + 1], coloring)
            for choice in itertools.product(*cycles):
                flips = tuple(sorted(e for part in choice for e in part))
                new_cost = cost + len(flips)
                if new_cost > budget:
                    continue
                new_col = apply_flips(coloring, flips)
                new_path = path + (flips,)
                held = nxt.get(new_col)
                if held is None or new_cost < held[0] or \
                        (new_cost == held[0] and new_path > held[1]):
                    nxt[new_col] = (new_cost, new_path)
        if not nxt:
            raise SchedulingError(
                f"no flip assignment within budget {budget} at level {k + 2}; "
                f"levels={list(levels)}")
        states = nxt
    best: Optional[tuple[int, tuple]] = None
    for _, (cost, path) in sorted(states.items()):
        if best is None or cost < best[0] or (cost == best[0] and path > best[1]):
            best = (cost, path)
    best_path = best[1]
    colorings = [c0]
    for flips in best_path:
        colorings.append(apply_flips(colorings[-1], flips))
    return best_path, colorings


def rule_flip_count(q: int) -> int:
    """C(q), the flips the scheduler's per-group rule spends on a group of
    two sides of q slots each, in closed form: q/2 + 2·C(q/2) for even q,
    2q − 3 for odd q > 1, and 0 for q = 1.  A build for n teams plans one
    group of n/4 slots a side, so it needs C(n/4) flips."""
    if q == 1:
        return 0
    if q % 2:
        return 2 * q - 3
    return q // 2 + 2 * rule_flip_count(q // 2)

"""Property tests: every accepted schedule form reads the same.

Built schedules and single mutations of them (venue swap, dropped game,
swapped days, duplicated game) are fed to the validator and to travel
evaluation as a ``Schedule`` made from each input form: Fixture tuples and
lists, (away, home) pairs, a stored dict and day-list text.  The verdicts
must agree with each other and with the plain-loop reference below, which
walks the fixtures one by one the way the checks are specified.  Schedules
made by hand from random games are written as the standard encoder writes
their stored dict, and read back equal.
"""

import json
import math
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2 import (
    Fixture,
    PairMatching,
    Schedule,
    build_schedule,
    generate_instance,
    parse_day_list,
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
    total_travel,
    validate_schedule,
)
from ttp2.validator import C1, C2, C4, S_DAY_COUNT, S_ONE_GAME, Violation

from helpers import day_list_text

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=60)
SIZES = (8, 12, 16)
SEEDS = range(4)
MUTATIONS = ("none", "venue_swap", "drop", "swap_days", "duplicate")


@lru_cache(maxsize=None)
def _built(n, seed):
    inst = generate_instance(n, kind="euclidean", seed=seed)
    return inst, build_schedule(inst)


def _first_symbol(day, t):
    for away, home in day:
        if t == away:
            return "a", home
        if t == home:
            return "h", t
    return "", None


def reference_violations(days, n):
    out = []
    if len(days) != 2 * n - 2:
        out.append(Violation(S_DAY_COUNT, None, (), f"{len(days)} days, expected {2 * n - 2}"))
    for d, day in enumerate(days):
        for t in range(n):
            c = sum((t == a) + (t == h) for a, h in day)
            if c != 1:
                out.append(Violation(S_ONE_GAME, d, (t,), f"team {t} plays {c} games on day {d}"))
    games = [g for day in days for g in day]
    for i in range(n):
        for j in range(n):
            c = games.count((i, j))
            if i != j and c != 1:
                out.append(Violation(C1, None, (i, j), f"{i}@{j} occurs {c} times (expected 1)"))
    for d in range(1, len(days)):
        before = {tuple(sorted(g)) for g in days[d - 1]}
        for lo, hi in sorted({tuple(sorted(g)) for g in days[d]} & before):
            out.append(Violation(C2, d, (lo, hi),
                                 f"teams {lo} and {hi} meet on days {d - 1} and {d}"))
    for t in range(n):
        run_symbol, run_len = "", 0
        for d, day in enumerate(days):
            symbol = _first_symbol(day, t)[0]
            if symbol and symbol == run_symbol:
                run_len += 1
            else:
                run_symbol, run_len = symbol, 1 if symbol else 0
            if run_len == 3:
                kind = "away" if symbol == "a" else "home"
                out.append(Violation(C4, d, (t,),
                                     f"team {t} has 3 consecutive {kind} games ending day {d}"))
    return tuple(out)


def reference_travel(days, inst):
    total = []
    for t in range(inst.n):
        venues = [t]
        for day in days:
            spot = _first_symbol(day, t)[1]
            venues.append(venues[-1] if spot is None else spot)
        venues.append(t)
        total.append(math.fsum(inst.dist[venues[i], venues[i + 1]]
                               for i in range(len(venues) - 1)))
    return math.fsum(total)


@st.composite
def schedules(draw):
    """(instance, n, days as (away, home) lists) after at most one mutation."""
    n, seed = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SEEDS))
    inst, sched = _built(n, seed)
    days = [[(f.away, f.home) for f in day] for day in sched.days]
    mutation = draw(st.sampled_from(MUTATIONS))
    d = draw(st.integers(0, len(days) - 1))
    f = draw(st.integers(0, len(days[d]) - 1))
    other = draw(st.integers(0, len(days) - 1))
    if mutation == "venue_swap":
        days[d][f] = days[d][f][::-1]
    elif mutation == "drop":
        del days[d][f]
    elif mutation == "swap_days":
        days[d], days[other] = days[other], days[d]
    elif mutation == "duplicate":
        days[other].append(days[d][f])
    return inst, n, days


def _forms(n, days):
    fixtures = [[Fixture(a, h) for a, h in day] for day in days]
    sched = Schedule(n=n, days=tuple(tuple(day) for day in fixtures))
    return {
        "schedule": sched,
        "dict": schedule_from_dict(schedule_to_dict(sched)),
        "text": parse_day_list(day_list_text(days), n),
        "fixtures": Schedule(n=n, days=fixtures),
        "pairs": Schedule(n=n, days=days),
    }


@PROPERTY_SETTINGS
@given(schedules())
def test_every_form_reads_the_same(case):
    inst, n, days = case
    violations = reference_violations(days, n)
    travel = reference_travel(days, inst)
    for name, form in _forms(n, days).items():
        assert validate_schedule(form).violations == violations, name
        assert total_travel(form, inst) == travel, name


@PROPERTY_SETTINGS
@given(st.sampled_from(SIZES), st.sampled_from(SEEDS))
def test_schedule_json_round_trips(n, seed):
    sched = _built(n, seed)[1]
    assert schedule_from_json(schedule_to_json(sched)) == sched


@st.composite
def hand_made_schedules(draw):
    """A ``Schedule(n, days)`` of random games, empty days allowed, without
    a plan; at an even n, sometimes with random team pairs."""
    n = draw(st.integers(2, 12))
    game = st.builds(lambda a, k: (a, (a + k) % n), st.integers(0, n - 1), st.integers(1, n - 1))
    days = draw(st.lists(st.lists(game, max_size=n), max_size=8))
    team_pairs = None
    if n % 2 == 0 and draw(st.booleans()):
        teams = draw(st.permutations(range(n)))
        team_pairs = PairMatching(list(zip(teams[::2], teams[1::2])),
                                  draw(st.floats(0, 1e12)))
    return Schedule(n, days, team_pairs=team_pairs)


@PROPERTY_SETTINGS
@given(hand_made_schedules())
def test_schedule_json_is_its_dict_through_the_standard_encoder(sched):
    text = schedule_to_json(sched)
    assert text == json.dumps(schedule_to_dict(sched), indent=2) + "\n"
    assert schedule_from_json(text) == sched

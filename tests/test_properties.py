"""Property tests: every accepted schedule form reads the same.

Built schedules and single mutations of them (venue swap, dropped game,
swapped days, duplicated game) are fed to the validator and to travel
evaluation as a ``Schedule`` made from each input form: Fixture tuples and
lists, (away, home) pairs, a stored dict and day-list text.  The verdicts
must agree with each other and with the plain-loop reference below, which
walks the fixtures one by one the way the checks are specified.  Schedules
made by hand from random games are written as the standard encoder writes
the stored dict built from their public fields, give that dict back, and
read back equal.  Stored forms with up to two faults
and day-list text with odd separators, zero-padded and overlong teams are
read as the per-block and per-token references in ``reference.py`` read
them: the same schedule, plan and JSON, or the same refusal.
"""

import copy
import itertools
import math
import random
import re
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
from ttp2 import ValidationError, validator
from ttp2.errors import TEAMS_MAX
from ttp2.validator import C1, C2, C4, S_DAY_COUNT, S_ONE_GAME, Violation

from helpers import day_list_text
from reference import (day_list_teams_per_token, parse_day_list_per_line,
                       read_stored_per_block, schedule_from_dict_per_block,
                       schedule_to_json_dumps, stored_dict)

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
    # the dict and the text, each against the reference's from the public fields
    text = schedule_to_json(sched)
    assert schedule_to_dict(sched) == stored_dict(sched)
    assert text == schedule_to_json_dumps(sched)
    assert schedule_from_json(text) == sched


# --- stored schedules: the bulk readers against the per-item references -------


def _read_as(reader, *args):
    """What ``reader`` makes of ``args``: the ValidationError message that
    refuses them, or the schedule's normal form, plan, flip count, JSON
    text and report; a stored schedule's levels are not made until read."""
    try:
        s = reader(*args)
    except ValidationError as exc:
        return str(exc)
    assert "levels" not in vars(s) or reader is Schedule
    g = s._array
    return (g.n, g.day.tolist(), g.away.tolist(), g.home.tolist(), g.opponent.tolist(),
            g.at_home.tolist(), g.games.tolist(), s._plan.tolist(), s.levels, s.flips,
            schedule_to_json(s), validate_schedule(s))


_ODD_NUMBERS = (0, 4, -1, 99, 2 ** 70, 1.0, 2.0, 1.5, "1", None, True)


def _level(obj, k):
    levels = obj["levels"]
    return levels[k % len(levels)]


def _block(obj, k, i):
    blocks = _level(obj, k)["blocks"]
    return blocks[i % len(blocks)]


def _set_block(field):
    def edit(obj, value, k, i):
        _block(obj, k, i)[field] = value
    return edit


def _name_pair_twice(obj, value, k, i):
    block, other = _block(obj, k, i), _block(obj, k, i + 1)
    block["a_pair"], block["b_pair"] = other["a_pair"], other["b_pair"]


def _set_game(field):
    def edit(obj, value, k, i):
        day = obj["days"][k % len(obj["days"])]
        day[i % len(day)][field] = value
    return edit


def _self_play(obj, value, k, i):
    day = obj["days"][k % len(obj["days"])]
    game = day[i % len(day)]
    game["home"] = game["away"]


def _del(container, key):
    del container[key]


def _swap_super_pairs(obj, value, k, i):
    pairs = obj["super_pairs"]["pairs"]
    (a, b), (c, d) = pairs[:2]
    pairs[:2] = [[a, d], [c, b]]


def _recount_flips(obj, value, k, i):
    obj["flips"] = sum(b["type"] == 2 for lv in obj["levels"] for b in lv["blocks"])


# one fault of a stored form: the values it is drawn with, and its edit of
# the form, given a value and two positions
STORED_FAULTS = {
    "block type": (_ODD_NUMBERS, _set_block("type")),
    "block a_pair": (_ODD_NUMBERS, _set_block("a_pair")),
    "block b_pair": (_ODD_NUMBERS, _set_block("b_pair")),
    "block names a pair twice": ((None,), _name_pair_twice),
    "block pairs a pair with itself": (
        (None,), lambda obj, v, k, i: _block(obj, k, i).update(b_pair=_block(obj, k, i)["a_pair"])),
    "block field missing": (("a_pair", "b_pair", "type"),
                            lambda obj, v, k, i: _del(_block(obj, k, i), v)),
    "block not a dict": (([0, 1, 1], "ab", 5, None),
                         lambda obj, v, k, i: _level(obj, k)["blocks"].__setitem__(
                             i % len(_level(obj, k)["blocks"]), v)),
    "block dropped": ((None,), lambda obj, v, k, i: _level(obj, k)["blocks"].pop(i % 2)),
    "block duplicated": ((None,), lambda obj, v, k, i: _level(obj, k)["blocks"].append(
        dict(_block(obj, k, i)))),
    "level round": (_ODD_NUMBERS + (7,), lambda obj, v, k, i: _level(obj, k).update(round=v)),
    "level level": (_ODD_NUMBERS + (-3,), lambda obj, v, k, i: _level(obj, k).update(level=v)),
    "level field missing": (("round", "level", "blocks"),
                            lambda obj, v, k, i: _del(_level(obj, k), v)),
    "level blocks": ((None, {}, "ab", 5, []),
                     lambda obj, v, k, i: _level(obj, k).update(blocks=v)),
    "level not a dict": (([1, 1, []], 5, None),
                         lambda obj, v, k, i: obj["levels"].__setitem__(
                             k % len(obj["levels"]), v)),
    "level dropped": ((None,), lambda obj, v, k, i: obj["levels"].pop(k % len(obj["levels"]))),
    "level duplicated": ((None,), lambda obj, v, k, i: obj["levels"].insert(
        0, copy.deepcopy(_level(obj, k)))),
    "levels swapped": ((None,), lambda obj, v, k, i: obj["levels"].reverse()),
    "levels": ((None, {}, 5, []), lambda obj, v, k, i: obj.update(levels=v)),
    "levels missing": ((None,), lambda obj, v, k, i: _del(obj, "levels")),
    "flips": ((0, 99, 2.5, "3", None), lambda obj, v, k, i: obj.update(flips=v)),
    "flips missing": ((None,), lambda obj, v, k, i: _del(obj, "flips")),
    "flips recounted": ((None,), _recount_flips),
    "n": ((TEAMS_MAX + 1, 2 ** 80, 1, 4, 20, 12.0, "8", None),
          lambda obj, v, k, i: obj.update(n=v)),
    "team_pairs": (([[0, 0]], "ab", None), lambda obj, v, k, i: obj.update(
        team_pairs=None if v is None else {**obj["team_pairs"], "pairs": v})),
    "super_pairs": ((None, "swap"), lambda obj, v, k, i: (
        obj.update(super_pairs=None) if v is None else _swap_super_pairs(obj, v, k, i))),
    "game away": (_ODD_NUMBERS + (8, 1e20), _set_game("away")),
    "game home": (_ODD_NUMBERS + (16, 1e20), _set_game("home")),
    "game self-play": ((None,), _self_play),
    "days cut": ((0, 1, 2, 5, 6, 9), lambda obj, v, k, i: obj.update(days=obj["days"][:v])),
    "game field missing": (("away", "home"), lambda obj, v, k, i: _del(
        obj["days"][k % len(obj["days"])][i % len(obj["days"][k % len(obj["days"])])], v)),
}


@st.composite
def stored_dicts(draw):
    """The stored form of a built schedule with up to two faults, in either
    order; a fault whose edit does not apply after the first is left out."""
    n, seed = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SEEDS))
    obj = schedule_to_dict(_built(n, seed)[1])
    for name in draw(st.lists(st.sampled_from(sorted(STORED_FAULTS)), max_size=2)):
        values, edit = STORED_FAULTS[name]
        value = draw(st.sampled_from(values))
        k, i = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        try:
            edit(obj, copy.deepcopy(value), k, i)
        except (KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError):
            pass
    return obj


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(stored_dicts())
def test_a_stored_schedule_reads_as_the_per_block_reader_reads_it(obj):
    expected = _read_as(schedule_from_dict_per_block, copy.deepcopy(obj))
    assert _read_as(schedule_from_dict, copy.deepcopy(obj)) == expected
    # a plan made by hand is checked as a stored one is
    try:
        parts = read_stored_per_block(copy.deepcopy(obj))
    except ValidationError:
        return
    assert _read_as(Schedule, *parts) == expected


def test_the_stored_faults_reach_every_refusal_of_the_plan():
    # the catalogue above makes each kind of plan refusal the per-block
    # reader names, so the property compares them all
    messages = []
    for name, (values, edit) in STORED_FAULTS.items():
        for value, recount in itertools.product(values, (False, True)):
            obj = schedule_to_dict(_built(12, 0)[1])
            edit(obj, copy.deepcopy(value), 1, 1)
            if recount:
                try:
                    _recount_flips(obj, None, 0, 0)
                except (KeyError, TypeError):
                    pass
            messages.append(str(_read_as(schedule_from_dict_per_block, obj)))
    for part in ("malformed schedule JSON: missing field", "malformed schedule JSON: block",
                 "unknown block type", "super-match pairs a pair with itself",
                 "stored flips ", " level(s), expected", " is labeled round ", " names pairs ",
                 "stored super_pairs ", "stored team_pairs ", "exceeds the supported maximum",
                 " plays itself on day ", " out of range on day "):
        assert any(part in message for message in messages), part


# --- day-list text: one numpy conversion against the per-token reader -----------

# separators ``str.split`` and ``\s`` know: C's isspace knows the first
# five, numpy's text reader no others
SEPARATORS = (" ", "\t", "\x0b", "\x0c", "  ", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\xa0")


@st.composite
def day_list_texts(draw):
    """(text, n, games): a built schedule's days as day-list text with
    random separators, zero-padded teams, blank and '#' lines, and perhaps
    one team widened to 19, 20 or 4,301 digits; n given or not; and the
    text's games joined by single spaces, as ``parse_day_list`` joins them."""
    n, seed = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SEEDS))
    days = [[(f.away, f.home) for f in day] for day in _built(n, seed)[1].days]
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=3))
    pad = draw(st.sampled_from((0, 1, 3, 25)))
    wide = draw(st.sampled_from((None, "9" * 19, "0" * 18 + "7", "1" * 20, "1" * 4301)))
    where = (rnd.randrange(len(days)), rnd.randrange(n // 2), rnd.randrange(2))

    def team(t, at):
        return wide if at == where and wide else "0" * rnd.randint(0, pad) + str(t)

    lines, joined = [], []
    for d, day in enumerate(days):
        games = [team(a, (d, f, 0)) + "@" + team(h, (d, f, 1)) for f, (a, h) in enumerate(day)]
        body = "".join(g + rnd.choice(seps) for g in games).rstrip()
        if rnd.random() < 0.2:
            lines.append(rnd.choice(("", "# a comment", "   ", "#")))
        lines.append((f"day {d + 1}:" + rnd.choice(seps) if rnd.random() < 0.5 else "") + body)
        joined.append(" ".join(games))
    return "\n".join(lines) + "\n", draw(st.sampled_from((n, None))), " ".join(joined)


def _teams_as(reader, *args):
    try:
        teams = reader(*args)
    except ValidationError as exc:
        return str(exc)
    return [int(t) for t in teams]


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(day_list_texts())
def test_a_day_list_reads_as_the_per_token_reader_reads_it(case):
    text, n, games = case
    # the one numpy conversion gives the teams the per-token reader gives
    for spaced in (games, games.replace(" ", "\x1f"), games.replace(" ", "\t")):
        assert (_teams_as(validator._day_list_teams, spaced, 2 * spaced.count("@"))
                == _teams_as(day_list_teams_per_token, spaced))
    read = _read_as(parse_day_list, text, n)
    if re.search("[0-9]{4301}", text):
        assert read == _teams_as(day_list_teams_per_token, games)
        assert read.startswith("team 1111111111")
    else:
        assert read == _read_as(parse_day_list_per_line, text, n)

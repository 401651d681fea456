"""Feasibility checker: clean passes, surgical mutations, input formats."""

import copy
import hashlib
import itertools
import json
import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2 import (
    Fixture,
    Instance,
    Schedule,
    ValidationError,
    build_schedule,
    evaluation_report,
    generate_instance,
    parse_day_list,
    report_to_json,
    save_instance,
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
    team_itinerary,
    total_travel,
    validate_schedule,
)
from ttp2 import scheduler, validator
from ttp2.cli import main
from ttp2.errors import SHOWN_MAX, shown
from ttp2.scheduler import S_BLOCK_TYPE
from ttp2.validator import C1, C2, C4, S_DAY_COUNT, S_ONE_GAME, TEAMS_MAX, ViolationReport

from helpers import day_list_text, lattice_weights, pair_cluster_instance

from reference import (brute_force_optimal, c2_repeats, first_seen, parse_day_list_per_line,
                       sample_valid_schedules)


def _raw_days(sched):
    return [[(f.away, f.home) for f in day] for day in sched.days]


@pytest.fixture(scope="module")
def clean8():
    s = build_schedule(generate_instance(8, kind="euclidean", seed=0))
    return _raw_days(s)


# --- clean schedules pass -----------------------------------------------------


@pytest.mark.parametrize("n", [8, 12, 16])
def test_constructed_schedules_validate(n):
    s = build_schedule(generate_instance(n, kind="euclidean", seed=1))
    report = validate_schedule(s)
    assert report.ok
    assert report.violations == ()


def test_oracle_schedule_validates():
    inst = generate_instance(4, kind="euclidean", seed=2)
    res = brute_force_optimal(inst)
    assert validate_schedule(res.schedule).ok


def test_sampled_schedules_validate():
    inst = generate_instance(6, kind="euclidean", seed=3)
    for sched, _ in sample_valid_schedules(inst, count=3, seed=0):
        assert validate_schedule(sched).ok


# --- mutations are caught -------------------------------------------------------


def test_venue_flip_breaks_c1(clean8):
    days = [list(day) for day in clean8]
    a, h = days[0][0]
    days[0][0] = (h, a)
    report = validate_schedule(Schedule(n=8, days=days))
    assert not report.ok
    c1 = report.by_constraint(C1)
    details = {v.teams: v.detail for v in c1}
    assert (h, a) in details and "2 times" in details[(h, a)]
    assert (a, h) in details and "0 times" in details[(a, h)]
    assert len(c1) == 2


def test_duplicated_day_breaks_c2(clean8):
    days = [list(day) for day in clean8]
    days[-1] = list(days[-2])
    report = validate_schedule(Schedule(n=8, days=days))
    c2 = report.by_constraint(C2)
    assert len(c2) == 4  # all four pairings repeat
    assert all(v.day == len(days) - 1 for v in c2)
    assert report.by_constraint(C1)  # the displaced games are missing too


def _random_days(rng, n, num_days):
    """Days of random fixtures between n teams, 0 to n - 1 a day: teams may
    play twice a day, and pairs often meet on consecutive days."""
    days = []
    for _ in range(num_days):
        day = []
        for _ in range(int(rng.integers(n))):
            a, h = rng.choice(n, size=2, replace=False).tolist()
            day.append((a, h))
        days.append(day)
    return days


@pytest.mark.parametrize("seed", range(6))
def test_c2_matches_the_reference(clean8, seed):
    rng = np.random.default_rng(seed)
    cases = [_random_days(rng, n, int(rng.integers(1, 12))) for n in (4, 5, 6, 8)]
    # built days with some repeats put in: a day copied onto the next, a
    # pair meeting twice on one day and on the day before, meetings on day 0
    days = [list(day) for day in clean8]
    days[1] = list(days[0])
    days[5] = days[5] + [days[4][0][::-1], days[4][0]]
    days[9] = days[9] + [days[9][1]]
    days[10] = days[10] + [days[9][1][::-1]]
    cases.append(days)
    for _ in range(20):
        days = [list(day) for day in clean8]
        for _ in range(int(rng.integers(1, 6))):
            d = int(rng.integers(len(days)))
            e = min(len(days) - 1, d + int(rng.integers(2)))
            days[e].append(days[d][int(rng.integers(len(days[d])))][::int(rng.choice([-1, 1]))])
        cases.append(days)
    found = 0
    for days in cases:
        want = c2_repeats(days)
        for form in (days, tuple(tuple(Fixture(*fx) for fx in day) for day in days)):
            report = validate_schedule(Schedule(n=8, days=form))
            got = [(v.day, v.teams) for v in report.by_constraint(C2)]
            assert got == want
        found += len(want)
    assert found


def test_three_day_run_breaks_c4():
    text = """
    day 1: 0@1
    day 2: 0@1
    day 3: 0@1
    """
    report = validate_schedule(parse_day_list(text))
    c4 = report.by_constraint(C4)
    # team 0 away three straight days, team 1 home three straight days;
    # the violation is logged on the third day of the run, 0-based
    assert {(v.teams[0], v.day) for v in c4} == {(0, 2), (1, 2)}
    kinds = {v.teams[0]: v.detail for v in c4}
    assert "away" in kinds[0] and "home" in kinds[1]


def test_two_day_runs_are_fine():
    text = """
    0@1
    0@1
    """
    # repeated pair breaks C1/C2 but the two-day away stand is legal
    report = validate_schedule(parse_day_list(text, n=2))
    assert report.by_constraint(C4) == []


def test_missing_day_breaks_day_count(clean8):
    days = [list(day) for day in clean8][:-1]
    report = validate_schedule(Schedule(n=8, days=days))
    sd = report.by_constraint(S_DAY_COUNT)
    assert len(sd) == 1
    assert "13 days, expected 14" in sd[0].detail


def test_team_swap_breaks_one_game_per_day(clean8):
    days = [list(day) for day in clean8]
    (a, h) = days[0][0]
    (a2, h2) = days[0][1]
    days[0][1] = (a, h2)  # team a now plays twice on day 0, a2 not at all
    report = validate_schedule(Schedule(n=8, days=days))
    og = report.by_constraint(S_ONE_GAME)
    by_team = {v.teams[0]: v.detail for v in og}
    assert f"team {a} plays 2 games" in by_team[a]
    assert f"team {a2} plays 0 games" in by_team[a2]
    assert all(v.day == 0 for v in og)


# --- input formats ----------------------------------------------------------------


def test_parse_day_list_formats():
    text = """
    # comment line
    day 1: 0@1 2@3

    Day 2: 1@0 3@2
    """
    s = parse_day_list(text)
    assert isinstance(s, Schedule) and s.levels == ()
    assert s.days == (((0, 1), (2, 3)), ((1, 0), (3, 2)))
    assert {type(f) for day in s.days for f in day} == {Fixture}


def test_parse_day_list_without_prefix():
    assert parse_day_list("0@1 2@3\n1@0 3@2").days == (
        ((0, 1), (2, 3)), ((1, 0), (3, 2)))


def test_parse_day_list_bad_token():
    with pytest.raises(ValidationError, match="away@home"):
        parse_day_list("0-1")
    # a team is read from ASCII digits only, not as int() reads it
    for text in ("a@b", "1_0@2", "\u0663@1", "+1@2", "0@1@2"):
        with pytest.raises(ValidationError, match="non-integer team in token"):
            parse_day_list(text)
    with pytest.raises(ValidationError, match="prefix"):
        parse_day_list("row 1: 0@1")


# separators ``\s`` and ``str.split`` know, of which numpy's text reader
# knows only those C's ``isspace`` does: not \x1c-\x1f or U+2003.  Of
# these, \x0b, \x0c and \x1c-\x1e end a line, as ``str.splitlines`` reads
# text; the others separate games
@pytest.mark.parametrize("sep", [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                                 "\u2003"], ids=repr)
@pytest.mark.parametrize("pad", ["", "0", "0" * 25], ids=len)
def test_a_day_list_reads_any_separator_and_zero_padded_teams(clean8, sep, pad):
    games = [[f"{pad}{a}@{pad}{h}" for a, h in day] for day in clean8]
    breaks = len(f"a{sep}b".splitlines()) == 2
    end, between = (sep, " ") if breaks else ("\n", sep)
    text = "".join(f"# day {d}{end}{between}{end}day {d + 1}:{between}"
                   + between.join(day) + between + end for d, day in enumerate(games))
    for n in (None, 8):
        assert _read(parse_day_list(text, n)) == _read(clean8)
    g = parse_day_list(text)._array
    assert g.away.dtype == np.int64 and not g.away.flags.writeable
    # the joined games, whichever separator numpy meets, are read token for token
    joined = sep.join(itertools.chain.from_iterable(games))
    teams = validator._day_list_teams(joined, 2 * joined.count("@"))
    assert list(map(int, teams)) == [t for day in clean8 for game in day for t in game]


@pytest.mark.parametrize("team, n, match", [
    ("9" * 19, 8, "team 9999999999999999999 out of range on day 2 (n=8)"),
    ("9223372036854775807", 8, "team 9223372036854775807 out of range on day 2 (n=8)"),
    ("{a:019d}", None, None),   # the team it stands for, zero-padded to 19 digits
    ("1" * 20, 8, f"team {'1' * 20} out of range on day 2 (n=8)"),
    ("1" * 20, None, f"team count {shown(int('1' * 20) + 1)} exceeds the supported maximum"),
    ("1" * 4301, 8, "team 111111111111... has 4301 digits, past the 4300-digit limit"),
])
def test_a_day_list_team_past_int64_is_read_and_refused_with_its_day(clean8, team, n, match):
    # numpy saturates a team of 19 or more digits: such text is read token
    # by token, and the team refused as out of range on its day, like any other
    days = [list(day) for day in clean8]
    a, h = days[2][1]
    lines = [" ".join(f"{x}@{y}" for x, y in day) for day in days]
    lines[2] = lines[2].replace(f"{a}@{h}", team.format(a=a) + f"@{h}", 1)
    text = "\n".join(lines)
    if match is None:
        assert _read(parse_day_list(text, n)) == _read(clean8)
        return
    with pytest.raises(ValidationError, match=f"^{re.escape(match)}"):
        parse_day_list(text, n)


_GAME = st.builds("{2}{0}@{1}".format, st.integers(0, 12), st.integers(0, 12),
                  st.sampled_from(["", "", "", "0", "00"]))
_BAD_TOKEN = st.sampled_from(["0-1", "a@b", "1_0@2", "+1@2", "\u0663@1", "0@1@2", "@1", "x"])
_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def _day_list_lines(draw):
    kind = draw(st.sampled_from(["games", "games", "games", "blank", "comment", "empty day"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":
        return draw(st.sampled_from(["# a comment", "#day 1: 0@1", "  # 5@6 x"]))
    prefix = draw(st.sampled_from(["", "", "day 3: ", "Day 12:", "  DAY 1 :  "] * 4 +
                                  ["row 1: "]))
    if kind == "empty day":
        return prefix
    bad = draw(st.sampled_from([False] * 9 + [True]))
    tokens = draw(st.lists(_GAME | _BAD_TOKEN if bad else _GAME, min_size=1, max_size=5))
    spaces = draw(st.lists(_SPACE, min_size=len(tokens), max_size=len(tokens)))
    return prefix + "".join(s + t for s, t in zip(spaces, tokens)) + draw(_SPACE | st.just(""))


def _outcome(read, text, n):
    try:
        s = read(text, n)
    except ValidationError as exc:
        return str(exc)
    assert {type(f) for day in s.days for f in day} <= {Fixture}
    return s.days, s.n


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(lines=st.lists(_day_list_lines(), max_size=8),
       end=st.sampled_from(["\n", "\r\n"]), n=st.none() | st.integers(0, 16))
def test_parse_day_list_reads_as_the_per_line_reference(lines, end, n):
    # the same days and n, or the same refusal, line for line
    text = end.join(lines)
    assert _outcome(parse_day_list, text, n) == _outcome(parse_day_list_per_line, text, n)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.data())
def test_each_team_day_is_set_by_its_first_fixture(data):
    # a team repeated on a day, byes and any fixture order: the normal form
    # describes each team's day by the first fixture naming it
    n = data.draw(st.integers(2, 8))
    fixture = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda f: f[0] != f[1])
    days = data.draw(st.lists(st.lists(fixture, max_size=n), max_size=6))
    g = Schedule(n=n, days=days)._array
    opponent, at_home, games = first_seen(days, n)
    assert g.opponent.tolist() == opponent
    assert g.at_home.tolist() == at_home
    assert g.games.tolist() == games
    assert g.opponent.dtype == np.int64 and g.at_home.dtype == bool


def _stored(days, n):
    """``days`` (lists of (away, home)) in the stored form, read back by
    ``schedule_from_dict``."""
    return schedule_from_dict({"n": n, "days": [[{"away": a, "home": h} for a, h in day]
                                                for day in days]})


def test_dict_form_accepted(clean8):
    assert validate_schedule(_stored(clean8, 8)).ok


# forms the readers refuse: each is made into a Schedule first
_NOT_SCHEDULES = {
    "list": lambda s: [list(day) for day in s.days],
    "text": lambda s: day_list_text(s.days),
    "dict": schedule_to_dict,
}


@pytest.mark.parametrize("form", list(_NOT_SCHEDULES))
@pytest.mark.parametrize("reader", [
    lambda obj, inst: validate_schedule(obj),
    lambda obj, inst: total_travel(obj, inst),
    lambda obj, inst: team_itinerary(obj, inst, 0),
    lambda obj, inst: evaluation_report(obj, inst),
], ids=["validate_schedule", "total_travel", "team_itinerary", "evaluation_report"])
def test_readers_take_a_schedule_only(reader, form):
    inst = generate_instance(8, kind="euclidean", seed=0)
    obj = _NOT_SCHEDULES[form](build_schedule(inst))
    kind = type(obj).__name__
    with pytest.raises(ValidationError, match=re.escape(
            f"expected a Schedule, got a {kind}: make one with Schedule(n, days), "
            "parse_day_list or schedule_from_dict")):
        reader(obj, inst)


# the stored form refuses text and booleans where it needs an integer, as
# the in-memory forms do (ODD_TEAMS below)
@pytest.mark.parametrize("path,value,field", [
    (("n",), "8", "n"),
    (("days", 0, 0, "away"), "0", "away"),
    (("days", 0, 0, "away"), False, "away"),
    (("days", 0, 0, "home"), b"1", "home"),
    (("flips",), "1", "flips"),
    (("levels", 0, "round"), True, "round"),
    (("levels", 0, "blocks", 0, "type"), "1", "type"),
    (("team_pairs", "pairs", 0), ["0", 1], "team"),
    (("team_pairs", "weight"), "1.0", "weight"),
    (("team_pairs", "weight"), True, "weight"),
    (("team_pairs", "weight"), -5.0, "weight"),
    (("team_pairs", "weight"), float("nan"), "weight"),
    (("super_pairs", "weight"), "nan", "weight"),
    (("super_pairs", "weight"), False, "weight"),
    (("super_pairs", "weight"), float("inf"), "weight"),
    (("super_pairs", "weight"), 10 ** 400, "weight"),
], ids=repr)
def test_stored_text_and_bools_are_not_integers(path, value, field):
    obj = schedule_to_dict(build_schedule(generate_instance(8, kind="euclidean", seed=0)))
    *keys, last = path
    target = obj
    for key in keys:
        target = target[key]
    target[last] = value
    with pytest.raises(ValidationError,
                       match=f"malformed schedule JSON: .*invalid literal for {field}: "):
        schedule_from_dict(obj)


def test_n_inferred_from_teams(clean8):
    s = parse_day_list(day_list_text(clean8))  # no n given: max index + 1
    assert s.n == 8 and validate_schedule(s).ok
    assert parse_day_list("day 1: 0@5\nday 2: 2@1").n == 6
    assert parse_day_list("day 1: 0@5\nday 2: 2@1", n=8).n == 8
    with pytest.raises(ValidationError, match=re.escape("team 5 out of range on day 0 (n=5)")):
        parse_day_list("day 1: 0@5\nday 2: 2@1", n=5)


def test_declared_n_must_match_the_given_n(clean8):
    s = build_schedule(generate_instance(8, kind="euclidean", seed=0))
    obj = _stored(clean8, 8)
    inst10 = Instance(n=10, dist=np.zeros((10, 10)))
    for sched in (s, obj, parse_day_list(day_list_text(clean8))):
        for reader in (lambda: total_travel(sched, inst10),
                       lambda: team_itinerary(sched, inst10, 0),
                       lambda: evaluation_report(sched, inst10)):
            with pytest.raises(ValidationError, match="n=8 does not match the expected n=10"):
                reader()
    assert validate_schedule(obj).ok


def test_n_cross_check_mismatch(clean8):
    # declaring more teams makes every game involving them "missing"
    report = validate_schedule(Schedule(n=10, days=clean8))
    assert not report.ok
    assert report.by_constraint(C1)


# --- malformed input raises ---------------------------------------------------------


def test_self_play_raises():
    with pytest.raises(ValidationError, match="plays itself"):
        Schedule(n=4, days=[[(1, 1)]])


def test_out_of_range_raises():
    with pytest.raises(ValidationError, match="out of range"):
        Schedule(n=4, days=[[(0, 9)]])


def test_a_team_count_past_the_bound_raises(clean8):
    # given or inferred from a day list, it is refused before any days x
    # teams array is sized from it
    assert not validate_schedule(Schedule(n=TEAMS_MAX, days=clean8)).ok
    text = day_list_text(clean8)
    makes = [lambda n=n: Schedule(n=n, days=clean8) for n in (TEAMS_MAX + 1, 2 ** 40, 2 ** 80)]
    makes += [lambda: parse_day_list(text, TEAMS_MAX + 1),
              lambda: parse_day_list(f"day 1: 0@{2 ** 40}"),
              lambda: parse_day_list(f"day 1: 0@{TEAMS_MAX}")]
    for make in makes:
        with pytest.raises(ValidationError, match=f"exceeds the supported maximum {TEAMS_MAX}"):
            make()
    assert parse_day_list(f"day 1: 0@{TEAMS_MAX - 1}").n == TEAMS_MAX


def test_tiny_n_raises():
    with pytest.raises(ValidationError, match="at least 2"):
        Schedule(n=1, days=[[(0, 1)]])


def test_empty_schedule_needs_n():
    for text in ("", "# no games\n", "day 1:\nday 2:\n"):
        with pytest.raises(ValidationError,
                           match="cannot infer team count from an empty schedule"):
            parse_day_list(text)
    assert parse_day_list("day 1:\nday 2:\n", n=4).days == ((), ())
    with pytest.raises(ValidationError, match="needs its team count n, got None"):
        Schedule(n=None, days=())


def test_malformed_fixture_raises():
    # a dict, a string or a set would unpack to its two keys, characters or
    # members, a set's in hash order: none is an ordered pair
    for fixture in (("x", None), {"away": 0, "home": 1}, {0: "a", 1: "b"}, "01", {0, 1},
                    frozenset((0, 1))):
        with pytest.raises(ValidationError, match="malformed fixture"):
            Schedule(n=4, days=[[fixture]])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=80),
    lambda inner: st.lists(inner, max_size=25) | st.dictionaries(st.text(max_size=5), inner,
                                                                  max_size=25),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_a_message_shows_a_short_value_whole_and_cuts_a_long_one(value):
    # dict keys keep their order, which reprlib's own rendering sorts
    full = repr(value)
    if len(full) <= SHOWN_MAX:
        assert shown(value) == full
    else:
        assert len(shown(value)) == SHOWN_MAX and "..." in shown(value)


def test_a_message_shows_any_value_without_raising():
    class Broken:
        def __repr__(self):
            raise RuntimeError("no repr")

    deep, cycle = [], []
    for _ in range(100_000):
        deep = [deep]
    cycle.append(cycle)
    assert shown({"b": 1, "a": {3, 1}}) == "{'b': 1, 'a': {1, 3}}"
    assert shown([10 ** 5000, "a"]) == "[<an integer of 5001 digits>, 'a']"
    assert shown(-10 ** 4300) == "<an integer of 4301 digits>"
    assert shown(10 ** 4299) == repr(10 ** 4299)[:28] + "..." + repr(10 ** 4299)[-29:]
    for value in (deep, cycle, Broken(), {"b": Broken(), "a": deep}, list(range(10 ** 6))):
        assert len(shown(value)) <= SHOWN_MAX


@pytest.mark.parametrize("sched, match", [
    ({"n": 8, "days": [5]}, "malformed schedule JSON: 'int' object is not iterable"),
    ({"n": 8, "days": None}, "malformed schedule JSON: 'NoneType' object is not iterable"),
    ({"n": 8, "days": 5}, "malformed schedule JSON: 'int' object is not iterable"),
    ([5], "malformed day 5"),
    (None, "malformed days None"),
], ids=["dict-day", "dict-none", "dict-int", "list-day", "none"])
def test_non_iterable_days_raise(sched, match):
    inst = generate_instance(8, kind="unit", seed=0)
    if isinstance(sched, dict):   # the stored form has one reader
        with pytest.raises(ValidationError, match=match):
            schedule_from_dict(sched)
        return
    with pytest.raises(ValidationError, match=match):
        Schedule(n=inst.n, days=sched)


# --- one reading for every form -------------------------------------------------
#
# A Schedule reads every form of days fixture by fixture; a build and the
# stored forms hand their teams to the normal form without that reader.  All
# of them must give the same normal form and the same errors.


def _read(sched, n=8):
    """The normal form of ``sched``, a Schedule or the days of one of ``n``
    teams, as lists, or the ValidationError message that refuses it."""
    try:
        g = (sched if isinstance(sched, Schedule) else Schedule(n=n, days=sched))._array
    except ValidationError as exc:
        return str(exc)
    return (g.n, g.day.tolist(), g.away.tolist(), g.home.tolist(),
            g.opponent.tolist(), g.at_home.tolist(), g.games.tolist())


def _pair(away, home):
    return (away, home)


def _forms(days):
    """``days`` (lists of (away, home)) as Fixture tuples, Fixture lists,
    plain pairs, and generators of Fixture days and of pair days."""
    fixtures = tuple(tuple(Fixture(a, h) for a, h in day) for day in days)
    pairs = [[(a, h) for a, h in day] for day in days]
    return {"fixture tuples": fixtures,
            "fixture lists": [list(day) for day in fixtures],
            "pairs": pairs,
            "fixture generator": (day for day in fixtures),
            "pair generator": (day for day in pairs)}


def _mutated(clean8, mutation):
    days = [list(day) for day in clean8]
    a, h = days[0][0]
    if mutation == "venue_swap":
        days[0][0] = (h, a)
    elif mutation == "ragged":
        del days[3][1]
    elif mutation == "empty_day":
        days[5] = []
    elif mutation == "self_play":
        days[2][1] = (a, a)
    elif mutation == "out_of_range":
        days[4][0] = (a, 9)
    elif mutation == "negative":
        days[4][0] = (-1, h)
    elif mutation == "huge":
        days[1][0] = (2 ** 70, h)
    return days


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("mutation", ["none", "venue_swap", "ragged", "empty_day", "self_play",
                                      "out_of_range", "negative", "huge"])
def test_every_form_reads_alike(clean8, mutation, n):
    days = _mutated(clean8, mutation)
    reads = {name: _read(form, n) for name, form in _forms(days).items()}
    assert len(set(map(repr, reads.values()))) == 1, reads
    if mutation == "huge":   # a team past int64 is out of range like any other
        assert reads["fixture tuples"] == f"team {2 ** 70} out of range on day 1 (n={n})"


# team entries other than plain ints, and the team each is read as: a
# numpy integer or an integral float is read; text, a bool, or a number
# with a fractional part is refused, not read as int() reads it; a team
# past int64 is read, and refused as out of range, named with its day
ODD_TEAMS = [("3", "malformed"), (" 3", "malformed"), (2.0, 2), (True, "malformed"),
             (np.int64(3), 3), (np.int32(1), 1),
             (np.float64(5.0), 5), ("1.5", "malformed"), (1.7, "malformed"),
             (np.float32(2.5), "malformed"), (float("nan"), "malformed"),
             (float("inf"), "malformed"),
             (1e20, "past int64"), (2 ** 70, "past int64")]


def _stored_fixture(away, home):
    return {"away": away, "home": home}


@pytest.mark.parametrize("make", [Fixture, _pair, _stored_fixture],
                         ids=["Fixture", "pair", "stored"])
@pytest.mark.parametrize("entry,read_as", ODD_TEAMS, ids=repr)
def test_odd_team_entries_read_as_int_reads_them(clean8, entry, read_as, make):
    days = [[make(a, h) for a, h in day] for day in clean8]
    if isinstance(read_as, int):
        d, f = next((d, f) for d, day in enumerate(clean8)
                    for f, (a, _) in enumerate(day) if a == read_as)
        expected = _read(clean8)
    else:
        d, f = 0, 0
        expected = (f"team {int(entry)} out of range on day 0 (n=8)" if read_as == "past int64"
                    else read_as)
    days[d][f] = make(entry, clean8[d][f][1])
    if make is _stored_fixture:
        # the stored form's one reader reads the same schedule, or refuses it too
        try:
            read = _read(schedule_from_dict({"n": 8, "days": days}))
        except ValidationError:
            read = "refused"
        assert read == (expected if isinstance(read_as, int) else "refused")
        return
    if expected == "malformed":
        expected = f"malformed fixture {days[d][f]!r}"
    assert _read(days) == expected
    assert _read(day for day in days) == expected


def test_fixture_days_skip_the_per_fixture_reader(clean8, monkeypatch):
    inst = generate_instance(8, kind="euclidean", seed=0)
    s = build_schedule(inst)
    obj, text = schedule_to_dict(s), day_list_text(s.days)
    expected = _read(clean8)

    def per_fixture(fx):
        raise AssertionError(f"per-fixture reader called on {fx!r}")

    monkeypatch.setattr(validator, "_fixture_ends", per_fixture)
    forms = [build_schedule(inst), schedule_from_dict(obj), parse_day_list(text)]
    assert all(_read(form) == expected for form in forms)


# --- a built or loaded schedule is read once ---------------------------------------


def _count_reads(monkeypatch):
    """The normal forms ``_normal_form`` builds, in call order: every
    ``Schedule``, however it is made, reads its games through it."""
    read = []
    normal_form = validator._normal_form

    def counted(teams, counts, n):
        read.append(normal_form(teams, counts, n))
        return read[-1]

    # ``Schedule`` reads through the binding in ``scheduler``
    for module in (validator, scheduler):
        monkeypatch.setattr(module, "_normal_form", counted)
    return read


def _own(forms, sched):
    """How many of the normal forms ``forms`` are ``sched``'s own."""
    return sum(g is sched._array for g in forms)


def test_a_built_schedule_is_read_once(monkeypatch):
    inst = generate_instance(12, kind="euclidean", seed=0)
    read = _count_reads(monkeypatch)
    s = build_schedule(inst)
    other = build_schedule(generate_instance(8, kind="euclidean", seed=0))
    assert read == [s._array, other._array]
    assert validate_schedule(s).ok
    assert validate_schedule(other).ok
    rep = evaluation_report(s, inst)
    assert total_travel(s, inst) == rep.total_travel
    assert read == [s._array, other._array]
    g = s._array
    for arr in (g.day, g.away, g.home, g.opponent, g.at_home, g.games):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_a_loaded_schedule_is_read_once(monkeypatch):
    inst = generate_instance(12, kind="euclidean", seed=0)
    built = build_schedule(inst)
    text = schedule_to_json(built)
    read = _count_reads(monkeypatch)
    s = schedule_from_json(text)
    other = schedule_from_json(schedule_to_json(build_schedule(
        generate_instance(8, kind="euclidean", seed=0))))
    assert _own(read, s) == 1
    assert validate_schedule(s).ok
    assert validate_schedule(other).ok
    assert total_travel(s, inst) == total_travel(built, inst)
    assert s.days == built.days
    assert _own(read, s) == 1 and _own(read, other) == 1
    assert len(read) == 3   # s, then other as built and as loaded
    assert s._array is not built._array
    assert _read(s) == _read(built)


# --- every schedule makes its Fixture days when they are first read ---------------


def _count_day_makes(monkeypatch):
    """The normal forms ``_fixture_days`` makes days from, in call order."""
    made = []
    fixture_days = validator._fixture_days

    def counted(g):
        made.append(g)
        return fixture_days(g)

    # ``Schedule`` makes its days through the binding in ``scheduler``
    for module in (validator, scheduler):
        monkeypatch.setattr(module, "_fixture_days", counted)
    return made


def _built8():
    return build_schedule(generate_instance(8, kind="euclidean", seed=0))


def _json_with_an_empty_day():
    """A stored 8-team schedule without a plan, with an empty fourth day
    and its first two days' away teams stored as floats, as ``_STORED``
    gives it."""
    obj = schedule_to_dict(_built8())
    obj.update(levels=[], flips=0, team_pairs=None, super_pairs=None)
    obj["days"].insert(3, [])
    for day in obj["days"][:2]:   # numbers that ``errors.integer`` reads as ints
        for game in day:
            game["away"] = float(game["away"])
    pairs = [[(int(g["away"]), g["home"]) for g in day] for day in obj["days"]]
    return schedule_from_dict(obj), 8, pairs


_PAIRS4 = [[(0, 1), (2, 3)], [], [(1, 0), (3, 2)]]
# a schedule of each form, built, hand-made or stored, as (schedule, n, its
# games as days of pairs)
_STORED = {
    "built": lambda: (_built8(), 8, _raw_days(_built8())),
    "hand-made-empty-day": lambda: (Schedule(n=4, days=_PAIRS4), 4, _PAIRS4),
    "json": lambda: (schedule_from_json(schedule_to_json(_built8())), 8, _raw_days(_built8())),
    "json-empty-day": _json_with_an_empty_day,
    "day-list-empty-days": lambda: (parse_day_list("day 1: 0@1 2@3\nday 2:\n# a comment\n"
                                                   "day 3: 1@0 3@2\nday 4:\n"),
                                    4, [[(0, 1), (2, 3)], [], [(1, 0), (3, 2)], []]),
    "day-list-n": lambda: (parse_day_list(day_list_text(_built8().days), 12), 12,
                           _raw_days(_built8())),
    "no-game-given-n": lambda: (parse_day_list("# no game\n", 8), 8, []),
    "empty-day-given-n": lambda: (parse_day_list("day 1:\n", 8), 8, [[]]),
}


@pytest.mark.parametrize("form", list(_STORED))
def test_a_stored_schedule_makes_its_days_once_when_first_read(monkeypatch, form):
    made = _count_day_makes(monkeypatch)
    sched, n, pairs = _STORED[form]()
    assert _own(made, sched) == 0 and "days" not in vars(sched)
    days = sched.days
    assert _own(made, sched) == 1
    assert days == Schedule(n=n, days=pairs).days
    assert type(days) is tuple and {type(day) for day in days} <= {tuple}
    assert {type(fx) for day in days for fx in day} <= {Fixture}
    assert {type(t) for day in days for fx in day for t in fx} <= {int}
    assert sched.days is days and _own(made, sched) == 1
    assert validate_schedule(sched) == validate_schedule(Schedule(n=n, days=pairs))


def test_the_readers_leave_a_stored_schedule_s_days_unmade(monkeypatch, tmp_path, capsys):
    inst = generate_instance(12, kind="euclidean", seed=0)
    built = build_schedule(inst)
    inst_path, json_path, text_path = (tmp_path / "inst.json", tmp_path / "s.json",
                                       tmp_path / "s.txt")
    save_instance(inst, str(inst_path))
    json_path.write_text(schedule_to_json(built))
    text_path.write_text(day_list_text(built.days))
    made = _count_day_makes(monkeypatch)
    for sched in (build_schedule(inst), schedule_from_json(json_path.read_text()),
                  parse_day_list(text_path.read_text())):
        assert validate_schedule(sched).ok
        assert evaluation_report(sched, inst).valid
        assert total_travel(sched, inst) == total_travel(built, inst)
        assert team_itinerary(sched, inst, 3) == team_itinerary(built, inst, 3)
        assert "days" not in vars(sched)
    for path in (json_path, text_path):
        assert main(["validate", "-i", str(path), "-d", str(inst_path)]) == 0
        assert main(["evaluate", "-i", str(path), "-d", str(inst_path), "--json"]) == 0
    assert main(["schedule", "-i", str(inst_path), "--table"]) == 0
    capsys.readouterr()
    assert made == []


# what is compared between a schedule whose days are not made and the same
# schedule made with its days, and how one whose days are not made is copied
_VIEWS = {"replace": lambda s: replace(s, levels=()), "eq": lambda s: s, "hash": hash,
          "repr": repr}
_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda s: pickle.loads(pickle.dumps(s))}


@pytest.mark.parametrize("op", list(_VIEWS) + list(_COPIES))
@pytest.mark.parametrize("form", ["built", "json", "day-list"])
def test_a_schedule_whose_days_are_not_made_is_a_plain_value(op, form):
    if form == "day-list":
        made = Schedule(n=4, days=_PAIRS4)
        sched = parse_day_list(day_list_text(_PAIRS4))
    else:
        made = _built8()
        sched = _built8() if form == "built" else schedule_from_json(schedule_to_json(made))
    assert made.days and "days" in vars(made) and "days" not in vars(sched)
    if op in _COPIES:
        c = _COPIES[op](sched)
        assert "days" not in vars(c) and c.days == made.days
        assert validate_schedule(c) == validate_schedule(made)
    else:
        assert _VIEWS[op](sched) == _VIEWS[op](made)
    assert sched.days == made.days
    with pytest.raises(AttributeError, match="no attribute 'weeks'"):
        sched.weeks


def _self_play(game):
    game["home"] = game["away"]


# two faults in the stored form of a built 8-team schedule, and the one it is
# refused for: the team count, then the plan, then the games in game order
_TWO_FAULTS = {
    "plan-and-self-play": (lambda obj: (obj.update(levels=obj["levels"][-1:], flips=0),
                                        _self_play(obj["days"][0][0])),
                           "stored levels: 1 level"),
    "team-pairs-and-range": (lambda obj: (obj["team_pairs"].update(pairs=[[0, 0]]),
                                          obj["days"][0][0].update(away=99)),
                             "stored team_pairs"),
    "count-and-range": (lambda obj: (obj.update(n=TEAMS_MAX + 1),
                                     obj["days"][0][0].update(away=-1)),
                        "exceeds the supported maximum"),
    "fraction-and-self-play": (lambda obj: (_self_play(obj["days"][0][0]),
                                            obj["days"][2][1].update(away=2.5)),
                               "2.5 is not an integer"),
    "self-play-then-range": (lambda obj: (_self_play(obj["days"][1][0]),
                                          obj["days"][1][1].update(away=8)),
                             "team \\d+ plays itself on day 1"),
}


@pytest.mark.parametrize("fault", list(_TWO_FAULTS))
def test_a_stored_schedule_with_two_faults_is_refused_for_the_first(fault):
    edit, match = _TWO_FAULTS[fault]
    obj = schedule_to_dict(_built8())
    edit(obj)
    with pytest.raises(ValidationError, match=match):
        schedule_from_dict(obj)


@pytest.mark.parametrize("text, n, match", [
    ("day 1: 0@0\n", TEAMS_MAX + 1, "exceeds the supported maximum"),
    ("day 1: 0@0\n", 1, "team count must be at least 2"),
    (f"day 1: {2 ** 70}@0 0@0\n", 1, f"team {2 ** 70} out of range on day 0 \\(n=1\\)"),
    ("day 1: 0@9 1@1\n", 8, "team 9 out of range on day 0"),
])
def test_a_day_list_with_two_faults_is_refused_as_its_days_are(text, n, match):
    with pytest.raises(ValidationError, match=match):
        parse_day_list(text, n)
    days = [[tuple(map(int, game.split("@"))) for game in text.split(":")[1].split()]]
    with pytest.raises(ValidationError, match=match):
        Schedule(n=n, days=days)


@pytest.mark.parametrize("team", [2 ** 70, 1e20, -2 ** 64, 2 ** 63], ids=repr)
def test_a_team_past_int64_is_refused_with_its_day_in_every_form(clean8, team):
    # named like any team out of range, and before a fault of an earlier game
    days = [list(day) for day in clean8]
    days[1][0] = (days[1][0][0],) * 2
    days[3][1] = (team, days[3][1][1])
    expected = f"^team {int(team)} out of range on day 3 \\(n=8\\)$"
    obj = {"n": 8, "days": [[{"away": a, "home": h} for a, h in day] for day in days]}
    readers = [lambda: Schedule(n=8, days=days), lambda: schedule_from_dict(obj),
               lambda: schedule_from_json(json.dumps(obj))]
    if team > 0:
        readers.append(lambda: parse_day_list(day_list_text(days), 8))
    for read in readers:
        with pytest.raises(ValidationError, match=expected):
            read()


@pytest.mark.parametrize("copy_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_schedule_keeps_a_read_only_normal_form(clean8, copy_of):
    inst = generate_instance(8, kind="euclidean", seed=0)
    built = build_schedule(inst)
    swapped = _stored(_mutated(clean8, "venue_swap"), 8)
    for s in (built, schedule_from_json(schedule_to_json(built)), swapped):
        c = copy_of(s)
        g = c._array
        assert g is not s._array
        for arr in (g.day, g.away, g.home, g.opponent, g.at_home, g.games):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        assert _read(c) == _read(s)
        assert validate_schedule(c) == validate_schedule(s)
        assert total_travel(c, inst) == total_travel(s, inst)
    assert not validate_schedule(copy_of(swapped)).ok


def test_another_n_on_the_same_tuple_raises_or_reads_again():
    s = build_schedule(generate_instance(8, kind="euclidean", seed=0))
    g = Schedule(n=8, days=s.days)._array
    assert g.n == 8 and g is not s._array
    with pytest.raises(ValidationError, match="schedule n=8 does not match the expected n=12"):
        total_travel(s, generate_instance(12, kind="euclidean", seed=0))
    s10 = Schedule(n=10, days=s.days)
    assert s10._array.n == 10 and s10._array.games.shape == (14, 10)
    assert not validate_schedule(s10).ok
    with pytest.raises(ValidationError, match="out of range"):
        Schedule(n=6, days=s.days)
    assert _read(s.days) == _read(s)


# --- every Schedule is read once and judged once, however it is made ---------------


def _count_verdicts(monkeypatch):
    """The normal forms ``_validate`` judges, in call order."""
    judged = []
    judge = validator._validate

    def counted(g):
        judged.append(g)
        return judge(g)

    # ``Schedule._report`` judges through the binding in ``scheduler``
    for module in (validator, scheduler):
        monkeypatch.setattr(module, "_validate", counted)
    return judged


# how a Schedule is made from a built schedule ``s`` on ``inst``: built,
# loaded or copied, or from ``s``'s days in each form ``Schedule(n, days)``
# and ``parse_day_list`` read
_FORMS = {
    "built": lambda inst, s: build_schedule(inst),
    "loaded": lambda inst, s: schedule_from_json(schedule_to_json(s)),
    "made": lambda inst, s: Schedule(n=s.n, days=s.days),
    "replaced": lambda inst, s: replace(s, levels=()),
    "pickled": lambda inst, s: pickle.loads(pickle.dumps(build_schedule(inst))),
    "deep-copied": lambda inst, s: copy.deepcopy(build_schedule(inst)),
    "day-list": lambda inst, s: Schedule(n=s.n, days=list(s.days)),
    "list-days": lambda inst, s: Schedule(n=s.n, days=tuple(map(list, s.days))),
    "raw-pairs": lambda inst, s: Schedule(n=s.n, days=_raw_days(s)),
    "raw-pair-tuples": lambda inst, s: Schedule(n=s.n, days=tuple(map(tuple, _raw_days(s)))),
    "day-list-text": lambda inst, s: parse_day_list(day_list_text(s.days)),
    "day-list-text-n": lambda inst, s: parse_day_list(day_list_text(s.days), s.n),
}
_CALLS = ("validate", "evaluate", "travel")


@pytest.mark.parametrize("order", list(itertools.permutations(_CALLS)), ids="-".join)
@pytest.mark.parametrize("form", list(_FORMS))
def test_every_schedule_is_read_and_judged_once(monkeypatch, form, order):
    inst = generate_instance(12, kind="euclidean", seed=0)
    s = build_schedule(inst)
    travel = total_travel(s, inst)
    read, judged = _count_reads(monkeypatch), _count_verdicts(monkeypatch)
    sched = _FORMS[form](inst, s)
    calls = {"validate": lambda: validate_schedule(sched).ok,
             "evaluate": lambda: evaluation_report(sched, inst).valid,
             "travel": lambda: total_travel(sched, inst) == travel}
    for _ in range(2):
        assert all(calls[name]() for name in order)
    assert len(read) == 1 and judged == [sched._array]
    assert validate_schedule(sched) is sched._report
    assert _read(sched) == _read(s)


def test_a_schedule_of_malformed_days_is_refused_when_made():
    for days, match in ((((Fixture(0, 0),),), "plays itself"), ((((0, 9),),), "out of range"),
                        ((((0, "1"),),), "malformed fixture")):
        with pytest.raises(ValidationError, match=match):
            Schedule(n=8, days=days)


def test_a_schedule_keeps_its_days_as_it_read_them():
    inst = generate_instance(12, kind="euclidean", seed=0)
    s = build_schedule(inst)
    day_lists = [list(day) for day in s.days]
    fixture_lists = [[list(fx) for fx in day] for day in s.days]
    made = (Schedule(n=12, days=(day for day in s.days)), Schedule(n=12, days=day_lists),
            Schedule(n=12, days=fixture_lists))
    # editing the lists afterwards reaches none of the schedules
    day_lists[0][0] = Fixture(*reversed(day_lists[0][0]))
    fixture_lists[0][0].reverse()
    del day_lists[1], fixture_lists[-1][0]
    days_only = schedule_to_json(Schedule(n=12, days=s.days))
    for sched in made:
        assert sched.days == s.days and type(sched.days) is tuple
        assert {type(day) for day in sched.days} == {tuple}
        assert {type(fx) for day in sched.days for fx in day} == {Fixture}
        assert validate_schedule(sched).ok
        assert total_travel(sched, inst) == total_travel(s, inst)
        assert schedule_to_json(sched) == days_only


def test_a_loaded_venue_swapped_schedule_keeps_its_violations():
    inst = generate_instance(8, kind="euclidean", seed=0)
    obj = schedule_to_dict(build_schedule(inst))
    fixture = obj["days"][0][0]
    fixture["away"], fixture["home"] = fixture["home"], fixture["away"]
    s = schedule_from_json(json.dumps(obj))
    assert not evaluation_report(s, inst).valid
    kept = s._report
    fresh = validator._validate(s._array)
    assert kept is not None and kept is not fresh
    assert kept.by_constraint(C1) and kept.by_constraint(C1) == fresh.by_constraint(C1)
    assert validate_schedule(s) is kept


# --- stored block types ------------------------------------------------------------


def test_stored_block_types_are_checked_against_the_days():
    inst = generate_instance(12, kind="euclidean", seed=0)
    obj = schedule_to_dict(build_schedule(inst))
    for level in obj["levels"]:
        for block in level["blocks"]:
            if block["type"] == 2:
                block["type"] = 1
    obj["flips"] = 0
    stored = schedule_from_dict(obj)
    report = validate_schedule(stored)
    assert [v.constraint for v in report.violations] == [S_BLOCK_TYPE] * 3
    assert [v.day for v in report.violations] == [5, 9, 13]
    assert not evaluation_report(stored, inst).valid
    # the days alone, without the stored levels, are still a valid schedule
    assert validate_schedule(Schedule(n=12, days=list(stored.days))).ok


@pytest.mark.parametrize("level,field,value,expected", [
    (0, "type", 3, "level 1 block of pairs 0 and 1 has type 3, expected 1 or 2"),
    (-1, "type", 1, "level 5 block of pairs 4 and 0 has type 1, expected 3"),
    (0, "a_pair", 99, "stored levels: level 1 names pairs [1, 2, 3, 4, 5, 99], "
                      "expected each of 0..5 once"),
])
def test_stored_levels_are_checked(level, field, value, expected):
    obj = schedule_to_dict(build_schedule(generate_instance(12, "euclidean", 0)))
    obj["levels"][level]["blocks"][0][field] = value
    # without team pairs the types are still checked, and a level that is
    # no perfect matching of the pairs is still refused when it is loaded
    for team_pairs in (obj["team_pairs"], None):
        obj["team_pairs"] = team_pairs
        if field == "a_pair":
            with pytest.raises(ValidationError, match=re.escape(expected)):
                schedule_from_dict(obj)
            continue
        report = validate_schedule(schedule_from_dict(obj))
        details = [v.detail for v in report.by_constraint(S_BLOCK_TYPE)]
        assert details == [expected]


# --- a report keeps the first REPORT_LIMIT violations of each constraint ------------


def _first_of_each(violations, limit):
    """The first ``limit`` violations of each constraint, in order, and each
    constraint's count, in the order the constraints first appear."""
    counts, kept = {}, []
    for v in violations:
        counts[v.constraint] = counts.get(v.constraint, 0) + 1
        if counts[v.constraint] <= limit:
            kept.append(v)
    return tuple(kept), tuple(counts.items())


def _declared_at_64():
    # day count, one game per day and C1 past the limit
    return Schedule(n=64, days=build_schedule(generate_instance(8, kind="euclidean", seed=0)).days)


def _triplets():
    # one slate at n=32 played three days running, then reversed for three:
    # C1, C2 and C4 past the limit
    day = build_schedule(generate_instance(32, kind="euclidean", seed=0)).days[0]
    back = [f[::-1] for f in day]
    return Schedule(n=32, days=([day] * 3 + [back] * 3) * 10)


def _retyped():
    # every block of a built n=32 plan stored as Type-3: 14 levels of 8
    # blocks past the limit
    s = build_schedule(generate_instance(32, kind="euclidean", seed=0))
    levels = tuple(replace(lp, super_matches=tuple(replace(sm, block_type=3)
                                                   for sm in lp.super_matches))
                   for lp in s.levels)
    return replace(s, levels=levels)


@pytest.mark.parametrize("make", [_declared_at_64, _triplets, _retyped])
def test_a_report_keeps_the_first_of_each_constraint_and_counts_them_all(monkeypatch, make):
    with monkeypatch.context() as m:
        for module in (validator, scheduler):
            m.setattr(module, "REPORT_LIMIT", 10 ** 9)
        full = validate_schedule(make())
    report = validate_schedule(make())
    kept, counts = _first_of_each(full.violations, validator.REPORT_LIMIT)
    assert max(count for _, count in counts) > validator.REPORT_LIMIT
    assert report.violations == kept
    assert report.counts == full.counts == counts
    assert report.total == len(full.violations) > len(report.violations)
    assert not report.ok


def test_a_report_is_ok_only_without_counts():
    assert ViolationReport(violations=(), counts=()).ok
    assert not ViolationReport(violations=(), counts=((C1, 1),)).ok


def _seed0_benchmark_instances():
    """The group and instance of each golden worked example (n=12 and 16),
    then of the 624 seed-0 ``sweep`` and ``ties`` inputs of ``perfbench``
    at ``--seconds 25``; a group is a source, a size and a kind."""
    yield "golden n=12", pair_cluster_instance(12, [(1, 2), (0, 4), (3, 5)])
    yield "golden n=16", pair_cluster_instance(16, [(0, 4), (1, 5), (2, 6), (3, 7)])

    def subseed(*parts):
        return int(np.random.SeedSequence([0, *parts]).generate_state(1)[0])
    for k in range(16):
        for n in (8, 12, 16, 20, 24, 28, 32):
            for kind_index, kind in enumerate(("euclidean", "random_metric")):
                yield f"sweep n={n} {kind}", generate_instance(n, kind, subseed(n, kind_index, k))
    for k in range(100):
        for n in (20, 24, 28, 32):
            yield f"ties n={n} lattice", Instance(n=n, dist=lattice_weights(n, subseed(n, k)))


# the sha256 of each group's outputs; regenerate with
#   PYTHONPATH=src python tests/test_validator.py
DIGESTS = Path(__file__).with_name("digests.json")


def _built_digests() -> tuple[int, dict[str, str]]:
    """Build and check a schedule for each input of
    ``_seed0_benchmark_instances``; the count of benchmark inputs, and the
    sha256 of each group's outputs in input order: the schedule JSON
    exactly, then the evaluation report's JSON with every float rounded to
    12 significant digits."""
    count, digests = 0, {}
    for group, inst in _seed0_benchmark_instances():
        s = build_schedule(inst)
        assert validate_schedule(s).ok
        assert validate_schedule(schedule_from_dict(schedule_to_dict(s))).ok
        count += not group.startswith("golden")
        report = json.loads(report_to_json(evaluation_report(s, inst)),
                            parse_float=lambda text: float(f"{float(text):.12g}"))
        output = schedule_to_json(s) + json.dumps(report)
        digests.setdefault(group, hashlib.sha256()).update(output.encode())
    return count, {group: h.hexdigest() for group, h in digests.items()}


def test_built_schedules_have_no_block_type_violation():
    # and build, byte for byte, what they built when the digests were taken
    count, digests = _built_digests()
    assert count == 624
    assert digests == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_built_digests()[1], indent=2) + "\n")

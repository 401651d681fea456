"""Construction pipeline: level plans, flip assignment, full builds."""

import collections
import copy
import json
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from ttp2 import (
    InstanceError,
    LevelPlan,
    MatchingError,
    PairMatching,
    Schedule,
    SchedulingError,
    SuperMatch,
    ValidationError,
    build_schedule,
    evaluation_report,
    flip_budget,
    format_level_table,
    generate_instance,
    parse_day_list,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
    total_travel,
    validate_schedule,
)
from ttp2 import scheduler
from ttp2.instance import GENERATOR_KINDS
from ttp2.matching import SIZE_MAX
from ttp2.scheduler import (_block_type_violations, _round_labels, _template,
                            check_team_count)

from helpers import pair_cluster_instance, refused_team_counts
from reference import min_flip_plan, rule_flip_count, schedule_to_json_dumps, stored_dict


# --- worked examples, matched exactly ---------------------------------------
#
# Levels are compared as sets of (a_pair, b_pair, type) triples, so slot
# order within a level does not matter but orientation and type do.

GOLDEN_12 = {
    (1, 1): {(0, 1, 1), (2, 3, 1), (4, 5, 1)},
    (1, 2): {(0, 3, 1), (2, 5, 2), (4, 1, 1)},
    (1, 3): {(0, 2, 1), (4, 3, 1), (5, 1, 2)},
    (2, 1): {(0, 5, 2), (1, 3, 1), (4, 2, 1)},
    (3, 1): {(1, 2, 3), (4, 0, 3), (5, 3, 3)},
}

GOLDEN_16 = {
    (1, 1): {(0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 1)},
    (1, 2): {(0, 3, 1), (2, 5, 1), (4, 7, 1), (6, 1, 1)},
    (1, 3): {(0, 5, 1), (2, 7, 1), (4, 1, 1), (6, 3, 1)},
    (1, 4): {(0, 7, 1), (2, 1, 2), (4, 3, 1), (6, 5, 2)},
    (2, 1): {(0, 2, 1), (1, 7, 1), (4, 6, 1), (5, 3, 1)},
    (2, 2): {(0, 6, 1), (1, 3, 1), (4, 2, 2), (5, 7, 2)},
    (3, 1): {(0, 4, 3), (1, 5, 3), (2, 6, 3), (7, 3, 3)},
}


def _level_sets(sched):
    return {(lp.round, lp.level): {(sm.a_pair, sm.b_pair, sm.block_type)
                                   for sm in lp.super_matches}
            for lp in sched.levels}


def _template_blocks(m):
    """The template's plan on m slots, level by level, as ``SuperMatch`` values."""
    return tuple(tuple(SuperMatch(*block) for block in level)
                 for level in _template(m).plan.tolist())


def _eager_levels(s):
    """The plan of a build renamed to pairs all at once: each template
    block through sigma, each level's blocks in ``key`` order.  Sigma pairs
    the template's last level with the super-pairs, k-th to k-th, lo to lo."""
    plans = _template_blocks(s.n // 2)
    sigma = {}
    last = sorted(sm.key for sm in plans[-1])
    for (lo, hi), pair in zip(last, s.super_pairs.pairs):
        sigma[lo], sigma[hi] = pair
    return tuple(
        LevelPlan(r, l, tuple(sorted(
            (SuperMatch(sigma[sm.a_pair], sigma[sm.b_pair], sm.block_type)
             for sm in level), key=lambda sm: sm.key)))
        for (r, l), level in zip(_round_labels(s.n), plans))


@pytest.mark.parametrize("n,couples,golden,flips", [
    (12, [(1, 2), (0, 4), (3, 5)], GOLDEN_12, 3),
    (16, [(0, 4), (1, 5), (2, 6), (3, 7)], GOLDEN_16, 4),
])
def test_worked_example(n, couples, golden, flips):
    inst = pair_cluster_instance(n, couples)
    s = build_schedule(inst)
    assert s.team_pairs.pairs == tuple((2 * i, 2 * i + 1) for i in range(n // 2))
    assert set(s.super_pairs.pairs) == {tuple(sorted(c)) for c in couples}
    assert s.flips == flips
    assert "levels" not in vars(s)   # made on first read, from the template and sigma
    assert _level_sets(s) == golden
    assert s.levels == _eager_levels(s)


# --- level plans (Schedule.levels), checked on built schedules --------------


PLAN_SIZES = [8, 12, 16, 20, 24]


def _built(n):
    return build_schedule(generate_instance(n, kind="euclidean", seed=n))


@pytest.mark.parametrize("n", PLAN_SIZES)
def test_plan_levels_is_single_round_robin(n):
    m = n // 2
    s = _built(n)
    assert len(s.levels) == m - 1
    seen = []
    for lp in s.levels:
        keys = [sm.key for sm in lp.super_matches]
        flat = sorted(v for k in keys for v in k)
        assert flat == list(range(m))  # perfect matching per level
        seen.extend(keys)
    assert len(seen) == m * (m - 1) // 2
    assert len(set(seen)) == len(seen)  # every pair of pairs exactly once
    assert sorted(sm.key for sm in s.levels[-1].super_matches) == \
        sorted(tuple(sorted(p)) for p in s.super_pairs.pairs)


def test_plan_levels_round_labels():
    labels = [(lp.round, lp.level) for lp in _built(16).levels]
    assert labels == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)]


def test_round_labels_give_each_round_its_share_of_the_levels():
    # the refused sizes too: _check_plan reads the labels of any stored n
    for n in range(8, SIZE_MAX + 1, 4):
        labels = _round_labels(n)
        assert len(labels) == n // 2 - 1
        expected, i = [], 1
        while 2 ** i < n:   # round i holds ceil((n/2^i - 1)/2) levels
            expected += [(i, l) for l in range(1, math.ceil((n / 2 ** i - 1) / 2) + 1)]
            i += 1
        assert labels == tuple(expected), n


# --- flip assignment ----------------------------------------------------------


def test_roles_replay_through_type2_swaps():
    # level 1 orients every match A-vs-B; replaying the Type-2 swaps from
    # there must hand the A role to a_pair at every later level
    for n in PLAN_SIZES:
        s = _built(n)
        roles = {}
        for sm in s.levels[0].super_matches:
            roles[sm.a_pair], roles[sm.b_pair] = "A", "B"
        assert sorted(roles) == list(range(n // 2))
        flips = 0
        for k, lp in enumerate(s.levels):
            last = k == len(s.levels) - 1
            for sm in lp.super_matches:
                assert roles[sm.a_pair] == "A" and roles[sm.b_pair] == "B", (n, k, sm)
                if last:
                    assert sm.block_type == 3
                else:
                    assert sm.block_type in (1, 2)
                    if sm.block_type == 2:
                        flips += 1
                        roles[sm.a_pair], roles[sm.b_pair] = "B", "A"
        assert flips == s.flips <= math.ceil(flip_budget(n))


PLAN_8 = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]


def test_min_flip_plan_over_budget():
    # with pairs 0 and 2 starting as A there is no plan within one flip ...
    with pytest.raises(SchedulingError, match="no flip assignment within budget 1 at level 3"):
        min_flip_plan(PLAN_8, 0b0101, 1)
    # ... while the full construction still handles the same final pairing
    s = build_schedule(pair_cluster_instance(8, [(0, 3), (1, 2)]))
    assert s.flips == 1
    assert set(s.super_pairs.pairs) == {(0, 3), (1, 2)}


def test_min_flip_plan_rejects_improper_initial_roles():
    with pytest.raises(SchedulingError, match=r"initial roles do not 2-color level 1 pair \(0, 1\)"):
        min_flip_plan(PLAN_8, 0b0011, 1)


@pytest.mark.parametrize("m", [m for m in range(4, 47, 2) if m != 28])
def test_template_flips_match_the_dp(m):
    # the per-group flip rule makes the DP's choice: the same flip set per
    # level from "even slots are A" (and so the same orientation), except
    # at m=32, where the DP's tie-break picks other edges of equal count
    plans = _template_blocks(m)
    levels = [tuple(sorted(sm.key for sm in level)) for level in plans]
    c0 = sum(1 << s for s in range(0, m, 2))
    dp_flips, colorings = min_flip_plan(levels, c0, math.ceil(flip_budget(2 * m)))
    rule_flips = [{sm.key for sm in level if sm.block_type == 2} for level in plans[:-1]]
    if m == 32:
        assert sum(map(len, rule_flips)) == sum(map(len, dp_flips)) == 32
        return
    assert rule_flips == [set(f) for f in dp_flips]
    for level, coloring in zip(plans, colorings):
        assert all((coloring >> sm.a_pair) & 1 for sm in level)


@pytest.mark.parametrize("m,flips,budget", [(28, 29, 28), (56, 72, 70), (112, 172, 168)])
def test_template_refuses_plans_over_budget(m, flips, budget):
    # where the recursion splits an even q into odd halves (28 -> 14 -> 7),
    # the rule overshoots ceil(F_n), and the DP finds no plan either
    _template.cache_clear()
    try:
        with pytest.raises(InstanceError,
                           match=rf"n={2 * m}: the flip rule needs {flips} flips, "
                                 rf"over the budget ceil\(F_n\) = {budget}"):
            _template(m)
    finally:
        _template.cache_clear()


def _template_flips(n):
    """The Type-2 count of the flip plan for n teams, read from ``_template``
    or, where it refuses the plan, from its message."""
    try:
        return int((_template(n // 2).plan[..., 2] == 2).sum())
    except InstanceError as exc:
        return int(re.search(r"needs (\d+) flips", str(exc)).group(1))


def test_template_flips_follow_the_closed_form_up_to_the_size_limit():
    for n in range(8, SIZE_MAX + 1, 4):
        assert _template_flips(n) == rule_flip_count(n // 4), n


def test_sizes_over_budget_up_to_a_million_are_28_times_powers_of_two():
    over = [n for n in range(8, 10**6 + 1, 4)
            if rule_flip_count(n // 4) > math.ceil(flip_budget(n))]
    assert over == [28 * 2**j for j in range(1, 16)]


def test_check_team_count_refuses_exactly_the_plans_over_budget():
    refused = refused_team_counts(range(8, SIZE_MAX + 1, 4))
    assert sorted(refused) == [56, 112, 224]
    assert refused[224] == "n=224: the flip rule needs 172 flips, over the budget ceil(F_n) = 168"
    with pytest.raises(InstanceError,
                       match=rf"^n must be at most {SIZE_MAX}, got {SIZE_MAX + 4}$"):
        check_team_count(SIZE_MAX + 4)


@pytest.mark.parametrize("n", [8.0, np.int64(8), "8", None, True, 8.5, float("nan")], ids=repr)
def test_check_team_count_reads_n_by_the_one_integer_rule(n):
    if type(n) in (float, np.int64) and n == 8:   # an integral number is an integer
        assert check_team_count(n) is None
        return
    with pytest.raises(InstanceError, match=r"^n must be an integer, got "):
        check_team_count(n)


# --- full construction ---------------------------------------------------------


EXPECTED_FLIPS = {8: 1, 12: 3, 16: 4, 20: 7, 24: 9, 28: 11, 32: 12}


@pytest.mark.parametrize("n", sorted(EXPECTED_FLIPS))
def test_flip_totals_by_size(n):
    s = build_schedule(generate_instance(n, kind="euclidean", seed=0))
    assert s.flips == EXPECTED_FLIPS[n]
    assert s.flips <= math.ceil(flip_budget(n))
    assert s.flips == sum(sm.block_type == 2 for lp in s.levels for sm in lp.super_matches)


def test_build_is_deterministic():
    inst = generate_instance(16, kind="euclidean", seed=7)
    a = build_schedule(inst)
    b = build_schedule(inst)
    assert a.days == b.days
    assert a.levels == b.levels
    assert a.flips == b.flips


def test_day_layout():
    n = 12
    s = build_schedule(pair_cluster_instance(n, [(1, 2), (0, 4), (3, 5)]))
    assert len(s.days) == 2 * n - 2
    assert all(len(day) == n // 2 for day in s.days)
    # non-final levels occupy 4-day windows in order; the final Type-3
    # level takes the last 6 days, and only it holds intra-pair games
    intra = {frozenset(p) for p in s.team_pairs.pairs}
    for d, day in enumerate(s.days):
        for f in day:
            if frozenset((f.away, f.home)) in intra:
                assert d >= 2 * n - 8
    # cross games of two pairs matched at level k stay in its 4-day window
    team_of_pair = {i: set(p) for i, p in enumerate(s.team_pairs.pairs)}
    for k, lp in enumerate(s.levels[:-1]):
        window = range(4 * k, 4 * k + 4)
        for sm in lp.super_matches:
            both = team_of_pair[sm.a_pair] | team_of_pair[sm.b_pair]
            for d, day in enumerate(s.days):
                for f in day:
                    if {f.away, f.home} <= both and d not in window:
                        assert frozenset((f.away, f.home)) in intra, (k, d, f)


def test_rejects_bad_sizes():
    # an unserved n is an input fault, whichever rule refuses it
    for n, message in [
            (10, "n must be divisible by 4, got 10"), (4, "n must be at least 8, got 4"),
            (56, "n=56: the flip rule needs 29 flips, over the budget ceil(F_n) = 28"),
            (260, "n must be at most 256, got 260")]:
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            build_schedule(generate_instance(n, kind="euclidean", seed=0))


# --- a built schedule's plan: the cached template and sigma ----------------------


def test_readers_of_a_built_schedule_do_not_make_its_levels():
    inst = generate_instance(16, "euclidean", 0)
    s = build_schedule(inst)
    flips, report = s.flips, validate_schedule(s)
    total, ev = total_travel(s, inst), evaluation_report(s, inst)
    assert "levels" not in vars(s)
    assert report.ok and (ev.valid, ev.flips, ev.total_travel) == (True, flips, total)
    text, obj = schedule_to_json(s), schedule_to_dict(s)
    assert "days" not in vars(s) and "levels" not in vars(s)   # both writers read the plan
    assert json.dumps(obj, indent=2) + "\n" == text
    assert s.levels == _eager_levels(s)
    assert flips == sum(sm.block_type == 2 for lp in s.levels for sm in lp.super_matches) == 4
    assert text == schedule_to_json(schedule_from_json(text))


def _count_makes(monkeypatch) -> collections.Counter:
    """The ``SuperMatch`` and ``LevelPlan`` values made, and the
    ``expand_block`` calls, from now on."""
    made = collections.Counter()

    def counted(name, make):
        def call(*args, **kwargs):
            made[name] += 1
            return make(*args, **kwargs)
        return call

    # a plan value is counted as it reads itself, so that its class stays
    # the class that ``LevelPlan`` checks its blocks against
    for cls in (SuperMatch, LevelPlan):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(scheduler, "expand_block", counted("expand_block", scheduler.expand_block))
    return made


def test_a_build_makes_no_block_or_level_until_its_levels_are_read(monkeypatch):
    inst = generate_instance(16, "euclidean", 0)
    build_schedule(inst)   # the size's template is cached
    made = _count_makes(monkeypatch)
    s = build_schedule(inst)
    validate_schedule(s)
    evaluation_report(s, inst)
    assert made == {"expand_block": 2}   # the 4-day blocks, then the 6-day ones
    levels = s.levels
    assert made == {"expand_block": 2, "SuperMatch": 28, "LevelPlan": 7}
    assert s.levels is levels and made["LevelPlan"] == 7   # made once


def test_a_stored_schedule_makes_no_block_or_level_until_its_levels_are_read(monkeypatch):
    inst = generate_instance(16, "euclidean", 0)
    text = schedule_to_json(build_schedule(inst))
    made = _count_makes(monkeypatch)
    s = schedule_from_json(text)
    validate_schedule(s)
    evaluation_report(s, inst)
    assert s.flips == 4 and schedule_to_json(s) == text and schedule_to_dict(s)["flips"] == 4
    assert made == {} and "levels" not in vars(s)
    levels = s.levels
    assert made == {"SuperMatch": 28, "LevelPlan": 7}
    assert s.levels is levels and levels == build_schedule(inst).levels


def _plans():
    """(name, schedule) for a built, a hand-made and a stored plan, and two
    schedules without one."""
    s = build_schedule(generate_instance(12, "euclidean", 0))
    yield "built", s
    yield "hand-made", Schedule(12, s.days, s.levels, s.team_pairs, s.super_pairs)
    yield "stored", schedule_from_json(schedule_to_json(s))
    yield "days alone", Schedule(12, s.days)
    yield "day-list text", parse_day_list("day 1: 0@1 2@3\nday 2: 1@0 3@2\n")


@pytest.mark.parametrize("copy_of", [lambda s: s, lambda s: pickle.loads(pickle.dumps(s)),
                                     copy.deepcopy, copy.copy],
                         ids=["as made", "pickle", "deepcopy", "copy"])
def test_a_schedule_holds_its_plan_as_one_read_only_int_array(copy_of):
    for name, sched in _plans():
        t = copy_of(sched)
        plan = t._plan
        assert plan.dtype == np.int64 and not plan.flags.writeable, name
        shape = (t.n // 2 - 1, t.n // 4, 3) if sched.levels else (0, 0, 3)
        assert plan.shape == shape, name
        if plan.size:
            with pytest.raises(ValueError, match="read-only"):
                plan[0, 0, 0] = plan[0, 0, 0]
            assert plan.tolist() == [[[sm.a_pair, sm.b_pair, sm.block_type]
                                      for sm in lp.super_matches] for lp in sched.levels]
        text = schedule_to_json(t)
        assert text == schedule_to_json(sched) == schedule_to_json(schedule_from_json(text)), name


@pytest.mark.parametrize("how", ["pickle", "deepcopy", "replace", "==", "repr"])
def test_a_fresh_built_schedule_copies_compares_and_shows_its_plan(how):
    inst = generate_instance(12, "euclidean", 0)
    s, made = build_schedule(inst), build_schedule(inst)
    remade = Schedule(12, made.days, made.levels, made.team_pairs, made.super_pairs)
    if how == "==":
        assert s == remade and remade == build_schedule(inst)
        assert s != build_schedule(generate_instance(12, "euclidean", 1))
        return
    if how == "repr":
        assert repr(s) == repr(remade) and "levels=(LevelPlan(round=1, level=1" in repr(s)
        return
    t = {"pickle": lambda: pickle.loads(pickle.dumps(s)), "deepcopy": lambda: copy.deepcopy(s),
         "replace": lambda: replace(s)}[how]()
    assert t is not s and "levels" not in vars(t)
    assert t == remade and t.levels == remade.levels
    assert t.flips == remade.flips == 3 and validate_schedule(t).ok
    assert schedule_to_json(t) == schedule_to_json(remade)


def test_a_built_schedule_checks_its_block_types_on_slots_as_a_stored_plan_is_checked():
    # days of another build, declared under this build's plan: both
    # schedules report the same contradicting blocks, in the same order
    # (here 10, on slots that sigma moves, several in one level)
    s = build_schedule(generate_instance(16, "euclidean", 1))
    other = build_schedule(generate_instance(16, "euclidean", 2))
    built = copy.copy(s)
    object.__setattr__(built, "_array", other._array)
    stored = Schedule(16, other.days, s.levels, s.team_pairs, s.super_pairs)
    kept, count = _block_type_violations(built)
    assert (kept, count) == _block_type_violations(stored) and count == 10
    assert validate_schedule(built) == validate_schedule(stored)
    assert "levels" in vars(s) and "levels" not in vars(built)


def test_a_build_refuses_super_pairs_that_are_no_perfect_matching(monkeypatch):
    # a team matching that is none is refused by build_super_graph
    monkeypatch.setattr(scheduler, "super_pair_matching",
                        lambda sg: PairMatching(pairs=((0, 1), (0, 1)), weight=0.0))
    with pytest.raises(SchedulingError, match=r"^super-pairs \[\[0, 1\], \[0, 1\]\] are not "
                                              r"a perfect matching of the pairs 0\.\.3$"):
        build_schedule(generate_instance(8, "euclidean", 0))


def test_template_refuses_a_level_that_pairs_two_slots_of_one_side(monkeypatch):
    monkeypatch.setattr(scheduler, "_group_levels", lambda X, Y: [([(0, 2), (1, 3)], [])] * 3)
    _template.cache_clear()
    try:
        with pytest.raises(SchedulingError,
                           match="internal: level 1 pairs slots 0 and 2 on the same side"):
            _template(4)
    finally:
        _template.cache_clear()


def test_template_refuses_a_plan_its_check_refuses_as_an_internal_fault(monkeypatch):
    # two levels for four slots: the plan check's refusal is the planner's
    # fault, a SchedulingError, which check_team_count passes on
    monkeypatch.setattr(scheduler, "_group_levels", lambda X, Y: [([(0, 1), (2, 3)], [])] * 2)
    _template.cache_clear()
    try:
        with pytest.raises(SchedulingError, match=r"^internal: stored levels: 2 level\(s\), "
                                                  r"expected n/2 - 1 = 3$"):
            check_team_count(8)
    finally:
        _template.cache_clear()


# --- serialization and display --------------------------------------------------


def test_schedule_json_round_trip():
    s = build_schedule(generate_instance(12, kind="euclidean", seed=3))
    s2 = schedule_from_json(schedule_to_json(s))
    assert s2.n == s.n
    assert s2.days == s.days
    assert s2.levels == s.levels
    assert s2.flips == s.flips
    assert s2.team_pairs == s.team_pairs
    assert s2.super_pairs == s.super_pairs


def _remade_from_int64(sched):
    """``sched`` made by hand from its stored form, every plan number an
    ``np.int64``, as the CI's README step remakes the n=128 plan."""
    obj, i64 = schedule_to_dict(sched), np.int64
    levels = [LevelPlan(i64(lv["round"]), i64(lv["level"]),
                        [SuperMatch(i64(b["a_pair"]), i64(b["b_pair"]), i64(b["type"]))
                         for b in lv["blocks"]]) for lv in obj["levels"]]
    team_pairs, super_pairs = (
        PairMatching([(i64(a), i64(b)) for a, b in obj[key]["pairs"]], obj[key]["weight"])
        for key in ("team_pairs", "super_pairs"))
    days = [[(g["away"], g["home"]) for g in day] for day in obj["days"]]
    return Schedule(obj["n"], days, levels, team_pairs, super_pairs)


def _written_schedules():
    """(name, schedule) for every form the writer is checked on."""
    yield "golden n=12", build_schedule(pair_cluster_instance(12, [(1, 2), (0, 4), (3, 5)]))
    yield "golden n=16", build_schedule(
        pair_cluster_instance(16, [(0, 4), (1, 5), (2, 6), (3, 7)]))
    for n in (8, 32, 128, 256):
        for kind in GENERATOR_KINDS:
            yield f"{kind} n={n}", build_schedule(generate_instance(n, kind, seed=n))
    built = build_schedule(generate_instance(12, "euclidean", seed=0))
    yield "days alone", Schedule(12, built.days)
    yield "no days", Schedule(n=4, days=())
    yield "an empty day", Schedule(4, [[(0, 1), (2, 3)], [], [(3, 0)]])
    yield "day-list text", parse_day_list("day 1: 0@1 2@3\nday 2:\nday 3: 3@0\n")
    yield "np.int64 plan", _remade_from_int64(build_schedule(generate_instance(128, "euclidean", 0)))


def test_schedule_json_is_the_standard_encoders_text_byte_for_byte():
    # each schedule and its reload write the text the reference writes, and
    # read back as the dict the reference builds from the public fields
    for name, sched in _written_schedules():
        text = schedule_to_json(sched)
        assert text == schedule_to_json_dumps(sched), name
        assert schedule_to_dict(sched) == stored_dict(sched), name
        assert schedule_to_json(schedule_from_json(text)) == text, name


def test_schedule_json_malformed():
    with pytest.raises(ValidationError, match="malformed schedule JSON: missing field 'days'"):
        schedule_from_json('{"n": 8}')
    with pytest.raises(ValidationError, match="invalid schedule JSON"):
        schedule_from_json("not json at all {")
    obj = json.loads(schedule_to_json(build_schedule(generate_instance(8, "unit"))))
    for block_type, message in ((None, "'type': None"), (7, "unknown block type 7"),
                                ("x", "'type': 'x'")):
        obj["levels"][0]["blocks"][0]["type"] = block_type
        with pytest.raises(ValidationError, match=message):
            schedule_from_json(json.dumps(obj))


def _recount_flips(obj):
    obj["flips"] = sum(b["type"] == 2 for lv in obj["levels"] for b in lv["blocks"])


def _keep_last_level(obj):
    del obj["levels"][:-1]


def _drop_a_block(obj):
    del obj["levels"][2]["blocks"][0]


def _swap_super_pairs(obj):
    (a, b), (c, d) = obj["super_pairs"]["pairs"][:2]
    obj["super_pairs"]["pairs"][:2] = [[a, d], [c, b]]


def _name_a_pair_twice(obj):
    first, second = obj["levels"][0]["blocks"][:2]
    second["a_pair"], second["b_pair"] = first["a_pair"], first["b_pair"]


def _relabel_levels(obj):
    for level in obj["levels"]:
        level["round"], level["level"] = 7, -3


def _pair_a_team_with_itself(obj):
    obj["team_pairs"]["pairs"][0] = [0, 0]


@pytest.mark.parametrize("damage,message", [
    (_keep_last_level, r"stored levels: 1 level\(s\), expected n/2 - 1 = 5"),
    (_drop_a_block, r"stored levels: level 3 names pairs \[1, 2, 4, 5\], expected each of "
                    r"0\.\.5 once"),
    (_swap_super_pairs, r"stored super_pairs \[.*\] differ from the pairs \[.*\] of the last level"),
    (_name_a_pair_twice, r"stored levels: level 1 names pairs \[(\d, ){5}\d\], expected each "
                         r"of 0\.\.5 once"),
    (_relabel_levels, "stored levels: level 1 is labeled round 7 level -3, "
                      "expected round 1 level 1"),
    (_pair_a_team_with_itself, r"stored team_pairs \[\[0, 0\], .*\] are not a perfect "
                               r"matching of the teams 0\.\.11"),
], ids=["truncated-levels", "short-level", "swapped-super-pairs", "pair-named-twice",
        "relabeled-levels", "self-paired-team"])
def test_a_stored_plan_that_contradicts_itself_is_refused(damage, message):
    obj = json.loads(schedule_to_json(build_schedule(generate_instance(12, "euclidean", 0))))
    damage(obj)
    _recount_flips(obj)
    with pytest.raises(ValidationError, match=message):
        schedule_from_json(json.dumps(obj))
    obj["super_pairs"] = None   # with nothing to compare, swapped pairs are gone
    if damage is _swap_super_pairs:
        assert schedule_from_json(json.dumps(obj)).super_pairs is None
    else:
        with pytest.raises(ValidationError, match=message):
            schedule_from_json(json.dumps(obj))


def _remade(s, num=int, levels=tuple, team_pairs=None):
    """``Schedule`` of ``s``'s days and of its plan made again by hand, each
    team and label through ``num`` and each weight as a numpy float, and
    the levels made; ``levels``
    takes those levels to what is passed, and ``team_pairs``, if given,
    takes ``s``'s to what is."""
    def matching(pm):
        return PairMatching([(num(a), num(b)) for a, b in pm.pairs], np.float64(pm.weight))

    plan = [LevelPlan(num(lp.round), num(lp.level),
                      [SuperMatch(num(sm.a_pair), num(sm.b_pair), num(sm.block_type))
                       for sm in lp.super_matches])
            for lp in s.levels]
    pairs = matching(s.team_pairs) if team_pairs is None else team_pairs(s.team_pairs)
    return Schedule(s.n, s.days, levels(plan), pairs, matching(s.super_pairs)), plan


# the plan types read their own numbers, by the rules a stored plan is read
# by: numpy and integral-float values are read as ints, and the schedule is
# written as the plain build's; everything else is refused with this
# package's error type, never a bare TypeError or AttributeError
@pytest.mark.parametrize("make,refusal", [
    (lambda s: _remade(s, np.int64), None),
    (lambda s: _remade(s, float), None),
    (lambda s: _remade(s, np.float64), None),
    (lambda s: _remade(s, levels=lambda plan: (lp for lp in plan)), None),
    (lambda s: PairMatching(((0, 1, 2), (3, 4), (5, 6), (7,)), 1.0),
     (MatchingError, r"^pair \(0, 1, 2\): too many values to unpack")),
    (lambda s: _remade(s, team_pairs=lambda pm: PairMatching(((0.5, 1),) + pm.pairs[1:],
                                                              pm.weight)),
     (MatchingError, r"^pair \(0\.5, 1\): 0\.5 is not an integer$")),
    (lambda s: PairMatching(s.team_pairs.pairs, "x"),
     (MatchingError, "^invalid literal for weight: 'x' is not a finite non-negative number$")),
    (lambda s: PairMatching(s.team_pairs.pairs, -3.0),
     (MatchingError, "^invalid literal for weight: -3.0 is not")),
    (lambda s: PairMatching(5, 0.0), (MatchingError, "'int' object is not iterable")),
    (lambda s: SuperMatch("0", 1, 1), (ValidationError, "invalid literal for a_pair: '0'")),
    (lambda s: SuperMatch(0, 1, 1.5), (ValidationError, "^unknown block type 1.5: ")),
    (lambda s: LevelPlan("1", 1, ()), (ValidationError, "invalid literal for round: '1'")),
    (lambda s: LevelPlan(1, 1, [(0, 1, 1)]),
     (ValidationError, r"^super_matches must be SuperMatch values, got \(\(0, 1, 1\),\)$")),
    (lambda s: LevelPlan(1, 1, None), (ValidationError, "must be SuperMatch values, got None")),
    (lambda s: Schedule(8, s.days, None), (ValidationError, "^levels must be LevelPlan values, "
                                                            "got None$")),
    (lambda s: Schedule(8, s.days, [5, 5, 5]), (ValidationError, r"got \(5, 5, 5\)$")),
    (lambda s: Schedule(8, s.days, s.levels, [(0, 1)]),
     (ValidationError, r"^team_pairs must be a PairMatching or None, got \[\(0, 1\)\]$")),
    (lambda s: Schedule(8, s.days, s.levels, s.team_pairs, s.super_pairs.pairs),
     (ValidationError, "^super_pairs must be a PairMatching or None")),
], ids=["numpy-ints", "integral-floats", "numpy-floats", "generator-of-levels",
        "three-team-pair", "fractional-team", "text-weight", "negative-weight",
        "pairs-not-iterable", "text-block-pair", "fractional-block-type", "text-round",
        "block-not-a-super-match", "blocks-none", "levels-none", "levels-of-ints",
        "team-pairs-list", "super-pairs-tuple"])
def test_a_hand_made_plan_is_read_by_the_rules_a_stored_one_is(make, refusal):
    s = build_schedule(generate_instance(8, "euclidean", 0))
    if refusal is not None:
        error, message = refusal
        with pytest.raises(error, match=message):
            make(s)
        return
    t, plan = make(s)
    assert "levels" not in vars(t)
    labels = [v for lp in plan for v in (lp.round, lp.level)]
    pairs = [v for pm in (t.team_pairs, t.super_pairs) for p in pm.pairs for v in p]
    assert {type(v) for v in labels + pairs} == {int}
    assert t._plan.dtype == np.int64 and not t._plan.flags.writeable
    assert t._plan.tolist() == [[[sm.a_pair, sm.b_pair, sm.block_type] for sm in lp.super_matches]
                                for lp in plan]
    assert type(t.team_pairs.weight) is type(t.super_pairs.weight) is float
    assert validate_schedule(t).ok and t == s
    assert schedule_to_json(t) == schedule_to_json(s)


def test_stored_super_pairs_are_a_perfect_matching_of_the_pairs_without_levels_too():
    s = build_schedule(generate_instance(8, "euclidean", 0))
    message = (r"^stored super_pairs \[\[0, 5\], \[9, 9\]\] are not a perfect matching of "
               r"the pairs 0\.\.3$")
    with pytest.raises(ValidationError, match=message):
        Schedule(8, s.days, super_pairs=PairMatching(((0, 5), (9, 9)), 1.0))
    obj = json.loads(schedule_to_json(s))
    obj.update(levels=[], flips=0, super_pairs={"pairs": [[0, 5], [9, 9]], "weight": 1.0})
    with pytest.raises(ValidationError, match=message):
        schedule_from_json(json.dumps(obj))


def test_a_schedule_reads_its_team_count_before_its_plan():
    s = build_schedule(generate_instance(12, "euclidean", 0))
    assert validate_schedule(replace(s, n=12.0)).ok   # an integral float is read as 12
    with pytest.raises(ValidationError, match="malformed team count: invalid literal for n"):
        replace(s, n="12")
    with pytest.raises(ValidationError, match="needs its team count n, got None"):
        Schedule(n=None, days=s.days, levels=s.levels)
    with pytest.raises(ValidationError, match="exceeds the supported maximum 2048"):
        replace(s, n=2 ** 80)


@pytest.mark.parametrize("n", [np.int64(12), 12.0, np.float32(12)], ids=repr)
def test_a_schedule_keeps_the_team_count_it_read(n):
    s = build_schedule(generate_instance(12, "euclidean", 0))
    t = replace(s, n=n)
    assert type(t.n) is int and t.n == 12
    assert schedule_to_json(t) == schedule_to_json(s)


def test_a_schedule_keeps_its_plan_from_later_edits_of_the_lists_it_was_given():
    # the plan types keep tuples of what they read, so the lists that are
    # edited are the caller's own
    s = build_schedule(generate_instance(8, "euclidean", 0))
    blocks = [list(lp.super_matches) for lp in s.levels]
    levels = [replace(lp, super_matches=b) for lp, b in zip(s.levels, blocks)]
    team_lists = [list(p) for p in s.team_pairs.pairs]
    super_lists = [list(p) for p in s.super_pairs.pairs]
    t = Schedule(n=8, days=s.days, levels=levels,
                 team_pairs=replace(s.team_pairs, pairs=team_lists),
                 super_pairs=replace(s.super_pairs, pairs=super_lists))
    blocks[-1].reverse()
    levels[0] = replace(levels[0], round=9)
    team_lists[0][0] = 99
    team_lists.pop()
    super_lists[0].reverse()
    super_lists.append([0, 1])
    assert t == s
    assert schedule_from_json(schedule_to_json(t)) == s
    # a built or loaded plan's matchings, tuples already, are kept as they
    # are; its levels are made again only when they are read
    u = replace(s)
    assert "levels" not in vars(u)
    assert (u.levels, u.team_pairs, u.super_pairs) == (s.levels, s.team_pairs, s.super_pairs)
    assert u.team_pairs is s.team_pairs and u.super_pairs is s.super_pairs


def test_fixture_validation():
    obj = json.loads(schedule_to_json(build_schedule(generate_instance(8, "unit"))))
    fixture = obj["days"][5][2]
    fixture["home"] = fixture["away"]
    with pytest.raises(ValidationError, match=f"team {fixture['away']} plays itself on day 5"):
        schedule_from_json(json.dumps(obj))


def test_format_level_table():
    s = build_schedule(pair_cluster_instance(12, [(1, 2), (0, 4), (3, 5)]))
    table = format_level_table(s)
    assert "Round 3 Level 1:" in table
    assert "M_2 --Type-3--> M_3" in table
    assert table.count("--Type-2-->") == 3
    assert table.count("--Type-") == 15  # 5 levels x 3 matches


def test_rejects_sizes_above_the_supported_range():
    with pytest.raises(InstanceError, match=f"at most {SIZE_MAX}") as ei:
        build_schedule(generate_instance(SIZE_MAX + 4, kind="euclidean", seed=0))
    assert str(SIZE_MAX + 4) in str(ei.value)
    with pytest.raises(InstanceError, match=r"n=56: the flip rule needs 29 flips"):
        build_schedule(generate_instance(56, kind="euclidean", seed=0))

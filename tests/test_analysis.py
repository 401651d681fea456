"""Travel accounting, bounds, factors, and the evaluation report."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ttp2 import (
    Instance,
    InstanceError,
    MatchingError,
    PairMatching,
    Schedule,
    TTP2Error,
    ValidationError,
    build_schedule,
    evaluation_report,
    expand_block,
    factor_ours,
    factor_xiao_kou,
    factors_exact,
    flip_budget,
    format_report,
    generate_instance,
    lower_bound,
    min_weight_perfect_matching,
    pairwise_sum,
    parse_day_list,
    report_to_dict,
    report_to_json,
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
    team_itinerary,
    total_travel,
)
from ttp2 import analysis
from ttp2.analysis import NO_FACTOR, NOT_METRIC, ZERO_BOUND
from ttp2.instance import GENERATOR_KINDS
from ttp2.scheduler import _template
from helpers import day_list_text, lattice_weights, pair_cluster_instance
from reference import far_pair, first_seen, sample_valid_schedules


UNIT4 = Instance(n=4, dist=np.ones((4, 4)) - np.eye(4))


def _t3_block():
    """A Type-3 block on the four teams of UNIT4, as a Schedule."""
    return Schedule(n=4, days=expand_block([0, 1, 3], [(0, 1), (2, 3)]).tolist())


# --- itineraries -------------------------------------------------------------


def test_itinerary_of_a1_through_type3_block():
    it = team_itinerary(_t3_block(), UNIT4, 0)
    # pattern aahhah: away at B1, away at A2, two home days, away at B2, home
    assert it.venues == (0, 2, 1, 0, 0, 3, 0)
    assert it.travel == pytest.approx(5.0)


def test_itinerary_with_no_games_stays_home():
    it = team_itinerary(Schedule(n=4, days=()), UNIT4, 2)
    assert it.venues == (2,)
    assert it.travel == 0.0


def test_itinerary_team_range_check():
    with pytest.raises(ValidationError, match="out of range"):
        team_itinerary(Schedule(n=4, days=()), UNIT4, 4)


@pytest.mark.parametrize("team", [True, 1.0, "1", None], ids=repr)
def test_itinerary_refuses_a_team_that_is_not_an_integer(team):
    if team == 1.0 and type(team) is float:   # an integral float is an integer
        assert team_itinerary(_t3_block(), UNIT4, team) == team_itinerary(_t3_block(), UNIT4, 1)
        return
    with pytest.raises(ValidationError, match="team must be an integer"):
        team_itinerary(_t3_block(), UNIT4, team)


@pytest.mark.parametrize("call", [
    lambda: Schedule(n=10 ** 5000, days=()),
    lambda: Schedule(n=-10 ** 5000, days=()),
    lambda: Instance(n=10 ** 5000, dist=[[0]]),
    lambda: team_itinerary(Schedule(n=4, days=()), UNIT4, 10 ** 5000),
    lambda: generate_instance(10 ** 5000),
    lambda: flip_budget(4 * 10 ** 5000),
    lambda: factors_exact(4 * 10 ** 5000 + 1),
], ids=["Schedule", "Schedule-negative", "Instance", "team_itinerary", "generate_instance",
        "flip_budget", "factors_exact"])
def test_an_integer_past_the_digit_limit_raises_this_packages_error(call):
    # its message names it by its digit count: int cannot write it out
    with pytest.raises(TTP2Error, match="<an integer of 5001 digits>"):
        call()


def test_itinerary_takes_a_numpy_integer_team():
    assert team_itinerary(_t3_block(), UNIT4, np.int64(1)) == team_itinerary(_t3_block(), UNIT4, 1)


def test_total_travel_unit_blocks():
    assert total_travel(_t3_block(), UNIT4) == pytest.approx(20.0)


def test_total_travel_zero_matrix():
    zero = Instance(n=4, dist=np.zeros((4, 4)))
    assert total_travel(_t3_block(), zero) == 0.0


def test_total_travel_rejects_mismatched_n():
    s = build_schedule(generate_instance(8, kind="euclidean", seed=0))
    inst12 = generate_instance(12, kind="euclidean", seed=0)
    with pytest.raises(ValidationError, match="does not match"):
        total_travel(s, inst12)


def test_analysis_accepts_the_validator_forms():
    inst = generate_instance(8, kind="euclidean", seed=0)
    s = build_schedule(inst)
    travel = total_travel(s, inst)
    report = report_to_dict(evaluation_report(s, inst))
    stored = schedule_from_dict(schedule_to_dict(s))
    for form in (stored, parse_day_list(day_list_text(s.days))):
        assert total_travel(form, inst) == travel
        assert team_itinerary(form, inst, 5) == team_itinerary(s, inst, 5)
    assert report_to_dict(evaluation_report(stored, inst)) == report
    text_report = report_to_dict(evaluation_report(parse_day_list(day_list_text(s.days)), inst))
    assert text_report == {**report, "flips": None}   # a day list carries no flips


@pytest.mark.parametrize("days,message", [
    ([[(0, -1)]], "team -1 out of range"),
    ([[(3, 3)]], "team 3 plays itself"),
    ([[("x", 1)]], "malformed fixture"),
])
def test_total_travel_refuses_unreadable_fixtures(days, message):
    # the Schedule that total_travel takes refuses them when it is made
    inst = generate_instance(8, kind="euclidean", seed=0)
    with pytest.raises(ValidationError, match=message):
        total_travel(Schedule(n=8, days=days), inst)


def test_total_travel_permutation_invariant():
    inst = generate_instance(8, kind="euclidean", seed=5)
    s = build_schedule(inst)
    days = [[(f.away, f.home) for f in day] for day in s.days]
    perm = [3, 7, 1, 0, 6, 2, 5, 4]
    pdays = [[(perm[a], perm[h]) for a, h in day] for day in days]
    pdist = inst.dist[np.ix_(np.argsort(perm), np.argsort(perm))]
    pinst = Instance(n=8, dist=pdist)
    assert total_travel(Schedule(n=8, days=pdays), pinst) == pytest.approx(
        total_travel(Schedule(n=8, days=days), inst), rel=1e-12)


# --- bounds -------------------------------------------------------------------


def test_pairwise_sum_by_hand():
    d = np.array([[0.0, 1.0, 2.0, 3.0],
                  [1.0, 0.0, 4.0, 5.0],
                  [2.0, 4.0, 0.0, 6.0],
                  [3.0, 5.0, 6.0, 0.0]])
    assert pairwise_sum(Instance(n=4, dist=d)) == 21.0
    # bit-equal to a plain loop over the upper triangle
    for n, kind in ((8, "euclidean"), (20, "random_metric"), (32, "euclidean")):
        inst = generate_instance(n, kind, seed=n)
        loop = math.fsum(float(inst.dist[i, j]) for i in range(n) for j in range(i + 1, n))
        assert pairwise_sum(inst) == loop


def _lattice_instance(n, seed):
    return Instance(n=n, dist=lattice_weights(n, seed=seed))


@pytest.mark.parametrize("make", [
    lambda n: generate_instance(n, "euclidean", seed=n),
    lambda n: generate_instance(n, "random_metric", seed=n),
    lambda n: generate_instance(n, "unit"),
    lambda n: _lattice_instance(n, seed=n),
], ids=["euclidean", "random_metric", "unit", "lattice"])
def test_pairwise_sum_equals_the_zero_filled_triangle_sum(make):
    for n in range(8, 33, 4):
        inst = make(n)
        triangle = math.fsum(np.triu(inst.dist, 1).ravel().tolist())
        assert pairwise_sum(inst).hex() == triangle.hex()
    huge = np.full((8, 8), 1e307)
    np.fill_diagonal(huge, 0.0)
    with pytest.raises(InstanceError, match="sum past the float range"):
        pairwise_sum(Instance(n=8, dist=huge))


def test_lower_bound_unit_n4():
    teams = min_weight_perfect_matching(UNIT4.dist)
    # W_t = 6 unit pairs, W_m = 2: bound = 2*6 + 4*2 = 20
    assert pairwise_sum(UNIT4) == 6.0
    assert teams.weight == 2.0
    assert lower_bound(UNIT4, teams) == pytest.approx(20.0)


def test_lower_bound_scales_linearly():
    inst = generate_instance(8, kind="euclidean", seed=1)
    teams = min_weight_perfect_matching(inst.dist)
    scaled = Instance(n=8, dist=inst.dist * 4.0)
    steams = min_weight_perfect_matching(scaled.dist)
    assert lower_bound(scaled, steams) == pytest.approx(
        4.0 * lower_bound(inst, teams), rel=1e-12)


def test_lower_bound_refuses_a_matching_it_cannot_trust():
    inst = generate_instance(12, "euclidean", 0)
    own = min_weight_perfect_matching(inst.dist)
    other = min_weight_perfect_matching(generate_instance(12, "euclidean", 1).dist)
    assert lower_bound(inst, own) == pytest.approx(91948.26, abs=0.01)
    with pytest.raises(MatchingError, match="is not the .* its pairs sum to"):
        lower_bound(inst, other)
    for pairs in (own.pairs[1:], own.pairs + ((0, 1),), ((0, 0),) + own.pairs[1:]):
        with pytest.raises(MatchingError, match="not a perfect matching of 0..11"):
            lower_bound(inst, PairMatching(pairs=pairs, weight=own.weight))
    # a matching that is not of minimum weight but states its weight passes
    honest = PairMatching(pairs=other.pairs, weight=math.fsum(
        inst.dist[i, j] for i, j in other.pairs))
    assert lower_bound(inst, honest) > lower_bound(inst, own)


def test_built_and_stored_team_pairs_are_trusted():
    for n in range(8, 33, 4):
        for kind in ("euclidean", "random_metric", "unit"):
            for seed in range(5):
                inst = generate_instance(n, kind, seed)
                s = build_schedule(inst)
                stored = schedule_from_json(schedule_to_json(s))   # its plan checks pass
                assert lower_bound(inst, stored.team_pairs) == lower_bound(inst, s.team_pairs)


# --- flip budget and approximation factors --------------------------------------


@pytest.mark.parametrize("n,budget", [
    (8, 1.0), (12, 3.0), (16, 4.0), (20, 7.5), (24, 9.0), (28, 10.5), (32, 12.0),
])
def test_flip_budget_values(n, budget):
    assert flip_budget(n) == budget


def test_flip_budget_rejects_bad_n():
    with pytest.raises(TTP2Error, match="flip budget"):
        flip_budget(6)
    with pytest.raises(TTP2Error, match="flip budget"):
        flip_budget(0)


def test_factors_exact_small():
    ours, xk = factors_exact(8)
    assert ours == 1 + Fraction(5, 12)
    assert xk == 1 + Fraction(1, 3) + Fraction(1, 4)
    assert ours < xk


def test_factor_crossover_at_36():
    # ours is the smaller factor up to n=32 and loses at n=36
    for n in range(8, 33, 4):
        ours, xk = factors_exact(n)
        assert ours <= xk, n
    ours36, xk36 = factors_exact(36)
    assert ours36 > xk36
    assert ours36 == 1 + Fraction(2, 17)
    assert xk36 == 1 + Fraction(35, 306)


def test_factor_floats_match_rationals():
    assert factor_ours(32) == pytest.approx(1 + 7 / 60)
    assert factor_xiao_kou(32) == pytest.approx(1 + 31 / 240)


def test_factors_reject_bad_n():
    with pytest.raises(TTP2Error, match="factors"):
        factors_exact(6)
    with pytest.raises(TTP2Error, match="factors"):
        factors_exact(4)


@pytest.mark.parametrize("n", [8.0, "8", True, None, Fraction(8)], ids=repr)
@pytest.mark.parametrize("figure", [flip_budget, factors_exact, factor_ours, factor_xiao_kou])
def test_budget_and_factors_refuse_a_non_integer_n(figure, n):
    # a report on n=8 fills the per-size figures first; "8" and True must not hit them
    evaluation_report(build_schedule(generate_instance(8, kind="euclidean", seed=0)),
                      generate_instance(8, kind="euclidean", seed=0))
    if type(n) in (float, Fraction):   # an integral number is an integer
        assert figure(n) == figure(8)
        return
    with pytest.raises(TTP2Error, match="n must be an integer"):
        figure(n)


@pytest.mark.parametrize("n", [np.int64(8), np.int32(32), np.uint8(12)], ids=repr)
def test_budget_and_factors_take_numpy_integers(n):
    assert flip_budget(n) == flip_budget(int(n))
    assert factors_exact(n) == factors_exact(int(n))
    assert factor_ours(n) == factor_ours(int(n))
    assert factor_xiao_kou(n) == factor_xiao_kou(int(n))
    assert type(flip_budget(n)) is float


# --- evaluation report ------------------------------------------------------------


def test_evaluation_report_constructed_schedule():
    inst = generate_instance(16, kind="euclidean", seed=2)
    s = build_schedule(inst)
    rep = evaluation_report(s, inst)
    assert rep.n == 16
    assert rep.valid is True
    assert rep.flips == s.flips
    assert rep.W_t == pytest.approx(pairwise_sum(inst))
    assert rep.lower_bound == pytest.approx(2 * rep.W_t + 16 * rep.W_m)
    assert rep.ratio == pytest.approx(rep.total_travel / rep.lower_bound)
    assert rep.ratio <= rep.factor_ours + 1e-9
    assert rep.bound_satisfied is True
    assert rep.bound_reason is None
    assert rep.flip_budget == 4.0
    assert len(rep.per_team) == 16


@pytest.mark.parametrize("n", range(8, 33, 4))
def test_the_default_build_breaches_factor_ours_on_a_far_pair(n):
    # The default build is one fixed schedule up to relabelling, and its worst
    # ratio over metrics is 1 + (2 + phi_max)/(n - 2), where phi_max is the
    # Type-2 count of the template's busiest slot: above factor_ours at every
    # n here (ROADMAP item 22, whose mend replaces this test).
    plan = _template(n // 2).plan
    phi_max = np.bincount(plan[..., :2][plan[..., 2] == 2].ravel()).max()
    reports = [evaluation_report(build_schedule(far_pair(n, p)), far_pair(n, p))
               for p in range(n // 2)]
    ratios = [Fraction(r.total_travel) / Fraction(r.lower_bound) for r in reports]
    worst = max(ratios)
    assert worst == 1 + Fraction(2 + int(phi_max), n - 2)
    assert reports[ratios.index(worst)].bound_satisfied is False


# every served n past 32: 56, 112 and 224 are refused (their flip plans pass ceil(F_n))
_FAR_PAIR_SIZES = [n for n in range(36, 257, 4) if n not in (56, 112, 224)]


@pytest.mark.parametrize("n", _FAR_PAIR_SIZES)
def test_one_far_pair_build_per_n_reaches_the_default_builds_worst_ratio(n):
    # One build per n, on the pair the build puts on its busiest slot: a far
    # pair's super-pairs are always (2k, 2k + 1), so slot s holds pair
    # sigma[s].  Its ratio is 1 + (2 + phi_max)/(n - 2), where phi_max is 3
    # at n = 4 (mod 8): above factor_ours except from 132 to 252 at those n,
    # where ceil(log2(n/4)) = 6 makes the two equal (ROADMAP item 25).
    m = n // 2
    template = _template(m)
    sigma = np.empty(m, np.int64)
    sigma[template.last] = np.arange(m).reshape(-1, 2)
    plan = template.plan
    phi = np.bincount(plan[..., :2][plan[..., 2] == 2].ravel(), minlength=m)
    s = int(phi.argmax())
    inst = far_pair(n, int(sigma[s]))
    sched = build_schedule(inst)
    assert [tuple(p) for p in sched.super_pairs.pairs] == [(k, k + 1) for k in range(0, m, 2)]
    rep = evaluation_report(sched, inst)
    ratio = Fraction(rep.total_travel) / Fraction(rep.lower_bound)
    assert ratio == 1 + Fraction(2 + int(phi[s]), n - 2)
    assert (int(phi[s]) == 3) == (n % 8 == 4)
    meets = n % 8 == 4 and 132 <= n <= 252
    ours = factors_exact(n)[0]
    assert (ratio == ours, ratio > ours) == (meets, not meets)
    assert rep.bound_satisfied is meets


def test_evaluation_report_zero_matrix():
    inst = Instance(n=8, dist=np.zeros((8, 8)))
    s = build_schedule(inst)
    rep = evaluation_report(s, inst)
    assert rep.total_travel == 0.0
    assert rep.lower_bound == 0.0
    assert rep.ratio is None
    assert rep.bound_satisfied is None
    assert rep.bound_reason == ZERO_BOUND
    assert rep.valid is True


def test_evaluation_report_sampled_n6():
    inst = generate_instance(6, kind="euclidean", seed=4)
    sched, total = sample_valid_schedules(inst, count=1, seed=1)[0]
    rep = evaluation_report(sched, inst)
    assert rep.valid is True
    assert rep.total_travel == pytest.approx(total)
    assert rep.flip_budget is None       # budget needs 4 | n
    assert rep.factor_ours is None
    assert rep.factor_xiao_kou is None
    assert rep.bound_satisfied is None
    assert rep.bound_reason == NO_FACTOR
    assert rep.ratio is not None and rep.ratio >= 1.0 - 1e-12


def test_evaluation_report_flags_invalid():
    inst = generate_instance(8, kind="euclidean", seed=0)
    s = build_schedule(inst)
    days = [[(f.away, f.home) for f in day] for day in s.days][:-1]
    rep = evaluation_report(Schedule(n=8, days=days), inst)
    assert rep.valid is False
    assert rep.flips is None             # days without levels carry no flip count


def test_evaluation_report_refuses_flips_the_levels_contradict():
    inst = generate_instance(12, kind="euclidean", seed=0)
    obj = schedule_to_dict(build_schedule(inst))
    assert evaluation_report(schedule_from_dict(obj), inst).flips == 3
    obj["flips"] = 0
    with pytest.raises(ValidationError, match="stored flips 0") as ei:
        schedule_from_dict(obj)
    assert "3 Type-2 blocks" in str(ei.value)


def _damage(obj, path, value):
    *keys, last = path
    for key in keys:
        obj = obj[key]
    if value is _DELETE:
        del obj[last]
    else:
        obj[last] = obj["a_pair"] if value is _A_PAIR else value


_DELETE, _A_PAIR = object(), object()


# every ValidationError that a stored schedule gets from the check of its
# stored plan, with the message it names; schedule_from_dict, the one reader
# of the stored form, makes that check before evaluation_report sees it
@pytest.mark.parametrize("path,value,message", [
    (("flips",), 0, "stored flips 0 differ from the 3 Type-2 blocks"),
    (("levels",), 5, "malformed schedule JSON: 'int' object is not iterable"),
    (("levels", 0), 5, "malformed schedule JSON: 'int' object is not subscriptable"),
    (("levels", 0, "round"), "x", "malformed schedule JSON: invalid literal"),
    (("levels", 0, "level"), _DELETE, "malformed schedule JSON: missing field 'level'"),
    (("levels", 0, "blocks"), _DELETE, "malformed schedule JSON: missing field 'blocks'"),
    (("levels", 0, "blocks", 0, "a_pair"), "x", "malformed schedule JSON: block .* invalid"),
    (("levels", 0, "blocks", 0, "type"), 7,
     "malformed schedule JSON: block .* unknown block type 7"),
    (("levels", 1, "blocks", 0, "b_pair"), _A_PAIR, "super-match pairs a pair with itself"),
    (("team_pairs", "pairs"), "ab", "malformed schedule JSON: pair 'a'"),
    (("team_pairs", "pairs", 0), [0, "x"], "malformed schedule JSON: pair \\[0, 'x'\\]"),
    (("team_pairs", "weight"), _DELETE, "malformed schedule JSON: missing field 'weight'"),
    (("super_pairs", "pairs"), 5, "malformed schedule JSON: 'int' object is not iterable"),
    (("super_pairs", "weight"), "heavy",
     "malformed schedule JSON: invalid literal for weight: 'heavy'"),
], ids=lambda x: repr(x) if isinstance(x, tuple) else "")
def test_evaluation_report_refuses_an_unreadable_stored_plan(path, value, message):
    inst = generate_instance(12, kind="euclidean", seed=0)
    obj = schedule_to_dict(build_schedule(inst))
    _damage(obj, path, value)
    with pytest.raises(ValidationError, match=message):
        evaluation_report(schedule_from_dict(obj), inst)


@pytest.mark.parametrize("path,value", [
    (("n",), 12.5),
    (("flips",), 3.5),
    (("days", 0, 0, "away"), 2.5),
    (("levels", 0, "round"), 1.5),
    (("levels", 0, "blocks", 0, "type"), 1.5),
    (("team_pairs", "pairs", 0), [0.5, 1]),
    (("super_pairs", "pairs"), "ab"),
    (("super_pairs", "pairs", 0), [0, 1, 2]),
], ids=repr)
def test_stored_numbers_with_a_fractional_part_and_bad_pairs_are_refused(path, value):
    inst = generate_instance(12, kind="euclidean", seed=0)
    obj = schedule_to_dict(build_schedule(inst))
    _damage(obj, path, value)
    with pytest.raises(ValidationError, match="malformed schedule JSON"):
        schedule_from_dict(obj)


def test_stored_integral_floats_read_as_integers():
    inst = generate_instance(12, kind="euclidean", seed=0)
    s = build_schedule(inst)
    obj = schedule_to_dict(s)
    obj["n"] = 12.0
    obj["days"][0][0]["away"] = float(obj["days"][0][0]["away"])
    obj["team_pairs"]["pairs"][0] = [float(t) for t in obj["team_pairs"]["pairs"][0]]
    assert schedule_from_dict(obj) == s
    report = report_to_dict(evaluation_report(s, inst))
    assert report_to_dict(evaluation_report(schedule_from_dict(obj), inst)) == report


def test_sums_past_the_float_range_are_refused():
    dist = np.full((8, 8), 1e307)
    np.fill_diagonal(dist, 0.0)
    inst = Instance(n=8, dist=dist)
    s = build_schedule(generate_instance(8, kind="euclidean", seed=0))
    for call in (lambda: pairwise_sum(inst), lambda: total_travel(s, inst),
                 lambda: evaluation_report(s, inst)):
        with pytest.raises(InstanceError, match="sum past the float range"):
            call()


def test_a_lower_bound_past_the_float_range_is_refused():
    # W_t = 28 * 6e306 fits the float range; 2 * W_t + 8 * W_m does not
    dist = np.full((8, 8), 6e306)
    np.fill_diagonal(dist, 0.0)
    inst = Instance(n=8, dist=dist)
    assert pairwise_sum(inst) == pytest.approx(1.68e308)
    with pytest.raises(InstanceError, match="sum past the float range"):
        lower_bound(inst, min_weight_perfect_matching(dist))


def test_total_travel_sums_each_team_first():
    for seed in range(3):
        for n in (8, 20, 32):
            inst = generate_instance(n, kind="random_metric", seed=seed)
            s = build_schedule(inst)
            per_team = evaluation_report(s, inst).per_team
            assert len(per_team) == n and all(type(x) is float for x in per_team)
            assert total_travel(s, inst) == math.fsum(per_team)


def _itinerary_builds():
    yield pair_cluster_instance(12, [(1, 2), (0, 4), (3, 5)])
    yield pair_cluster_instance(16, [(0, 4), (1, 5), (2, 6), (3, 7)])
    for n in (8, 20, 32):
        for kind in GENERATOR_KINDS:
            yield generate_instance(n, kind, seed=0)


def test_a_reports_travels_are_its_teams_itineraries():
    # each team's venues are home, then per day the team itself on a home
    # day and its opponent otherwise; its travel is the sum of those legs
    for inst in _itinerary_builds():
        s = build_schedule(inst)
        report = evaluation_report(s, inst)
        opponent, at_home, _ = first_seen(s.days, inst.n)
        for t in range(inst.n):
            it = team_itinerary(s, inst, t)
            days = [t if home[t] else opp[t] for opp, home in zip(opponent, at_home)]
            assert it.team == t and it.venues == (t, *days)
            legs = zip(it.venues, it.venues[1:] + (t,))
            assert it.travel == math.fsum(float(inst.dist[a, b]) for a, b in legs)
            assert report.per_team[t] == it.travel


def test_evaluation_report_rejects_mismatched_n():
    inst = generate_instance(8, kind="euclidean", seed=0)
    s12 = build_schedule(generate_instance(12, kind="euclidean", seed=0))
    text = day_list_text(s12.days)
    for sched in (s12, schedule_from_dict(schedule_to_dict(s12)), Schedule(n=12, days=()),
                  parse_day_list(text)):
        with pytest.raises(ValidationError, match="n=12") as ei:
            evaluation_report(sched, inst)
        assert "n=8" in str(ei.value)
    # a day list read with the instance's n refuses its out-of-range teams
    with pytest.raises(ValidationError, match="out of range"):
        parse_day_list(text, inst.n)


def test_evaluation_report_no_bound_claim_on_non_metric_instance():
    inst = generate_instance(8, kind="euclidean", seed=3)
    d = np.array(inst.dist)
    d[0, 1] = d[1, 0] = d[0, 2] + d[2, 1] + 500.0   # a detour beats the direct leg
    bent = Instance(n=8, dist=d)
    s = build_schedule(bent)
    rep = evaluation_report(s, bent)
    assert rep.valid is True
    assert rep.ratio is not None
    assert rep.bound_satisfied is None
    assert rep.bound_reason == NOT_METRIC
    assert report_to_dict(rep)["bound_reason"] == NOT_METRIC
    assert evaluation_report(build_schedule(inst), inst).bound_satisfied is True


def test_bound_reason_names_the_first_case_and_checks_metric_only_last(monkeypatch):
    checked = []

    def counting_check_metric(inst):
        checked.append(inst.n)
        return check_metric(inst)

    check_metric = analysis.check_metric
    monkeypatch.setattr(analysis, "check_metric", counting_check_metric)
    # n=6 with all distances zero: no factor and a zero bound; no factor wins
    zero6 = Instance(n=6, dist=np.zeros((6, 6)))
    sched, _ = sample_valid_schedules(zero6, count=1, seed=0)[0]
    assert evaluation_report(sched, zero6).bound_reason == NO_FACTOR
    zero8 = Instance(n=8, dist=np.zeros((8, 8)))
    assert evaluation_report(build_schedule(zero8), zero8).bound_reason == ZERO_BOUND
    assert checked == []
    inst = generate_instance(8, kind="euclidean", seed=3)
    assert evaluation_report(build_schedule(inst), inst).bound_reason is None
    assert checked == [8]


def test_report_json_round_trip():
    inst = generate_instance(8, kind="euclidean", seed=3)
    s = build_schedule(inst)
    obj = json.loads(report_to_json(evaluation_report(s, inst)))
    assert obj["n"] == 8
    assert obj["valid"] is True
    assert obj["bound_satisfied"] is True and obj["bound_reason"] is None
    assert len(obj["per_team"]) == 8
    assert obj["ratio"] == pytest.approx(obj["total_travel"] / obj["lower_bound"])


def test_format_report_layout():
    inst = generate_instance(8, kind="euclidean", seed=3)
    s = build_schedule(inst)
    text = format_report(evaluation_report(s, inst))
    header, values = text.strip().splitlines()
    for col in ("n", "LB", "ALG", "ratio", "flips", "ceilF", "valid"):
        assert col in header.split()
    assert "yes" in values.split()
    assert len(header.split()) == len(values.split())


def test_format_report_handles_missing_fields():
    inst = Instance(n=8, dist=np.zeros((8, 8)))
    s = build_schedule(inst)
    text = format_report(evaluation_report(s, inst))
    assert "n/a" in text  # ratio has no value on the zero matrix

"""Block layouts: profiles, expansion, travel closed forms."""

import numpy as np
import pytest

from ttp2 import (
    Fixture,
    Instance,
    SchedulingError,
    SuperMatch,
    block_days,
    block_travel,
    expand_block,
)
from ttp2.blocks import BLOCK_TYPES, block_profiles, block_role_transition
from ttp2.analysis import total_travel

from helpers import block_as_days


PAIRS = [(0, 1), (2, 3)]  # slot teams: A1=0, A2=1, B1=2, B2=3


def _fixtures(block_type, start_day=0):
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=block_type)
    return expand_block(sm, PAIRS, start_day=start_day)


# --- profiles ---------------------------------------------------------------


def test_type1_profiles():
    p = block_profiles(1)
    assert p["A1"].sequence == "aahh"
    assert p["A2"].sequence == "aahh"
    assert p["B1"].sequence == "hhaa"
    assert p["B2"].sequence == "hhaa"
    assert all(p[s].exit_role == s[0] for s in p)  # roles preserved


def test_type2_profiles():
    p = block_profiles(2)
    assert p["A1"].sequence == "ahha"
    assert p["A2"].sequence == "ahha"
    assert p["B1"].sequence == "haah"
    assert p["B2"].sequence == "haah"
    assert p["A1"].exit_role == "B" and p["B1"].exit_role == "A"  # roles swap


def test_type3_profiles():
    p = block_profiles(3)
    assert p["A1"].sequence == "aahhah"
    assert p["A2"].sequence == "ahhaah"
    assert p["B1"].sequence == "hhaaha"
    assert p["B2"].sequence == "haahha"


def test_entry_requirement_is_first_symbol():
    for t in BLOCK_TYPES:
        for prof in block_profiles(t).values():
            assert prof.entry_requirement == prof.sequence[0]


def test_no_profile_has_three_in_a_row():
    for t in BLOCK_TYPES:
        for prof in block_profiles(t).values():
            s = prof.sequence
            assert "aaa" not in s and "hhh" not in s


def test_role_transition():
    assert block_role_transition(1, "A") == "A"
    assert block_role_transition(1, "B") == "B"
    assert block_role_transition(2, "A") == "B"
    assert block_role_transition(2, "B") == "A"
    assert block_role_transition(3, "A") == "A"
    with pytest.raises(SchedulingError, match="role"):
        block_role_transition(1, "C")
    with pytest.raises(SchedulingError, match="block type"):
        block_role_transition(7, "A")


def test_block_days():
    assert block_days(1) == 4
    assert block_days(2) == 4
    assert block_days(3) == 6
    with pytest.raises(SchedulingError, match="block type"):
        block_days(0)


# --- expansion --------------------------------------------------------------


CROSS = {(0, 2), (0, 3), (1, 2), (1, 3),
         (2, 0), (3, 0), (2, 1), (3, 1)}


@pytest.mark.parametrize("block_type", [1, 2])
def test_four_day_blocks_cover_cross_games_once(block_type):
    fx = _fixtures(block_type)
    assert len(fx) == 8
    assert {(f.away, f.home) for f in fx} == CROSS


def test_type3_adds_intra_pair_games():
    fx = _fixtures(3)
    assert len(fx) == 12
    got = {(f.away, f.home) for f in fx}
    assert got == CROSS | {(0, 1), (1, 0), (2, 3), (3, 2)}


@pytest.mark.parametrize("block_type", BLOCK_TYPES)
def test_each_team_plays_once_per_day(block_type):
    for day in block_as_days(_fixtures(block_type)):
        seen = [t for f in day for t in (f.away, f.home)]
        assert sorted(seen) == [0, 1, 2, 3]


@pytest.mark.parametrize("block_type", BLOCK_TYPES)
def test_day_numbering_from_start_day(block_type):
    fx = _fixtures(block_type, start_day=10)
    days = sorted({f.day for f in fx})
    assert days == list(range(10, 10 + block_days(block_type)))


def test_expansion_matches_profiles():
    # each slot's home/away string, read off the fixtures, must equal the
    # published profile
    slot_team = {"A1": 0, "A2": 1, "B1": 2, "B2": 3}
    for t in BLOCK_TYPES:
        days = block_as_days(_fixtures(t))
        for slot, prof in block_profiles(t).items():
            team = slot_team[slot]
            seq = ""
            for day in days:
                for f in day:
                    if f.away == team:
                        seq += "a"
                    elif f.home == team:
                        seq += "h"
            assert seq == prof.sequence, (t, slot)


def test_expand_respects_slot_order_within_pair():
    # lower team of each pair takes the 1 slot, higher takes the 2 slot
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=1)
    fx = expand_block(sm, [(5, 4), (7, 6)], start_day=0)
    prof = block_profiles(1)
    days = block_as_days(fx)
    first_day_away = {f.away for f in days[0]}
    # Type-1 day 1: both A slots away
    assert first_day_away == {4, 5}
    assert prof["A1"].sequence[0] == "a"


def test_expand_untyped_raises():
    sm = SuperMatch(a_pair=0, b_pair=1)
    with pytest.raises(SchedulingError, match="untyped"):
        expand_block(sm, PAIRS, start_day=0)


def test_expand_overlapping_pairs_raises():
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=1)
    with pytest.raises(SchedulingError, match="overlap"):
        expand_block(sm, [(0, 1), (1, 2)], start_day=0)


def test_expand_bad_pair_size_raises():
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=1)
    with pytest.raises(SchedulingError, match="exactly two"):
        expand_block(sm, [(0, 1, 2), (3, 4)], start_day=0)


def test_supermatch_validation():
    with pytest.raises(SchedulingError, match="itself"):
        SuperMatch(a_pair=2, b_pair=2)
    with pytest.raises(SchedulingError, match="block type"):
        SuperMatch(a_pair=0, b_pair=1, block_type=9)
    assert SuperMatch(a_pair=3, b_pair=1).key == (1, 3)


def test_fixture_validation():
    with pytest.raises(SchedulingError, match="itself"):
        Fixture(away=2, home=2, day=0)


# --- travel closed forms ----------------------------------------------------


def _random_metric4(rng):
    pts = rng.uniform(0, 100, (4, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return d


@pytest.mark.parametrize("block_type", BLOCK_TYPES)
def test_travel_formula_matches_itinerary_evaluation(block_type):
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = _random_metric4(rng)
        inst = Instance(n=4, dist=d)
        days = block_as_days(_fixtures(block_type))
        assert block_travel(block_type, d) == pytest.approx(
            total_travel(days, inst), abs=1e-9)


def test_travel_unit_distances():
    ones = np.ones((4, 4)) - np.eye(4)
    assert block_travel(3, ones) == pytest.approx(20.0)
    assert block_travel(2, ones) == pytest.approx(14.0)
    assert block_travel(1, ones) == pytest.approx(12.0)


def test_travel_unknown_type():
    with pytest.raises(SchedulingError, match="block type"):
        block_travel(4, np.zeros((4, 4)))

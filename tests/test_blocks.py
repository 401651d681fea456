"""Block layouts: home/away strings, expansion, travel closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2 import (
    Instance,
    Schedule,
    SchedulingError,
    SuperMatch,
    ValidationError,
    build_schedule,
    expand_block,
)
from ttp2.blocks import BLOCK_TYPES
from ttp2.analysis import total_travel

from helpers import euclid_weights
from reference import block_travel, expand_block_sorted


PAIRS = [(0, 1), (2, 3)]  # slot teams: A1=0, A2=1, B1=2, B2=3


def _days(block_type):
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=block_type)
    return expand_block(sm, PAIRS)


def _fixtures(block_type):
    return [f for day in _days(block_type) for f in day]


# --- home/away profiles ----------------------------------------------------


SLOTS = ("A1", "A2", "B1", "B2")


def _profiles(block_type, pairs=PAIRS):
    """Each slot's home/away string, one "a" or "h" per day, read off the
    expanded fixtures; A1/A2 and B1/B2 are the lower/higher team of each pair."""
    slot_of = dict(zip((*sorted(pairs[0]), *sorted(pairs[1])), SLOTS))
    seqs = dict.fromkeys(SLOTS, "")
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=block_type)
    for day in expand_block(sm, pairs):
        for f in day:
            seqs[slot_of[f.away]] += "a"
            seqs[slot_of[f.home]] += "h"
    return seqs


def test_type1_profiles():
    assert _profiles(1) == {"A1": "aahh", "A2": "aahh", "B1": "hhaa", "B2": "hhaa"}


def test_type2_profiles():
    assert _profiles(2) == {"A1": "ahha", "A2": "ahha", "B1": "haah", "B2": "haah"}


def test_type3_profiles():
    assert _profiles(3) == {"A1": "aahhah", "A2": "ahhaah", "B1": "hhaaha", "B2": "haahha"}


def test_no_profile_has_three_in_a_row():
    for t in BLOCK_TYPES:
        for seq in _profiles(t).values():
            assert "aaa" not in seq and "hhh" not in seq


def test_expansion_matches_profiles():
    # slots follow team order within each pair, whatever the pair labels
    for t in BLOCK_TYPES:
        assert _profiles(t, [(5, 4), (7, 6)]) == _profiles(t)


def test_block_days():
    assert [len(_days(t)) for t in BLOCK_TYPES] == [4, 4, 6]


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
    for day in _days(block_type):
        seen = [t for f in day for t in (f.away, f.home)]
        assert sorted(seen) == [0, 1, 2, 3]


@pytest.mark.parametrize("block_type", BLOCK_TYPES)
def test_day_numbering_from_start_day(block_type):
    # a block's k-th day is the schedule's day (start of its level) + k
    sched = build_schedule(Instance(n=12, dist=euclid_weights(12, 0)))
    start, placed = 0, 0
    for lp in sched.levels:
        for sm in lp.super_matches:
            block = expand_block(sm, sched.team_pairs.pairs)
            if sm.block_type == block_type:
                placed += 1
                for k, day in enumerate(block):
                    assert set(day) <= set(sched.days[start + k])
        start += len(block)
    assert placed > 0 and start == len(sched.days)


def test_expand_respects_slot_order_within_pair():
    # lower team of each pair takes the 1 slot, higher takes the 2 slot
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=1)
    days = expand_block(sm, [(5, 4), (7, 6)])
    # Type-1 day 1: A1@B1 and A2@B2
    assert {(f.away, f.home) for f in days[0]} == {(4, 6), (5, 7)}


def test_expand_overlapping_pairs_raises():
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=1)
    with pytest.raises(SchedulingError, match="overlap"):
        expand_block(sm, [(0, 1), (1, 2)])


def test_expand_bad_pair_size_raises():
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=1)
    with pytest.raises(SchedulingError, match="exactly two"):
        expand_block(sm, [(0, 1, 2), (3, 4)])


# one pair of teams as a caller may hold it: in order or reversed, as a
# tuple, list, set or numpy array, of Python or numpy integers
_PAIR_FORMS = (tuple, list, set, lambda p: tuple(reversed(p)), np.array,
               lambda p: tuple(map(np.int64, p)), lambda p: [np.int32(t) for t in p])


@st.composite
def _blocks(draw):
    # few teams, so pairs often overlap or repeat a team; some hold 1 or 3
    count = draw(st.integers(2, 4))
    sizes = st.sampled_from((2,) * 6 + (1, 3))
    pairs = [draw(st.sampled_from(_PAIR_FORMS))(draw(st.lists(st.integers(0, 15), min_size=k,
                                                                max_size=k)))
             for k in draw(st.lists(sizes, min_size=count, max_size=count))]
    if draw(st.booleans()):
        pairs = dict(enumerate(pairs))
    a, b = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
    return SuperMatch(a_pair=a, b_pair=b, block_type=draw(st.sampled_from(BLOCK_TYPES))), pairs


def _outcome(expand, sm, pairs):
    try:
        return repr(expand(sm, pairs))   # the teams' types as well as their values
    except SchedulingError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_blocks())
def test_expand_block_matches_the_sorting_reference(block):
    # the same days, or the same refusal and message, as sorting copies of
    # both pairs and checking the four teams with a set
    sm, pairs = block
    assert _outcome(expand_block, sm, pairs) == _outcome(expand_block_sorted, sm, pairs)


@pytest.mark.parametrize("pairs", [[5, (2, 3)], [(2, 3), None], [(0, "1"), (2, 3)]],
                         ids=["int", "none", "int-and-text"])
def test_expand_a_pair_that_cannot_be_iterated_or_ordered_raises_type_error(pairs):
    sm = SuperMatch(a_pair=0, b_pair=1, block_type=1)
    for expand in (expand_block, expand_block_sorted):
        with pytest.raises(TypeError):
            expand(sm, pairs)


def test_supermatch_validation():
    with pytest.raises(ValidationError, match="itself"):
        SuperMatch(a_pair=2, b_pair=2, block_type=1)
    with pytest.raises(ValidationError, match="block type"):
        SuperMatch(a_pair=0, b_pair=1, block_type=9)
    with pytest.raises(ValidationError, match="block type None"):
        SuperMatch(a_pair=0, b_pair=1, block_type=None)
    with pytest.raises(TypeError):
        SuperMatch(a_pair=0, b_pair=1)          # the type is required
    assert SuperMatch(a_pair=3, b_pair=1, block_type=2).key == (1, 3)


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
        days = _days(block_type)
        assert block_travel(block_type, d) == pytest.approx(
            total_travel(Schedule(n=4, days=days), inst), abs=1e-9)


def test_travel_unit_distances():
    ones = np.ones((4, 4)) - np.eye(4)
    assert block_travel(3, ones) == pytest.approx(20.0)
    assert block_travel(2, ones) == pytest.approx(14.0)
    assert block_travel(1, ones) == pytest.approx(12.0)

"""Block layouts: home/away strings, expansion, travel closed forms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2 import (
    Instance,
    Schedule,
    SuperMatch,
    ValidationError,
    build_schedule,
    expand_block,
    generate_instance,
)
from ttp2.blocks import BLOCK_TYPES
from ttp2.analysis import total_travel

from helpers import euclid_weights
from reference import block_travel, expand_block_sorted
from test_acceptance import LARGE_BUILDS


PAIRS = [(0, 1), (2, 3)]  # slot teams: A1=0, A2=1, B1=2, B2=3


def _days(block_type, pairs=PAIRS):
    """One block of pairs 0 and 1, its days as lists of [away, home] games."""
    return expand_block([0, 1, block_type], pairs).tolist()


def _fixtures(block_type):
    return [tuple(game) for day in _days(block_type) for game in day]


# --- home/away profiles ----------------------------------------------------


SLOTS = ("A1", "A2", "B1", "B2")


def _profiles(block_type, pairs=PAIRS):
    """Each slot's home/away string, one "a" or "h" per day, read off the
    expanded games; A1/A2 and B1/B2 are the lower/higher team of each pair."""
    slot_of = dict(zip((*sorted(pairs[0]), *sorted(pairs[1])), SLOTS))
    seqs = dict.fromkeys(SLOTS, "")
    for day in _days(block_type, pairs):
        for away, home in day:
            seqs[slot_of[away]] += "a"
            seqs[slot_of[home]] += "h"
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
    assert set(fx) == CROSS


def test_type3_adds_intra_pair_games():
    fx = _fixtures(3)
    assert len(fx) == 12
    assert set(fx) == CROSS | {(0, 1), (1, 0), (2, 3), (3, 2)}


@pytest.mark.parametrize("block_type", BLOCK_TYPES)
def test_each_team_plays_once_per_day(block_type):
    for day in _days(block_type):
        assert sorted(itertools.chain.from_iterable(day)) == [0, 1, 2, 3]


def _reference_days(sched):
    """The days of ``sched``'s stored plan expanded block by block with the
    reference, on its team pairs: level by level, and each day the games
    of the level's blocks in stored block order."""
    days = []
    for lp in sched.levels:
        blocks = [expand_block_sorted(sm, sched.team_pairs.pairs) for sm in lp.super_matches]
        days += (tuple(itertools.chain.from_iterable(day)) for day in zip(*blocks))
    return tuple(days)


@pytest.mark.parametrize("block_type", BLOCK_TYPES)
def test_day_numbering_from_start_day(block_type):
    # a block's k-th day is the schedule's day (start of its level) + k
    sched = build_schedule(Instance(n=12, dist=euclid_weights(12, 0)))
    start, placed = 0, 0
    for lp in sched.levels:
        for sm in lp.super_matches:
            block = expand_block_sorted(sm, sched.team_pairs.pairs)
            if sm.block_type == block_type:
                placed += 1
                for k, day in enumerate(block):
                    assert set(day) <= set(sched.days[start + k])
        start += len(block)
    assert placed > 0 and start == len(sched.days)
    assert sched.days == _reference_days(sched)


@pytest.mark.parametrize("n", [n for n, kind in LARGE_BUILDS if kind == "euclidean"])
def test_a_builds_days_are_its_plan_expanded_block_by_block(n):
    # past the sizes tests/digests.json pins: every day, game by game
    sched = build_schedule(generate_instance(n, "euclidean", 0))
    assert sched.days == _reference_days(sched)


def test_expand_respects_slot_order_within_pair():
    # lower team of each pair takes the 1 slot, higher takes the 2 slot
    days = _days(1, [(5, 4), (7, 6)])
    # Type-1 day 1: A1@B1 and A2@B2
    assert days[0] == [[4, 6], [5, 7]]


def test_expand_overlapping_pairs_raises():
    with pytest.raises(ValidationError, match=r"^super-match pairs overlap: \[0, 1\] vs \[1, 2\]$"):
        expand_block([0, 1, 1], [(0, 1), (1, 2)])


def test_expand_bad_pair_size_raises():
    for pairs in ([(0, 1, 2), (3, 4)], [(0, 1, 2), (3, 4, 5)], [(0,), (3,)]):
        with pytest.raises(ValidationError, match="^each pair must hold exactly two teams$"):
            expand_block([0, 1, 1], pairs)


@pytest.mark.parametrize("blocks, message", [
    ([0, 2, 1], r"block \[0, 2, 1\] names a pair outside 0\.\.1"),
    ([[0, 1, 1], [-1, 0, 1]], r"block \[-1, 0, 1\] names a pair outside 0\.\.1"),
    ([0, 1, 4], "unknown block type 4"),
    ([[0, 1, 2], [1, 0, 0]], "unknown block type 0"),
    ([[0, 1, 1], [1, 0, 3]], "blocks of 4 and 6 days cannot be expanded together"),
    ([[1, 0, 3], [0, 1, 2]], "blocks of 4 and 6 days cannot be expanded together"),
    ([0, 1], r"each block must be three numbers, \(a_pair, b_pair, type\)"),
    ([[0, 1, 1], [0, 1]], r"each block must be three numbers, \(a_pair, b_pair, type\)"),
    ([0, 1, 1.0], r"blocks must be integers, got \[0, 1, 1\.0\]"),
], ids=["pair-past-m", "negative-pair", "type-4", "type-0", "4-then-6-days", "6-then-4-days",
        "two-numbers", "ragged", "float"])
def test_expand_refuses_a_block_it_cannot_lay_out(blocks, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        expand_block(blocks, PAIRS)


def test_expand_keeps_the_shape_of_its_blocks():
    # any leading shape: each block's (days, 2, 2) games in its place
    rows = [[0, 1, 1], [1, 2, 2], [2, 0, 1], [0, 2, 2]]
    pairs = [(0, 1), (2, 3), (4, 5)]
    flat = expand_block(rows, pairs)
    assert flat.dtype == np.int64 and flat.shape == (4, 4, 2, 2)
    assert expand_block(np.array(rows).reshape(2, 2, 3), pairs).tolist() == (
        flat.reshape(2, 2, 4, 2, 2).tolist())
    assert expand_block(rows[1], pairs).tolist() == flat[1].tolist()
    assert expand_block(np.zeros((0, 3), np.int64), pairs).shape == (0, 0, 2, 2)


# pairs as a caller may hold them: in order or reversed, as tuples, lists
# or a numpy array, of Python or numpy integers
_PAIR_FORMS = (tuple, lambda ps: [list(p) for p in ps], lambda ps: [p[::-1] for p in ps],
               np.array, lambda ps: [tuple(map(np.int64, p)) for p in ps],
               lambda ps: [[np.int32(t) for t in p] for p in ps])
# blocks as a caller may hold them: a list of rows or an int array
_BLOCK_FORMS = (list, np.array, lambda rows: np.array(rows, np.int32))


@st.composite
def _blocks(draw):
    # few teams, so pairs often share a team or name one team twice
    count = draw(st.integers(2, 5))
    pairs = [tuple(draw(st.lists(st.integers(0, 15), min_size=2, max_size=2)))
             for _ in range(count)]
    types = draw(st.sampled_from(((1, 2), (3,))))
    row = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1), st.sampled_from(types))
    rows = draw(st.lists(row.filter(lambda r: r[0] != r[1]), min_size=1, max_size=6))
    return rows, pairs, draw(st.sampled_from(_BLOCK_FORMS)), draw(st.sampled_from(_PAIR_FORMS))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_blocks())
def test_expand_block_matches_the_sorting_reference(case):
    # the reference's days for each block, as one int64 array, or the
    # reference's refusal and message for the first block it refuses
    rows, pairs, block_form, pair_form = case
    try:
        want = [expand_block_sorted(SuperMatch(*row), pairs) for row in rows]
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            expand_block(block_form(rows), pair_form(pairs))
        assert str(got.value) == str(exc)
        return
    got = expand_block(block_form(rows), pair_form(pairs))
    assert got.dtype == np.int64
    assert got.tolist() == [[[list(game) for game in day] for day in block] for block in want]


@pytest.mark.parametrize("pairs", [[5, (2, 3)], [(2, 3), None], [(0, "1"), (2, 3)]],
                         ids=["int", "none", "int-and-text"])
def test_expand_refuses_a_pair_that_is_not_two_integers(pairs):
    with pytest.raises(ValidationError, match="^(each pair must hold exactly two teams"
                                              "|pairs must be integers, got .*)$"):
        expand_block([0, 1, 1], pairs)


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

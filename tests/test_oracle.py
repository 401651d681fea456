"""The test-side references themselves: exhaustive search, sampling,
enumeration and the subset DP."""

import itertools

import numpy as np
import pytest

from ttp2 import (
    Instance,
    MatchingError,
    TTP2Error,
    generate_instance,
    lower_bound,
    min_weight_perfect_matching,
    validate_schedule,
)

from reference import (
    OracleResult,
    block_travel,
    brute_force_matching,
    brute_force_optimal,
    dp_matching,
    sample_valid_schedules,
)

UNIT4 = Instance(n=4, dist=np.ones((4, 4)) - np.eye(4))


# --- exhaustive n=4 -----------------------------------------------------------


def test_unit_optimum_is_20():
    res = brute_force_optimal(UNIT4)
    assert res.optimum == pytest.approx(20.0)
    assert res.explored == 288
    assert validate_schedule(res.schedule).ok
    teams = min_weight_perfect_matching(UNIT4.dist)
    assert lower_bound(UNIT4, teams) == pytest.approx(res.optimum)


def test_zero_matrix_optimum_is_zero():
    res = brute_force_optimal(Instance(n=4, dist=np.zeros((4, 4))))
    assert res.optimum == 0.0


def test_explored_count_is_reproducible():
    inst = generate_instance(4, kind="euclidean", seed=6)
    a = brute_force_optimal(inst)
    b = brute_force_optimal(inst)
    assert a.explored == b.explored
    assert a.optimum == b.optimum


def test_optimum_bracketed_by_bound_and_blocks():
    # LB <= optimum <= the best single six-day block arrangement
    for seed in range(10):
        inst = generate_instance(4, kind="euclidean", seed=seed)
        res = brute_force_optimal(inst)
        teams = min_weight_perfect_matching(inst.dist)
        assert res.optimum >= lower_bound(inst, teams) - 1e-9
        best_block = min(
            block_travel(3, inst.dist[np.ix_(perm, perm)])
            for perm in itertools.permutations(range(4)))
        assert res.optimum <= best_block + 1e-9


def test_brute_force_rejects_other_sizes():
    inst = generate_instance(6, kind="euclidean", seed=0)
    with pytest.raises(TTP2Error, match="n=4 only"):
        brute_force_optimal(inst)


def test_result_shape():
    res = brute_force_optimal(UNIT4)
    assert isinstance(res, OracleResult)
    assert len(res.schedule.days) == 6
    assert all(len(day) == 2 for day in res.schedule.days)


# --- randomized feasible samples ----------------------------------------------------


@pytest.mark.parametrize("n", [4, 6, 8])
def test_samples_are_valid_and_above_bound(n):
    inst = generate_instance(n, kind="euclidean", seed=1)
    teams = min_weight_perfect_matching(inst.dist)
    lb = lower_bound(inst, teams)
    out = sample_valid_schedules(inst, count=3, seed=0)
    assert len(out) == 3
    for sched, travel in out:
        assert validate_schedule(sched).ok
        assert len(sched.days) == 2 * n - 2
        assert travel >= lb - 1e-9


def test_samples_dominate_true_optimum():
    inst = generate_instance(4, kind="euclidean", seed=9)
    opt = brute_force_optimal(inst).optimum
    for _, travel in sample_valid_schedules(inst, count=5, seed=3):
        assert travel >= opt - 1e-9


def test_sampler_is_seed_deterministic():
    inst = generate_instance(6, kind="euclidean", seed=2)
    a = [t for _, t in sample_valid_schedules(inst, count=3, seed=7)]
    b = [t for _, t in sample_valid_schedules(inst, count=3, seed=7)]
    c = [t for _, t in sample_valid_schedules(inst, count=3, seed=8)]
    assert a == b
    assert a != c


def test_sampler_rejects_large_n():
    inst = generate_instance(10, kind="euclidean", seed=0)
    with pytest.raises(TTP2Error, match="n <= 8"):
        sample_valid_schedules(inst, count=1)


# --- matching enumeration (used as the matching reference elsewhere) ------------------


def test_matching_enumeration_optimal_and_canonical():
    rng = np.random.default_rng(0)
    for m in (4, 6):
        pts = rng.uniform(0, 100, (m, 2))
        w = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        ref = brute_force_matching(w)
        assert ref.pairs == min_weight_perfect_matching(w).pairs
        assert all(a < b for a, b in ref.pairs)


def test_matching_enumeration_size_cap():
    w = np.ones((14, 14)) - np.eye(14)
    with pytest.raises(MatchingError, match="m <= 12"):
        brute_force_matching(w)


# --- subset-DP matching (the reference for larger m) -----------------------------------


def test_dp_matching_agrees_with_enumeration():
    rng = np.random.default_rng(1)
    for m in (2, 4, 6, 8, 10):
        for _ in range(5):
            pts = rng.uniform(0, 100, (m, 2))
            w = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            assert dp_matching(w) == brute_force_matching(w)

"""Acceptance gate: one test per shipped claim, each ending in a PASS line.

The heavyweight seeded sweep (7 sizes x 100 seeds) runs once in a module
fixture and feeds the three criteria that share it.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ttp2 import (
    Instance,
    Schedule,
    build_schedule,
    evaluation_report,
    expand_block,
    factors_exact,
    flip_budget,
    generate_instance,
    lower_bound,
    min_weight_perfect_matching,
    total_travel,
    validate_schedule,
)
from ttp2.analysis import factor_ours
from ttp2.blocks import SuperMatch

from helpers import euclid_weights, pair_cluster_instance
from reference import block_travel, brute_force_matching, brute_force_optimal, dp_matching
from test_scheduler import GOLDEN_12, GOLDEN_16, _eager_levels, _level_sets

SWEEP_SIZES = (8, 12, 16, 20, 24, 28, 32)
SWEEP_SEEDS = range(100)
# every served n past the sweep up to 128 (56 and 112 are refused: their
# flip plans pass ceil(F_n)), each kind at seed 0, then n=256 Euclidean
LARGE_BUILDS = [(n, kind) for n in range(36, 129, 4) if n not in (56, 112)
                for kind in ("euclidean", "random_metric", "unit")] + [(256, "euclidean")]


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    rows = []
    for n in SWEEP_SIZES:
        budget = math.ceil(flip_budget(n))
        factor = factor_ours(n)
        for seed in SWEEP_SEEDS:
            inst = generate_instance(n, kind="euclidean", seed=seed)
            s = build_schedule(inst)
            final = s.levels[-1]
            rows.append({
                "n": n,
                "seed": seed,
                "valid": validate_schedule(s).ok,
                "days_ok": len(s.days) == 2 * n - 2,
                "final_t3_ok": (
                    len(final.super_matches) == n // 4
                    and all(sm.block_type == 3 for sm in final.super_matches)
                    and sorted(sm.key for sm in final.super_matches)
                    == sorted(s.super_pairs.pairs)),
                "levels_ok": s.levels == _eager_levels(s),
                "flips": s.flips,
                "budget": budget,
                "ratio": total_travel(s, inst) / lower_bound(inst, s.team_pairs),
                "factor": factor,
            })
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_criterion_1_worked_examples_exact():
    t0 = time.perf_counter()
    s12 = build_schedule(pair_cluster_instance(12, [(1, 2), (0, 4), (3, 5)]))
    s16 = build_schedule(pair_cluster_instance(16, [(0, 4), (1, 5), (2, 6), (3, 7)]))
    assert _level_sets(s12) == GOLDEN_12
    assert s12.flips == 3
    assert _level_sets(s16) == GOLDEN_16
    assert s16.flips == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: n=12 and n=16 worked examples reproduced "
          f"exactly, flips 3/4 ({elapsed:.3f}s < 1s)")


def test_criterion_2_seeded_sweep_feasibility(sweep):
    rows, elapsed = sweep["rows"], sweep["elapsed"]
    assert len(rows) == len(SWEEP_SIZES) * len(SWEEP_SEEDS)
    bad = [r for r in rows if not (r["valid"] and r["days_ok"]
                                   and r["final_t3_ok"] and r["levels_ok"]
                                   and r["flips"] <= r["budget"])]
    assert bad == [], bad[:5]
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: {len(rows)}/{len(rows)} seeded builds are "
          f"constraint-clean with 2n-2 days, an n/4-block final level on the "
          f"super pairing, levels equal to the template renamed through sigma, "
          f"and flips within ceil(F_n) ({elapsed:.1f}s < 60s)")


def test_criterion_3_ratio_within_factor(sweep):
    rows = sweep["rows"]
    worst = max(r["ratio"] - r["factor"] for r in rows)
    offenders = [r for r in rows if r["ratio"] > r["factor"] + 1e-9]
    assert offenders == [], offenders[:5]
    print(f"\nPASS criterion 3: all {len(rows)} ratios within the claimed "
          f"factor (worst margin {worst:.3e} <= 1e-9)")


def test_criterion_4_block_travel_closed_forms():
    rng = np.random.default_rng(11)
    checked = 0
    for block_type in (1, 2, 3):
        sm = SuperMatch(a_pair=0, b_pair=1, block_type=block_type)
        days = expand_block(sm, [(0, 1), (2, 3)])
        for _ in range(50):
            pts = rng.uniform(0, 1000, (4, 2))
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            inst = Instance(n=4, dist=d)
            assert block_travel(block_type, d) == pytest.approx(
                total_travel(Schedule(n=4, days=days), inst), abs=1e-9)
            checked += 1
    print(f"\nPASS criterion 4: block travel closed forms match itinerary "
          f"evaluation on {checked} random geometries (tol 1e-9)")


def _best_t3_arrangement(dist):
    return min(block_travel(3, dist[np.ix_(perm, perm)])
               for perm in itertools.permutations(range(4)))


def test_criterion_5_exhaustive_reference_chain():
    t0 = time.perf_counter()
    for seed in range(50):
        inst = generate_instance(4, kind="euclidean", seed=seed)
        teams = min_weight_perfect_matching(inst.dist)
        opt = brute_force_optimal(inst)
        assert validate_schedule(opt.schedule).ok
        assert lower_bound(inst, teams) <= opt.optimum + 1e-9
        assert opt.optimum <= _best_t3_arrangement(inst.dist) + 1e-9
    unit = Instance(n=4, dist=np.ones((4, 4)) - np.eye(4))
    res = brute_force_optimal(unit)
    teams = min_weight_perfect_matching(unit.dist)
    assert res.optimum == pytest.approx(20.0)
    assert lower_bound(unit, teams) == pytest.approx(20.0)
    assert _best_t3_arrangement(unit.dist) == pytest.approx(20.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 5: bound <= exhaustive optimum <= best six-day "
          f"block arrangement on 50 instances; all three equal 20 on the "
          f"unit metric ({elapsed:.1f}s < 10s)")


def test_criterion_6_matching_solvers_agree():
    count_enum = 0
    for m, seed in itertools.product((4, 6, 8, 10), range(50)):
        w = euclid_weights(m, seed=seed)
        assert min_weight_perfect_matching(w).pairs == brute_force_matching(w).pairs
        count_enum += 1
    count_cross = 0
    for m, seed in itertools.product((12, 14, 16, 18, 20), range(20)):
        w = euclid_weights(m, seed=seed)
        dp = dp_matching(w)
        got = min_weight_perfect_matching(w)
        assert dp.pairs == got.pairs
        assert dp.weight == got.weight
        count_cross += 1
    print(f"\nPASS criterion 6: matching agrees with enumeration on "
          f"{count_enum} small graphs and with the subset-DP oracle exactly on "
          f"{count_cross} larger ones")


def test_criterion_7_factor_crossover_exact():
    for n in range(8, 33, 4):
        ours, xk = factors_exact(n)
        assert ours <= xk, n
    ours36, xk36 = factors_exact(36)
    assert ours36 > xk36
    assert ours36 - xk36 == Fraction(1, 306)
    print("\nPASS criterion 7: exact rationals give ours <= other factor for "
          "n = 8..32 and the strict reversal at n = 36 (gap 1/306)")


def test_criterion_8_smallest_size_structure(sweep):
    rows = [r for r in sweep["rows"] if r["n"] == 8]
    assert len(rows) == len(SWEEP_SEEDS)
    assert all(r["valid"] and r["days_ok"] for r in rows)
    assert all(r["flips"] == 1 for r in rows)
    print(f"\nPASS criterion 8: all {len(rows)} n=8 builds have 14 days, "
          f"exactly one flipped block, and no constraint violations")


def test_criterion_9_served_sizes_past_32():
    t0 = time.perf_counter()
    bad = []
    for n, kind in LARGE_BUILDS:
        inst = generate_instance(n, kind=kind, seed=0)
        s = build_schedule(inst)
        rep = evaluation_report(s, inst)
        if not (rep.valid and s.flips <= math.ceil(flip_budget(n)) and rep.bound_satisfied):
            bad.append((n, kind, rep.valid, s.flips, rep.ratio, rep.factor_ours))
    assert bad == []
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 9: {len(LARGE_BUILDS)} seed-0 builds at every served n "
          f"from 36 to 128 and n=256 are valid, within ceil(F_n) flips and within "
          f"factor_ours ({elapsed:.1f}s)")

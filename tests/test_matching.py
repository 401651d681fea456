"""Minimum-weight perfect matching: optimality, tie-breaks, input checks."""

import gc
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2 import (
    generate_instance,
    Instance,
    MatchingError,
    PairMatching,
    build_schedule,
    build_super_graph,
    evaluation_report,
    min_weight_perfect_matching,
    super_pair_matching,
    total_travel,
    validate_schedule,
)
from ttp2 import matching
from ttp2.instance import SYMMETRY_TOL
from ttp2.matching import _solve_by_content

from helpers import euclid_weights, lattice_weights, unit_weights
from reference import (DP_MATCHING_MAX, _exact_weights, brute_force_matching, dp_matching,
                       exact_integers_frexp)


# --- optimality against enumeration ----------------------------------------


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_auto_matches_enumeration(m):
    for seed in range(12):
        w = euclid_weights(m, seed=seed)
        got = min_weight_perfect_matching(w)
        ref = brute_force_matching(w)
        assert got.pairs == ref.pairs
        assert got.weight == ref.weight  # identical fsum over the same pairs


@pytest.mark.parametrize("m", [12, 14, 16, 18, 20, 22])
def test_dp_and_blossom_agree(m):
    # the subset-DP oracle against the blossom solver, on weights without
    # ties and on lattice weights with many tied optima (fewer seeds at
    # m=22, where one DP solve takes seconds)
    inputs = [euclid_weights(m, seed=seed) for seed in range(4)]
    inputs += [lattice_weights(m, seed=seed) for seed in range(4 if m < 22 else 2)]
    for w in inputs:
        dp = dp_matching(w)
        got = min_weight_perfect_matching(w)
        assert dp.pairs == got.pairs
        assert dp.weight == got.weight


def test_blossom_large_instances_stay_optimalish():
    # no oracle this big (the DP stops at m=22); check basic sanity:
    # perfect cover, weight equals the sum of chosen edges
    w = euclid_weights(32, seed=3)
    got = min_weight_perfect_matching(w)
    assert got.covers(32)
    assert got.weight == pytest.approx(sum(w[i][j] for i, j in got.pairs))


def _metric_closure(w):
    # shortest-path distances: many matchings tie in exact arithmetic, and
    # their float sums can differ in the last bit
    w = np.array(w, dtype=float)
    for k in range(w.shape[0]):
        w = np.minimum(w, w[:, [k]] + w[[k], :])
    return w


# off-diagonal entries from the smallest subnormal to 1e300
FLOAT_RANGE = (0.0, 5e-324, 1e-300, 1.0, 1e300)


@st.composite
def _weights(draw):
    m = draw(st.sampled_from(range(2, 11, 2)))
    kind = draw(st.sampled_from(("integers", "closure", "float-range")))
    entries = {"integers": st.integers(1, 3),
               "closure": st.integers(1, 99).map(lambda k: k / 10),
               "float-range": st.sampled_from(FLOAT_RANGE)}[kind]
    upper = m * (m - 1) // 2
    w = np.zeros((m, m))
    w[np.triu_indices(m, 1)] = draw(st.lists(entries, min_size=upper, max_size=upper))
    w = w + w.T
    return _metric_closure(w) if kind == "closure" else w


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_weights())
def test_matches_enumeration_pair_for_pair(w):
    # small integers (heavy ties), metric-closure floats (ties up to an
    # ulp) and entries spanning the float range, whose exact integers span
    # about 2,000 bits: minimum exact weight, then the smallest list
    got = min_weight_perfect_matching(w)
    ref = brute_force_matching(w)
    assert got.pairs == ref.pairs
    assert got.weight == ref.weight


def test_each_pair_weight_is_made_into_the_references_exact_integer():
    # once per pair v < u, over one common power of two, as the Fraction
    # reference does over the whole matrix
    spread = np.zeros((6, 6))
    spread[np.triu_indices(6, 1)] = FLOAT_RANGE * 3
    for w in (euclid_weights(8, seed=0), lattice_weights(12, seed=1), unit_weights(4),
              np.zeros((4, 4)), spread + spread.T, _metric_closure(euclid_weights(10, 2) / 7)):
        upper = matching._pair_tables(len(w))[0]
        exact = _exact_weights(w)
        assert matching._exact_integers(w[upper]).tolist() == [
            exact[i][j] for i, j in zip(*upper)]


def _integer_vectors():
    rng = np.random.default_rng(5)
    yield from (rng.integers(0, 15, size).astype(float) for size in (1, 6, 28, 120, 496))
    yield rng.integers(0, 2 ** 40, 496).astype(float)
    yield 2.0 * rng.integers(0, 1000, 120)                  # all even
    yield 1024.0 * rng.integers(1, 1000, 28)                # a common power of two
    yield np.zeros(28)
    yield np.array([-0.0, 0.0, 3.0, -0.0, 1.0, 0.0])
    yield np.array([2.0 ** 53 - 1, 2.0 ** 53, 1.0, 0.0, 7.0, 2.0 ** 52 + 1])
    yield np.array([2.0 ** 63 - 1024, 1.0, 2.0 ** 62, 0.0, 3.0, 2.0 ** 63 - 2048])


def _general_vectors():
    # past int64, and not integer-valued: the frexp decomposition
    yield np.array([2.0 ** 63, 1.0, 0.0, 5.0, 2.0 ** 62, 3.0])
    yield np.array([2.0 ** 64, 1.0, 0.0, 5.0, 2.0, 3.0])
    yield np.array([2.0 ** 63 - 1024, 2.0 ** 63, 0.0, 1.0, 8.0, 6.0])
    yield np.array([4.0, 1.0, 0.0, 5.0, 2.5, 3.0])             # one fraction
    yield np.array([4.0, 1.0, 0.0, 5.0, 2.0, 3.0 + 2.0 ** -40])
    yield euclid_weights(8, seed=1)[np.triu_indices(8, 1)]
    yield np.array([1e300, 5e-324, 0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("x", [*_integer_vectors(), *_general_vectors()],
                         ids=lambda x: f"{x.size}-{x.max():g}")
def test_exact_integers_match_the_frexp_reference(x):
    # element for element and as Python ints, with or without the integer
    # shortcut; 2**63 and above would wrap in int64, so equality shows that
    # they take the decomposition
    got, ref = matching._exact_integers(x), exact_integers_frexp(x)
    assert got.dtype == object and got.shape == x.shape
    assert [type(v) for v in got] == [int] * x.size
    assert got.tolist() == ref.tolist()


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
def test_integer_weights_match_enumeration_where_many_matchings_tie(m):
    # lattice distances on small grids tie often at the optimum, and their
    # super graphs are integer too: the canonical matching by enumeration
    for seed in range(6):
        for side in (4, 8):
            w = lattice_weights(m, seed=seed, side=side)
            assert min_weight_perfect_matching(w) == brute_force_matching(w)
            inst = Instance(n=m, dist=w)
            sup = build_super_graph(inst, min_weight_perfect_matching(w))
            if len(sup) % 2 == 0:
                assert super_pair_matching(sup) == brute_force_matching(sup)


def test_a_warm_start_that_matches_every_vertex_is_the_answer(monkeypatch):
    # a solve that returns at its warm start never builds the edge table
    # of the blossom stages
    staged = []
    edges = matching._vertex_edges
    monkeypatch.setattr(matching, "_vertex_edges", lambda n: staged.append(n) or edges(n))

    def solve(w):
        return _solve_by_content.__wrapped__(w.shape, w.tobytes())   # past the memo

    for m in (4, 6, 8, 10):
        assert solve(unit_weights(m)) == brute_force_matching(unit_weights(m))
    assert staged == []
    unstaged = 0
    for seed in range(12):
        w = euclid_weights(4, seed=seed)
        before = len(staged)
        assert solve(w) == brute_force_matching(w)
        unstaged += len(staged) == before
    assert 0 < unstaged < 12


@pytest.mark.parametrize("n, seed", [(16, 1441248948), (20, 637037212), (16, 2216409161)])
def test_equal_fsum_ties_follow_the_exact_weight(n, seed):
    # matchings of equal fsum weight whose exact sums differ in the last
    # units: the smaller exact sum wins, even where its pair list is the
    # larger one (the first two inputs)
    w = generate_instance(n, "random_metric", seed).dist
    assert min_weight_perfect_matching(w) == dp_matching(w)


def test_exact_sums_decide_where_float_sums_mislead():
    # a right-fold float DP returns ((0, 8), (1, 2), (3, 9), (4, 6), (5, 7))
    # here, whose fsum is 2.4000000000000004
    rng = np.random.default_rng(35)
    w = np.triu(rng.integers(1, 30, (10, 10)) * 0.1, 1)
    w = w + w.T
    want = ((0, 1), (2, 3), (4, 6), (5, 8), (7, 9))
    for solver in (min_weight_perfect_matching, dp_matching, brute_force_matching):
        got = solver(w)
        assert got.pairs == want
        assert got.weight == 2.4


def _crowded_grid_weights(m, seed):
    # Manhattan distances between m points on a 3 x 3 grid, many sharing a
    # cell: the zero distances make huge numbers of matchings tie
    pts = np.random.default_rng(seed).integers(0, 3, (m, 2))
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1).astype(float)


@pytest.mark.parametrize("m, seed", [(18, 1016), (20, 1302)])
def test_crowded_ties_match_the_dp(m, seed):
    # huge numbers of exactly tied optima: the perturbed weights alone
    # must single out the smallest pair list among them
    w = _crowded_grid_weights(m, seed)
    assert min_weight_perfect_matching(w) == dp_matching(w)


TAIL_INPUTS = {
    "random_metric-145": lambda: generate_instance(32, "random_metric", 145).dist,
    "euclidean-1196": lambda: generate_instance(32, "euclidean", 1196).dist,
    "lattice-3204336560": lambda: lattice_weights(32, 3204336560),
    "crowded-grid-184": lambda: _crowded_grid_weights(32, 184),
}


@pytest.mark.parametrize("name", sorted(TAIL_INPUTS))
def test_tail_inputs_solve_fast_and_optimally(name):
    # inputs that once took seconds; networkx's blossom checks the weight
    nx = pytest.importorskip("networkx")
    w = TAIL_INPUTS[name]()
    _solve_by_content.cache_clear()
    t0 = time.perf_counter()
    got = min_weight_perfect_matching(w)
    assert time.perf_counter() - t0 < 1.0
    graph = nx.Graph()
    graph.add_weighted_edges_from((i, j, float(w[i, j]))
                                  for i in range(32) for j in range(i + 1, 32))
    pairs = nx.min_weight_matching(graph)
    assert len(pairs) == 16
    ref = math.fsum(float(w[i, j]) for i, j in pairs)
    assert math.isclose(got.weight, ref, rel_tol=1e-9, abs_tol=1e-9)


# --- canonical output form and tie-breaks ----------------------------------


def test_pairs_are_canonically_sorted():
    w = euclid_weights(10, seed=1)
    got = min_weight_perfect_matching(w)
    assert all(a < b for a, b in got.pairs)
    firsts = [a for a, _ in got.pairs]
    assert firsts == sorted(firsts)


SOLVERS = {"dp": dp_matching, "bnb": min_weight_perfect_matching}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_unit_weights_tie_break(solver):
    # every perfect matching has the same weight; the canonical answer is
    # the lexicographically smallest pair list
    for m in (4, 6, 8, 10, 12):
        got = SOLVERS[solver](unit_weights(m))
        assert got.pairs == tuple((i, i + 1) for i in range(0, m, 2))
        assert got.weight == pytest.approx(m / 2)


def test_m2_forced_pair():
    w = [[0.0, 7.5], [7.5, 0.0]]
    got = min_weight_perfect_matching(w)
    assert got.pairs == ((0, 1),)
    assert got.weight == 7.5


def test_scale_equivariance():
    w = euclid_weights(12, seed=9)
    base = min_weight_perfect_matching(w)
    scaled = min_weight_perfect_matching([[x * 128.0 for x in row] for row in w])
    assert scaled.pairs == base.pairs
    assert scaled.weight == pytest.approx(base.weight * 128.0, rel=1e-12)


def test_permutation_consistency():
    # relabeling the vertices must relabel the matching, weight unchanged
    rng = np.random.default_rng(4)
    w = np.array(euclid_weights(10, seed=4))
    perm = rng.permutation(10)
    wp = w[np.ix_(perm, perm)]
    base = min_weight_perfect_matching(w)
    moved = min_weight_perfect_matching(wp)
    inv = np.argsort(perm)
    mapped = sorted(tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in moved.pairs)
    assert mapped == sorted(base.pairs)
    assert moved.weight == pytest.approx(base.weight, rel=1e-12)
    assert inv is not None


# --- input validation -------------------------------------------------------


def test_rejects_odd_vertex_count():
    w = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(MatchingError, match="even"):
        min_weight_perfect_matching(w)


def test_rejects_non_square():
    with pytest.raises(MatchingError, match="square"):
        min_weight_perfect_matching(np.ones((4, 6)))


def test_rejects_negative_entries():
    w = np.ones((4, 4)) - np.eye(4)
    w[1, 2] = w[2, 1] = -0.5
    with pytest.raises(MatchingError, match="negative"):
        min_weight_perfect_matching(w)


def test_rejects_asymmetric():
    w = np.ones((4, 4)) - np.eye(4)
    w[0, 1] = 2.0
    with pytest.raises(MatchingError, match="symmetric"):
        min_weight_perfect_matching(w)


@pytest.mark.parametrize("transposed", [False, True])
def test_reads_a_matrix_asymmetric_within_tolerance_as_its_mean(transposed):
    # the upper triangle alone picks {0-1, 2-3}, the lower alone and the mean
    # {0-2, 1-3}; the transpose has the same mean, and so the same answer
    small = np.ones((4, 4)) - np.eye(4)
    small[0, 1] = 1 - 6e-10
    small[0, 2] = small[2, 0] = 1 - 4e-10
    rng = np.random.default_rng(0)
    euclid = euclid_weights(12, seed=3) + np.triu(rng.uniform(-4e-10, 4e-10, (12, 12)), 1)
    got = {}
    for name, w in (("small", small), ("euclid", euclid)):
        w = w.T if transposed else w
        assert 0 < np.abs(w - w.T).max() < SYMMETRY_TOL
        mean = w / 2 + w.T / 2
        got[name] = min_weight_perfect_matching(w)
        assert got[name].pairs == min_weight_perfect_matching(mean).pairs
        assert got[name].weight == math.fsum(mean[i, j] for i, j in got[name].pairs)
    assert got["small"].pairs == ((0, 2), (1, 3))


def test_rejects_nonfinite():
    w = np.ones((4, 4)) - np.eye(4)
    w[0, 1] = w[1, 0] = np.inf
    with pytest.raises(MatchingError, match="finite"):
        min_weight_perfect_matching(w)


def test_largest_floats_solve_exactly_or_refuse_an_overflowing_total():
    # halving before adding keeps symmetrization finite near the float
    # maximum; a total past it is refused instead of reported as inf
    big = np.finfo(float).max
    assert min_weight_perfect_matching([[0.0, big], [big, 0.0]]).weight == big
    w = (np.ones((4, 4)) - np.eye(4)) * 1e308
    w[0, 2] = w[2, 0] = w[1, 3] = w[3, 1] = 1e307
    got = min_weight_perfect_matching(w)
    assert got == brute_force_matching(w)
    assert got.pairs == ((0, 2), (1, 3)) and got.weight == 2e307
    with pytest.raises(MatchingError, match="float range"):
        min_weight_perfect_matching((np.ones((4, 4)) - np.eye(4)) * 1e308)


def test_rejects_oversized():
    m = matching.SIZE_MAX + 2
    w = np.ones((m, m)) - np.eye(m)
    with pytest.raises(MatchingError, match=f"vertex count {m} exceeds supported maximum 256"):
        min_weight_perfect_matching(w)


def test_dp_hard_cap():
    m = DP_MATCHING_MAX + 2
    w = np.ones((m, m)) - np.eye(m)
    with pytest.raises(MatchingError, match="subset DP"):
        dp_matching(w)


def test_enumeration_oracle_size_guard():
    w = unit_weights(14)
    with pytest.raises(MatchingError, match="enumeration"):
        brute_force_matching(w)


# --- memo by matrix content --------------------------------------------------


def test_memo_same_matrix_same_result():
    w = euclid_weights(14, seed=21)
    first = min_weight_perfect_matching(w)
    hits = _solve_by_content.cache_info().hits
    again = min_weight_perfect_matching(w.tolist())   # same content, other type
    assert again == first
    assert _solve_by_content.cache_info().hits == hits + 1


def test_memo_misses_when_one_entry_changes():
    w = euclid_weights(12, seed=22)
    base = min_weight_perfect_matching(w)
    i, j = base.pairs[0]
    bumped = w.copy()
    bumped[i, j] = bumped[j, i] = 1e6   # the chosen edge becomes too dear
    misses = _solve_by_content.cache_info().misses
    moved = min_weight_perfect_matching(bumped)
    assert _solve_by_content.cache_info().misses == misses + 1
    assert (i, j) not in moved.pairs
    assert moved == dp_matching(bumped)


def test_memo_still_validates_every_call():
    w = unit_weights(6)
    w[0, 1] = 2.0   # asymmetric
    for _ in range(2):
        with pytest.raises(MatchingError, match="symmetric"):
            min_weight_perfect_matching(w)
    bad = unit_weights(6)
    min_weight_perfect_matching(bad)      # the valid matrix is now cached
    bad[2, 3] = bad[3, 2] = -1.0
    for _ in range(2):
        with pytest.raises(MatchingError, match="negative"):
            min_weight_perfect_matching(bad)


def test_a_memo_hit_skips_validation(monkeypatch):
    validated = []
    validate = matching._validated_weights
    monkeypatch.setattr(matching, "_validated_weights",
                        lambda w: validated.append(w.shape) or validate(w))
    _solve_by_content.cache_clear()
    w = euclid_weights(10, seed=23)
    first = min_weight_perfect_matching(w)
    assert validated == [(10, 10)]
    assert min_weight_perfect_matching(w.tolist()) == first   # same content, other type
    assert validated == [(10, 10)]
    # a build validates the team matrix and the super graph, and the
    # report's team matching on the same instance is a memo hit
    inst = generate_instance(16, "euclidean", seed=23)
    s = build_schedule(inst)
    assert validated[1:] == [(16, 16), (8, 8)]
    evaluation_report(s, inst)
    assert len(validated) == 3
    # a refused matrix is not memoized
    bad = unit_weights(6)
    bad[0, 1] = 2.0
    size = _solve_by_content.cache_info().currsize
    for _ in range(2):
        with pytest.raises(MatchingError, match="symmetric"):
            min_weight_perfect_matching(bad)
    assert _solve_by_content.cache_info().currsize == size
    assert len(validated) == 5


# --- no cyclic garbage ---------------------------------------------------------


def _cyclic_garbage(work) -> int:
    """Objects the cyclic collector finds unreachable after ``work`` runs
    with the collector off: what reference counting alone did not free."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def _operation(inst):
    sched = build_schedule(inst)
    validate_schedule(sched)
    evaluation_report(sched, inst)
    total_travel(sched, inst)


def test_a_solve_and_an_operation_leave_no_cyclic_garbage():
    inst = generate_instance(32, kind="euclidean", seed=1)
    _operation(inst)   # fill every per-size cache first
    _solve_by_content.cache_clear()
    assert _cyclic_garbage(lambda: min_weight_perfect_matching(inst.dist)) == 0
    _solve_by_content.cache_clear()
    assert _cyclic_garbage(lambda: _operation(inst)) == 0


# --- super graph construction ----------------------------------------------


def test_super_graph_entries_are_cross_sums():
    for n in (8, 32):
        inst = generate_instance(n, kind="euclidean", seed=5)
        teams = min_weight_perfect_matching(inst.dist)
        sg = build_super_graph(inst, teams)
        m = n // 2
        assert sg.shape == (m, m)
        assert not sg.flags.writeable
        d = inst.dist
        for i in range(m):
            a1, a2 = teams.pairs[i]
            assert sg[i, i] == 0.0
            for j in range(i + 1, m):
                b1, b2 = teams.pairs[j]
                assert sg[i, j] == d[a1, b1] + d[a1, b2] + d[a2, b1] + d[a2, b2]
                assert sg[j, i] == sg[i, j]


def test_super_graph_requires_full_cover():
    inst = generate_instance(8, kind="euclidean", seed=5)
    partial = PairMatching(pairs=((0, 1), (2, 3)), weight=0.0)
    with pytest.raises(MatchingError, match="cover"):
        build_super_graph(inst, partial)


def test_super_pair_matching_odd_guard():
    with pytest.raises(MatchingError, match="must be even"):
        super_pair_matching(np.zeros((3, 3)))


def test_super_pair_matching_end_to_end():
    inst = generate_instance(16, kind="euclidean", seed=2)
    teams = min_weight_perfect_matching(inst.dist)
    sg = build_super_graph(inst, teams)
    sup = super_pair_matching(sg)
    assert sup.covers(8)
    ref = brute_force_matching(sg)
    assert sup.pairs == ref.pairs


def test_covers_predicate():
    good = PairMatching(pairs=((0, 1), (2, 3)), weight=0.0)
    assert good.covers(4)
    assert not good.covers(6)
    dup = PairMatching(pairs=((0, 1), (1, 2)), weight=0.0)
    assert not dup.covers(4)

"""Exact minimum-weight perfect matching on small complete graphs.

One exact solver covers the supported range: depth-first branch-and-bound
with a 2-opt-polished greedy upper bound and a Lagrangian lower bound
built from dual-feasible vertex potentials (w[u][v] >= pi[u] + pi[v] for
every edge).  The tests compare it with two independent references kept
in ``tests/reference.py``: full enumeration and a subset dynamic program.

The answer is canonical: a perfect matching of globally minimum total
weight, ties broken by the lexicographically smallest sorted pair list,
with the reported weight recomputed as math.fsum over the chosen pairs.
On a complete graph with an even vertex count a minimum maximal matching
is necessarily perfect, so this solves that problem too.

Solves are memoized by matrix content (shape and bytes of the validated,
symmetrized weights), so scoring a schedule right after building it does
not pay for the team matching again.  Equal content means an equal
answer, so a cached result can never belong to a different instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MatchingError
from .instance import SYMMETRY_TOL, Instance

SIZE_MAX = 32
DUAL_ASCENT_SWEEPS = 6
MEMO_SIZE = 64   # distinct weight matrices whose matchings are kept


@dataclass(frozen=True)
class PairMatching:
    """A perfect matching: sorted (lo, hi) pairs, sorted by first member."""

    pairs: tuple[tuple[int, int], ...]
    weight: float

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def covers(self, m: int) -> bool:
        seen = sorted(v for pair in self.pairs for v in pair)
        return seen == list(range(m))


def _validated_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MatchingError(f"weight matrix must be square, got shape {w.shape}")
    m = w.shape[0]
    if m % 2 != 0 or m < 2:
        raise MatchingError(f"vertex count must be even and >= 2, got {m}")
    if m > SIZE_MAX:
        raise MatchingError(f"vertex count {m} exceeds supported maximum {SIZE_MAX}")
    if not np.all(np.isfinite(w)):
        raise MatchingError("weight matrix contains non-finite entries")
    off = ~np.eye(m, dtype=bool)
    if np.any(w[off] < 0):
        raise MatchingError("weight matrix contains negative entries")
    if np.abs(w - w.T).max(initial=0.0) > SYMMETRY_TOL:
        raise MatchingError("weight matrix is not symmetric within tolerance")
    return (w + w.T) / 2.0


def min_weight_perfect_matching(weights) -> PairMatching:
    """Globally minimum-weight perfect matching with deterministic tie-break.

    Validation runs on every call; the solve itself is looked up by matrix
    content first.
    """
    w = _validated_weights(weights)
    return _solve_by_content(w.shape[0], w.tobytes())


@lru_cache(maxsize=MEMO_SIZE)
def _solve_by_content(m: int, data: bytes) -> PairMatching:
    w = np.frombuffer(data, dtype=float).reshape(m, m)
    pairs = _solve_bnb(w, m)
    weight = math.fsum(float(w[i, j]) for i, j in pairs)
    return PairMatching(pairs=tuple(pairs), weight=weight)


def build_super_graph(inst: Instance, teams: PairMatching) -> np.ndarray:
    """Collapse matched team pairs into super-teams: a read-only m x m matrix,
    zero on the diagonal, whose entry (i, j) sums the four cross distances
    between pairs i and j (the quantity the final-level bound sums)."""
    if not teams.covers(inst.n):
        raise MatchingError(f"team matching does not cover all {inst.n} teams")
    p = np.array(teams.pairs)
    cross = inst.dist[p[:, :, None, None], p]   # [i, x, j, y] = d[p[i][x], p[j][y]]
    # each entry is d[a1, b1] + d[a1, b2] + d[a2, b1] + d[a2, b2], in that order
    w = cross[:, 0, :, 0] + cross[:, 0, :, 1] + cross[:, 1, :, 0] + cross[:, 1, :, 1]
    # copy the upper triangle down so that (j, i) is bit-equal to (i, j)
    w = np.triu(w, 1)
    w = w + w.T
    w.flags.writeable = False
    return w


def super_pair_matching(weights) -> PairMatching:
    """Minimum-weight perfect matching on the super graph (m = n/2 <= 16)."""
    return min_weight_perfect_matching(weights)


# --- branch and bound ------------------------------------------------------

def _dual_potentials(wl: list[list[float]], m: int) -> list[float]:
    """Vertex potentials with w[u][v] >= pi[u] + pi[v] on every edge.

    Seeded with half the cheapest incident edge (always feasible) and
    raised by coordinate ascent: pi[v] <- min over u of (w - pi[u]), which
    keeps feasibility and never decreases any coordinate.  The sum of
    potentials over any vertex subset lower-bounds the cost of perfectly
    matching that subset.
    """
    pi = [0.5 * min(wl[v][u] for u in range(m) if u != v) for v in range(m)]
    for _ in range(DUAL_ASCENT_SWEEPS):
        moved = False
        for v in range(m):
            slack = min(wl[v][u] - pi[u] for u in range(m) if u != v)
            if slack > pi[v]:
                pi[v] = slack
                moved = True
        if not moved:
            break
    return pi


def _solve_bnb(w: np.ndarray, m: int) -> list[tuple[int, int]]:
    wl = [[float(x) for x in row] for row in w]
    pi = _dual_potentials(wl, m)
    # reduced costs are nonnegative up to rounding; the bound for matching
    # the free set R is sum(pi over R) + half the sum of each free vertex's
    # cheapest reduced edge into R
    rl = [[wl[v][u] - pi[v] - pi[u] for u in range(m)] for v in range(m)]
    order = [sorted((u for u in range(m) if u != v), key=lambda u: (rl[v][u], u))
             for v in range(m)]
    full = (1 << m) - 1
    pi_full = math.fsum(pi)

    lower_memo: dict[int, float] = {}

    def lower(R: int, pi_free: float) -> float:
        cached = lower_memo.get(R)
        if cached is not None:
            return cached
        total = 0.0
        scan = R
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            for u in order[v]:
                if (R >> u) & 1:
                    total += rl[v][u]
                    break
        bound = pi_free + total * 0.5
        lower_memo[R] = bound
        return bound

    def canon_value(pairs: list[tuple[int, int]]) -> float:
        # reference accumulation order: pair weights added with the lower
        # endpoint increasing, which is exactly how any root-to-leaf path
        # in the lex phase accumulates
        total = 0.0
        for v, u in sorted(pairs):
            total = total + wl[v][u]
        return total

    # greedy seed, then 2-opt polish (re-pair two pairs when cheaper)
    seed: list[tuple[int, int]] = []
    R = full
    while R:
        v = (R & -R).bit_length() - 1
        u = next(u for u in order[v] if (R >> u) & 1)
        seed.append((v, u))
        R ^= (1 << v) | (1 << u)
    best = canon_value(seed)

    def polish_step() -> bool:
        # first improving re-pairing of two pairs, if any
        nonlocal best, seed
        for i in range(len(seed)):
            a, b = seed[i]
            for j in range(i + 1, len(seed)):
                c, d = seed[j]
                for p, q in (((a, c), (b, d)), ((a, d), (b, c))):
                    cand = list(seed)
                    cand[i] = tuple(sorted(p))
                    cand[j] = tuple(sorted(q))
                    val = canon_value(cand)
                    if val < best:
                        best, seed = val, cand
                        return True
        return False

    while polish_step():
        pass

    # phase 1: exact minimum weight.  Branch on the free vertex with the
    # largest regret (gap between its two cheapest reduced edges), children
    # in reduced-cost order; a subtree is dropped when it provably cannot
    # beat the incumbent, which is always an achieved matching value.
    def dfs_value(R: int, acc: float, pi_free: float,
                  chosen: list[tuple[int, int]]) -> None:
        nonlocal best
        if R == 0:
            val = canon_value(chosen)
            if val < best:
                best = val
            return
        # one scan yields both the bound term and the branch vertex
        branch_v, branch_gap = -1, -1.0
        total = 0.0
        scan = R
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            first = second = None
            for u in order[v]:
                if (R >> u) & 1:
                    if first is None:
                        first = rl[v][u]
                    else:
                        second = rl[v][u]
                        break
            total += first
            gap = math.inf if second is None else second - first
            if gap > branch_gap:
                branch_v, branch_gap = v, gap
        bound = pi_free + total * 0.5
        lower_memo.setdefault(R, bound)
        if acc + bound >= best:
            return
        v = branch_v
        base = R ^ (1 << v)
        for u in order[v]:
            if (base >> u) & 1:
                chosen.append((v, u) if v < u else (u, v))
                dfs_value(base ^ (1 << u), acc + wl[v][u],
                          pi_free - pi[v] - pi[u], chosen)
                chosen.pop()

    dfs_value(full, 0.0, pi_full, [])
    target = best

    # phase 2: first leaf, in lexicographic pair order, whose path value
    # equals the phase-1 optimum exactly.  Any root-to-leaf path adds pair
    # weights in increasing-v order, so equal pair sets accumulate to
    # bit-identical values across both phases.  The prune carries a tiny
    # margin because the bound can round a few ulps above a tight
    # completion, which would otherwise cut off the optimal path itself.
    found: list[tuple[int, int]] | None = None
    fuzz = 1e-12 * max(1.0, abs(target))

    def dfs_lex(R: int, acc: float, pi_free: float,
                chosen: list[tuple[int, int]]) -> bool:
        nonlocal found
        if R == 0:
            if acc == target:
                found = list(chosen)
                return True
            return False
        if acc + lower(R, pi_free) > target + fuzz:
            return False
        v = (R & -R).bit_length() - 1
        base = R ^ (1 << v)
        probe = base
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            chosen.append((v, u))
            if dfs_lex(base ^ (1 << u), acc + wl[v][u],
                       pi_free - pi[v] - pi[u], chosen):
                return True
            chosen.pop()
        return False

    if not dfs_lex(full, 0.0, pi_full, []):
        raise MatchingError("internal: tie-break search lost the optimum")
    return found

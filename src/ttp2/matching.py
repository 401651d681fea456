"""Exact minimum-weight perfect matching on small complete graphs.

The answer is canonical: among the perfect matchings of minimum exact
weight, the one whose sorted pair list is lexicographically smallest.  Its
reported weight is the ``math.fsum`` of its pairs.  On a complete graph
with an even vertex count a minimum maximal matching is necessarily
perfect, so this solves that problem too.  The tests compare it with two
independent references kept in ``tests/reference.py``: full enumeration
and a subset dynamic program.

One solve in exact integer arithmetic gives that answer.  Every float is
an integer times a power of two, so one power of two turns all the weights
into integers wi.  Then one dense primal-dual blossom algorithm (Edmonds
1965, "Paths, trees, and flowers"; Galil 1986, "Efficient algorithms for
finding maximum matching in graphs") finds, in O(m^3), the minimum-weight
perfect matching under the perturbed weights k * wi + f, with

    f[v, u] = u * (m+1)**(m-1-v)  for v < u,    k = (m+1)**m.

At the first pair where two sorted pair lists differ, both pair the same
lowest vertex v, and every later pair weighs less in f than one step of
the partner at v; so f orders perfect matchings exactly as their pair
lists.  k exceeds any matching's total f, so f only breaks ties of the
exact weight.  Mulmuley, Vazirani & Vazirani (1987, "Matching is as easy
as matrix inversion") isolate one optimum with exponential weights in the
same way.

Solves are memoized by matrix content (shape and bytes of the caller's
weights as float64), so scoring a schedule right after building it does
not pay for the team matching again.  Equal content means an equal
answer, so a cached result can never belong to a different instance.
Validation runs inside the memoized solve, once per distinct content: a
memo hit skips it, and a matrix it refuses is never memoized, so it is
refused on every call.

What depends on the size alone is built once per size: the pairs of the
upper triangle with their perturbation, and the vertex rows of the edge
table, whose edge tuples every solve shares.  A solve makes one Python
int per pair, shared by both halves of its weight table, and returns at
once when its warm start matches every vertex.  It holds no reference
cycles: no helper of the blossom refers to itself, so its tables (at m=32
a 32 x 64 least-slack edge table, the label, slack and blossom lists, and
a flower_from row per blossom) are freed by reference counting as soon as
it returns.  Left in a cycle, they would wait for the cyclic garbage
collector, whose pass, about 1,400 objects per m=32 solve, would then
land on whatever code happens to trigger it.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import sub

import numpy as np

from .errors import MatchingError, integer, shown
from .instance import SYMMETRY_TOL, Instance

SIZE_MAX = 256   # vertices of one solve, and so the most teams a build serves
MEMO_SIZE = 64   # distinct weight matrices whose matchings are kept


@dataclass(frozen=True)
class PairMatching:
    """A perfect matching: a solve returns its pairs as (lo, hi), sorted by
    first member; one made by hand keeps its pairs, and the teams in each,
    in the order they were given.  Its two-team pairs are read by
    ``errors.integer`` and its weight as a finite, non-negative float, else
    MatchingError."""

    pairs: tuple[tuple[int, int], ...]
    weight: float

    def __post_init__(self) -> None:
        try:
            pairs = tuple(map(_team_pair, self.pairs))
        except TypeError as exc:   # pairs that cannot be iterated
            raise MatchingError(str(exc)) from None
        w = self.weight   # at most the largest float: an int past it has no float
        if type(w) is bool or not isinstance(w, numbers.Real) or not 0 <= w <= sys.float_info.max:
            raise MatchingError(f"invalid literal for weight: {shown(w)} is not a finite "
                                "non-negative number")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weight", float(w))

    def covers(self, m: int) -> bool:
        seen = sorted(v for pair in self.pairs for v in pair)
        return seen == list(range(m))


def _team_pair(p) -> tuple[int, int]:
    try:
        a, b = p
        return integer(a, "team"), integer(b, "team")
    except (TypeError, ValueError) as exc:
        raise MatchingError(f"pair {shown(p)}: {exc}") from None


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
    if w.min() < 0 and np.any(w[~np.eye(m, dtype=bool)] < 0):
        raise MatchingError("weight matrix contains negative entries")
    same = w == w.T
    if same.all():
        return w
    if np.abs(w - w.T).max() > SYMMETRY_TOL:
        raise MatchingError("weight matrix is not symmetric within tolerance")
    return np.where(same, w, w / 2.0 + w.T / 2.0)


def min_weight_perfect_matching(weights) -> PairMatching:
    """Globally minimum-weight perfect matching with deterministic tie-break.

    The answer is looked up by matrix content first.  Validation runs once
    per distinct content, as part of the solve; a refused matrix raises
    MatchingError on every call.
    """
    w = np.asarray(weights, dtype=float)
    return _solve_by_content(w.shape, w.tobytes())


@lru_cache(maxsize=MEMO_SIZE)
def _solve_by_content(shape: tuple[int, ...], data: bytes) -> PairMatching:
    w = _validated_weights(np.frombuffer(data, dtype=float).reshape(shape))
    pairs = _canonical_pairs(w)
    try:
        weight = math.fsum(float(w[i, j]) for i, j in pairs)
    except OverflowError:
        raise MatchingError("the matching's total weight exceeds the float range") from None
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
    """Minimum-weight perfect matching on the super graph of the n/2 team pairs."""
    return min_weight_perfect_matching(weights)


# --- the canonical matching ------------------------------------------------

def _exact_integers(x: np.ndarray) -> np.ndarray:
    """Python integers xi (an object array) with x == xi / s exactly, for
    one power of two s: every finite float is an odd integer times a power
    of two, so the smallest of those powers turns every entry into one.

    The power is never below 1, so integer-valued entries are their own
    integers (s = 1).  Those within int64 are returned as they are, without
    the decomposition; integer distances, such as the standard TTP instance
    families', and the super graphs built from them take this path."""
    if (np.rint(x) == x).all() and (np.abs(x) < 2.0 ** 63).all():
        return x.astype(np.int64).astype(object)
    mant, ex = np.frexp(x)
    q = (mant * 2.0 ** 53).astype(np.int64)          # x == q * 2**(ex - 53)
    tz = np.frexp(np.where(q == 0, 1, q & -q))[1] - 1   # trailing zero bits
    q >>= tz
    e = ex - 53 + tz
    low = min(int(e[q != 0].min(initial=0)), 0)
    shift = np.where(q == 0, 0, e - low)
    return q.astype(object) << shift.astype(object)


@lru_cache(maxsize=None)
def _pair_tables(m: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, int, np.ndarray]:
    """The read-only tables of size m: the pairs v < u in row order, each
    entry's place among them (the diagonal, never read, names the first),
    -4k and the object vector -4f of the perturbation, f(v, u) = u *
    (m+1)**(m-1-v); k = (m+1)**m exceeds the f total of any matching."""
    upper = np.triu_indices(m, 1)
    at = np.zeros((m, m), dtype=np.intp)
    at[upper] = at.T[upper] = np.arange(len(upper[0]))
    b = m + 1
    f4 = np.array([-4 * u * b ** (m - 1 - v) for v in range(m) for u in range(v + 1, m)],
                  dtype=object)
    for table in (*upper, at, f4):
        table.flags.writeable = False
    return upper, at, -4 * b ** m, f4


@lru_cache(maxsize=None)
def _vertex_edges(n: int) -> tuple[tuple, ...]:
    """The vertex rows of the blossom's least-slack edge table: entry
    (u, y) is the edge (u, y) for a vertex y and None for a blossom y.
    Only the blossom columns are ever rewritten, so each solve copies
    these rows and shares their edge tuples."""
    return tuple(tuple([(u, v) for v in range(n)] + [None] * n) for u in range(n))


def _canonical_pairs(w: np.ndarray) -> list[tuple[int, int]]:
    m = w.shape[0]
    upper, at, k4, f4 = _pair_tables(m)
    # maximize -2 * (k * wi + f), stored doubled so that every dual stays an
    # integer: the minimum exact weight, then the smallest sorted pair list
    mate = _blossom((k4 * _exact_integers(w[upper]) + f4)[at].tolist(), m)
    return [(v, mate[v]) for v in range(m) if v < mate[v]]


def _blossom(a2: list[list[int]], n: int) -> list[int]:
    """Maximum-weight perfect matching on the complete graph, weights a2 / 2.

    Vertices are 0..n-1, blossoms n..2n-1.  ``lab`` holds doubled duals:
    the slack of an edge between two top-level blossoms is lab[u] + lab[v]
    - a2[u][v], and a blossom's lab adds to the slack of every edge inside
    it.  There is no bound on the vertex duals, so every stage ends in an
    augmentation and the result is perfect.  Every a2 is a multiple of 4 and
    every starting dual is even, so the exposed vertices, which take every
    dual step together, share one parity, and every step is an integer.
    A warm start that exposes no vertex is returned before any stage table
    is built.  Returns the mate of each vertex; a2's diagonal is overwritten.
    """
    N = 2 * n
    # warm start: each vertex's dual from its cheapest edge, then one sweep
    # that lowers each dual until one of its edges is tight; then match
    # tight pairs greedily, lowest vertex first.  No slack is then negative,
    # so a perfect greedy matching is optimal, and under the perturbation
    # the one optimum.  The diagonal a2[v][v] is never read after the warm
    # start, so each max reads whole rows with the diagonal term set equal
    # to the term of edge (v, v ^ 1)
    for v, row in enumerate(a2):
        row[v] = row[v ^ 1]
    lab = [max(row) // 2 for row in a2] + [0] * n
    for v, row in enumerate(a2):
        row[v] = row[v ^ 1] - lab[v ^ 1] + lab[v]
        lab[v] = max(map(sub, row, lab))
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in range(v + 1, n):
                if match[u] == -1 and lab[v] + lab[u] == a2[v][u]:
                    match[v], match[u] = u, v
                    break
    if -1 not in match:
        return match
    match += [-1] * n

    st = list(range(n)) + [-1] * n          # top-level blossom of each index
    # g[x][y]: the least-slack edge (vertex of x, vertex of y); a blossom's
    # row, like its flower and flower_from row, is made when it forms
    g = [list(row) for row in _vertex_edges(n)] + [None] * n
    flower: list = [None] * N
    flower_from: list = [None] * N           # flower_from[b][x]: child of b holding x
    pa = [-1] * N
    label = [-1] * N                         # -1 free, 0 outer (S), 1 inner (T)
    slack = [-1] * N
    vis = [0] * N
    stamp = 0
    n_x = n
    queue: deque[int] = deque()

    def delta(e) -> int:
        u, v = e
        return lab[u] + lab[v] - a2[u][v]

    def update_slack(u: int, x: int) -> None:
        s = slack[x]
        if s == -1:
            slack[x] = u
            return
        (p, q), (r, t) = g[u][x], g[s][x]
        if lab[p] + lab[q] - a2[p][q] < lab[r] + lab[t] - a2[r][t]:
            slack[x] = u

    def set_slack(x: int) -> None:
        slack[x] = -1
        for u in range(n):
            if st[u] != x and label[st[u]] == 0:
                update_slack(u, x)

    # push, set_st and set_match walk nested blossoms with explicit stacks:
    # a helper that called itself would hold its own closure cell, and that
    # cycle would keep every table of the solve alive until the cyclic
    # garbage collector ran
    def push(x: int) -> None:
        todo = [x]
        while todo:
            y = todo.pop()
            if y < n:
                queue.append(y)
            else:
                todo += reversed(flower[y])

    def set_st(x: int, b: int) -> None:
        todo = [x]
        while todo:
            y = todo.pop()
            st[y] = b
            if y >= n:
                todo += flower[y]

    def get_pr(b: int, xr: int) -> int:
        fl = flower[b]
        pr = fl.index(xr)
        if pr % 2 == 1:
            fl[1:] = fl[:0:-1]
            return len(fl) - pr
        return pr

    def set_match(u: int, v: int) -> None:
        # the children of one blossom are disjoint blossoms, so the order in
        # which they are matched, and the rotation's place before them, are free
        todo = [(u, v)]
        while todo:
            u, v = todo.pop()
            e = g[u][v]
            match[u] = e[1]
            if u >= n:
                xr = flower_from[u][e[0]]
                pr = get_pr(u, xr)
                fl = flower[u]
                todo += [(fl[i], fl[i ^ 1]) for i in range(pr)]
                todo.append((xr, v))
                flower[u] = fl[pr:] + fl[:pr]

    def augment(u: int, v: int) -> None:
        while True:
            xnv = st[match[u]] if match[u] != -1 else -1
            set_match(u, v)
            if xnv == -1:
                return
            set_match(xnv, st[pa[xnv]])
            u, v = st[pa[xnv]], xnv

    def get_lca(u: int, v: int) -> int:
        nonlocal stamp
        stamp += 1
        while u != -1 or v != -1:
            if u != -1:
                if vis[u] == stamp:
                    return u
                vis[u] = stamp
                u = st[match[u]] if match[u] != -1 else -1
                if u != -1:
                    u = st[pa[u]]
            u, v = v, u
        return -1

    def add_blossom(u: int, lca: int, v: int) -> None:
        nonlocal n_x
        b = n
        while b < n_x and st[b] != -1:
            b += 1
        if b == n_x:
            n_x += 1
        lab[b] = 0
        label[b] = 0
        match[b] = match[lca]
        fl = [lca]
        x = u
        while x != lca:
            y = st[match[x]]
            fl += (x, y)
            push(y)
            x = st[pa[y]]
        fl[1:] = fl[:0:-1]
        x = v
        while x != lca:
            y = st[match[x]]
            fl += (x, y)
            push(y)
            x = st[pa[y]]
        flower[b] = fl
        set_st(b, b)
        # row[x]: the least-slack edge from b to x, of slack least[x]; the
        # first of equal slack is kept
        row = g[b] = [None] * N
        least = [0] * n_x
        outside = [x for x in range(n_x) if st[x] != b and st[x] != -1]
        for xs in fl:
            edges = g[xs]
            for x in outside:
                e = edges[x]
                u, v = e
                d = lab[u] + lab[v] - a2[u][v]
                if row[x] is None or d < least[x]:
                    row[x], least[x] = e, d
        for x in outside:
            u, v = row[x]
            g[x][b] = (v, u)
        ff = flower_from[b] = [-1] * n       # a vertex child holds only itself
        for xs in fl:
            if xs < n:
                ff[xs] = xs
                continue
            for x, held in enumerate(flower_from[xs]):
                if held != -1:
                    ff[x] = xs
        set_slack(b)

    def expand_blossom(b: int) -> None:
        fl = flower[b]
        for xs in fl:
            set_st(xs, xs)
        xr = flower_from[b][g[b][pa[b]][0]]
        pr = get_pr(b, xr)
        fl = flower[b]
        for i in range(0, pr, 2):
            xs, xns = fl[i], fl[i + 1]
            pa[xs] = g[xns][xs][0]
            label[xs] = 1
            label[xns] = 0
            slack[xs] = -1
            set_slack(xns)
            push(xns)
        label[xr] = 1
        pa[xr] = pa[b]
        for i in range(pr + 1, len(fl)):
            xs = fl[i]
            label[xs] = -1
            set_slack(xs)
        st[b] = -1

    def on_found_edge(e) -> bool:
        u, v = st[e[0]], st[e[1]]
        if label[v] == -1:
            pa[v] = e[0]
            label[v] = 1
            nu = st[match[v]]
            slack[v] = slack[nu] = -1
            label[nu] = 0
            push(nu)
        elif label[v] == 0:
            lca = get_lca(u, v)
            if lca == -1:
                augment(u, v)
                augment(v, u)
                return True
            add_blossom(u, lca, v)
        return False

    def stage() -> bool:
        for x in range(n_x):
            label[x] = -1
            slack[x] = -1
        queue.clear()
        for x in range(n_x):
            if st[x] == x and match[x] == -1:
                pa[x] = -1
                label[x] = 0
                push(x)
        if not queue:
            return False
        while True:
            while queue:
                u = queue.popleft()
                # su is S (label 0): u was pushed when its top blossom became
                # S, an S blossom only joins a new S blossom, and within a
                # stage only T blossoms are expanded
                su = st[u]
                lu, row = lab[u], a2[u]
                for v in range(n):
                    x = st[v]
                    if x == su:
                        continue
                    d = lu + lab[v] - row[v]
                    if d == 0:
                        if on_found_edge((u, v)):
                            return True
                        su = st[u]          # u may now sit in a new blossom
                    elif x == v:        # update_slack(u, v), inlined
                        s = slack[v]
                        if s == -1 or d < lab[s] + lab[v] - a2[s][v]:
                            slack[v] = u
                    else:
                        update_slack(u, x)
            # the dual step d, and the top-level x whose least-slack edge it
            # makes tight: no other edge turns tight in this step
            d, tight = None, []
            for b in range(n, n_x):
                if st[b] == b and label[b] == 1:
                    c = lab[b] // 2
                    if d is None or c < d:
                        d = c
            for x in range(n_x):
                s = slack[x]
                if st[x] == x and s != -1 and label[x] != 1:
                    u, v = g[s][x]
                    c = lab[u] + lab[v] - a2[u][v]
                    if label[x] == 0:
                        c //= 2
                    if d is None or c < d:
                        d, tight = c, [x]
                    elif c == d:
                        tight.append(x)
            for u in range(n):
                t = label[st[u]]
                if t == 0:
                    lab[u] -= d
                elif t == 1:
                    lab[u] += d
            for b in range(n, n_x):
                if st[b] == b:
                    if label[b] == 0:
                        lab[b] += 2 * d
                    elif label[b] == 1:
                        lab[b] -= 2 * d
            queue.clear()
            for x in tight:
                s = slack[x]
                if st[x] == x and s != -1 and st[s] != x and delta(g[s][x]) == 0:
                    if on_found_edge(g[s][x]):
                        return True
            for b in range(n, n_x):
                if st[b] == b and label[b] == 1 and lab[b] == 0:
                    expand_blossom(b)

    while stage():
        pass
    return match[:n]

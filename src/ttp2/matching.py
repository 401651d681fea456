"""Exact minimum-weight perfect matching on small complete graphs.

The answer is canonical: among the perfect matchings of minimum
``math.fsum`` weight, the one whose sorted pair list is lexicographically
smallest.  Its reported weight is that fsum.  On a complete graph with an
even vertex count a minimum maximal matching is necessarily perfect, so
this solves that problem too.  The tests compare it with two independent
references kept in ``tests/reference.py``: full enumeration and a subset
dynamic program.

One solver covers the supported range, in two steps that run in exact
integer arithmetic (every float is an integer times a power of two, so one
power of two turns all the weights into integers):

1. A dense primal-dual blossom algorithm (Edmonds 1965, "Paths, trees, and
   flowers"; Galil 1986, "Efficient algorithms for finding maximum matching
   in graphs") in O(m^3): maximum-weight perfect matching on C - w (here
   C = 0).  It returns an optimum with its vertex and blossom duals.  Its
   duals start from each vertex's cheapest edge and it matches tight pairs
   before the first stage, so inputs where every edge ties need no search
   stage at all.
2. The tie-break: a depth-first search in lexicographic order (lowest free
   vertex first, partners ascending) for the first perfect matching whose
   exact weight rounds to the optimum's fsum.  The duals bound what any
   completion of a partial matching weighs above the optimum: at least the
   reduced costs of its edges plus the dual of each blossom it crosses a
   second time.  The search follows only edges whose reduced cost fits in
   the rounding of the optimum's fsum, and drops a branch as soon as that
   excess does not fit or a vertex is left with no usable partner.  Where
   many matchings tie, those prunes can miss dead ends, so once the search
   under one node has cost more than a blossom solve on its free vertices,
   each further child there is checked by such a solve first.

Solves are memoized by matrix content (shape and bytes of the validated,
symmetrized weights), so scoring a schedule right after building it does
not pay for the team matching again.  Equal content means an equal
answer, so a cached result can never belong to a different instance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import sub

import numpy as np

from .errors import MatchingError
from .instance import SYMMETRY_TOL, Instance

SIZE_MAX = 32
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
    pairs = _canonical_pairs(w)
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


# --- the canonical matching ------------------------------------------------

def _exact_integers(w: np.ndarray) -> tuple[np.ndarray, int]:
    """Python integers wi (an object array) and a power of two s with
    w == wi / s exactly off the diagonal; the diagonal becomes 0.

    Every finite float is an odd integer times a power of two, so the
    smallest of those powers turns every entry into an integer.
    """
    w = w.copy()
    np.fill_diagonal(w, 0.0)
    mant, ex = np.frexp(w)
    q = (mant * 2.0 ** 53).astype(np.int64)          # w == q * 2**(ex - 53)
    tz = np.frexp(np.where(q == 0, 1, q & -q))[1] - 1   # trailing zero bits
    q >>= tz
    e = ex - 53 + tz
    low = min(int(e[q != 0].min(initial=0)), 0)
    shift = np.where(q == 0, 0, e - low)
    return q.astype(object) << shift.astype(object), 1 << -low


def _canonical_pairs(w: np.ndarray) -> list[tuple[int, int]]:
    m = w.shape[0]
    wi, scale = _exact_integers(w)
    # maximize a = -2 * wi, stored doubled so that every dual stays an integer
    a2 = (-4 * wi).tolist()
    mate, lab, blossoms = _blossom(a2, m)

    # The optimum's fsum, and the largest exact weight that still rounds to
    # it (half an ulp above it, ties to even); exact weights here count in
    # units of 1 / (4 * scale).
    best = math.fsum(float(w[v, mate[v]]) for v in range(m) if v < mate[v])
    opt = 4 * sum(wi[v, mate[v]] for v in range(m) if v < mate[v])
    denom = 4 * scale
    lo_n, lo_d = best.as_integer_ratio()
    hi_n, hi_d = math.nextafter(best, math.inf).as_integer_ratio()
    ceiling = (lo_n * hi_d + hi_n * lo_d) * denom // (2 * lo_d * hi_d)
    while ceiling / denom > best:
        ceiling -= 1
    budget = ceiling - opt

    # reduced cost of (v, u) under the duals, in the same units: the full
    # slack lab[v] + lab[u] + (duals of the blossoms holding both) - a2
    zs = [z for z, _ in blossoms]
    chain: list[list[int]] = [[] for _ in range(m)]   # blossoms holding v
    for k, (_, members) in enumerate(blossoms):
        for v in members:
            chain[v].append(k)
    options: list[list[tuple[int, int, list[int]]]] = []
    for v in range(m):
        row, lv, cv = a2[v], lab[v], chain[v]
        opts = []
        for u in range(v + 1, m):
            rc = lv + lab[u] - row[u]
            if rc > budget:          # the blossom terms only add
                continue
            cu = chain[u]
            rc += sum(zs[k] for k in cv if k in cu)
            if rc <= budget:
                crossed = [k for k in cv if k not in cu] + [k for k in cu if k not in cv]
                opts.append((u, rc, crossed))
        options.append(opts)

    near = [0] * m          # bit mask of each vertex's usable partners
    for v, opts in enumerate(options):
        for u, _, _ in opts:
            near[v] |= 1 << u
            near[u] |= 1 << v
    # parity of |B & free| per blossom; a blossom whose free part is even is
    # already crossed once, and crossing it again costs its dual
    odd = [True] * len(blossoms)
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def fits(free: int) -> bool:
        # exact: one blossom solve on the free vertices says whether any
        # completion of ``chosen`` stays within the ceiling
        verts = [x for x in range(m) if (free >> x) & 1]
        mate_free = _blossom([[a2[x][y] for y in verts] for x in verts], len(verts))[0]
        total = sum(wi[x, y] for x, y in chosen)
        total += sum(wi[verts[i], verts[j]] for i, j in enumerate(mate_free) if i < j)
        return 4 * total <= ceiling

    def complete(free: int, excess: int) -> bool:
        nonlocal nodes
        nodes += 1
        if not free:
            return True
        v = (free & -free).bit_length() - 1
        rest = free ^ (1 << v)
        # a blossom solve on the free vertices costs about |free|^2 nodes'
        # work; once the children tried here cost more than that, check each
        # further child exactly before descending into it
        start, limit = nodes, (m - 2 * len(chosen)) ** 2
        for u, rc, crossed in options[v]:
            if not (rest >> u) & 1:
                continue
            e = excess + rc
            for k in crossed:
                if not odd[k]:
                    e += zs[k]
            if e > budget:
                continue
            left = rest ^ (1 << u)
            # a free neighbour of v or u with no usable partner left is a dead end
            stranded = False
            probe = left & (near[v] | near[u])
            while probe and not stranded:
                x = probe & -probe
                probe ^= x
                stranded = not near[x.bit_length() - 1] & left
            if stranded:
                continue
            chosen.append((v, u))
            if nodes - start > limit and left and not fits(left):
                chosen.pop()
                continue
            for k in crossed:
                odd[k] = not odd[k]
            if complete(left, e):
                return True
            chosen.pop()
            for k in crossed:
                odd[k] = not odd[k]
        return False

    if not complete((1 << m) - 1, 0):
        raise MatchingError("internal: tie-break search lost the optimum")
    return chosen


def _blossom(a2: list[list[int]], n: int):
    """Maximum-weight perfect matching on the complete graph, weights a2 / 2.

    Vertices are 0..n-1, blossoms n..2n-1.  ``lab`` holds doubled duals:
    the slack of an edge between two top-level blossoms is lab[u] + lab[v]
    - a2[u][v], and a blossom's lab adds to the slack of every edge inside
    it.  There is no bound on the vertex duals, so every stage ends in an
    augmentation and the result is perfect.  Every a2 is a multiple of 4 and
    every starting dual is even, so the exposed vertices, which take every
    dual step together, share one parity, and every step is an integer.
    Returns the mate of each vertex, the duals, and each blossom still
    standing with a nonzero dual as (dual, vertices).
    """
    N = 2 * n
    # warm start: each vertex's dual from its cheapest edge, then one sweep
    # that lowers each dual until one of its edges is tight; then match
    # tight pairs greedily, lowest vertex first
    lab = [max(row[:v] + row[v + 1:]) // 2 for v, row in enumerate(a2)] + [0] * n
    for v, row in enumerate(a2):
        lab[v] = max(map(sub, row[:v] + row[v + 1:], lab[:v] + lab[v + 1:n]))
    match = [-1] * N
    for v in range(n):
        if match[v] == -1:
            for u in range(v + 1, n):
                if match[u] == -1 and lab[v] + lab[u] == a2[v][u]:
                    match[v], match[u] = u, v
                    break

    st = list(range(n)) + [-1] * n          # top-level blossom of each index
    # g[x][y]: the least-slack edge (vertex of x, vertex of y)
    g = ([[(u, v) for v in range(n)] + [None] * n for u in range(n)]
         + [[None] * N for _ in range(n)])
    flower: list[list[int]] = [[] for _ in range(N)]
    flower_from = [[-1] * n for _ in range(N)]   # child of b holding vertex x
    for u in range(n):
        flower_from[u][u] = u
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
        if s == -1 or delta(g[u][x]) < delta(g[s][x]):
            slack[x] = u

    def set_slack(x: int) -> None:
        slack[x] = -1
        for u in range(n):
            if st[u] != x and label[st[u]] == 0:
                update_slack(u, x)

    def push(x: int) -> None:
        if x < n:
            queue.append(x)
        else:
            for y in flower[x]:
                push(y)

    def set_st(x: int, b: int) -> None:
        st[x] = b
        if x >= n:
            for y in flower[x]:
                set_st(y, b)

    def get_pr(b: int, xr: int) -> int:
        fl = flower[b]
        pr = fl.index(xr)
        if pr % 2 == 1:
            fl[1:] = fl[:0:-1]
            return len(fl) - pr
        return pr

    def set_match(u: int, v: int) -> None:
        e = g[u][v]
        match[u] = e[1]
        if u >= n:
            xr = flower_from[u][e[0]]
            pr = get_pr(u, xr)
            fl = flower[u]
            for i in range(pr):
                set_match(fl[i], fl[i ^ 1])
            set_match(xr, v)
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
        row = g[b]
        for x in range(n_x):
            row[x] = None
        for xs in fl:
            edges = g[xs]
            for x in range(n_x):
                if st[x] == b or st[x] == -1:
                    continue
                e = edges[x]
                if row[x] is None or delta(e) < delta(row[x]):
                    row[x] = e
                    g[x][b] = (e[1], e[0])
        ff = flower_from[b]
        for x in range(n):
            ff[x] = -1
        for xs in fl:
            held = flower_from[xs]
            for x in range(n):
                if held[x] != -1:
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
                su = st[u]
                if label[su] == 1:
                    continue
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
            d = None
            for b in range(n, n_x):
                if st[b] == b and label[b] == 1:
                    c = lab[b] // 2
                    if d is None or c < d:
                        d = c
            for x in range(n_x):
                if st[x] == x and slack[x] != -1:
                    if label[x] == -1:
                        c = delta(g[slack[x]][x])
                    elif label[x] == 0:
                        c = delta(g[slack[x]][x]) // 2
                    else:
                        continue
                    if d is None or c < d:
                        d = c
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
            for x in range(n_x):
                s = slack[x]
                if st[x] == x and s != -1 and st[s] != x and delta(g[s][x]) == 0:
                    if on_found_edge(g[s][x]):
                        return True
            for b in range(n, n_x):
                if st[b] == b and label[b] == 1 and lab[b] == 0:
                    expand_blossom(b)

    while stage():
        pass

    def members(b: int) -> list[int]:
        return [b] if b < n else [v for c in flower[b] for v in members(c)]

    blossoms = [(lab[b], members(b)) for b in range(n, n_x)
                if st[b] != -1 and lab[b] > 0]
    return match[:n], lab, blossoms

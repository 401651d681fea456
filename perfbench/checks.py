"""Output checks computed apart from ``ttp2``.

Nothing here imports ``ttp2``.  Schedules arrive as plain day lists of
(away, home) pairs and instances as distance matrices; every verdict is
re-derived from those with numpy, and the reference matchings come from
networkx, which ``ttp2`` does not use.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

REL_TOL = 1e-9
RATIO_SLACK = 1e-9

_DAY_LINE = re.compile(r"^\s*day\s+\d+\s*:(.*)$")
_GAME = re.compile(r"^(\d+)@(\d+)$")


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def factor_bound(n: int) -> float:
    """1 + (ceil(log2(n/4)) + 4) / (2(n-2)): the travel factor the method
    guarantees on metric instances."""
    return 1.0 + (ceil_log2(n // 4) + 4) / (2.0 * (n - 2))


def flip_limit(n: int) -> int:
    """ceil((n/8) * ceil(log2(n/4))) Type-2 blocks."""
    return -(-n * ceil_log2(n // 4) // 8)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


# --- schedules as days x teams arrays ----------------------------------------

def parse_schedule_file(text: str) -> list[list[tuple[int, int]]]:
    """Day list from a schedule file: constructor JSON or 'day k: a@h ...'."""
    if text.lstrip().startswith("{"):
        return [[(int(f["away"]), int(f["home"])) for f in day]
                for day in json.loads(text)["days"]]
    days = []
    for line in text.splitlines():
        m = _DAY_LINE.match(line)
        if m is None:
            raise ValueError(f"unexpected schedule line {line!r}")
        games = []
        for token in m.group(1).split():
            g = _GAME.match(token)
            if g is None:
                raise ValueError(f"unexpected game token {token!r}")
            games.append((int(g.group(1)), int(g.group(2))))
        days.append(games)
    return days


def day_array(days, n: int):
    """(opponent, home flag, games played) arrays of shape days x teams."""
    d_count = len(days)
    opp = np.full((d_count, n), -1, dtype=np.int64)
    home = np.zeros((d_count, n), dtype=bool)
    games = np.zeros((d_count, n), dtype=np.int64)
    for d, day in enumerate(days):
        for away, host in day:
            opp[d, away] = host
            opp[d, host] = away
            home[d, host] = True
            games[d, away] += 1
            games[d, host] += 1
    return opp, home, games


def feasibility_problems(days, n: int) -> list[str]:
    """Every TTP-2 rule the day list breaks, as short messages."""
    for day in days:
        for away, host in day:
            if away == host or not (0 <= away < n and 0 <= host < n):
                return [f"malformed game {away}@{host}"]
    opp, home, games = day_array(days, n)
    problems = []
    if len(days) != 2 * n - 2:
        problems.append(f"{len(days)} days, expected {2 * n - 2}")
    if np.any(games != 1):
        d, t = np.argwhere(games != 1)[0]
        problems.append(f"team {t} plays {games[d, t]} games on day {d}")
    count = np.zeros((n, n), dtype=np.int64)
    flat = [g for day in days for g in day]
    if flat:
        aways, hosts = np.array(flat).T
        np.add.at(count, (aways, hosts), 1)
    off = ~np.eye(n, dtype=bool)
    if np.any(count[off] != 1):
        a, h = np.argwhere((count != 1) & off)[0]
        problems.append(f"{a}@{h} played {count[a, h]} times")
    if len(days) > 1 and np.any((opp[1:] == opp[:-1]) & (opp[1:] >= 0)):
        d, t = np.argwhere((opp[1:] == opp[:-1]) & (opp[1:] >= 0))[0]
        problems.append(f"team {t} meets {opp[d, t]} on days {d} and {d + 1}")
    if len(days) > 2:
        played = games == 1
        run = (home[2:] == home[1:-1]) & (home[1:-1] == home[:-2]) \
            & played[2:] & played[1:-1] & played[:-2]
        if np.any(run):
            d, t = np.argwhere(run)[0]
            problems.append(f"team {t} has three {'home' if home[d, t] else 'away'} "
                            f"days from day {d}")
    return problems


def travel(days, dist: np.ndarray) -> float:
    """Total travel: each team starts at home, is at home on home days and
    at the host's venue on away days, and returns home after the last day."""
    n = dist.shape[0]
    opp, home, _ = day_array(days, n)
    teams = np.arange(n)
    venues = np.where(home, teams[None, :], opp)
    path = np.vstack([teams, venues, teams])
    return float(math.fsum(dist[path[:-1], path[1:]].ravel()))


# --- instances and matchings ---------------------------------------------------

def is_metric(dist: np.ndarray) -> bool:
    scale = max(1.0, float(dist.max()))
    excess = dist[:, None, :] - dist[:, :, None] - dist.T[None, :, :]
    return bool(excess.max() <= 1e-9 * scale)


def pairwise_sum(dist: np.ndarray) -> float:
    return float(math.fsum(dist[np.triu_indices(dist.shape[0], 1)]))


def reference_matching(weight: np.ndarray) -> float:
    """Weight of a minimum-weight perfect matching found by networkx."""
    import networkx as nx

    m = weight.shape[0]
    graph = nx.Graph()
    graph.add_weighted_edges_from(
        (i, j, float(weight[i, j])) for i in range(m) for j in range(i + 1, m))
    pairs = nx.min_weight_matching(graph)
    if len(pairs) != m // 2:
        raise ValueError(f"networkx matched {len(pairs)} pairs on {m} vertices")
    return math.fsum(float(weight[i, j]) for i, j in pairs)


def matching_problems(pairs, weight: float, w: np.ndarray) -> list[str]:
    """A reported matching must cover every vertex once and weigh what it says."""
    covered = sorted(v for p in pairs for v in p)
    if covered != list(range(w.shape[0])):
        return [f"pairs {list(pairs)} are not a perfect matching on {w.shape[0]}"]
    recomputed = math.fsum(float(w[i, j]) for i, j in pairs)
    if not close(recomputed, weight):
        return [f"reported weight {weight!r} but the pairs weigh {recomputed!r}"]
    return []


def super_graph(dist: np.ndarray, team_pairs) -> np.ndarray:
    """Weight between pairs i and j: the four cross distances of their members."""
    m = len(team_pairs)
    w = np.zeros((m, m))
    for i, (a1, a2) in enumerate(team_pairs):
        for j, (b1, b2) in enumerate(team_pairs):
            if i != j:
                w[i, j] = dist[a1, b1] + dist[a1, b2] + dist[a2, b1] + dist[a2, b2]
    return w


def structure_problems(n: int, flips: int, levels, super_pairs) -> list[str]:
    """Flip budget and final level.  ``levels`` is a list of levels, each a
    list of (a_pair, b_pair, block_type)."""
    problems = []
    type2 = sum(1 for level in levels for *_, t in level if t == 2)
    if flips != type2:
        problems.append(f"flips={flips} but {type2} Type-2 blocks")
    if flips > flip_limit(n):
        problems.append(f"flips={flips} exceeds {flip_limit(n)}")
    final = levels[-1] if levels else []
    if any(t != 3 for *_, t in final):
        problems.append("final level has a block that is not Type-3")
    keys = sorted((min(a, b), max(a, b)) for a, b, _ in final)
    if keys != sorted(tuple(sorted(p)) for p in super_pairs):
        problems.append(f"final level {keys} is not the super-pairing {list(super_pairs)}")
    return problems

"""Shared instance builders and size probes for the test suite."""

import numpy as np

from ttp2 import Instance, InstanceError
from ttp2.scheduler import check_team_count


def euclid_weights(m, seed, scale=1000.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, scale, (m, 2))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))


def lattice_weights(m, seed, side=8):
    """Manhattan distances between m distinct cells of a side x side grid:
    integer weights, so many matchings tie at the optimum."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(side * side, size=m, replace=False)
    pts = np.stack([cells // side, cells % side], axis=1)
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1).astype(float)


def unit_weights(m):
    return np.ones((m, m)) - np.eye(m)


def pair_cluster_instance(n, couples):
    """Euclidean instance whose optimal team matching is the consecutive
    pairs (0,1), (2,3), ... and whose optimal pairing of those pairs is
    exactly ``couples``.

    Three separation scales force uniqueness: ~1 between members of a
    team pair, ~1e3 between the two pair-centers of a couple, ~1e6
    between couples.
    """
    m = n // 2
    centers = {}
    for k, (i, j) in enumerate(couples):
        base = np.array([1e6 * (k + 1), 1e6 * (k + 1) ** 2])
        centers[i] = base
        centers[j] = base + np.array([1e3 + 17.0 * k, 13.0 * k])
    pts = np.zeros((n, 2))
    for p in range(m):
        off = np.array([1.0 + 0.01 * p, 0.0])
        pts[2 * p] = centers[p] - off
        pts[2 * p + 1] = centers[p] + off
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return Instance(n=n, dist=d)


def day_list_text(days):
    """Day-list text of a schedule's days (fixtures or (away, home) pairs)."""
    return "".join(f"day {d + 1}: " + " ".join("%d@%d" % tuple(f) for f in day) + "\n"
                   for d, day in enumerate(days))


def refused_team_counts(ns):
    """{n: message} for each n of ``ns`` that ``check_team_count`` refuses."""
    refused = {}
    for n in ns:
        try:
            check_team_count(n)
        except InstanceError as exc:
            refused[n] = str(exc)
    return refused

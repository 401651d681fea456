"""Distance-matrix instances: parsing, emission, generation, metric checks.

An instance is an n x n symmetric matrix of nonnegative travel distances
with a zero diagonal.  Three interchange formats are supported:

* ``matrix``: whitespace separated, ``n`` followed by n*n entries.
* ``csv``: n rows of n comma-separated entries, optional name header row.
* ``json``: object with keys ``n``, ``dist`` and optional ``names``,
  ``coords``, ``rounding``.  ``dist`` may be omitted when ``coords`` is
  present, in which case pairwise Euclidean distances are used.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InstanceError, decimal, integer, load_json, read_text, shown, team_count

SYMMETRY_TOL = 1e-9
TRIANGLE_TOL = 1e-9
# entries of the n x n x n excess array that check_metric holds at once;
# n <= 128 is scanned in one block
METRIC_BLOCK_ENTRIES = 128 ** 3
COORD_TOL = 1e-6

FORMATS = ("matrix", "csv", "json")
# file extension -> format; saving with any other extension writes the
# matrix format, loading one sniffs the content
EXTENSION_FORMATS = {".txt": "matrix", ".mat": "matrix", ".dist": "matrix",
                     ".csv": "csv", ".json": "json"}
GENERATOR_KINDS = ("euclidean", "unit", "random_metric")


@dataclass(frozen=True)
class Instance:
    """An immutable distance matrix plus optional team names/coordinates."""

    n: int
    dist: np.ndarray
    names: Optional[tuple[str, ...]] = None
    coords: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", team_count(
            self.n, InstanceError, "team count must be an integer, got {value}"))
        dist = _number_array(self.dist, "dist")
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise InstanceError(f"distance matrix must be square, got shape {dist.shape}")
        if dist.shape[0] != self.n:
            raise InstanceError(f"n={self.n} does not match matrix of order {dist.shape[0]}")
        if self.n < 2 or self.n % 2 != 0:
            raise InstanceError(f"team count must be even and at least 2, got {self.n}")
        if not np.all(np.isfinite(dist)):
            raise InstanceError("distance matrix contains non-finite entries")
        if np.any(dist < 0):
            i, j = np.argwhere(dist < 0)[0]
            raise InstanceError(f"negative distance at ({i}, {j}): {dist[i, j]}")
        gap = np.abs(dist - dist.T)
        if gap.max(initial=0.0) > SYMMETRY_TOL:
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            raise InstanceError(
                f"asymmetry beyond tolerance at ({i}, {j}): {dist[i, j]} vs {dist[j, i]}"
            )
        # symmetrize sub-tolerance noise; equal entries stay bit for bit, and
        # halving before adding keeps the largest floats finite
        dist = np.where(dist == dist.T, dist, dist / 2.0 + dist.T / 2.0)
        if np.abs(np.diag(dist)).max(initial=0.0) > SYMMETRY_TOL:
            i = int(np.argmax(np.abs(np.diag(dist))))
            raise InstanceError(f"nonzero diagonal at ({i}, {i}): {dist[i, i]}")
        np.fill_diagonal(dist, 0.0)
        dist.flags.writeable = False
        object.__setattr__(self, "dist", dist)
        if self.names is not None:
            names = tuple(str(x) for x in self.names)
            if len(names) != self.n:
                raise InstanceError(f"expected {self.n} names, got {len(names)}")
            object.__setattr__(self, "names", names)
        if self.coords is not None:
            coords = _number_array(self.coords, "coords")
            if coords.shape != (self.n, 2):
                raise InstanceError(f"coords must have shape ({self.n}, 2), got {coords.shape}")
            coords.flags.writeable = False
            object.__setattr__(self, "coords", coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        if self.n != other.n or self.names != other.names:
            return False
        if (self.coords is None) != (other.coords is None):
            return False
        if self.coords is not None and not np.array_equal(self.coords, other.coords):
            return False
        return np.array_equal(self.dist, other.dist)

    def __hash__(self) -> int:
        return hash((self.n, self.names, self.dist.tobytes()))


@dataclass(frozen=True)
class MetricReport:
    """Result of a triangle-inequality scan."""

    triangle_ok: bool
    worst_violation: Optional[tuple[int, int, int, float]] = None  # (i, j, k, magnitude)


def _coerce_number(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise InstanceError(f"malformed number {shown(token)} at {where}") from None


def _read_source(source) -> str:
    """Accept a path, text, or file-like object and return its full text.
    Multi-line or ``{``-prefixed strings are text; any other string is a path."""
    if isinstance(source, str) and ("\n" in source or source.lstrip().startswith("{")):
        return source
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        try:
            return read_text(source, InstanceError, f"instance file {path} is not UTF-8 text")
        except FileNotFoundError:
            raise InstanceError(f"instance file not found: {path}") from None
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        return read_text(data, InstanceError, "instance bytes are not UTF-8 text")
    if not isinstance(data, str):
        raise InstanceError(f"unreadable instance source of type {type(data).__name__}")
    return data


def _number_array(value, field: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InstanceError(f"'{field}' must be a rectangular array of numbers") from None
    except OverflowError:   # an int past the float range
        raise InstanceError(f"'{field}' holds a number past the float range") from None


def _parse_matrix(text: str) -> Instance:
    tokens = text.split()
    if not tokens:
        raise InstanceError("empty matrix input")
    refusal = "matrix input must start with the team count, got {value}"
    n = team_count(decimal(tokens[0], InstanceError, refusal), InstanceError)
    if len(tokens) - 1 != n * n:
        raise InstanceError(f"expected {n * n} entries after n={n}, found {len(tokens) - 1}")
    values = [_coerce_number(tok, f"entry {idx}") for idx, tok in enumerate(tokens[1:])]
    dist = np.array(values, dtype=float).reshape(n, n)
    return Instance(n=n, dist=dist)


def _parse_csv(text: str) -> Instance:
    rows = [line for line in (ln.strip() for ln in text.splitlines()) if line]
    if not rows:
        raise InstanceError("empty csv input")
    cells = [row.split(",") for row in rows]
    names: Optional[tuple[str, ...]] = None
    try:
        float(cells[0][0])
    except ValueError:
        names = tuple(c.strip() for c in cells[0])
        cells = cells[1:]
    n = team_count(len(cells), InstanceError)   # before the n x n matrix is allocated
    if n == 0:
        raise InstanceError("csv input has a header but no data rows")
    dist = np.zeros((n, n))
    for i, row in enumerate(cells):
        if len(row) != n:
            raise InstanceError(f"csv row {i} has {len(row)} entries, expected {n}")
        for j, cell in enumerate(row):
            dist[i, j] = _coerce_number(cell.strip(), f"row {i}, column {j}")
    return Instance(n=n, dist=dist, names=names)


def _parse_json(text: str) -> Instance:
    obj = load_json(text, InstanceError, "invalid json")
    if not isinstance(obj, dict) or "n" not in obj:
        raise InstanceError("json instance must be an object with an 'n' key")
    n = team_count(obj["n"], InstanceError, "'n' must be an integer, got {value}")
    coords = obj.get("coords")
    if coords is not None:
        coords = _number_array(coords, "coords")
        if coords.shape != (n, 2):   # checked before distances are computed
            raise InstanceError(f"coords must have shape ({n}, 2), got {coords.shape}")
    rounding = obj.get("rounding", "exact")
    if rounding not in ("exact", "nearest_int"):
        raise InstanceError(f"unknown rounding mode {shown(rounding)}")
    if "dist" in obj:
        dist = obj["dist"]
    elif coords is not None:
        dist = _euclidean_matrix(coords, rounding)
    else:
        raise InstanceError("json instance needs 'dist' or 'coords'")
    names = obj.get("names")
    if names is not None and not isinstance(names, list):
        raise InstanceError(f"'names' must be a list of {n} names, got {shown(names)}")
    inst = Instance(n=n, dist=dist, names=tuple(names) if names else None, coords=coords)
    if coords is not None and "dist" in obj:
        _check_coords_consistent(inst, rounding)
    return inst


def _euclidean_matrix(coords: np.ndarray, rounding: str = "exact") -> np.ndarray:
    """Pairwise distances of ``coords``, rounded for ``nearest_int``."""
    delta = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((delta ** 2).sum(axis=2))
    return np.round(dist) if rounding == "nearest_int" else dist


def _check_coords_consistent(inst: Instance, rounding: str) -> None:
    expected = _euclidean_matrix(inst.coords, rounding)
    gap = np.abs(inst.dist - expected)
    if gap.max(initial=0.0) > COORD_TOL:
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        raise InstanceError(
            f"dist[{i}][{j}]={inst.dist[i, j]} disagrees with coords "
            f"(expected {expected[i, j]}, rounding={rounding})"
        )


def load_instance(source, fmt: Optional[str] = None) -> Instance:
    """Parse an instance from a path, string, bytes, or file-like object.

    A string that spans several lines or starts with ``{`` is instance text;
    any other string is a path, and a missing file raises InstanceError.

    ``fmt`` is one of ``matrix``, ``csv``, ``json``; when omitted it is
    inferred from a path's extension, falling back to content sniffing.
    """
    text = _read_source(source)
    if fmt is None:
        fmt = _guess_format(source, text)
    if fmt not in FORMATS:
        raise InstanceError(f"unknown instance format {shown(fmt)}, expected one of {FORMATS}")
    if fmt == "matrix":
        return _parse_matrix(text)
    if fmt == "csv":
        return _parse_csv(text)
    return _parse_json(text)


def _guess_format(source, text: str) -> str:
    if isinstance(source, (str, os.PathLike)):
        fmt = EXTENSION_FORMATS.get(os.path.splitext(str(source))[1].lower())
        if fmt is not None:
            return fmt
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return "json"
    first_line = stripped.splitlines()[0] if stripped.splitlines() else ""
    if "," in first_line:
        return "csv"
    return "matrix"


def emit_instance(inst: Instance, fmt: str = "json") -> str:
    """Serialize an instance; ``load_instance`` on the result round-trips."""
    if fmt == "matrix":
        lines = [str(inst.n)]
        for row in inst.dist:
            lines.append(" ".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = []
        if inst.names is not None:
            lines.append(_csv_header(inst.names))
        for row in inst.dist:
            lines.append(",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj: dict = {"n": inst.n, "dist": [[float(x) for x in row] for row in inst.dist]}
        if inst.names is not None:
            obj["names"] = list(inst.names)
        if inst.coords is not None:
            obj["coords"] = [[float(x), float(y)] for x, y in inst.coords]
        return json.dumps(obj, indent=2) + "\n"
    raise InstanceError(f"unknown instance format {shown(fmt)}, expected one of {FORMATS}")


def _csv_header(names: tuple[str, ...]) -> str:
    """The csv name row, refusing a name that ``_parse_csv`` would not read
    back as written: one holding a comma or a line break, or with leading or
    trailing whitespace, a first name that reads as a number (the row would
    be taken for data), or a first name starting with ``{`` (the text would
    be taken for json)."""
    for name in names:
        if "," in name or len(name.splitlines()) > 1 or name != name.strip():
            raise InstanceError(f"team name {shown(name)} cannot be written to csv: it holds "
                                "a comma or a line break, or starts or ends with whitespace")
    if names[0].startswith("{"):
        raise InstanceError(f"team name {shown(names[0])} cannot be the first csv name: "
                            "it starts with '{', so the text reads as json")
    try:
        float(names[0])
    except ValueError:
        return ",".join(names)
    raise InstanceError(f"team name {shown(names[0])} cannot be the first csv name: "
                        "it reads as a number")


def save_instance(inst: Instance, path: str, fmt: Optional[str] = None) -> None:
    if fmt is None:
        fmt = EXTENSION_FORMATS.get(os.path.splitext(path)[1].lower(), "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_instance(inst, fmt))


def generate_instance(n: int, kind: str = "euclidean", seed: int = 0) -> Instance:
    """Deterministically generate a test instance.

    ``euclidean``: uniform points in [0, 1000]^2, exact distances.
    ``unit``: all off-diagonal distances 1.
    ``random_metric``: perturbed Euclidean distances repaired to a metric
    by shortest-path closure.
    """
    refusal = "generator needs an even integer n >= 2, got {value}"
    n = team_count(n, InstanceError, refusal)   # before anything of its size is allocated
    if n < 2 or n % 2 != 0:
        raise InstanceError(refusal.format(value=shown(n)))
    if kind not in GENERATOR_KINDS:
        raise InstanceError(f"unknown generator kind {shown(kind)}, "
                            f"expected one of {GENERATOR_KINDS}")
    refusal = "seed must be a non-negative integer, got {value}"
    seed = integer(seed, "seed", InstanceError, refusal)
    if seed < 0:
        raise InstanceError(refusal.format(value=shown(seed)))
    rng = np.random.default_rng(seed)
    if kind == "unit":
        dist = np.ones((n, n)) - np.eye(n)
        return Instance(n=n, dist=dist)
    coords = rng.uniform(0.0, 1000.0, size=(n, 2))
    base = _euclidean_matrix(coords)
    if kind == "euclidean":
        return Instance(n=n, dist=base, coords=coords)
    noise = rng.uniform(0.6, 1.6, size=(n, n))
    noise = np.triu(noise, 1)
    noise = noise + noise.T
    dist = base * noise
    np.fill_diagonal(dist, 0.0)
    dist = _shortest_path_closure(dist)
    return Instance(n=n, dist=dist)


def _shortest_path_closure(dist: np.ndarray) -> np.ndarray:
    closed = dist.copy()
    n = closed.shape[0]
    for k in range(n):
        closed = np.minimum(closed, closed[:, k : k + 1] + closed[k : k + 1, :])
    return closed


def check_metric(inst: Instance) -> MetricReport:
    """Scan all triples for triangle-inequality violations beyond
    ``TRIANGLE_TOL``, a block of rows i at a time.  The worst violation is
    the largest excess, the first in (i, j, k) order among equal ones.
    Symmetry needs no scan: every ``Instance`` is symmetric."""
    d = inst.dist
    rows = max(1, METRIC_BLOCK_ENTRIES // d.size)
    worst, first = -math.inf, None
    for lo in range(0, inst.n, rows):
        # excess[i - lo, j, k] = d[i, k] - d[i, j] - d[j, k]
        excess = d[lo:lo + rows, None, :] - d[lo:lo + rows, :, None]
        excess -= d.T[None, :, :]
        top = float(excess.max())
        if top > worst:
            worst = top
            if top > TRIANGLE_TOL:
                i, j, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
                first = (lo + int(i), int(j), int(k))
        del excess   # before the next block is made
    if first is None:
        return MetricReport(triangle_ok=True)
    return MetricReport(triangle_ok=False, worst_violation=(*first, worst))

"""The three building blocks a schedule is assembled from.

A super-match plays the four cross games between two matched pairs
A = {A1, A2} and B = {B1, B2} (plus, in the 6-day variant, both intra-pair
games of each side).  Three day layouts exist; "X@Y" below means X plays
away at Y's venue.  A1 is always the lower-numbered member of the A pair.

Type-1, 4 days, keeps both sides' roles:
    (A1@B1, A2@B2), (A1@B2, A2@B1), (B1@A1, B2@A2), (B1@A2, B2@A1)
Type-2, 4 days, swaps both sides' roles (a "flip"):
    (A1@B1, A2@B2), (B2@A1, B1@A2), (B1@A1, B2@A2), (A1@B2, A2@B1)
Type-3, 6 days, terminal (adds the intra-pair games):
    (A1@B1, A2@B2), (A1@A2, B2@B1), (B2@A1, B1@A2),
    (A2@A1, B1@B2), (A1@B2, A2@B1), (B1@A1, B2@A2)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ValidationError, integer, shown

BLOCK_TYPES = (1, 2, 3)

# day layouts in slot indices 0=A1, 1=A2, 2=B1, 3=B2, as (away, home)
_A1, _A2, _B1, _B2 = 0, 1, 2, 3
_LAYOUT = {
    1: (
        ((_A1, _B1), (_A2, _B2)),
        ((_A1, _B2), (_A2, _B1)),
        ((_B1, _A1), (_B2, _A2)),
        ((_B1, _A2), (_B2, _A1)),
    ),
    2: (
        ((_A1, _B1), (_A2, _B2)),
        ((_B2, _A1), (_B1, _A2)),
        ((_B1, _A1), (_B2, _A2)),
        ((_A1, _B2), (_A2, _B1)),
    ),
    3: (
        ((_A1, _B1), (_A2, _B2)),
        ((_A1, _A2), (_B2, _B1)),
        ((_B2, _A1), (_B1, _A2)),
        ((_A2, _A1), (_B1, _B2)),
        ((_A1, _B2), (_A2, _B1)),
        ((_B1, _A1), (_B2, _A2)),
    ),
}


@dataclass(frozen=True)
class SuperMatch:
    """One block: pair ``a_pair`` takes the away-first A role against
    ``b_pair`` in a block of type ``block_type`` (1, 2 or 3).  Each field
    is read by ``errors.integer``; a field it refuses, a pair against itself
    or another block type raises ValidationError, as ``LevelPlan`` does."""

    a_pair: int
    b_pair: int
    block_type: int

    def __post_init__(self) -> None:
        if not type(self.a_pair) is type(self.b_pair) is type(self.block_type) is int:
            object.__setattr__(self, "a_pair", integer(self.a_pair, "a_pair", ValidationError))
            object.__setattr__(self, "b_pair", integer(self.b_pair, "b_pair", ValidationError))
            object.__setattr__(self, "block_type", integer(
                self.block_type, "type", ValidationError, "unknown block type {value}: {reason}"))
        if self.a_pair == self.b_pair:
            raise ValidationError(f"super-match pairs a pair with itself: {shown(self.a_pair)}")
        if self.block_type not in BLOCK_TYPES:
            raise ValidationError(f"unknown block type {shown(self.block_type)}")

    @property
    def key(self) -> tuple[int, int]:
        """Orientation-free identity (lo, hi)."""
        return (self.a_pair, self.b_pair) if self.a_pair < self.b_pair else (self.b_pair, self.a_pair)


class Fixture(NamedTuple):
    """One game: ``away`` plays at ``home``'s venue.  A game's day is the
    index of the day tuple holding it."""

    away: int
    home: int


def _fixtures(pairs: Iterable[tuple[int, int]]) -> Iterator[Fixture]:
    """``Fixture(away, home)`` for each pair.  A Fixture is a plain tuple
    underneath, and ``Fixture.__new__`` builds it with ``tuple.__new__``;
    calling that directly saves a Python call per fixture."""
    return map(tuple.__new__, repeat(Fixture), pairs)


# each block type's day count (0 for no type)
_DAYS = (0, 4, 4, 6)


def _slot_table() -> np.ndarray:
    """Row t: the (away, home) slots of a Type-t block's games, day by day,
    flattened and padded to six days; the one table every block's games
    are gathered through."""
    table = np.zeros((len(_DAYS), 6 * 4), np.intp)
    for btype, days in _LAYOUT.items():
        table[btype, :4 * len(days)] = np.ravel(days)
    table.flags.writeable = False
    return table


_SLOTS = _slot_table()

_NOT_TWO = "each pair must hold exactly two teams"
_NOT_THREE = "each block must be three numbers, (a_pair, b_pair, type)"


def _int_array(values, what: str, ragged: str) -> np.ndarray:
    """``values`` as an int64 array: integers int64 holds, or nothing.
    Ragged values raise ValidationError with the message ``ragged``, any
    other values one naming ``what``."""
    try:
        array = np.asarray(values)
    except ValueError:   # ragged
        raise ValidationError(ragged) from None
    kind = array.dtype.kind
    if kind == "i" or kind == "u" and array.dtype.itemsize < 8 or not array.size:
        return array.astype(np.int64, copy=False)
    raise ValidationError(f"{what} must be integers, got {shown(values)}")


def _day_count(rows: np.ndarray, m: int) -> int:
    """The day count the types of ``rows``, (a_pair, b_pair, type) blocks
    on m pairs, share, read from each column's least and greatest value;
    a pair outside 0..m-1 (naming the first block with one), an unknown
    type (naming the first) or types of both day counts raise
    ValidationError."""
    if not len(rows):
        return 0
    (a_lo, b_lo, t_lo), (a_hi, b_hi, t_hi) = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
    if min(a_lo, b_lo) < 0 or max(a_hi, b_hi) >= m:
        k = int(((rows[:, :2] < 0) | (rows[:, :2] >= m)).any(axis=1).argmax())
        raise ValidationError(f"block {shown(rows[k].tolist())} names a pair outside 0..{m - 1}")
    types = rows[:, 2]
    if t_lo < 1 or t_hi > 3:
        raise ValidationError(f"unknown block type {int(types[(types < 1) | (types > 3)][0])}")
    if _DAYS[t_lo] != _DAYS[t_hi]:
        raise ValidationError("blocks of 4 and 6 days cannot be expanded together")
    return _DAYS[t_lo]


def expand_block(blocks, pairs) -> np.ndarray:
    """The games of ``blocks``, an integer array of (a_pair, b_pair, type)
    rows whose types share one day count (4 for Types 1 and 2, 6 for Type
    3), on ``pairs``, an (m, 2) integer array of team pairs: one int64
    array of shape ``blocks.shape[:-1] + (days, 2, 2)``, each block's days
    in layout order, each day's two games as (away, home).  The lower team
    of the A pair is A1, the lower team of the B pair is B1.  Every block
    is gathered through one index table, ``_SLOTS``, so any number of them
    take the same few numpy calls.

    Raise ValidationError for pairs that are not rows of two teams, a block
    that is not three numbers, a pair index outside 0..m-1, an unknown
    block type, types of both day counts, or a block whose pairs share a
    team (a pair naming one team twice included); a message that names a
    block or a type names the first in row order.
    """
    pairs = _int_array(pairs, "pairs", _NOT_TWO)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError(_NOT_TWO)
    blocks = _int_array(blocks, "blocks", _NOT_THREE)
    if blocks.ndim == 0 or blocks.shape[-1] != 3:
        raise ValidationError(_NOT_THREE)
    rows = blocks.reshape(-1, 3)
    count = _day_count(rows, len(pairs))
    # each block's teams in slot order A1, A2, B1, B2
    teams = np.sort(pairs, axis=1).take(rows[:, :2], axis=0)
    every = np.sort(pairs, axis=None)
    if (every[1:] == every[:-1]).any() or (rows[:, 0] == rows[:, 1]).any():
        # some pairs share a team: look for a block holding two of them
        a1, a2, b1, b2 = teams.reshape(-1, 4).T
        overlap = (a1 == a2) | (b1 == b2) | (a1 == b1) | (a1 == b2) | (a2 == b1) | (a2 == b2)
        if overlap.any():
            a1, a2, b1, b2 = teams[overlap.argmax()].ravel().tolist()
            raise ValidationError(f"super-match pairs overlap: {[a1, a2]} vs {[b1, b2]}")
    slots = _SLOTS[:, :4 * count].take(rows[:, 2], axis=0)
    slots += 4 * np.arange(len(rows))[:, None]
    return teams.take(slots).reshape(blocks.shape[:-1] + (count, 2, 2))

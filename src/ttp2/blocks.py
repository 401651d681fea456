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
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


# per type: getters of the away slots and of the home slots of the block's
# fixtures, in day order, two fixtures a day
_ROLES = {
    btype: (itemgetter(*(away for day in days for away, _ in day)),
            itemgetter(*(home for day in days for _, home in day)))
    for btype, days in _LAYOUT.items()
}


def expand_block(sm: SuperMatch, pairs: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]
                 ) -> tuple[tuple[Fixture, ...], ...]:
    """Expand one super-match into its days (4, or 6 for Type-3), each a
    tuple of fixtures in layout order.

    ``pairs`` maps pair index -> its two team indices; the lower team of the
    A pair is A1, the lower team of the B pair is B1.  Each pair is unpacked
    into its two teams and put in order with one comparison, as ``sorted``
    would; a pair of other than two teams, or two pairs that share a team,
    raise ValidationError, as ``SuperMatch`` refuses a bad block.
    """
    try:
        a1, a2 = pairs[sm.a_pair]
        b1, b2 = pairs[sm.b_pair]
    except ValueError:   # too many or too few teams to unpack
        raise ValidationError("each pair must hold exactly two teams") from None
    if a2 < a1:
        a1, a2 = a2, a1
    if b2 < b1:
        b1, b2 = b2, b1
    if a1 == a2 or b1 == b2 or a1 == b1 or a1 == b2 or a2 == b1 or a2 == b2:
        raise ValidationError(f"super-match pairs overlap: {[a1, a2]} vs {[b1, b2]}")
    teams = (a1, a2, b1, b2)
    aways, homes = _ROLES[sm.block_type]
    fixtures = _fixtures(zip(aways(teams), homes(teams)))
    return tuple(zip(fixtures, fixtures))   # consecutive fixtures pair up into days


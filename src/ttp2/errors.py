"""Shared exception types, and the input boundary: every rule by which the
package reads outside input (an integer, JSON, UTF-8 text, a team count),
once, and ``shown``, which caps an outside value a message embeds."""

import json
import math
import numbers
import re
import reprlib
import sys


class TTP2Error(Exception):
    """Base class for all errors raised by this package."""


class InstanceError(TTP2Error, ValueError):
    """Malformed or inconsistent distance-matrix input, or a team count the
    build does not serve (``scheduler.check_team_count``)."""


class MatchingError(TTP2Error, ValueError):
    """Invalid input to a matching routine, or unsupported size."""


class SchedulingError(TTP2Error, RuntimeError):
    """Schedule construction failed an internal consistency check, never an
    input fault; only ``blocks.expand_block`` also raises it, for bad
    arguments."""


class ValidationError(TTP2Error, ValueError):
    """Schedule input is structurally unreadable (not merely invalid)."""


# the most teams an instance or a schedule may have: far past what a build
# makes, and far below a count whose n x n or days x teams arrays could not
# be allocated
TEAMS_MAX = 2048
# the most characters of an outside value a message shows
SHOWN_MAX = 60


def team_count(x, error: type, refusal: str = "malformed team count: {reason}") -> int:
    """``x`` read by ``integer`` as a count of at most TEAMS_MAX teams, else ``error``."""
    n = integer(x, "n", error, refusal)
    if n > TEAMS_MAX:
        raise error(f"team count {shown(n)} exceeds the supported maximum {TEAMS_MAX}")
    return n


def integer(x, field: str, error: type = ValueError, refusal: str = "{reason}") -> int:
    """``x`` as an int, the one rule for every integer read from memory or
    JSON: a plain int as is, another number if it has no fractional part
    (2.5, nan and infinity are refused, not truncated).  Text, bytes, a
    bool or anything else is refused: ``error``, with ``refusal`` formatted
    with the ``value`` shown and the ``reason``, which names ``field``."""
    if type(x) is int:
        return x
    try:
        if isinstance(x, bool) or not isinstance(x, numbers.Number):
            raise ValueError(f"invalid literal for {field}: {shown(x)} is not a number")
        if x in (math.inf, -math.inf) or int(x) != x:
            raise ValueError(f"{shown(x)} is not an integer")
        return int(x)
    except (ArithmeticError, TypeError, ValueError) as exc:   # also nan, as int() refuses it
        raise error(refusal.format(value=shown(x), reason=exc)) from None


# the minus sign is read so that a negative value meets its caller's refusal
_DECIMAL = re.compile(r"-?[0-9]+")


def decimal(text: str, error: type = ValueError, refusal: str = "{reason}") -> int:
    """``text`` as an int if it is ASCII digits that ``int`` reads, else
    refused as ``integer`` refuses; ``int()`` alone would also take ``1_0``,
    a plus sign, whitespace around the digits and non-ASCII digits."""
    try:
        if not _DECIMAL.fullmatch(text):
            raise ValueError(f"invalid integer {shown(text)}: expected ASCII digits")
        return int(text)
    except ValueError as exc:
        raise error(refusal.format(value=shown(text), reason=exc)) from None


def overlong_integer(text: str) -> str:
    """The first run of ASCII digits in ``text`` longer than ``int`` reads
    (``sys.get_int_max_str_digits()``), named by its first digits and its
    length: what the ValueError of ``int`` or ``json.loads`` on ``text``
    was about."""
    limit = sys.get_int_max_str_digits()
    digits = re.search("[0-9]{%d,}" % (limit + 1), text).group()
    return f"{digits[:12]}... has {len(digits)} digits, past the {limit}-digit limit for integers"


def load_json(text: str, error: type, what: str):
    """``json.loads(text)``, or ``error`` starting with ``what`` for text that
    is no JSON, holds an integer past int's digit limit, or nests too deeply."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what}: {exc}") from None
    except ValueError:   # an integer past int's digit limit
        raise error(f"{what}: integer {overlong_integer(text)}") from None
    except RecursionError:   # arrays or objects nested past the recursion limit
        raise error(f"{what}: nested too deeply to read") from None


def read_text(source, error: type, refusal: str) -> str:
    """The UTF-8 text of ``source``, bytes or the path of a file, or ``error``
    with ``refusal`` and the first bad byte's offset; OSError from a file."""
    try:
        if isinstance(source, bytes):
            return source.decode("utf-8")
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{refusal} (byte {exc.start})") from None


class _Shown(reprlib.Repr):
    """reprlib's repr, whose limits on nesting and on the items of each
    level render whole a value whose repr fits in SHOWN_MAX characters."""

    def __init__(self):
        super().__init__()
        self.maxlevel = SHOWN_MAX // 2
        self.maxtuple = self.maxlist = self.maxarray = self.maxdict = self.maxset = \
            self.maxfrozenset = self.maxdeque = SHOWN_MAX // 3
        self.maxstring = self.maxlong = self.maxother = SHOWN_MAX + 1

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:   # past the digit limit: count the digits without writing them
            x, d = abs(x), int(math.log10(abs(x)))   # one off where log10 rounds near 10**d
            return f"<an integer of {d + 1 + (x >= 10 ** (d + 1)) - (x < 10 ** d)} digits>"


_SHOWN = _Shown()


def shown(x) -> str:
    """``repr(x)`` for a message, cut in the middle to SHOWN_MAX characters
    and rendered within reprlib's limits; it never raises."""
    s = _SHOWN.repr(x)
    if len(s) <= SHOWN_MAX:   # nothing was cut: x is small
        try:
            s = repr(x)   # reprlib sorts dict keys and set members
        except Exception:   # an int past the digit limit, or a failing __repr__
            pass
    head = (SHOWN_MAX - 3) // 2
    return s if len(s) <= SHOWN_MAX else s[:head] + "..." + s[head + 3 - SHOWN_MAX:]

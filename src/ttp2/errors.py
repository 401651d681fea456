"""Shared exception types, and the description of an integer too long to
read that the readers of text put in them."""

import re
import sys


class TTP2Error(Exception):
    """Base class for all errors raised by this package."""


class InstanceError(TTP2Error, ValueError):
    """Malformed or inconsistent distance-matrix input."""


class MatchingError(TTP2Error, ValueError):
    """Invalid input to a matching routine, or unsupported size."""


class SchedulingError(TTP2Error, RuntimeError):
    """Schedule construction failed an internal consistency check."""


class ValidationError(TTP2Error, ValueError):
    """Schedule input is structurally unreadable (not merely invalid)."""


def overlong_integer(text: str) -> str:
    """The first run of ASCII digits in ``text`` longer than ``int`` reads
    (``sys.get_int_max_str_digits()``), named by its first digits and its
    length: what the ValueError of ``int`` or ``json.loads`` on ``text``
    was about."""
    limit = sys.get_int_max_str_digits()
    digits = re.search("[0-9]{%d,}" % (limit + 1), text).group()
    return f"{digits[:12]}... has {len(digits)} digits, past the {limit}-digit limit for integers"

"""Shared exception types."""


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

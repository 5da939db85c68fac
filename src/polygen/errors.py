"""Error taxonomy shared by every module in the package.

All failures raised on purpose derive from :class:`PolygenError`, so
callers (and the command-line front end) can distinguish a contract
violation from a genuine mathematical obstruction.
"""

from __future__ import annotations


class PolygenError(Exception):
    """Base class for every error raised deliberately by this package."""


class UsageError(PolygenError):
    """An operation was called in a way that violates its contract.

    Examples: mixing series of different truncation orders, taking a
    derivative that the ring representation cannot express, or asking
    the CLI for a family it does not know.
    """


class DomainError(PolygenError):
    """An input lies outside the mathematical domain of the operation.

    Examples: exponentiating a series whose constant term is nonzero,
    or a hypergeometric lower parameter at a non-positive integer.
    """


class RangeError(PolygenError):
    """An index or size parameter falls outside the supported range."""


#: The singularities that both routes can meet, worded once so that
#: ``table`` and ``series`` report the same singular request alike.
EULER_POLE = "kernel 2/(a*e^t + 1) is singular at a = -1"
ZERO_CONSTANT_TERM = "cannot invert a series whose constant term is zero"


class SingularityError(PolygenError):
    """A construction would divide by a series that is not a unit.

    Raised when inverting (or raising to a negative power) a series
    whose constant term vanishes or is not a plain rational number.
    """

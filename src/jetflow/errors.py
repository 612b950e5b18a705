"""Exceptions shared across the package.

The four "mathematical" errors (NotDivisibleError, InconsistentJetError,
NotOnSubgroupError, NoSuchFactorError) correspond to the failure modes the
CLI reports with exit code 3.  Misuse of an API (dimension mismatches, mixed
scalar modes, bad preconditions) raises plain ValueError.
"""

from __future__ import annotations


class JetflowError(Exception):
    """Base class for the package's mathematical errors."""

    kind = "error"


class NotDivisibleError(JetflowError):
    """Exact polynomial division has a nonzero remainder."""

    kind = "NotDivisible"


class InconsistentJetError(JetflowError):
    """A jet is not of the form id + P*omega at some order.

    Carries the failing order and the residual (the part of the jet that
    cannot be matched: the offending homogeneous slice as a PolyMap, or the
    float least-squares residual as a number), so callers can tell a
    non-shift input apart from a vector field violating the
    non-divisibility hypothesis.
    """

    kind = "Inconsistent"

    def __init__(self, message, order=None, residual=None):
        super().__init__(message)
        self.order = order
        self.residual = residual


class NotOnSubgroupError(JetflowError):
    """No time t in the search window puts e^{Lt} within tolerance of A.

    Carries the closest time tried and its Frobenius distance
    ||e^{L best_t} - A||_F (both None when no candidate lay in the window).
    """

    kind = "NotOnSubgroup"

    def __init__(self, message, best_t=None, distance=None):
        if best_t is not None:
            message = f"{message}; closest t = {best_t!r} at distance {distance:.3e}"
        super().__init__(message)
        self.best_t = best_t
        self.distance = distance


class NoSuchFactorError(JetflowError):
    """No polynomial factor eta satisfies eta*F = H."""

    kind = "NoSuchFactor"


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset

"""Numeric knobs for float-mode computations.

All exact-mode code paths ignore these.  Float polynomials keep every
nonzero coefficient, and the float time-c flow map has no knob:
jet.flow_time_jet derives its halving count and series length from c, K and
the field's coefficients.  The environment variable
JETFLOW_FLOAT_TOL, when set, overrides both the residual and the subgroup
matching tolerances at import-free call time (it is read on each access so
tests can monkeypatch the environment).
"""

from __future__ import annotations

import os

# Coefficientwise tolerance for float residual checks (recovery, verify).
RESIDUAL_TOL = 1e-8

# Tolerance for matching a matrix A against {e^{Lt}}: t is accepted when
# ||e^{Lt} - A||_F <= DELTA0_TOL * max(1, ||A||_F), so the bound is
# absolute while ||A||_F <= 1 and relative above.
DELTA0_TOL = 1e-9

# Search window |t| <= DELTA0_WINDOW for the subgroup parameter.  When e^{Lt}
# is not periodic, a purely imaginary eigenvalue +-ib of L gives about
# DELTA0_WINDOW * b / pi candidate times.
DELTA0_WINDOW = 100.0

_ENV_VAR = "JETFLOW_FLOAT_TOL"


def _tol(override, default):
    """The explicit argument, else JETFLOW_FLOAT_TOL when it reads as a float, else default."""
    if override is not None:
        return override
    try:
        return float(os.environ[_ENV_VAR])
    except (KeyError, ValueError):
        return default


def residual_tol(override=None):
    """Residual tolerance: explicit argument > env var > default."""
    return _tol(override, RESIDUAL_TOL)


def delta0_tol(override=None):
    """Subgroup-matching tolerance: explicit argument > env var > default."""
    return _tol(override, DELTA0_TOL)

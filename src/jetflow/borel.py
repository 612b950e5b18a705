"""Finite-order realization of a prescribed jet as a smooth evaluator.

A list of homogeneous pieces omega_0, ..., omega_N is realized as
f(x) = sum rho(|x|/r_i) * omega_i(x) with a fixed smooth bump profile rho and
radii shrinking fast enough that each summand stays uniformly small.  Near
the origin every bump equals 1, so f agrees with the polynomial sum omega_i
on a plateau; a finite-difference verifier reads the Taylor coefficients
back off the evaluator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .linalg import RatMatrix
from .poly import as_poly


def bump(s):
    """Smooth profile: 1 on |s| <= 1/2, 0 on |s| >= 1, monotone in between."""
    s = abs(float(s))
    if s <= 0.5:
        return 1.0
    if s >= 1.0:
        return 0.0
    # Normalized two-sided quotient of exp(-1/t) ramps on the transition band.
    u = (s - 0.5) / 0.5
    rise = math.exp(-1.0 / (1.0 - u))
    fall = math.exp(-1.0 / u)
    return rise / (rise + fall)


@dataclass
class BorelRealization:
    """Realized jet: pieces, bump radii, and the smooth point evaluator."""

    omegas: list
    radii: list
    evaluator: object
    nvars: int

    def plateau_radius(self):
        """Inside this radius every bump equals 1 and f is the plain polynomial."""
        return self.radii[-1] / 2.0 if self.radii else math.inf

    def __call__(self, point):
        return self.evaluator(point)


def _as_point(point, nvars):
    if nvars == 1 and isinstance(point, (int, float)):
        point = [point]
    pt = [float(v) for v in point]
    if len(pt) != nvars:
        raise ValueError(f"point has {len(pt)} coordinates, expected {nvars}")
    if not all(map(math.isfinite, pt)):
        raise ValueError(f"point {pt} has a coordinate that is not finite")
    return pt


def realize_jet(omegas):
    """Build a BorelRealization of the prescribed pieces (deg omega_i = i).

    Radii follow r_i = min(2^-i, 1/(1 + M_i)) with M_i = (sum of absolute
    coefficients of omega_i) * i!, tightened to be strictly decreasing.
    """
    pieces = []
    for i, omega in enumerate(omegas):
        poly = as_poly(omega)
        if not poly.is_homogeneous(i) and not poly.is_zero():
            raise ValueError(f"entry {i} is not homogeneous of degree {i}")
        pieces.append(poly.to_float())
    if not pieces:
        raise ValueError("need at least one prescribed piece")
    nvars = pieces[0].nvars

    radii = []
    prev = 2.0  # so that r_0 <= min(prev/2, ...) starts at 1
    for i, poly in enumerate(pieces):
        coeff_sum = float(sum(abs(c) for c in poly.terms.values()))
        m_i = coeff_sum * math.factorial(i)
        r = min(prev / 2.0, 1.0 / (1.0 + m_i))
        radii.append(r)
        prev = r

    def evaluator(point):
        pt = _as_point(point, nvars)
        norm = math.sqrt(sum(v * v for v in pt))
        total = 0.0
        for poly, r in zip(pieces, radii):
            if poly.is_zero():
                continue
            scale = bump(norm / r)
            if scale != 0.0:
                total += scale * poly.evaluate(pt)
        return total

    return BorelRealization(list(omegas), radii, evaluator, nvars)


def _stencil_weights(k):
    """Exact interpolation weights: row j recovers the s^j coefficient from
    samples at s = -k..k."""
    points = list(range(-k, k + 1))
    size = 2 * k + 1
    vandermonde = RatMatrix([[Fraction(m) ** p for p in range(size)] for m in points])
    inv = vandermonde.inverse()
    return [[float(x) for x in row] for row in inv.rows]


def finite_diff_jet(evaluator, k, h, nvars=None):
    """Approximate Taylor coefficients D^beta f(0)/beta! through order k.

    Central stencils of 2k+1 points per axis (exact for polynomials of degree
    <= 2k, so truncation error vanishes on the bump plateau).  Accepts a bare
    evaluator (pass nvars) or a BorelRealization, in which case the stencil
    is checked against the plateau radius.  Returns a dict mapping exponent
    tuples to coefficients, for all |beta| <= k.  Raises ValueError for a
    step that is not finite and positive or whose k-th power is not a normal
    float (it overflows, or underflows into the subnormal range, where the
    stencil's rounding error divided by h^k swamps the coefficients), and for
    a coefficient that comes out non-finite.

    n = 1 and n = 2 only.
    """
    plateau = None
    if isinstance(evaluator, BorelRealization):
        plateau = evaluator.plateau_radius()
        nvars = evaluator.nvars
        evaluator = evaluator.evaluator
    if nvars is None:
        nvars = 1
    if nvars not in (1, 2):
        raise ValueError("finite differences support one or two variables")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step must be finite and positive, got {h!r}")
    reach = k * h * math.sqrt(nvars)
    if plateau is not None and reach > plateau:
        raise ValueError(
            f"stencil of radius {reach:.3g} exits the bump plateau {plateau:.3g}; "
            "shrink the step")
    try:
        normal = h ** k >= sys.float_info.min
    except OverflowError:
        normal = False
    if not normal:
        raise ValueError(f"step {h!r} to the power {k} is not a normal float")

    weights = _stencil_weights(k)
    points = list(range(-k, k + 1))
    out = {}
    if nvars == 1:
        samples = [evaluator([m * h]) for m in points]
        for j in range(k + 1):
            acc = sum(w * y for w, y in zip(weights[j], samples))
            out[(j,)] = acc / h ** j
    else:
        samples = [[evaluator([m1 * h, m2 * h]) for m2 in points] for m1 in points]
        for u in range(k + 1):
            for v in range(k + 1 - u):
                acc = 0.0
                for i1, w1 in enumerate(weights[u]):
                    if w1 == 0.0:
                        continue
                    row = samples[i1]
                    acc += w1 * sum(w2 * row[i2] for i2, w2 in enumerate(weights[v]))
                out[(u, v)] = acc / h ** (u + v)
    for mono, c in out.items():
        if not math.isfinite(c):
            raise ValueError(f"coefficient {mono} came out {c!r}; choose another step")
    return out

"""Recovery of a shift function's homogeneous components from a jet.

Given a vector field F with flat order p and initial part P, and a map jet h
that is formally a shift along the orbits of F, the components omega_0,
omega_1, ... of the shift function are recovered order by order: at each
step the lowest non-identity slice of the current jet must factor as
P * omega_l, and the jet is pushed back toward the identity by flowing for
time -omega_l.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .errors import InconsistentJetError, NotOnSubgroupError
from .jet import hatted_shift_jet
from .linalg import RatMatrix, solve_exact
from .poly import (EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap, as_poly,
                   mono_mul, monomials_of_degree)


@dataclass
class RecoveryResult:
    """Recovered components omega_l (deg omega_l = l) plus the residual verdict."""

    omegas: list
    residual_ok: bool
    mode: str


def _coord_polys(v):
    if isinstance(v, PolyMap):
        return list(v.coords)
    return [as_poly(q) for q in v]


def divide_by_initial_part(v, p_vec, l=None, tol=None):
    """The unique omega of degree l with P_i * omega = v_i for all coordinates.

    v is the homogeneous degree-(p+l) part of a jet minus the identity; P is
    the initial part of the field.  Solves the linear system in omega's
    coefficients (exactly over rationals, least squares plus a residual check
    in float mode).  Raises InconsistentJetError when v is not of the form
    P * omega.
    """
    v_polys = _coord_polys(v)
    p_polys = _coord_polys(p_vec)
    if len(v_polys) != len(p_polys):
        raise ValueError("coordinate count mismatch between v and P")
    nvars = p_polys[0].nvars
    mode = p_polys[0].mode
    p_deg = max((q.degree() for q in p_polys if not q.is_zero()), default=-1)
    if p_deg < 0:
        raise ValueError("P must be nonzero")
    if l is None:
        v_deg = max((q.degree() for q in v_polys if not q.is_zero()), default=-1)
        if v_deg < 0:
            raise ValueError("cannot infer the target degree from a zero v; pass l")
        l = v_deg - p_deg
    if l < 0:
        raise InconsistentJetError("v has degree below that of P", order=l)

    unknowns = monomials_of_degree(nvars, l)
    targets = monomials_of_degree(nvars, p_deg + l)
    target_index = {m: i for i, m in enumerate(targets)}

    rows = []
    rhs = []
    for p_i, v_i in zip(p_polys, v_polys):
        if not v_i.is_homogeneous(p_deg + l) and not v_i.is_zero():
            raise ValueError(f"v must be homogeneous of degree {p_deg + l}")
        block = [[0] * len(unknowns) for _ in targets]
        for mono_p, c in p_i.terms.items():
            for u_idx, mono_u in enumerate(unknowns):
                block[target_index[mono_mul(mono_p, mono_u)]][u_idx] += c
        rows.extend(block)
        rhs.extend(v_i.coefficient(m) for m in targets)

    if mode == EXACT:
        sol, unique = solve_exact(rows, rhs)
        if sol is None:
            residual = PolyMap(v_polys)
            raise InconsistentJetError(
                f"jet slice of degree {p_deg + l} is not P * omega",
                order=l, residual=residual)
        if not unique:
            raise RuntimeError("initial-part division produced a parametric family; P must be zero")
        omega = MultiPoly(nvars, dict(zip(unknowns, sol)), EXACT)
        return HomogPoly(omega, l)

    import numpy as np

    a = np.array([[float(x) for x in row] for row in rows], dtype=float)
    b = np.array([float(x) for x in rhs], dtype=float)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < len(unknowns):
        raise RuntimeError("initial-part division produced a parametric family; P must be zero")
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    bound = config.residual_tol(tol) * max(1.0, scale)
    resid = float(np.max(np.abs(a @ sol - b))) if b.size else 0.0
    if not resid <= bound:  # a NaN residual is refused too
        raise InconsistentJetError(
            f"jet slice of degree {p_deg + l} is not P * omega "
            f"(float residual {resid:.3e} > {bound:.3e})",
            order=l, residual=resid)
    omega = MultiPoly(nvars, dict(zip(unknowns, sol.tolist())), FLOAT)
    return HomogPoly(omega, l)


def _as_float_rows(m):
    if isinstance(m, RatMatrix):
        return m.to_floats()
    return [[float(x) for x in row] for row in m]


# Step of the coarse scan over the search window.
_SCAN_STEP = 0.01


def delta0_linear(a, l_mat, tol=None):
    """Time t with ||e^{Lt} - A||_F <= tol, preferring the smallest |t|.

    Coarse scan over |t| <= config.DELTA0_WINDOW in steps of 0.01 (iterated
    multiplication by the step matrix), then 1-D Newton on t -> ||e^{Lt} - A||_F^2 at each candidate
    local minimum in order of increasing |t|.  Raises NotOnSubgroupError when
    no candidate reaches the tolerance.
    """
    import numpy as np
    from scipy.linalg import expm

    a_mat = np.array(_as_float_rows(a), dtype=float)
    l_arr = np.array(_as_float_rows(l_mat), dtype=float)
    if not np.any(l_arr):
        raise ValueError("L must be nonzero")
    tol = config.delta0_tol(tol)
    window = config.DELTA0_WINDOW

    def value(t):
        e = expm(l_arr * t)
        d = e - a_mat
        return float(np.sum(d * d))

    nsteps = int(round(window / _SCAN_STEP))
    with np.errstate(over="ignore", invalid="ignore"):
        sides = []
        for step_mat, sign in ((expm(l_arr * _SCAN_STEP), 1), (expm(-l_arr * _SCAN_STEP), -1)):
            side_ts, side_vals = [], []
            cur = np.eye(len(l_arr))
            for i in range(1, nsteps + 1):
                cur = cur @ step_mat
                d = cur - a_mat
                side_ts.append(sign * i * _SCAN_STEP)
                side_vals.append(float(np.sum(d * d)))
            sides.append((side_ts, side_vals))
        (pos_ts, pos_vals), (neg_ts, neg_vals) = sides
        ts = neg_ts[::-1] + [0.0] + pos_ts
        vals = neg_vals[::-1] + [value(0.0)] + pos_vals

    candidates = []
    for i in range(1, len(ts) - 1):
        v = vals[i]
        if not np.isfinite(v):
            continue
        if v <= vals[i - 1] and v <= vals[i + 1]:
            candidates.append((abs(ts[i]), ts[i], v))
    candidates.sort()

    for _, t0, _ in candidates[:200]:
        t = t0
        for _ in range(80):
            e = expm(l_arr * t)
            d = e - a_mat
            le = l_arr @ e
            grad = 2.0 * float(np.sum(le * d))
            hess = 2.0 * float(np.sum(le * le)) + 2.0 * float(np.sum((l_arr @ le) * d))
            if not np.isfinite(grad) or not np.isfinite(hess) or hess <= 0:
                break
            step = -grad / hess
            t += step
            if abs(step) < 1e-15 * max(1.0, abs(t)):
                break
        if abs(t) <= window + _SCAN_STEP and value(t) <= tol * tol:
            return t
    raise NotOnSubgroupError(
        f"no t with |t| <= {window} puts e^(Lt) within {tol} of the target matrix")


def _low_order_junk(diff, upto, bound):
    """First order 1..upto where diff has a slice with a coefficient above bound, else None."""
    for deg in range(1, upto + 1):
        parts = [c.homogeneous_part(deg) for c in diff.coords]
        # `not ... <=` counts a NaN coefficient as junk.
        if not PolyMap([q.poly for q in parts]).max_abs_coeff() <= bound:
            return deg, parts
    return None


def recover_shift_jet(field, h, k, tol=None, delta0_tol=None):
    """Recover omega_0 .. omega_{K-p} with j^K(h) = j^K(x -> Phi(x, sum omega_l)).

    Exact mode yields exact rationals (and requires j^1(h) = id when p = 1);
    float mode uses delta0_linear for the p = 1 time shift and tolerance
    checks elsewhere (``tol`` overrides the residual tolerance,
    ``delta0_tol`` the subgroup matching one).  Raises InconsistentJetError
    (with the failing order) when h is not a formal shift of F,
    NotOnSubgroupError in the float p = 1 case.
    """
    p = field.p
    n = field.n
    mode = field.mode
    if k < p:
        raise ValueError(f"truncation order {k} is below the flat order {p}")
    if h.nvars != n or h.ncoords != n:
        raise ValueError("h must be a square map in the field's variables")
    if h.mode != mode:
        raise ValueError("scalar-mode mismatch")
    if not h.vanishes_at_origin():
        raise ValueError("h must fix the origin")

    ident = PolyMap.identity(n, mode)
    bound = config.residual_tol(tol) if mode == FLOAT else 0
    hl = h.truncate(k)
    omegas = []

    if p == 1:
        if mode == EXACT:
            if hl.linear_part() != ident.linear_part():
                raise ValueError(
                    "exact recovery with p = 1 requires j^1(h) = id; "
                    "normalize the input or use float mode")
            omegas.append(HomogPoly.zero(n, 0, EXACT))
        else:
            t = delta0_linear(hl.linear_part(), field.L, tol=delta0_tol)
            omegas.append(HomogPoly(MultiPoly.const(n, t, FLOAT), 0))
    else:
        junk = _low_order_junk(hl - ident, p - 1, bound)
        if junk is not None:
            raise InconsistentJetError(
                f"jet differs from the identity below the flat order (degree {junk[0]})",
                order=0, residual=junk[1])
        v = [c.homogeneous_part(p) for c in (hl - ident).coords]
        omegas.append(divide_by_initial_part(v, field.P, 0, tol))

    lmax = k - p
    for l in range(lmax + 1):
        hl = hatted_shift_jet(field, hl, -omegas[l].poly, k)
        if l == lmax:
            break
        diff = hl - ident
        junk = _low_order_junk(diff, p + l, bound)
        if junk is not None:
            raise InconsistentJetError(
                f"after removing omega_{l}, the jet still differs from the identity "
                f"at degree {junk[0]} <= p+l", order=l + 1, residual=junk[1])
        v = [c.homogeneous_part(p + l + 1) for c in diff.coords]
        omegas.append(divide_by_initial_part(v, field.P, l + 1, tol))

    return RecoveryResult(omegas, hl.is_identity(k, tol=bound), mode)


def verify_residual(field, h, omegas, k, tol=None):
    """True iff j^K(x -> Phi(h(x), -sum omega_l(x))) is the identity jet."""
    sigma = MultiPoly.zero(field.n, field.mode)
    for omega in omegas:
        sigma = sigma + as_poly(omega)
    mapped = hatted_shift_jet(field, h.truncate(k), -sigma, k)
    bound = config.residual_tol(tol) if field.mode == FLOAT else 0
    return mapped.is_identity(k, tol=bound)

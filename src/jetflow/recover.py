"""Recovery of a shift function's homogeneous components from a jet.

Given a vector field F with flat order p and initial part P, and a map jet h
that is formally a shift x -> Phi(x, sigma(x)) along the orbits of F, the
homogeneous components omega_0, omega_1, ... of sigma are recovered order by
order: with sigma_{l-1} = omega_0 + ... + omega_{l-1}, every slice of
h - Phi(x, sigma_{l-1}) below degree p + l must vanish, and the degree-(p+l)
slice must factor as P * omega_l: in exact mode omega_l is the common
quotient of the slice by P (poly.common_quotient), in float mode a
least-squares solution.

Phi(x, sigma) = x + sum_i v_i sigma^i / i! is evaluated online, in the
manner of relaxed power series (van der Hoeven, "Relax, but don't be too
lazy", J. Symbolic Comput. 34, 2002): each degree slice of each power
sigma^i is computed once, as soon as the omegas it needs are known, and the
degree-(p+l) slice of Phi(x, sigma_{l-1}) is a sum of slice products of
known factors (poly.product_slice).  omega_l enters that degree only through
v_1 sigma = P omega_l + ..., so each order costs one degree of product work
and a whole recovery about as much as one shift jet at order K.  The slice
sizes of h - Phi(x, sigma) come out on the way (RecoveryResult.residuals);
in exact mode a successful division has already proved v = P omega_l, so
that degree's residual is 0 without forming P omega_l again.
Nothing is composed with h, except once in float mode with p = 1: there h
is first moved by the flow for time -omega_0, which leaves a shift function
of order >= 1.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from operator import itemgetter

from . import config
from .errors import InconsistentJetError, NotDivisibleError, NotOnSubgroupError
from .jet import _inv_factorial, hatted_shift_jet
from .linalg import RatMatrix
from .poly import (EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap, as_poly, combine_trunc,
                   common_quotient, mono_mul, monomials_of_degree, product_slice)


@dataclasses.dataclass
class RecoveryResult:
    """Recovered components omega_l (deg omega_l = l) plus the residual verdict.

    residuals[m - 1] is the largest |coefficient| of h - Phi(x, sigma) at
    degree m = 1..K, sigma the sum of the omegas (in float mode with p = 1,
    of Phi(h, -omega_0) - Phi(x, sigma - omega_0)); residual_ok says that
    each lies within the residual tolerance (0 in exact mode).
    """

    omegas: list
    residual_ok: bool
    mode: str
    residuals: list = dataclasses.field(default_factory=list)


def _coord_polys(v):
    if isinstance(v, PolyMap):
        return list(v.coords)
    return [as_poly(q) for q in v]


def divide_by_initial_part(v, p_vec, l=None, tol=None):
    """The unique omega of degree l with P_i * omega = v_i for all coordinates.

    v is the homogeneous degree-(p+l) part of a jet minus the identity; P is
    the initial part of the field.  Exact mode takes omega as the common
    quotient of v by P (poly.common_quotient: one exact division, the other
    coordinates checked by multiplying back).  Float mode solves the stacked
    linear system in omega's coefficients by least squares and checks the
    residual.  Raises InconsistentJetError when v is not of the form
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
    for v_i in v_polys:
        if not v_i.is_homogeneous(p_deg + l):
            raise ValueError(f"v must be homogeneous of degree {p_deg + l}")

    if mode == EXACT:
        try:
            omega = common_quotient(v_polys, p_polys)
        except NotDivisibleError:
            raise InconsistentJetError(
                f"jet slice of degree {p_deg + l} is not P * omega",
                order=l, residual=PolyMap(v_polys)) from None
        return HomogPoly(omega, l)

    import numpy as np

    unknowns = monomials_of_degree(nvars, l)
    targets = monomials_of_degree(nvars, p_deg + l)
    target_index = {m: i for i, m in enumerate(targets)}
    a = np.zeros((len(p_polys) * len(targets), len(unknowns)))
    for block, p_i in enumerate(p_polys):
        offset = block * len(targets)
        for mono_p, c in p_i.terms.items():
            for u_idx, mono_u in enumerate(unknowns):
                a[offset + target_index[mono_mul(mono_p, mono_u)], u_idx] += c
    b = np.array([v_i.coefficient(m) for v_i in v_polys for m in targets], dtype=float)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < len(unknowns):
        raise RuntimeError("initial-part division produced a parametric family; P must be zero")
    bound = config.residual_tol(tol) * max(1.0, float(np.max(np.abs(b))))
    resid = float(np.max(np.abs(a @ sol - b)))
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


def _branches(base, step, n):
    """The first n of base + k step, k = 0, 1, -1, 2, -2, ...: in order of |t|
    when |base| <= |step| / 2 and step points toward 0."""
    return (base + (i + 1) // 2 * (step if i % 2 else -step) for i in range(n))


def delta0_linear(a, l_mat, tol=None):
    """Time t with ||e^{Lt} - A||_F <= tol * max(1, ||A||_F), preferring the smallest |t|.

    Newton starts come from the Schur form L = Q T Q^H: A = e^{Lt} makes
    B = Q^H A Q triangular with B_jj = e^{lambda_j t}, so t = ln|B_jj| / Re
    lambda_j, or t = (arg B_jj + 2 pi k) / Im lambda_j when Re lambda_j = 0,
    for the k that keep |t| <= config.DELTA0_WINDOW (only k = 0 when
    e^{L 2 pi / Im lambda_j} = I).  The eigenvalue with the fewest starts is
    used, and among single ones the largest |B_jj Re lambda_j|, which
    rounding hurts least; a nilpotent L starts from <L, A - I>_F / ||L||_F^2.
    Each start, in order of |t|, is polished by 1-D Newton on
    t -> ||e^{Lt} - A||_F^2, and the first within the tolerance and the
    window is returned.  Raises NotOnSubgroupError, carrying the closest
    polished t and its distance, when none is.  For |t| <= DELTA0_WINDOW = W,
    ||e^{Lt} - A||_F is at least sqrt(sum_j max(0, ||B_jj| - 1| -
    expm1(W |Re lambda_j|))^2); when that floor exceeds the tolerance, only
    the first start is polished before the error is raised.
    """
    import numpy as np
    from scipy.linalg import expm, schur

    a_mat = np.array(_as_float_rows(a), dtype=float)
    l_arr = np.array(_as_float_rows(l_mat), dtype=float)
    if not np.any(l_arr):
        raise ValueError("L must be nonzero")
    tol = config.delta0_tol(tol)
    bound = tol * max(1.0, float(np.linalg.norm(a_mat)))
    window = config.DELTA0_WINDOW

    best_t, best_dist = None, None
    with np.errstate(all="ignore"):
        tri, q = schur(l_arr, output="complex")
        scale = np.linalg.norm(l_arr)
        key, starts = None, [np.sum(l_arr * (a_mat - np.eye(len(l_arr)))) / scale ** 2]
        floor = 0.0
        for lam, mu in zip(np.diag(tri), np.diag(q.conj().T @ a_mat @ q)):
            if np.isfinite(mu):
                # |t| <= window keeps |e^{lambda t}| within expm1(window |Re lambda|) of 1
                floor += max(0.0, abs(abs(mu) - 1) - np.expm1(window * abs(lam.real))) ** 2
            # below 1e-10 ||L||_F an eigenvalue, and below 1e-10 |lambda| a
            # real part, is zero up to rounding
            if abs(lam) <= 1e-10 * scale or not np.isfinite(mu):
                continue
            if abs(lam.real) > 1e-10 * abs(lam):
                ts, lam_key = [np.log(abs(mu)) / lam.real], (1, -abs(mu * lam.real))
            else:
                period = 2 * np.pi / abs(lam.imag)
                base = np.angle(mu) / lam.imag  # the branch nearest 0
                n = int(np.floor((window - base) / period) + np.floor((window + base) / period) + 1)
                # when e^{L period} = I every branch gives the same matrix
                if np.linalg.norm(expm(l_arr * period) - np.eye(len(l_arr))) <= tol:
                    n = min(n, 1)
                ts, lam_key = _branches(base, -period if base >= 0 else period, n), (n, 0.0)
            if key is None or lam_key < key:
                key, starts = lam_key, ts
        if math.sqrt(floor) > bound:
            # no t in the window comes close enough: the first start names the closest
            starts = itertools.islice(starts, 1)

        def distance(u):
            dist = float(np.linalg.norm(expm(l_arr * u) - a_mat))
            return dist if abs(u) <= window and np.isfinite(dist) else math.inf

        for start in map(float, starts):
            t = start
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
            # Newton can run toward t -> -inf from a start that already lies
            # within the bound (an A near the zero matrix): keep the better.
            dist, t = min((distance(t), t), (distance(start), start), key=itemgetter(0))
            if dist == math.inf:
                continue
            if dist <= bound:
                return t
            # distances within the tolerance of each other tie; the smaller |t| wins
            if best_dist is None or dist < best_dist - bound:
                best_t, best_dist = t, dist
    raise NotOnSubgroupError(
        f"no t with |t| <= {window} puts e^(Lt) within {bound:.3g} of the target matrix",
        best_t, best_dist)


def _differs(omegas, l, m, part):
    """The error for h - Phi(x, omega_0 + ... + omega_{l-1}) off by ``part`` at
    degree m < p + l, found at order l."""
    where = (f"from the shift by omega_0..omega_{l - 1} at degree {m} < p+{l}"
             if omegas else f"from the identity below the flat order (degree {m})")
    return InconsistentJetError(f"jet differs {where}", order=l, residual=part)


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

    bound = config.residual_tol(tol) if mode == FLOAT else 0
    hl = h.truncate(k)
    omegas = []

    if p == 1:
        if mode == EXACT:
            if hl.linear_part() != PolyMap.identity(n, mode).linear_part():
                raise ValueError(
                    "exact recovery with p = 1 requires j^1(h) = id; "
                    "normalize the input or use float mode")
        else:
            t = delta0_linear(hl.linear_part(), field.L, tol=delta0_tol)
            omegas.append(HomogPoly(MultiPoly.const(n, t, FLOAT), 0))
            # The one composition with h: Phi(h, -t) is the shift by the
            # rest of the shift function, which has order >= 1.
            hl = hatted_shift_jet(field, hl, -omegas[0].poly, k)

    first = len(omegas)
    # the slices of h - x by degree, 0..K
    hx = list(zip(*(c.graded_parts(k) for c in (hl - PolyMap.identity(n, mode)).coords)))
    # residuals[m - 1] is max |h - Phi(x, sigma)| at degree m.  A degree
    # below K above the bound is refused at the order that first sees it.
    residuals = []
    for m in range(1, p + first):
        part = PolyMap(hx[m])
        residuals.append(part.max_abs_coeff())
        if m < k and not residuals[-1] <= bound:  # a NaN is refused too
            raise _differs(omegas, first, m, part)

    # pows[1] is sigma = omega_first + ... + omega_{l-1}, of order ``order``
    # (>= 1 when p = 1); pows[i] holds sigma^i through degree known[i].
    # Phi(x, sigma) - x = sum_i v_i sigma^i / i! and v_i has order
    # >= i(p-1) + 1, so only the terms with i(p-1) + 1 + i * order <= d reach
    # degree d, and they need sigma^i only through degree d - i(p-1) - 1:
    # omega_l is missing there only for i = 1, where it contributes P omega_l.
    # As d <= K, no i past (K - 1) // max(p - 1, 1) is reached.
    vs = field.flow_coeffs((k - 1) // max(p - 1, 1), k)
    pows, known, order = [None, MultiPoly.zero(n, mode)], [None, None], math.inf
    for l in range(first, k - p + 1):
        d = p + l
        terms = [[(1, part)] for part in hx[d]]
        i = 1
        while i * (p - 1 + order) < d:
            if i == len(pows):
                pows.append(MultiPoly.zero(n, mode))
                known.append(i * order - 1)
            while i > 1 and known[i] < d - i * (p - 1) - 1:
                known[i] += 1
                step = product_slice(pows[i - 1], pows[1], known[i], k)
                pows[i] = combine_trunc(n, mode, [(1, pows[i]), (1, step)], k)
            inv_fact = -_inv_factorial(i, mode)
            for pairs, v_ij in zip(terms, vs[i - 1].coords):
                pairs.append((inv_fact, product_slice(v_ij, pows[i], d, k)))
            i += 1
        v = PolyMap([combine_trunc(n, mode, pairs, k) for pairs in terms])
        omegas.append(divide_by_initial_part(v, field.P, l, tol))
        omega = omegas[l].poly
        if mode == EXACT:
            # the division proved v = P * omega_l: h - Phi(x, sigma + omega_l)
            # vanishes at degree d
            residuals.append(Fraction(0))
        else:
            # the degree-d slice of h - Phi(x, sigma + omega_l)
            rest = PolyMap([
                combine_trunc(n, mode, [(1, v_j), (-1, product_slice(q.poly, omega, d, k))], k)
                for v_j, q in zip(v.coords, field.P)])
            residuals.append(rest.max_abs_coeff())
            if d < k and not residuals[-1] <= bound:
                raise _differs(omegas, l + 1, d, rest)
        if not omega.is_zero():
            pows[1] = pows[1] + omega
            order = min(order, l)

    return RecoveryResult(omegas, all(r <= bound for r in residuals), mode, residuals)


def verify_residual(field, h, omegas, k, tol=None):
    """True iff j^K(x -> Phi(h(x), -sum omega_l(x))) is the identity jet."""
    sigma = MultiPoly.zero(field.n, field.mode)
    for omega in omegas:
        sigma = sigma + as_poly(omega)
    mapped = hatted_shift_jet(field, h.truncate(k), -sigma, k)
    bound = config.residual_tol(tol) if field.mode == FLOAT else 0
    return mapped.is_identity(k, tol=bound)

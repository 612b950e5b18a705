"""Recovery of a shift function's homogeneous components from a jet.

Given a vector field F with flat order p and a map jet h that is formally a
shift x -> Phi(x, c + sigma(x)) along the orbits of F, the homogeneous
components omega_0, omega_1, ... of c + sigma are recovered order by order.
c = omega_0 is delta0_linear's time in float mode with p = 1, where sigma
starts at omega_1, and c = 0 otherwise.  Phi(x, c + sigma) =
sum_i w_i sigma^i / i! over the field's flow series w_0 = Phi_c,
w_{i+1} = (F . grad) w_i (VectorFieldJet.flow_series; at c = 0, w_0 = x and
w_i = v_i), the identity that jet.hatted_shift_jet sums, so nothing is
composed with h.  With sigma_{l-1} the omegas found so far, every slice of
h - Phi(x, c + sigma_{l-1}) below degree p + l must vanish, and the
degree-(p+l) slice must factor as D omega_l, D the degree-p slice of w_1
(the initial part P at c = 0): in exact mode omega_l is the common quotient
(poly.common_quotient), in float mode a least-squares solution.  Float
mode's matrix steps, here and in delta0_linear, run on floatlinalg's
plain-Python linear algebra.

The sum is evaluated online, in the manner of relaxed power series (van der
Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002): each
degree slice of each power sigma^i is computed once, as soon as the omegas
it needs are known, and sigma^i grows by appending it (poly.append_above).
The degree-(p+l) slice of h - Phi(x, c + sigma_{l-1}) is one
poly.combine_trunc per coordinate over known factors, (1, h), (-1, w_0) and
(-1/i!, w_i, sigma^i), h and w_0 cut to that degree.  At c = 0 each w_i is
read from the field's cache only once a slice needs it; otherwise the list
is built once.  omega_l enters that degree only as D omega_l, so a whole
recovery costs about as much as one shift jet at order K.  The slice sizes
of h - Phi(x, sigma) come out on the way (RecoveryResult.residuals): 0 in
exact mode, where the division proved the slice is D omega_l, and one more
combine_trunc per coordinate in float mode.
Float mode first tests each slice v against its own rounding: with S the
sum of |c| max|a| max|b| over the terms (c, a, b) of every coordinate's sum
(max|b| = 1 where b is omitted), a slice with max|v| <= min(tol, 64 u S),
u = 2**-52, is rounding of a zero omega_l (a running error bound: Higham,
"Accuracy and Stability of Numerical Algorithms", 2nd ed., 3.3).  omega_l
is then the zero polynomial, sigma and its powers stay as they are, and that
degree's residual is max|v|; so an omega that is zero in truth comes back
empty and keeps the later slices sparse.  Every max is a running value,
taken once per operand as read or per slice appended to sigma^i.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
from fractions import Fraction
from operator import add, itemgetter, mul

from . import config
from .errors import InconsistentJetError, NotDivisibleError, NotOnSubgroupError
from .jet import _inv_factorial, hatted_shift_jet
from .linalg import RatMatrix
from .poly import (EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap, append_above, as_poly,
                   combine_trunc, common_quotient, max_abs, monomials_of_degree)

# A float slice of h - Phi(x, sigma) within _GAMMA * _U times the sum of
# |c| max|a| max|b| over its products is rounding (see the module docstring).
_GAMMA = 64
_U = 2.0 ** -52


@dataclasses.dataclass
class RecoveryResult:
    """Recovered components omega_l (deg omega_l = l) plus the residual verdict.

    residuals[m - 1] is the largest |coefficient| of h - Phi(x, sigma) at
    degree m = 1..K, sigma the sum of the omegas; residual_ok says that each
    lies within the residual tolerance (0 in exact mode).  A float
    omega_l whose slice lay within its own rounding (see the module
    docstring) is the zero polynomial, and residuals[p + l - 1] is then the
    size of that slice.
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

    v is a homogeneous degree-(p+l) slice of a jet minus a shift; P is the
    initial part of the field, or any vector of degree-p forms (recovery
    passes the degree-p slice of w_1).  Exact mode takes omega as the common
    quotient of v by P (poly.common_quotient: one exact division, the other
    coordinates checked by multiplying back).  Float mode solves the stacked
    linear system in omega's coefficients by least squares (Householder QR
    with column pivoting, floatlinalg.least_squares) and checks the
    residual; a system of numerical rank below omega's term count raises
    RuntimeError.  Raises InconsistentJetError when v is not of the form
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

    from .floatlinalg import least_squares

    unknowns = monomials_of_degree(nvars, l)
    targets = monomials_of_degree(nvars, p_deg + l)
    target_index = {m: i for i, m in enumerate(targets)}
    a = [[0.0] * len(unknowns) for _ in range(len(p_polys) * len(targets))]
    for block, p_i in enumerate(p_polys):
        offset = block * len(targets)
        for mono_p, c in p_i.terms.items():
            for u_idx, mono_u in enumerate(unknowns):
                a[offset + target_index[tuple(map(add, mono_p, mono_u))]][u_idx] += c
    b = [float(v_i.coefficient(m)) for v_i in v_polys for m in targets]
    sol = least_squares(a, [b])
    if sol is None:
        raise RuntimeError("initial-part division produced a parametric family; P must be zero")
    sol = sol[0]
    bound = config.residual_tol(tol) * max(1.0, max_abs(b))
    resid = max_abs(sum(map(mul, row, sol)) - b_i for row, b_i in zip(a, b))
    if not resid <= bound:  # a NaN residual is refused too
        raise InconsistentJetError(
            f"jet slice of degree {p_deg + l} is not P * omega "
            f"(float residual {resid:.3e} > {bound:.3e})",
            order=l, residual=resid)
    omega = MultiPoly(nvars, dict(zip(unknowns, sol)), FLOAT)
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

    Newton starts come from the complex Schur form L = Q T Q^H
    (floatlinalg.schur): A = e^{Lt} makes B = Q^H A Q triangular with B_jj =
    e^{lambda_j t}, so t = ln|B_jj| / Re lambda_j, or t = (arg B_jj + 2 pi k) /
    Im lambda_j when Re lambda_j = 0, for the k that keep |t| <=
    config.DELTA0_WINDOW (only k = 0 when e^{L 2 pi / Im lambda_j} = I).  The
    eigenvalue with the fewest starts is used, and among single ones the
    largest |B_jj Re lambda_j|, which rounding hurts least.  A nilpotent L
    makes A unipotent, and its start is <L, log A>_F / ||L||_F^2 with log A
    the finite series sum_{k<n} (-1)^(k+1) (A - I)^k / k.  Each start, in
    order of |t|, is polished by 1-D Newton on t -> ||e^{Lt} - A||_F^2, and the
    first within the tolerance and the window is returned.  Raises
    NotOnSubgroupError, carrying the closest polished t and its distance,
    when none is.  For |t| <= DELTA0_WINDOW = W, ||e^{Lt} - A||_F is at least
    sqrt(sum_j max(0, ||B_jj| - 1| - expm1(W |Re lambda_j|))^2); when that
    floor exceeds the tolerance, only the first start is polished before
    the error is raised.

    Newton runs in the Schur basis, where ||e^{Lt} - A||_F = ||e^{Tt} - B||_F
    and e^{Tt} is triangular (floatlinalg.expm_upper), with entries only
    where T has a path of nonzero entries: a diagonal T, as a normal L often
    gives, makes e^{Tt} the exponentials of its diagonal.  Each start takes
    one e^{Tt}, and a Newton step s advances it to e^{Ts} e^{Tt}.
    """
    from .floatlinalg import expm_upper, log_unipotent, matmul, norm, schur, upper_mul

    a_rows = _as_float_rows(a)
    l_rows = _as_float_rows(l_mat)
    if not any(map(any, l_rows)):
        raise ValueError("L must be nonzero")
    tol = config.delta0_tol(tol)
    bound = tol * max(1.0, norm(a_rows))
    window = config.DELTA0_WINDOW
    n = len(l_rows)

    dense, q = schur(l_rows)
    tri = [{j: z for j, z in enumerate(row) if z} for row in dense]
    b = matmul(matmul([[z.conjugate() for z in col] for col in zip(*q)], a_rows), q)
    scale = norm(l_rows)
    key, starts, floor = None, None, 0.0
    for j in range(n):
        lam, mu = dense[j][j], b[j][j]
        if cmath.isfinite(mu):
            # |t| <= window keeps |e^{lambda t}| within expm1(window |Re lambda|) of 1
            reach = window * abs(lam.real)
            gap = max(0.0, abs(abs(mu) - 1) - (math.expm1(reach) if reach < 709 else math.inf))
            floor += gap * gap
        # below 1e-10 ||L||_F an eigenvalue, and below 1e-10 |lambda| a
        # real part, is zero up to rounding
        if abs(lam) <= 1e-10 * scale or not cmath.isfinite(mu):
            continue
        if abs(lam.real) > 1e-10 * abs(lam):
            ts = [(math.log(abs(mu)) if mu else -math.inf) / lam.real]
            lam_key = (1, -abs(mu * lam.real))
        else:
            period = 2 * math.pi / abs(lam.imag)
            base = cmath.phase(mu) / lam.imag  # the branch nearest 0
            count = math.floor((window - base) / period) + math.floor((window + base) / period) + 1
            # when e^{L period} = I every branch gives the same matrix
            turn = expm_upper(tri, period)
            if norm([[row.get(j, 0) - (i == j) for j in range(n)]
                     for i, row in enumerate(turn)]) <= tol:
                count = min(count, 1)
            ts, lam_key = _branches(base, -period if base >= 0 else period, count), (count, 0.0)
        if key is None or lam_key < key:
            key, starts = lam_key, ts
    if key is None:
        # L is nilpotent, so A = e^{Lt} is unipotent and log A = tL
        log_a = log_unipotent(a_rows)
        starts = [sum(map(mul, itertools.chain(*l_rows), itertools.chain(*log_a))) / scale / scale]
    if math.sqrt(floor) > bound:
        # no t in the window comes close enough: the first start names the closest
        starts = itertools.islice(starts, 1)

    def minus_b(x):
        return [[row.get(j, 0) - v for j, v in enumerate(b_row)] for row, b_row in zip(x, b)]

    def distance(d, u):
        # ||d||_F at time u, infinite outside the window
        dist = norm(d)
        return dist if abs(u) <= window and math.isfinite(dist) else math.inf

    def inner(x, d):
        # Re <x, d>_F over the entries of x
        return sum((z.conjugate() * d_row[j]).real
                   for row, d_row in zip(x, d) for j, z in row.items())

    best_t, best_dist = None, None
    for start in map(float, starts):
        t = start
        x = expm_upper(tri, t)
        d = minus_b(x)
        first = distance(d, t)
        for _ in range(80):
            tx = upper_mul(tri, x)
            grad = 2.0 * inner(tx, d)
            hess = 2.0 * sum((z.conjugate() * z).real for row in tx for z in row.values())
            hess += 2.0 * inner(upper_mul(tri, tx), d)
            if not math.isfinite(grad) or not math.isfinite(hess) or hess <= 0:
                break
            step = -grad / hess
            t += step
            x = upper_mul(x, expm_upper(tri, step))
            d = minus_b(x)
            if abs(step) < 1e-15 * max(1.0, abs(t)):
                break
        # Newton can run toward t -> -inf from a start that already lies
        # within the bound (an A near the zero matrix): keep the better.
        dist, t = min((distance(d, t), t), (first, start), key=itemgetter(0))
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


def recover_shift_jet(field, h, k, tol=None, delta0_tol=None):
    """Recover omega_0 .. omega_{K-p} with j^K(h) = j^K(x -> Phi(x, sum omega_l)).

    Exact mode yields exact rationals (and requires j^1(h) = id when p = 1);
    float mode uses delta0_linear for the p = 1 time shift and tolerance
    checks elsewhere (``tol`` overrides the residual tolerance,
    ``delta0_tol`` the subgroup matching one).  One pass over d = 1..K
    divides each slice that carries an omega_{d-p} and records the largest
    coefficient of h - Phi(x, sigma) at degree d in ``residuals``.  A degree
    below K above the bound raises InconsistentJetError, whose order counts
    the omegas found; float p = 1 may raise NotOnSubgroupError.
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
    omegas, c = [], 0
    if p == 1 and mode == EXACT:
        if hl.linear_part() != PolyMap.identity(n, mode).linear_part():
            raise ValueError(
                "exact recovery with p = 1 requires j^1(h) = id; "
                "normalize the input or use float mode")
    elif p == 1:
        # h = Phi(x, c + sigma), sigma the omegas from omega_1 on, of order >= 1
        c = delta0_linear(hl.linear_part(), field.L, tol=delta0_tol)
        omegas.append(HomogPoly(MultiPoly.const(n, c, FLOAT), 0))

    first = len(omegas)
    # ws[i] is w_i, with Phi(x, c + sigma) = sum_i w_i sigma^i / i!.  At c = 0
    # it is read from the field's cache only as far as some degree reaches;
    # otherwise every w_i that can reach degree K (i <= K - 1) is built at once.
    ws = field.flow_series(c, max(k - 1, 1) if c else 1, k)
    # each slice is divided by the degree-p slice of w_1: P at c = 0
    divisor = [q.homogeneous_part(p) for q in ws[1].coords]
    # every coordinate's sum starts with (1, h_j) and (-1, w_0j), which
    # combine_trunc cuts to the degree it forms
    base = [((1, a), (-1, b)) for a, b in zip(hl.coords, ws[0].coords)]
    # residuals[d - 1] is max |h - Phi(x, sigma)| at degree d, sigma taken
    # through omega_{d-p} where degree d has one.  A degree below K above the
    # bound is refused at the order that first sees it.
    residuals = []
    # pows[1] is sigma = omega_first + ... + omega_{l-1}, of order ``order``;
    # pows[i] holds sigma^i through degree known[i].  w_i has order
    # >= i(p-1) + 1, so only the terms with i(p-1) + 1 + i * order <= d reach
    # degree d, and they need sigma^i only through degree d - i(p-1) - 1:
    # omega_l is missing there only for i = 1, where it contributes
    # divisor * omega_l.  minus_inv_fact[i] is -1/i!.
    pows, known, order = [None, MultiPoly.zero(n, mode)], [None, None], math.inf
    minus_inv_fact = [-_inv_factorial(i, mode) for i in range(k + 1)]
    # Float mode only: w_max[i] is the sum over coordinates of max |w_i|.
    floating = mode == FLOAT
    w_max = []
    for d in range(1, k + 1):
        l = d - p
        terms = [list(pair) for pair in base]
        # sum |c| max|a| max|b| over the terms of every coordinate's sum
        scale = sum(q.homogeneous_part(d).poly.max_abs_coeff()
                    for f in (hl, ws[0]) for q in f.coords) if floating and l >= first else 0
        i = 1
        while i * (p - 1 + order) < d:
            if i == len(pows):
                pows.append(MultiPoly.zero(n, mode))
                known.append(i * order - 1)
            while i > 1 and known[i] < d - i * (p - 1) - 1:
                known[i] += 1
                step = combine_trunc(n, mode, [(1, pows[i - 1], pows[1])], known[i], known[i], k)
                pows[i] = append_above(pows[i], step, k)
            if i == len(ws):
                ws = field.flow_series(c, i, k)
            for coord, w_ij in zip(terms, ws[i].coords):
                coord.append((minus_inv_fact[i], w_ij, pows[i]))
            if floating:
                w_max += [sum(q.max_abs_coeff() for q in w.coords) for w in ws[len(w_max):]]
                scale -= minus_inv_fact[i] * w_max[i] * pows[i].max_abs_coeff()
            i += 1
        # the degree-d slice of h - Phi(x, sigma), one sum per coordinate
        v = PolyMap([combine_trunc(n, mode, coord, d, d, k) for coord in terms])
        if l >= first:  # below the first omega, v itself is the residual
            if floating and (size := v.max_abs_coeff()) <= bound and size <= _GAMMA * _U * scale:
                # v is rounding: omega_l is zero, and sigma and its powers stay
                omegas.append(HomogPoly.zero(n, l, FLOAT))
                residuals.append(size)
                continue
            omegas.append(divide_by_initial_part(v, divisor, l, tol))
            omega = omegas[l].poly
            if not omega.is_zero():
                pows[1] = append_above(pows[1], omega, k)
                order = min(order, l)
            if not floating:
                # the division proved v = divisor * omega_l: h - Phi(x, sigma +
                # omega_l) vanishes at degree d
                residuals.append(Fraction(0))
                continue
            # the residual: the degree-d slice of h - Phi(x, sigma + omega_l)
            v = PolyMap([combine_trunc(n, mode, [(1, v_j), (-1, q.poly, omega)], d, d, k)
                         for v_j, q in zip(v.coords, divisor)])
        residuals.append(v.max_abs_coeff())
        if d < k and not residuals[-1] <= bound:  # a NaN is refused too
            where = (f"from the shift by omega_0..omega_{len(omegas) - 1} at degree {d} "
                     f"< p+{len(omegas)}" if omegas
                     else f"from the identity below the flat order (degree {d})")
            raise InconsistentJetError(f"jet differs {where}", order=len(omegas), residual=v)

    return RecoveryResult(omegas, all(r <= bound for r in residuals), mode, residuals)


def verify_residual(field, h, omegas, k, tol=None):
    """True iff j^K(x -> Phi(h(x), -sum omega_l(x))) is the identity jet."""
    minus_sigma = combine_trunc(field.n, field.mode, [(-1, as_poly(omega)) for omega in omegas], k)
    mapped = hatted_shift_jet(field, h.truncate(k), minus_sigma, k)
    bound = config.residual_tol(tol) if field.mode == FLOAT else 0
    return mapped.is_identity(k, tol=bound)

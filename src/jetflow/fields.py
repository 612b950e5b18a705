"""Vector-field constructions and algebraic checks.

Cross-products of gradients, planar reduced Hamiltonian fields, the
non-divisibility test on initial parts, stabilizer tangent spaces, the
classification of one-parameter subgroups {e^{Lt}}, and root/multiplicity
profiles of binary forms.  Everything here runs in exact mode; real-root
counting uses Sturm sequences over rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import isqrt

from . import univar
from .errors import NoSuchFactorError, NotDivisibleError
from .linalg import RatMatrix, minimal_polynomial, nullspace, rref
from .poly import (EXACT, HomogPoly, MultiPoly, PolyMap, as_poly,
                   bivariate_homog_gcd, common_quotient, dehomogenize, divide_exact)


@dataclass
class StarReport:
    """Result of the non-divisibility check on a field's initial part."""

    p: int
    P: list
    nondivisible: str  # "yes" | "no" | "unknown"
    witness: HomogPoly | None = None


@dataclass
class ExpSubgroupClass:
    """Classification of {e^{Lt}} inside GL(n, R)."""

    tag: str  # ClosedLine | Circle | DenseLine | Trivial | Undetermined
    evidence: dict = dc_field(default_factory=dict)


def _poly_det(rows):
    """Determinant of a square matrix of MultiPoly, by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = rows[0][j] * _poly_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def cross_product_field(funcs):
    """The cross-product of the gradients of n-1 functions in n variables.

    Coordinate j carries the sign (-1)^(n+j) (1-based j) times the minor of
    the gradient matrix with column j removed, matching the planar Hamiltonian
    convention (-g_y, g_x).
    """
    funcs = [as_poly(g) for g in funcs]
    if not funcs:
        raise ValueError("need at least one function")
    n = funcs[0].nvars
    if len(funcs) != n - 1:
        raise ValueError(f"need exactly {n - 1} functions in {n} variables, got {len(funcs)}")
    grad = [[g.partial(j) for j in range(n)] for g in funcs]
    coords = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in grad]
        det = _poly_det(minor)
        if (n + j + 1) % 2 == 1:
            det = -det
        coords.append(det)
    return PolyMap(coords)


def reduced_hamiltonian(g):
    """(D, F): the GCD of the partials of a planar homogeneous g, and the
    reduced Hamiltonian field (-g_y/D, g_x/D) normalized to pair content 1.

    deg F = deg g - 1 - deg D.
    """
    poly = as_poly(g)
    if poly.nvars != 2:
        raise ValueError("reduced Hamiltonian fields are planar (two variables)")
    if not poly.is_homogeneous():
        raise ValueError("g must be homogeneous")
    gx = poly.partial(0)
    gy = poly.partial(1)
    if gx.is_zero() and gy.is_zero():
        raise ValueError("g has zero gradient (constant)")
    d = bivariate_homog_gcd(gx, gy)
    a = divide_exact(gx, d.poly)
    b = divide_exact(gy, d.poly)
    inv = 1 / univar.content([*a.terms.values(), *b.terms.values()])
    return d, PolyMap([(-b).scale(inv), a.scale(inv)])


def check_star(vf):
    """Non-divisibility report for the initial part of a VectorFieldJet.

    Decided exactly for n <= 2 via the coordinate GCD (nondivisible iff the
    GCD is constant); "unknown" for n >= 3.
    """
    p_vec = vf.P
    if vf.n >= 3:
        return StarReport(vf.p, p_vec, "unknown")
    if vf.n == 1:
        # P = c x^p with p >= 1, so x^p is a common factor.
        witness = MultiPoly(1, {(vf.p,): 1}, EXACT)
        return StarReport(vf.p, p_vec, "no", HomogPoly(witness, vf.p))
    gcd = bivariate_homog_gcd(*p_vec)
    if gcd.degree == 0:
        return StarReport(vf.p, p_vec, "yes")
    return StarReport(vf.p, p_vec, "no", gcd)


def verify_integral_representation(vf, funcs):
    """The polynomial eta with eta * F = cross_product_field(funcs).

    Raises NoSuchFactorError when no such eta exists.
    """
    h = cross_product_field(funcs)
    if h.nvars != vf.n:
        raise ValueError("dimension mismatch")
    try:
        return common_quotient(h.coords, vf.field.coords)
    except NotDivisibleError as exc:
        raise NoSuchFactorError(str(exc)) from exc


def gradients_independent_sampled(funcs):
    """Probabilistic check that the gradients are independent somewhere.

    Evaluates the gradient matrix at the five cyclic shifts of the rational
    point (1, 2, -3, 5/2, -7/3), cut to n coordinates, and reports whether
    full rank n-1 is ever attained.  Advisory only.
    """
    funcs = [as_poly(g) for g in funcs]
    n = funcs[0].nvars
    base = [Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(-7, 3)]
    grads = [[g.partial(j) for j in range(n)] for g in funcs]
    for shift in range(len(base)):
        point = [base[(i + shift) % len(base)] for i in range(n)]
        rows = [[entry.evaluate(point) for entry in row] for row in grads]
        _, pivots = rref(rows)
        if len(pivots) == n - 1:
            return True
    return False


def stabilizer_tangent(funcs):
    """Basis of {V : <grad G_i(x), V x> = 0 for all i}, as RatMatrix list.

    Expands each pairing into a polynomial whose coefficients are linear in
    the n^2 entries of V and returns the exact nullspace (canonical RREF
    basis).
    """
    funcs = [as_poly(g) for g in funcs]
    if not funcs:
        raise ValueError("need at least one function")
    n = funcs[0].nvars
    constraint_rows = {}
    for g_idx, g in enumerate(funcs):
        for a in range(n):
            ga = g.partial(a)
            if ga.is_zero():
                continue
            for b in range(n):
                xb = MultiPoly.variable(n, b, g.mode)
                prod = ga * xb
                for mono, coeff in prod.terms.items():
                    row = constraint_rows.setdefault((g_idx, mono), [Fraction(0)] * (n * n))
                    row[a * n + b] += coeff
    basis_vecs = nullspace(list(constraint_rows.values()), n * n)
    return [RatMatrix([vec[i * n:(i + 1) * n] for i in range(n)]) for vec in basis_vecs]


def _is_rational_square(q):
    """Whether a positive rational is the square of a rational."""
    num, den = q.numerator, q.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def classify_exp_subgroup(l_mat):
    """Classify {e^{Lt}}: Trivial, ClosedLine, Circle, DenseLine, Undetermined.

    Decisions are exact: the minimal polynomial of L over the rationals is
    tested for squarefreeness and for purely imaginary spectrum (Sturm
    counting on the substituted polynomial); a semisimple purely-imaginary L
    gives a circle iff the frequency ratios are rational, which is decidable
    when the substituted polynomial splits into rational roots.
    """
    if l_mat.is_zero():
        return ExpSubgroupClass("Trivial", {"min_poly": [Fraction(0), Fraction(1)]})
    m = minimal_polynomial(l_mat)
    evidence = {"min_poly": list(m)}
    if univar.degree(univar.gcd(m, univar.derivative(m))) > 0:
        evidence["reason"] = "minimal polynomial not squarefree"
        return ExpSubgroupClass("ClosedLine", evidence)
    # Extract the (at most simple) root at zero.
    eps = 0
    q = list(m)
    if q[0] == 0:
        eps = 1
        q = q[1:]
    evidence["zero_eigenvalue"] = bool(eps)
    # Roots of a real polynomial closed under negation force even support.
    if any(c != 0 for i, c in enumerate(q) if i % 2 == 1):
        evidence["reason"] = "spectrum not symmetric under negation (roots off the imaginary axis)"
        return ExpSubgroupClass("ClosedLine", evidence)
    s = [q[2 * i] for i in range((len(q) + 1) // 2)]
    deg_s = univar.degree(s)
    negatives = univar.count_real_roots(s, None, Fraction(0))
    if negatives < deg_s:
        evidence["reason"] = "eigenvalues off the imaginary axis"
        return ExpSubgroupClass("ClosedLine", evidence)
    # All eigenvalues are now 0 or +-i*sqrt(c) with s(-c) = 0, c > 0.
    roots = univar.rational_roots(s)
    cs = sorted(-r for r in roots)
    evidence["frequency_squares"] = cs
    if len(roots) < deg_s:
        evidence["reason"] = "irrational purely-imaginary frequencies"
        return ExpSubgroupClass("Undetermined", evidence)
    base = cs[0]
    if all(_is_rational_square(c / base) for c in cs[1:]):
        return ExpSubgroupClass("Circle", evidence)
    return ExpSubgroupClass("DenseLine", evidence)


@dataclass
class BinaryFormProfile:
    """Distinct-factor counts of a binary form: l linear, q definite quadratic."""

    l: int
    q: int
    multiplicities: dict  # multiplicity -> (real linear factors, definite quadratics)


def binary_form_profile(g):
    """(l, q, multiplicity data) for a nonzero binary form.

    l counts distinct real linear factors over R (Sturm count of the
    squarefree dehomogenization plus the factor at infinity when x divides
    g); q counts distinct definite quadratic factors.  Also verifies the
    degree formula deg(reduced field) = l + 2q - 1 when g is nonconstant.
    """
    poly = as_poly(g)
    if poly.nvars != 2:
        raise ValueError("binary forms have two variables")
    if poly.is_zero():
        raise ValueError("g must be nonzero")
    if not poly.is_homogeneous():
        raise ValueError("g must be homogeneous")
    # Dehomogenize at x = 1; the x factor escapes to infinity.
    u = dehomogenize(poly, 1)
    x_mult = poly.degree() - univar.degree(u)

    # The Yun factors are pairwise coprime and multiply to the squarefree
    # part of u, so the distinct-root counts add up over them.
    l = 1 if x_mult >= 1 else 0
    q = 0
    mult = {}
    for k, factor in univar.squarefree_decomposition(u):
        lin = univar.count_real_roots(factor)
        quad, parity = divmod(univar.degree(factor) - lin, 2)
        if parity:
            raise RuntimeError("odd count of non-real roots; Sturm bookkeeping broke")
        l += lin
        q += quad
        if lin or quad:
            mult[k] = (lin, quad)
    if x_mult >= 1:
        lin, quad = mult.get(x_mult, (0, 0))
        mult[x_mult] = (lin + 1, quad)

    if poly.degree() >= 1:
        _, reduced = reduced_hamiltonian(poly)
        deg_f = max(c.degree() for c in reduced.coords)
        if deg_f != l + 2 * q - 1:
            raise RuntimeError(
                f"degree formula violated: reduced field degree {deg_f} != {l} + 2*{q} - 1")
    return BinaryFormProfile(l, q, mult)

"""The exact kernel, the univariate routines (rational and real roots,
squarefree decomposition) and minimal polynomials against sympy, float
products against a schoolbook loop, recovery against closed-form flows, and
the time shift delta0 and the float time-c flow against scipy's matrix
exponential.

Inputs come from hypothesis (derandomized, so every run checks the same
examples); answers come from sympy's own polynomial arithmetic over QQ, or
from closed forms.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

from jetflow import (VectorFieldJet, flow_time_jet, hatted_shift_jet, recover_shift_jet,
                     shift_jet)
from jetflow.config import DELTA0_TOL
from jetflow.errors import InconsistentJetError, NotDivisibleError
from jetflow.fields import binary_form_profile, check_star, reduced_hamiltonian
from jetflow.linalg import RatMatrix, minimal_polynomial
from jetflow.poly import (EXACT, FLOAT, MultiPoly, PolyMap, bivariate_homog_gcd,
                          combine_trunc, common_quotient, compose, divide_exact,
                          monomials_of_degree)
from jetflow.recover import delta0_linear, divide_by_initial_part
from jetflow.univar import count_real_roots, rational_roots, squarefree_decomposition

ORACLE = settings(max_examples=40, deadline=None, derandomize=True)

COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def monos(nvars, max_deg, min_deg=0):
    return st.sampled_from([m for d in range(min_deg, max_deg + 1)
                            for m in monomials_of_degree(nvars, d)])


def polys(nvars, max_deg=5, min_deg=0, max_terms=8, coeffs=COEFFS, mode=EXACT):
    """Sparse polynomials, the empty and the constant ones included."""
    terms = st.dictionaries(monos(nvars, max_deg, min_deg), coeffs, max_size=max_terms)
    return terms.map(lambda t: MultiPoly(nvars, t, mode))


@st.composite
def poly_pairs(draw, **kwargs):
    nvars = draw(st.integers(1, 3))
    return draw(polys(nvars, **kwargs)), draw(polys(nvars, **kwargs))


def gens(nvars):
    return sympy.symbols(f"x0:{nvars}")


def to_sympy(p):
    terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, gens(p.nvars), domain=sympy.QQ)


def from_sympy(sp, nvars, k=None):
    """Tuple-keyed Fraction terms of a sympy Poly, truncated to degree <= k."""
    return {m: Fraction(int(c.p), int(c.q)) for m, c in sp.as_dict().items()
            if c != 0 and (k is None or sum(m) <= k)}


@ORACLE
@given(pair=poly_pairs(), k=st.integers(-1, 12))
@example(pair=(MultiPoly.zero(2), MultiPoly.const(2, 3)), k=4)
@example(pair=(MultiPoly.const(1, Fraction(1, 2)), MultiPoly.const(1, 2)), k=0)
@example(pair=(MultiPoly.variable(3, 2), MultiPoly.variable(3, 0)), k=-1)
def test_mul_trunc_matches_sympy(pair, k):
    a, b = pair
    expected = from_sympy(to_sympy(a) * to_sympy(b), a.nvars, k)
    assert a.mul_trunc(b, k).terms == expected


@ORACLE
@given(pair=poly_pairs())
def test_mul_matches_sympy(pair):
    a, b = pair
    assert (a * b).terms == from_sympy(to_sympy(a) * to_sympy(b), a.nvars)


@ORACLE
@given(nvars=st.integers(1, 3), data=st.data(), e=st.integers(0, 4), k=st.integers(-1, 12))
def test_pow_trunc_matches_sympy(nvars, data, e, k):
    p = data.draw(polys(nvars, max_deg=3, max_terms=5))
    expected = from_sympy(to_sympy(p) ** e, nvars, k)
    assert p.pow_trunc(e, k).terms == expected


@ORACLE
@given(nvars=st.integers(1, 3), data=st.data(), e=st.integers(0, 4))
def test_pow_matches_sympy(nvars, data, e):
    p = data.draw(polys(nvars, max_deg=3, max_terms=5))
    assert (p ** e).terms == from_sympy(to_sympy(p) ** e, nvars)


@ORACLE
@given(nvars=st.integers(1, 3), data=st.data(), lift=st.sampled_from([0, 30]))
def test_partial_content_and_to_float_match_sympy(nvars, data, lift):
    """On kernel-born inputs, lifted by x^lift so that degrees pass 32 (7-bit keys)."""
    p = data.draw(polys(nvars, max_deg=5, max_terms=6)) * MultiPoly(nvars, {(lift,) * nvars: 1})
    partials, content, floats = [p.partial(j) for j in range(nvars)], p.content(), p.to_float()
    assert p._terms is None or p.is_zero()  # a zero kernel result is born empty
    for j, got in enumerate(partials):
        assert got.terms == from_sympy(to_sympy(p).diff(gens(nvars)[j]), nvars)
    coeffs = list(p.terms.values())
    nums, dens = [c.numerator for c in coeffs], [c.denominator for c in coeffs]
    assert content == Fraction(math.gcd(*nums), math.lcm(*dens))
    if not p.is_zero():
        assert sympy.Rational(content.numerator, content.denominator) == to_sympy(p).primitive()[0]
    assert {m: repr(c) for m, c in floats.terms.items()} == {
        m: repr(float(c)) for m, c in p.terms.items()}


@ORACLE
@given(n=st.integers(1, 3), m=st.integers(1, 3), data=st.data(), k=st.integers(0, 6))
def test_compose_matches_sympy(n, m, data, k):
    outer = PolyMap([data.draw(polys(m, max_deg=3, max_terms=5)) for _ in range(m)])
    inner = PolyMap([data.draw(polys(n, max_deg=3, min_deg=1, max_terms=4)) for _ in range(m)])
    substitution = dict(zip(gens(m), [to_sympy(c).as_expr() for c in inner.coords]))
    got = compose(outer, inner, k)
    for coord, outer_coord in zip(got.coords, outer.coords):
        expr = to_sympy(outer_coord).as_expr().subs(substitution, simultaneous=True)
        expected = from_sympy(sympy.Poly(expr, *gens(n), domain=sympy.QQ), n, k)
        assert coord.terms == expected


@ORACLE
@given(pair=poly_pairs(), d=st.integers(0, 10), extra=st.integers(0, 6))
@example(pair=(MultiPoly.zero(2), MultiPoly.const(2, 3)), d=0, extra=0)
def test_product_slice_matches_sympy(pair, d, extra):
    a, b = pair
    expected = {m: c for m, c in from_sympy(to_sympy(a) * to_sympy(b), a.nvars).items()
                if sum(m) == d}
    assert combine_trunc(a.nvars, a.mode, [(1, a, b)], d, d, d + extra).terms == expected


@ORACLE
@given(nvars=st.integers(1, 3), data=st.data(), divisible=st.booleans())
def test_divide_exact_matches_sympy(nvars, data, divisible):
    d = data.draw(polys(nvars, max_deg=3, max_terms=4).filter(lambda p: not p.is_zero()))
    f = data.draw(polys(nvars, max_deg=3, max_terms=5))
    if divisible:
        f = f * d
    quotient, remainder = to_sympy(f).div(to_sympy(d))
    if remainder.is_zero:
        assert divide_exact(f, d).terms == from_sympy(quotient, nvars)
    else:
        with pytest.raises(NotDivisibleError):
            divide_exact(f, d)


def sympy_common_quotient(nums, dens):
    """The sympy Poly q with q * d = n in every coordinate, or None."""
    q = None
    for n, d in zip(nums, dens):
        if d.is_zero():
            if not n.is_zero():
                return None
            continue
        quotient, remainder = to_sympy(n).div(to_sympy(d))
        if not remainder.is_zero or (q is not None and quotient != q):
            return None
        q = quotient
    return q


def homogs(nvars, deg, nonzero=False):
    out = polys(nvars, max_deg=deg, min_deg=deg, max_terms=4)
    return out.filter(lambda q: not q.is_zero()) if nonzero else out


@st.composite
def initial_part_cases(draw):
    """(P, omega, l, j, e*m): a homogeneous P in 1-3 variables with at least
    one nonzero coordinate, a homogeneous omega of degree l, and a term e*m
    of degree p + l to add to coordinate j of P * omega."""
    nvars, p, l = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    p_vec = [draw(homogs(nvars, p)) for _ in range(nvars)]
    p_vec[draw(st.integers(0, nvars - 1))] = draw(homogs(nvars, p, nonzero=True))
    j = draw(st.integers(0, nvars - 1))
    bump = MultiPoly(nvars, {draw(monos(nvars, p + l, p + l)): draw(COEFFS.filter(bool))})
    return p_vec, draw(homogs(nvars, l)), l, j, bump


X0, X1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=initial_part_cases())
@example(case=([X0, X1], X0, 1, 0, X1 * X1))
def test_divide_by_initial_part_matches_sympy(case):
    p_vec, omega, l, j, bump = case
    v = [q * omega for q in p_vec]
    got = divide_by_initial_part(v, p_vec, l)
    assert got.degree == l and got.poly == omega
    assert omega.terms == from_sympy(sympy_common_quotient(v, p_vec), omega.nvars)
    v[j] = v[j] + bump
    expected = sympy_common_quotient(v, p_vec)
    if expected is None:
        with pytest.raises(InconsistentJetError) as info:
            divide_by_initial_part(v, p_vec, l)
        assert info.value.order == l and info.value.residual == PolyMap(v)
    else:
        assert divide_by_initial_part(v, p_vec, l).poly.terms == from_sympy(expected, omega.nvars)


@st.composite
def common_quotient_cases(draw):
    """Divisors (one nonzero at least) and numerators d_j * q_j, each q_j one
    of two drawn quotients."""
    nvars, ncoords = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dens = [draw(polys(nvars, max_deg=2, max_terms=3)) for _ in range(ncoords)]
    dens[draw(st.integers(0, ncoords - 1))] = draw(
        polys(nvars, max_deg=2, max_terms=3).filter(lambda q: not q.is_zero()))
    quotients = [draw(polys(nvars, max_deg=2, max_terms=3)) for _ in range(2)]
    nums = [d * quotients[draw(st.integers(0, 1))] for d in dens]
    return nums, dens


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=common_quotient_cases())
@example(case=([X0 * X0, X0 * X1], [X0, X0]))
def test_common_quotient_matches_sympy(case):
    nums, dens = case
    expected = sympy_common_quotient(nums, dens)
    if expected is None:
        with pytest.raises(NotDivisibleError):
            common_quotient(nums, dens)
    else:
        assert common_quotient(nums, dens).terms == from_sympy(expected, dens[0].nvars)


def schoolbook_combine(terms, lo, k):
    """The float sum of c * a * b over terms (c, a, b), or c * a over terms
    (c, a), term by term: the terms in the order given, each product over
    a's terms in (degree, exponents) order, then b's, as (c * a) * b, only
    degrees lo..k, then exact zeros dropped."""
    out = {}
    for c, a, *b in terms:
        items1 = sorted((sum(m), m, v) for m, v in a.terms.items())
        items2 = sorted((sum(m), m, v) for m, v in b[0].terms.items()) if b else [(0, (), None)]
        for d1, m1, v1 in items1:
            for d2, m2, v2 in items2:
                if lo <= d1 + d2 <= k:
                    mono = tuple(x + y for x, y in zip(m1, m2)) if m2 else m1
                    v = c * v1 if v2 is None else c * v1 * v2
                    out[mono] = out[mono] + v if mono in out else v
    return {m: v for m, v in out.items() if v != 0}


FLOATS = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                   st.floats(-1e-11, 1e-11, allow_nan=False))


@ORACLE
@given(pair=poly_pairs(coeffs=FLOATS, mode=FLOAT), k=st.integers(-1, 12))
def test_float_mul_trunc_matches_schoolbook(pair, k):
    a, b = pair
    assert a.mul_trunc(b, k).terms == schoolbook_combine([(1, a, b)], 0, k)


@st.composite
def combinations(draw, mode=EXACT):
    """(nvars, terms, lo, k, width) for combine_trunc: up to three terms
    (c, a, b) or (c, a) with b omitted, in one mode (exact coefficients and
    factors with mixed denominators), any operand possibly empty, a degree
    window lo..k that may lie above every product's degree, and an optional
    packing order >= k."""
    nvars = draw(st.integers(1, 3))
    coeffs = COEFFS if mode == EXACT else FLOATS
    operands = polys(nvars, coeffs=coeffs, mode=mode)
    terms = [(draw(coeffs), *draw(st.lists(operands, min_size=1, max_size=2)))
             for _ in range(draw(st.integers(0, 3)))]
    k = draw(st.integers(-1, 12))
    width = draw(st.none() | st.integers(max(k, 0), 40))
    return nvars, terms, draw(st.integers(0, 12)), k, width


W = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 2): Fraction(-2, 3)})
V = MultiPoly(2, {(0, 0): Fraction(3, 5), (1, 1): 7})


@ORACLE
@given(case=combinations())
@example(case=(2, [(Fraction(1, 6), W, V), (Fraction(-5, 4), V)], 0, 6, None))
@example(case=(2, [(Fraction(1, 6), W, V), (1, W)], 5, 9, 20))  # lo > deg W + deg V
@example(case=(2, [(1, MultiPoly.zero(2), V), (2, W, MultiPoly.zero(2))], 0, 4, None))
@example(case=(2, [], 0, 4, None))
def test_combine_trunc_matches_sympy(case):
    nvars, terms, lo, k, width = case
    total = sympy.Poly(0, *gens(nvars), domain=sympy.QQ)
    for c, *ops in terms:
        product = sympy.Poly(sympy.Rational(c.numerator, c.denominator), *gens(nvars),
                             domain=sympy.QQ)
        for p in ops:
            product *= to_sympy(p)
        total += product
    expected = {m: c for m, c in from_sympy(total, nvars, k).items() if sum(m) >= lo}
    assert combine_trunc(nvars, EXACT, terms, k, lo, width).terms == expected


@ORACLE
@given(case=combinations(mode=FLOAT))
@example(case=(2, [(0.1, W.to_float(), V.to_float()), (-3.0, V.to_float())], 2, 5, None))
@example(case=(2, [(1.0, W.to_float(), V.to_float())], 5, 9, 20))
def test_float_combine_trunc_matches_schoolbook(case):
    nvars, terms, lo, k, width = case
    got = combine_trunc(nvars, FLOAT, terms, k, lo, width).terms
    assert same_terms(got, schoolbook_combine(terms, lo, k))


# NaN, and magnitudes whose products underflow to 0.0 or overflow to inf
FLOAT_EDGES = st.one_of(FLOATS, st.sampled_from([math.nan, 1e-300, -1e-300, 1e300]))


@st.composite
def cancelling_pairs(draw):
    """(a, b, c) in one mode; b holds -a's coefficient on some of a's terms."""
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    coeffs = COEFFS if mode == EXACT else FLOAT_EDGES
    a, b = draw(poly_pairs(coeffs=coeffs, mode=mode))
    flips = draw(st.lists(st.booleans(), min_size=len(a.terms), max_size=len(a.terms)))
    terms = dict(b.terms)
    terms.update({m: -c for (m, c), flip in zip(a.terms.items(), flips) if flip})
    return a, MultiPoly(a.nvars, terms, mode), draw(coeffs)


def dict_add(s, t):
    out = dict(s)
    for m, c in t.items():
        v = out[m] + c if m in out else c
        if v == 0:
            out.pop(m, None)
        else:
            out[m] = v
    return out


def dict_scale(t, c):
    return {m: v * c for m, v in t.items() if c != 0 and v * c != 0}


def same(x, y):
    """Equal and of one type; floats bit for bit, any NaN matching any NaN."""
    if isinstance(x, float) and isinstance(y, float):
        return (x != x and y != y) or x.hex() == y.hex()
    return type(x) is type(y) and x == y


def same_terms(got, want):
    return got.keys() == want.keys() and all(same(got[m], want[m]) for m in want)


def check_against_terms(p, t, k):
    """Every query and slice of p against the plain dict t of its terms.

    The queries run before p.terms is read, so a p computed on packed keys
    answers them from its packed form alone."""
    zero = Fraction(0) if p.mode == EXACT else 0.0
    degs = set(map(sum, t))
    sizes = [abs(c) for c in t.values()]
    assert p.is_zero() == (not t)
    assert p.degree() == max(degs, default=-1)
    assert p.min_degree() == min(degs, default=math.inf)
    assert same(p.constant_term(), t.get((0,) * p.nvars, zero))
    assert same(p.max_abs_coeff(), next((c for c in sizes if c != c), max(sizes, default=zero)))
    for d in (None, *range(-1, k + 2)):
        assert p.is_homogeneous(d) == (len(degs) <= 1 and (d is None or degs <= {d}))
    assert same_terms(p.truncate(k).terms, {m: c for m, c in t.items() if sum(m) <= k})
    parts = p.graded_parts(k)
    assert len(parts) == max(k + 1, 0)
    for d, part in enumerate(parts):
        assert same_terms(part.terms, {m: c for m, c in t.items() if sum(m) == d})
    for d in range(max(k, 0) + 1):
        part = p.homogeneous_part(d)
        assert part.degree == d
        assert same_terms(part.poly.terms, {m: c for m, c in t.items() if sum(m) == d})
    assert same_terms(p.terms, t)


@ORACLE
@given(case=cancelling_pairs(), k=st.integers(-1, 6))
@example(case=(MultiPoly(1, {(1,): 1e-300}, FLOAT), MultiPoly(1, {(1,): -1e-300}, FLOAT), 1e-300),
         k=2)
@example(case=(MultiPoly(2, {(0, 0): math.nan, (1, 1): 1.0}, FLOAT),
               MultiPoly(2, {(1, 1): -1.0}, FLOAT), 0.5), k=2)
def test_sums_scalings_slices_and_queries_match_dict_arithmetic(case, k):
    a, b, c = case
    ta, tb = dict(a.terms), dict(b.terms)
    neg_b = {m: -v for m, v in tb.items()}
    for got, want in ((a, ta), (b, tb), (a + b, dict_add(ta, tb)), (a - b, dict_add(ta, neg_b)),
                      (-b, neg_b), (a.scale(c), dict_scale(ta, c))):
        check_against_terms(got, want, k)


@ORACLE
@given(t=COEFFS, k=st.integers(1, 10))
def test_shift_of_x_squared_is_x_over_one_minus_tx(t, k):
    # x' = x^2 flows as x / (1 - t x) = sum_{i >= 0} t^i x^(i+1)
    field = VectorFieldJet(PolyMap([MultiPoly(1, {(2,): 1})]))
    jet = shift_jet(field, MultiPoly.const(1, t), k)
    assert jet.coords[0].terms == {(i + 1,): t ** i for i in range(k) if t ** i != 0}


@ORACLE
@given(roots=st.lists(st.fractions(-6, 6, max_denominator=5), max_size=4),
       cofactor=st.lists(st.integers(-9, 9), max_size=5))
@example(roots=[Fraction(10 ** 21 + 39)], cofactor=[10 ** 21 + 39, 0, 1])
def test_rational_roots_match_sympy(roots, cofactor):
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(cofactor)) or [1], x, domain=sympy.QQ)
    assume(not poly.is_zero)
    for r in roots:
        poly *= sympy.Poly(x - sympy.Rational(r.numerator, r.denominator), x, domain=sympy.QQ)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    _, factors = poly.factor_list()
    linear = [f.all_coeffs() for f, _ in factors if f.degree() == 1]
    expected = sorted(Fraction(int(-b.p * a.q), int(b.q * a.p)) for a, b in linear)
    assert rational_roots(coeffs) == expected


# -- univariate routines and minimal polynomials -----------------------------

X = sympy.Symbol("x")


@st.composite
def univariates(draw):
    """Nonzero products of rational linear factors, some repeated, and a small
    integer cofactor whose roots may be irrational or complex."""
    roots = draw(st.lists(st.fractions(-3, 3, max_denominator=3), max_size=3))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(roots), max_size=len(roots)))
    cofactor = draw(st.lists(st.integers(-4, 4), max_size=4).filter(lambda c: any(c)))
    poly = sympy.Poly(list(reversed(cofactor)), X, domain=sympy.QQ)
    for r, mult in zip(roots, mults):
        poly *= sympy.Poly(X - sympy.Rational(r.numerator, r.denominator), X) ** mult
    return poly


def coeff_list(poly):
    """Low-to-high Fraction coefficients of a sympy Poly in x."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


@ORACLE
@given(poly=univariates(), lo=st.fractions(-4, 4, max_denominator=7),
       width=st.fractions(0, 8, max_denominator=7))
@example(poly=sympy.Poly((X - 1) ** 3 * (X ** 2 - 2), X, domain=sympy.QQ), lo=Fraction(-2),
         width=Fraction(7, 2))
def test_count_real_roots_matches_sympy(poly, lo, width):
    coeffs = coeff_list(poly)
    roots = set(sympy.real_roots(poly))
    assert count_real_roots(coeffs) == len(roots)
    hi = lo + width
    assume(poly.eval(lo) != 0 and poly.eval(hi) != 0)
    assert count_real_roots(coeffs, lo, hi) == sum(1 for r in roots if lo < r < hi)


@ORACLE
@given(poly=univariates())
def test_squarefree_decomposition_matches_sympy(poly):
    _, factors = sympy.sqf_list(poly)
    expected = [(mult, coeff_list(f.monic())) for f, mult in factors if f.degree() > 0]
    assert squarefree_decomposition(coeff_list(poly)) == sorted(expected)


@st.composite
def binary_form_pairs(draw):
    """f = c a and g = c b for homogeneous binary forms c != 0, a and b (of
    degrees 0-3, a or b possibly zero)."""
    degree = st.integers(0, 3)
    common = draw(homogs(2, draw(degree), nonzero=True))
    return tuple(common * draw(homogs(2, draw(degree))) for _ in range(2))


def sympy_normalized_gcd(f, g):
    """sympy.gcd of sympy Polys f and g scaled to integer content 1 with a
    positive coefficient on the lexicographically largest monomial."""
    _, q = sympy.gcd(f, g).clear_denoms(convert=True)
    q = q.primitive()[1]
    return -q if q.LC() < 0 else q


@ORACLE
@given(pair=binary_form_pairs())
@example(pair=(X0 ** 3 * X1, X0 ** 2 * X1 ** 2))
@example(pair=(MultiPoly.zero(2), X0 * X1.scale(Fraction(-2, 3))))
@example(pair=(X1 ** 3 * (X0 + X1).scale(-2), MultiPoly.zero(2)))
def test_bivariate_homog_gcd_matches_sympy(pair):
    f, g = pair
    if f.is_zero() and g.is_zero():
        with pytest.raises(ValueError):
            bivariate_homog_gcd(f, g)
        return
    expected = sympy_normalized_gcd(to_sympy(f), to_sympy(g))
    got = bivariate_homog_gcd(f, g)
    assert got.poly.terms == from_sympy(expected, 2)
    assert got.degree == expected.total_degree()


@st.composite
def monomial_multiples(draw, max_deg=3):
    """c q x^a y^b: a nonzero binary form c q of degree 0..max_deg times a
    monomial with a, b <= 3."""
    q = draw(homogs(2, draw(st.integers(0, max_deg)), nonzero=True))
    return q * MultiPoly(2, {(draw(st.integers(0, 3)), draw(st.integers(0, 3))): 1})


@st.composite
def repeated_factor_forms(draw):
    """c q x^a y^b times the m-th power of a nonzero form r, m in 1..2."""
    r = draw(homogs(2, draw(st.integers(0, 2)), nonzero=True))
    return draw(monomial_multiples(max_deg=2)) * r ** draw(st.integers(1, 2))


def sympy_profile(g):
    """(l, q, multiplicities) from sympy's factorization of g over QQ: an
    irreducible factor f of multiplicity k has as many real linear factors as
    f(x, 1) has real roots, plus one for y when y divides f, and pairs its
    other roots into definite quadratics."""
    l, q, mult = 0, 0, {}
    for f, k in to_sympy(g).factor_list()[1]:
        at_y1 = f.eval(f.gens[1], 1)
        lin = at_y1.count_roots() + f.total_degree() - at_y1.degree()
        quad = (f.total_degree() - lin) // 2
        l, q = l + lin, q + quad
        old_lin, old_quad = mult.get(k, (0, 0))
        mult[k] = (old_lin + lin, old_quad + quad)
    return l, q, mult


SUM_OF_SQUARES = X0 * X0 + X1 * X1


@ORACLE
@given(g=repeated_factor_forms())
@example(g=X0 ** 3 * X1 ** 4)
@example(g=X0 * X1 ** 3 * SUM_OF_SQUARES ** 2)
@example(g=(X0 - X1) ** 2 * (X0 * X0 + (X1 * X1).scale(Fraction(2, 3))))
def test_binary_form_profile_matches_sympy(g):
    prof = binary_form_profile(g)
    assert (prof.l, prof.q, prof.multiplicities) == sympy_profile(g)


@ORACLE
@given(g=monomial_multiples())
@example(g=X0 ** 3 * X1 ** 4)
@example(g=X1 ** 2 * SUM_OF_SQUARES)
def test_reduced_hamiltonian_matches_sympy(g):
    assume(g.degree() >= 1)
    d, field = reduced_hamiltonian(g)
    sg = to_sympy(g)
    gx, gy = sg.diff(sg.gens[0]), sg.diff(sg.gens[1])
    expected = sympy_normalized_gcd(gx, gy)
    assert d.poly.terms == from_sympy(expected, 2)
    assert d.degree == expected.total_degree()
    # F is (-g_y / D, g_x / D) divided by the content of the pair, the gcd of
    # its numerators over the lcm of its denominators
    want = []
    for num in (-gy, gx):
        quo, rem = sympy.div(num, expected)
        assert rem.is_zero
        want.append(from_sympy(quo, 2))
    values = [c for w in want for c in w.values()]
    content = Fraction(math.gcd(*(c.numerator for c in values)),
                       math.lcm(*(c.denominator for c in values)))
    assert [c.terms for c in field.coords] == [{m: c / content for m, c in w.items()}
                                               for w in want]


@st.composite
def planar_fields(draw):
    """(F_0, F_1) = (c r_j + t_j) in either order: c = 1 or c q x^a y^b, forms
    r_0 != 0 and r_1 (nonzero, or zero) of one degree, and tails t_j one
    degree higher."""
    common = draw(st.one_of(st.just(MultiPoly.const(2, 1)), monomial_multiples(max_deg=2)))
    d = draw(st.integers(0, 2))
    r_1 = st.one_of(homogs(2, d, nonzero=True), st.just(MultiPoly.zero(2)))
    heads = [common * draw(homogs(2, d, nonzero=True)), common * draw(r_1)]
    if draw(st.booleans()):
        heads.reverse()
    return tuple(h + draw(homogs(2, common.degree() + d + 1)) for h in heads)


def sympy_initial_part(coords):
    """(p, P): the least degree p carrying a term of the field, and its
    degree-p slice."""
    polys = [to_sympy(c) for c in coords]
    p = min(sum(m) for f in polys for m in f.monoms() if not f.is_zero)
    return p, [sympy.Poly.from_dict({m: c for m, c in f.as_dict().items() if sum(m) == p},
                                    f.gens, domain=sympy.QQ) for f in polys]


@ORACLE
@given(coords=planar_fields())
@example(coords=(X0 ** 4, X0 ** 2 * X1))  # check-star -F "x^4, x^2*y": P = (0, x^2 y)
@example(coords=(X0 ** 2 * X1 - X1 ** 3, X0 * X1 ** 2))
@example(coords=((X0 * X0 * X1).scale(-3) + (X1 ** 3).scale(-4),
                 (X0 ** 3).scale(2) + (X0 * X1 * X1).scale(3)))  # the quartic field
def test_check_star_matches_sympy(coords):
    assume(min(c.min_degree() for c in coords) >= 1)
    p, p_vec = sympy_initial_part(coords)
    report = check_star(VectorFieldJet(PolyMap(list(coords))))
    expected = sympy_normalized_gcd(*p_vec)
    assert report.p == p
    if expected.total_degree() == 0:
        assert report.nondivisible == "yes" and report.witness is None
    else:
        assert report.nondivisible == "no"
        assert report.witness.poly.terms == from_sympy(expected, 2)
        assert report.witness.degree == expected.total_degree()


@st.composite
def rational_matrices(draw):
    """S J S^-1 with J block diagonal of Jordan blocks whose eigenvalues
    repeat, and S a product of unit triangular integer matrices."""
    n = draw(st.integers(1, 4))
    eigen = st.fractions(-2, 2, max_denominator=2)
    j = sympy.zeros(n, n)
    for i in range(n):
        j[i, i] = sympy.Rational(*draw(eigen).as_integer_ratio())
        if i and j[i, i] == j[i - 1, i - 1] and draw(st.booleans()):
            j[i - 1, i] = 1
    lower, upper = sympy.eye(n), sympy.eye(n)
    for a in range(n):
        for b in range(a):
            lower[a, b] = draw(st.integers(-2, 2))
            upper[b, a] = draw(st.integers(-2, 2))
    s = lower * upper
    return s * j * s.inv()


def sympy_minimal_polynomial(mat):
    """det(xI - A) over the monic gcd of the (n-1)-minors of xI - A: the
    last invariant factor of the characteristic matrix."""
    n = mat.rows
    char = X * sympy.eye(n) - mat
    minors = [char.minor_submatrix(i, j).det() for i in range(n) for j in range(n)]
    g = sympy.Poly(0, X, domain=sympy.QQ)
    for m in minors:
        g = g.gcd(sympy.Poly(m, X, domain=sympy.QQ))
    quotient, remainder = sympy.Poly(char.det(), X, domain=sympy.QQ).div(g.monic())
    assert remainder.is_zero
    return quotient.monic()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mat=rational_matrices())
@example(mat=sympy.Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
def test_minimal_polynomial_matches_sympy(mat):
    rows = [[Fraction(int(mat[i, j].p), int(mat[i, j].q)) for j in range(mat.cols)]
            for i in range(mat.rows)]
    assert minimal_polynomial(RatMatrix(rows)) == coeff_list(sympy_minimal_polynomial(mat))


# -- flow coefficients and the time-c flow of a nonlinear field ---------------

def sympy_truncate(p, k):
    return sympy.Poly.from_dict({m: c for m, c in p.as_dict().items() if sum(m) <= k},
                                *p.gens, domain=sympy.QQ)


def sympy_lie_step(field, v, k):
    """j^k of sum_j F_j dv/dx_j by sympy.diff, F a list of sympy Polys."""
    out = sympy.Poly(0, *v.gens, domain=sympy.QQ)
    for f_j, x_j in zip(field, v.gens):
        out += f_j * sympy.diff(v, x_j)
    return sympy_truncate(out, k)


def sympy_flow_coeffs(fmap, imax, k):
    """v_1 = F, v_{i+1} = (F . grad) v_i, each cut at k (F(0) = 0, so the
    Lie derivative never lowers a degree and the cut may come early)."""
    field = [to_sympy(c) for c in fmap.coords]
    vs = [[sympy_truncate(f, k) for f in field]]
    while len(vs) < imax:
        vs.append([sympy_lie_step(field, v, k) for v in vs[-1]])
    return [[from_sympy(v, fmap.nvars) for v in coords] for coords in vs]


# K at the 6-bit floor of the packing width max(6, k.bit_length() + 1) and
# on both sides of its first edge: K + 2 (asked for below) crosses it too
PACKING_EDGES = (4, 31, 32)


@st.composite
def flow_fields(draw):
    """(F, imax, K): F(0) = 0 in 1-4 variables, with 1-3 terms of degree 1-3
    per coordinate and at most one of degree K+1..K+2 (above K)."""
    nvars, k = draw(st.integers(1, 4)), draw(st.sampled_from(PACKING_EDGES))
    low = st.dictionaries(monos(nvars, 3, 1), COEFFS.filter(bool), min_size=1, max_size=3)
    high = st.dictionaries(monos(nvars, k + 2, k + 1), COEFFS, max_size=1)
    fmap = PolyMap([MultiPoly(nvars, {**draw(high), **draw(low)}) for _ in range(nvars)])
    return fmap, draw(st.integers(1, 4)), k


def _float_gap(got, want):
    return max((abs(got.coefficient(m) - float(want.coefficient(m)))
                for m in set(got.terms) | set(want.terms)), default=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=flow_fields())
# every F_j free of x_j, and terms above K
@example(case=(PolyMap([MultiPoly(2, {(0, 2): 1, (0, 5): 2}), MultiPoly(2, {(3, 0): -1})]), 3, 3))
@example(case=(PolyMap([MultiPoly(3, {(0, 1, 1): Fraction(1, 2)}), MultiPoly(3, {(1, 0, 0): 3}),
                        MultiPoly(3, {(2, 0, 0): -1, (0, 0, 17): 1})]), 3, 16))
def test_flow_coeffs_match_sympy(case):
    fmap, imax, k = case
    expected = sympy_flow_coeffs(fmap, imax, k)
    fresh = VectorFieldJet(fmap).flow_coeffs(imax, k)
    assert [[c.terms for c in v.coords] for v in fresh] == expected
    # one field asked at K + 2 and then at K: each order keeps its own list
    field = VectorFieldJet(fmap)
    longer = field.flow_coeffs(imax, k + 2)
    assert [[c.terms for c in v.coords] for v in longer] == sympy_flow_coeffs(fmap, imax, k + 2)
    assert [[c.terms for c in v.coords] for v in field.flow_coeffs(imax, k)] == expected
    # float mode
    for got, want in zip(VectorFieldJet(fmap.to_float()).flow_coeffs(imax, k), fresh):
        for got_j, want_j in zip(got.coords, want.coords):
            assert _float_gap(got_j, want_j) <= 1e-12 * max(1.0, float(want.max_abs_coeff()))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=flow_fields())
def test_flow_coeffs_at_a_higher_order_on_one_field_match_fresh_fields(case):
    # one field asked at K and then at K + 2 (the other order from the oracle
    # above), in both scalar modes
    fmap, imax, k = case
    for fmap in (fmap, fmap.to_float()):
        field = VectorFieldJet(fmap)
        for order in (k, k + 2):
            got = field.flow_coeffs(imax, order)
            want = VectorFieldJet(fmap).flow_coeffs(imax, order)
            assert [[c.terms for c in v.coords] for v in got] == \
                [[c.terms for c in v.coords] for v in want]


def sympy_lie_series(fmap, c, k):
    """j^k of the time-c flow, x + sum_i c^i / i! (F . grad)^i x, in sympy at
    rational c: the series of cF at time 1, summed until the bound
    r^i / i! on term i, r = K |c| sum_j |F_j|_1, puts the tail below 1e-20."""
    field = [to_sympy(q) * sympy.Rational(c.numerator, c.denominator) for q in fmap.coords]
    xs = gens(fmap.nvars)
    term = [sympy.Poly(x, *xs, domain=sympy.QQ) for x in xs]
    total = list(term)
    r = k * float(sum(abs(a) for q in fmap.coords for a in q.terms.values()) * abs(c))
    bound, i = 1.0, 0
    # past i + 1 > 2r the terms at least halve, so the tail is at most twice the next term
    while not (i + 1 > 2 * r and bound * r / (i + 1) <= 0.5e-20):
        i += 1
        bound *= r / i
        term = [sympy_lie_step(field, t, k) * sympy.Rational(1, i) for t in term]
        total = [a + b for a, b in zip(total, term)]
    return [from_sympy(t, fmap.nvars) for t in total]


@st.composite
def nonlinear_flows(draw):
    """(F, c, K): F(0) = 0 in 1-2 variables with a term of degree 2 or 3."""
    nvars = draw(st.integers(1, 2))
    small = st.fractions(-1, 1, max_denominator=4).filter(bool)
    coords = [dict(draw(st.dictionaries(monos(nvars, 3, 1), small, max_size=2)))
              for _ in range(nvars)]
    coords[0][draw(monos(nvars, 3, 2))] = draw(small)
    return (PolyMap([MultiPoly(nvars, t) for t in coords]),
            draw(st.fractions(-1, 1, max_denominator=4).filter(bool)), draw(st.integers(2, 5)))


SLOW_FIELD = PolyMap([MultiPoly(2, {(1, 0): Fraction(-4, 1000), (0, 2): Fraction(1, 1000)}),
                      MultiPoly(2, {(0, 1): Fraction(3, 1000), (1, 1): Fraction(1, 1000)})])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=nonlinear_flows())
@example(case=(SLOW_FIELD, Fraction(1000), 6))
def test_flow_time_jet_matches_sympy_lie_series(case):
    fmap, c, k = case
    expected = sympy_lie_series(fmap, c, k)
    size = max(abs(float(a)) for terms in expected for a in terms.values())
    got = flow_time_jet(VectorFieldJet(fmap.to_float()), float(c), k)
    for got_j, want in zip(got.coords, expected):
        assert _float_gap(got_j, MultiPoly(fmap.nvars, want)) <= 1e-10 * max(1.0, size)


# -- float shift jets with alpha(0) != 0 against the exact shift series --------

def _norm1(p):
    return sum(abs(a) for a in p.terms.values())


def sympy_shift_series(fmap, alpha, h, k):
    """j^k of Phi(h(x), alpha(x)) = sum_i alpha^i / i! ((F . grad)^i x)(h(x)) in
    sympy at rational coefficients (h = None for the identity).  Term i is at
    most H^K r^i / i! in the sum of |coefficients|, r = K |alpha|_1 sum_j |F_j|_1
    and H = max(1, |h_j|_1); the sum runs until the tail is below 1e-20."""
    field = [to_sympy(q) for q in fmap.coords]
    xs = gens(fmap.nvars)
    a = to_sympy(alpha)
    inner = None if h is None else [to_sympy(q) for q in h.coords]
    powers = {}

    def compose(v):
        """j^k(v o h), from the truncated powers of h, each built once."""
        if inner is None:
            return v
        out = sympy.Poly(0, *xs, domain=sympy.QQ)
        for mono, coeff in v.as_dict().items():
            if mono not in powers:
                power = sympy.Poly(1, *xs, domain=sympy.QQ)
                for h_j, e in zip(inner, mono):
                    for _ in range(e):
                        power = sympy_truncate(power * h_j, k)
                powers[mono] = power
            out += powers[mono] * coeff
        return out

    lie = [sympy.Poly(x, *xs, domain=sympy.QQ) for x in xs]
    weight = sympy.Poly(1, *xs, domain=sympy.QQ)  # alpha^i / i!
    total = [compose(v) for v in lie]
    r = k * float(_norm1(alpha) * sum(_norm1(q) for q in fmap.coords))
    # H^K: a term c x^m of degree <= K grows at most H^K times under composition with h
    bound = max([1.0] + [float(_norm1(q)) for q in (h.coords if h is not None else [])]) ** k
    i = 0
    # past i + 1 > 2r the terms at least halve, so the tail is at most twice the next term
    while not (i + 1 > 2 * r and bound * r / (i + 1) <= 0.5e-20):
        i += 1
        bound *= r / i
        lie = [sympy_lie_step(field, v, k) for v in lie]
        weight = sympy_truncate(weight * a, k) * sympy.Rational(1, i)
        total = [t + sympy_truncate(weight * compose(v), k) for t, v in zip(total, lie)]
    return [from_sympy(t, fmap.nvars, k) for t in total]


@st.composite
def p1_shifts(draw):
    """(F, alpha, h, K): F(0) = 0 in 1-2 variables with a linear and a degree
    2-3 term (p = 1), alpha(0) != 0, and h None (the identity) or x plus
    terms of degree 2-3."""
    nvars = draw(st.integers(1, 2))
    unit = st.fractions(-1, 1, max_denominator=4).filter(bool)
    half = st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=4).filter(bool)
    coords = [draw(st.dictionaries(monos(nvars, 3, 1), half, max_size=1)) for _ in range(nvars)]
    coords[0][draw(monos(nvars, 1, 1))] = draw(unit)
    coords[-1][draw(monos(nvars, 3, 2))] = draw(unit)
    beta = draw(st.dictionaries(monos(nvars, 2, 1), half, min_size=1, max_size=2))
    alpha = MultiPoly(nvars, {(0,) * nvars: draw(unit), **beta})
    h = None
    if draw(st.booleans()):
        h = PolyMap([MultiPoly(nvars, {**draw(st.dictionaries(monos(nvars, 3, 2), half,
                                                                max_size=2)),
                                       tuple(int(i == j) for i in range(nvars)): 1})
                     for j in range(nvars)])
    return PolyMap([MultiPoly(nvars, t) for t in coords]), alpha, h, draw(st.integers(2, 4))


def _check_shift_series(case):
    fmap, alpha, h, k = case
    expected = sympy_shift_series(fmap, alpha, h, k)
    size = max((abs(float(a)) for terms in expected for a in terms.values()), default=0.0)
    field = VectorFieldJet(fmap.to_float())
    if h is None:
        got = shift_jet(field, alpha.to_float(), k)
    else:
        got = hatted_shift_jet(field, h.to_float(), alpha.to_float(), k)
    for got_j, want in zip(got.coords, expected):
        assert _float_gap(got_j, MultiPoly(fmap.nvars, want)) <= 1e-10 * max(1.0, size)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(case=p1_shifts())
# a rotation with a quadratic term, shifted by 1/2 + x - y/4 after h = (x + y^2, y - x y)
@example(case=(PolyMap([-X1 + X0 * X0, X0]), X0 - X1 * Fraction(1, 4) + Fraction(1, 2),
               PolyMap([X0 + X1 * X1, X1 - X0 * X1]), 4))
# the closed-form field x' = -x + y^2, y' = -2y, shifted by -3/4 + x y
@example(case=(PolyMap([-X0 + X1 * X1, X1.scale(-2)]), X0 * X1 - Fraction(3, 4), None, 4))
def test_float_shift_jets_match_sympy_shift_series(case):
    _check_shift_series(case)


def test_slow_field_large_shift_matches_sympy_shift_series():
    _check_shift_series((SLOW_FIELD, (X0 + X1 + 1) * 100, None, 6))


# -- recovery along closed-form flows -----------------------------------------

def closed_form_shift(alpha, p, k):
    """j^k of x_j (1 - (p-1) alpha x_j^(p-1))^(-1/(p-1)) in every coordinate:
    the flow of x_j' = x_j^p (each coordinate on its own) at time alpha(x),
    summed as a binomial series in sympy."""
    nvars = alpha.nvars
    xs = gens(nvars)
    a = to_sympy(alpha)
    coords = []
    for x in xs:
        u = a * sympy.Poly((1 - p) * x ** (p - 1), *xs, domain=sympy.QQ)
        term = total = sympy.Poly(x, *xs, domain=sympy.QQ)
        for m in range(1, k):  # x u^m has degree > m
            term = term * u
            total += term * sympy.binomial(sympy.Rational(-1, p - 1), m)
        coords.append(MultiPoly(nvars, from_sympy(total, nvars, k)))
    return PolyMap(coords)


@st.composite
def closed_form_cases(draw):
    """(p, alpha, K) for x' = x^2, x' = x^3 and the decoupled (x^2, y^2)."""
    nvars, p = draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]))
    return p, draw(polys(nvars, max_deg=2, max_terms=4)), draw(st.integers(p, p + 4))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=closed_form_cases())
@example(case=(2, MultiPoly(2, {(0, 0): Fraction(1, 2), (1, 0): 3, (1, 1): -2}), 6))
def test_recovery_matches_closed_form_flows(case):
    # h shares no code with shift_jet; alpha(0) != 0 is allowed
    p, alpha, k = case
    nvars = alpha.nvars
    field = VectorFieldJet(PolyMap([MultiPoly.variable(nvars, j) ** p for j in range(nvars)]))
    res = recover_shift_jet(field, closed_form_shift(alpha, p, k), k)
    assert res.residual_ok and res.residuals == [0] * k
    assert [omega.poly for omega in res.omegas] == [
        alpha.homogeneous_part(l).poly for l in range(k - p + 1)]


# -- the float time-c flow of a linear field ----------------------------------

@ORACLE
@given(case=st.sampled_from(["rotation", "saddle", "spiral", "jordan", "nilpotent"]),
       c=st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
       scale=st.floats(0.25, 2.0), k=st.integers(1, 4))
@example(case="saddle", c=40.0, scale=1.0, k=3)
@example(case="spiral", c=-40.0, scale=2.0, k=4)
@example(case="jordan", c=37.0, scale=1.0, k=2)
def test_flow_time_jet_matches_expm(case, c, scale, k):
    l_mat = scale * np.array({
        "rotation": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "saddle": [[-1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
        "spiral": [[0.5, -1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, -0.25]],
        "jordan": [[-0.5, 1.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -0.5]],
        "nilpotent": [[0.0, 1.0, -0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    }[case])
    jet = flow_time_jet(VectorFieldJet(PolyMap.linear(l_mat.tolist(), FLOAT)), c, k)
    expected = expm(l_mat * c)
    bound = 1e-10 * max(1.0, np.linalg.norm(expected))
    assert np.linalg.norm(np.array(jet.linear_part()) - expected) <= bound
    # a linear field flows linearly: no term of degree 2..k survives
    assert all(abs(v) <= bound for q in jet.coords for m, v in q.terms.items() if sum(m) > 1)


# -- delta0_linear on A = e^{L t0} -------------------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def linear_parts(draw):
    """(family, L): rotations, saddles, spirals, Jordan blocks with a nonzero
    eigenvalue, nilpotents and random 3 x 3 matrices."""
    family = draw(st.sampled_from(
        ["rotation", "saddle", "spiral", "jordan", "nilpotent", "random"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if family == "rotation":
        b = sign * draw(_floats(0.25, 2.0))
        return family, np.array([[0.0, -b], [b, 0.0]])
    if family == "saddle":
        return family, np.diag([-draw(_floats(0.2, 1.0)), draw(_floats(0.2, 1.0))])
    if family == "spiral":
        a, b = sign * draw(_floats(0.05, 0.5)), draw(_floats(0.25, 2.0))
        return family, np.array([[a, -b], [b, a]])
    if family == "jordan":
        lam, c = sign * draw(_floats(0.05, 1.0)), draw(_floats(0.5, 2.0))
        return family, np.array([[lam, c], [0.0, lam]])
    if family == "nilpotent":
        upper = [draw(_floats(-1.0, 1.0)) for _ in range(3)]
        assume(max(abs(u) for u in upper) > 0.1)
        return family, np.array([[0.0, upper[0], upper[1]],
                                 [0.0, 0.0, upper[2]],
                                 [0.0, 0.0, 0.0]])
    mat = np.array([[draw(_floats(-1.0, 1.0)) for _ in range(3)] for _ in range(3)])
    assume(np.linalg.norm(mat) > 0.1)
    return family, mat


def _bound(a_mat):
    return DELTA0_TOL * max(1.0, np.linalg.norm(a_mat))


def _example(family, rows, t0):
    return example(case=(family, np.array(rows)), t0=t0, noisy=False, data=None)


@ORACLE
@given(case=linear_parts(), t0=_floats(-40.0, 40.0), noisy=st.booleans(),
       data=st.data())
# large |t0|: entries of e^{Lt0} up to e^{38}, which only a relative tolerance can meet
@_example("saddle", [[-1.0, 0.0], [0.0, 1.0]], 38.0)
@_example("saddle", [[-0.2, 0.0], [0.0, 1.0]], 26.0)
@_example("saddle", [[-1.0, 0.0], [0.0, 0.2]], -37.5)
@_example("spiral", [[0.5, -2.0], [2.0, 0.5]], 40.0)
@_example("jordan", [[1.0, 2.0], [0.0, 1.0]], 35.0)
@_example("random", [[0.3, -0.9, 0.2], [0.8, -0.1, 0.5], [-0.4, 0.6, 0.7]], 39.0)
# nilpotent L: one that is not triangular, whose Schur eigenvalues are
# rounding, and one whose start <L, A - I>_F / ||L||_F^2 is -306
@_example("nilpotent", [[1.0, 1.0], [-1.0, -1.0]], 25.0)
@_example("nilpotent", [[0.0, 1.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], -40.0)
# two rotation frequencies in the ratio sqrt(2): the branches of one of them are tried
@_example("rotations", [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -math.sqrt(2)], [0.0, 0.0, math.sqrt(2), 0.0]], -2.9)
def test_delta0_reproduces_the_exponential(case, t0, noisy, data):
    family, l_mat = case
    a_mat = expm(l_mat * t0)
    if noisy:
        n = len(l_mat)
        noise = np.array(data.draw(st.lists(_floats(-1.0, 1.0), min_size=n * n,
                                            max_size=n * n))).reshape(n, n)
        a_mat = a_mat + 1e-13 * max(1.0, np.linalg.norm(a_mat)) * noise
    t = delta0_linear(a_mat, l_mat)
    assert np.linalg.norm(expm(l_mat * t) - a_mat) <= _bound(a_mat)
    # to first order both t and t0 lie within the bound, so they can differ by
    # about 2 * bound / ||dA/dt|| and no more
    spread = 4 * _bound(a_mat) / np.linalg.norm(l_mat @ a_mat)
    if family == "rotation":
        period = 2 * math.pi / abs(l_mat[1, 0])
        turns = (t - t0) / period
        assert abs(turns - round(turns)) * period <= spread
        assert abs(t) <= period / 2 + spread
    elif family != "random" or max(abs(np.linalg.eigvals(l_mat).real)) > 0.05:
        assert abs(t - t0) <= spread

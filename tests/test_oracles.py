"""The exact kernel against sympy, and float products against a schoolbook loop.

Inputs come from hypothesis (derandomized, so every run checks the same
examples); answers come from sympy's own polynomial arithmetic over QQ, or
from closed forms.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from jetflow import VectorFieldJet, shift_jet
from jetflow.config import FLOAT_DROP_TOL
from jetflow.errors import NotDivisibleError
from jetflow.poly import (EXACT, FLOAT, MultiPoly, PolyMap, compose, divide_exact,
                          monomials_of_degree)

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


def schoolbook_mul_trunc(a, b, k):
    """The float jet product term by term: operands in (degree, exponents)
    order, sums in that order, then terms with |c| <= FLOAT_DROP_TOL dropped."""
    items1 = sorted((sum(m), m, c) for m, c in a.terms.items())
    items2 = sorted((sum(m), m, c) for m, c in b.terms.items())
    out = {}
    for d1, m1, c1 in items1:
        for d2, m2, c2 in items2:
            if d1 + d2 <= k:
                mono = tuple(x + y for x, y in zip(m1, m2))
                out[mono] = out[mono] + c1 * c2 if mono in out else c1 * c2
    return {m: c for m, c in out.items() if abs(c) > FLOAT_DROP_TOL}


FLOATS = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                   st.floats(-1e-11, 1e-11, allow_nan=False))


@ORACLE
@given(pair=poly_pairs(coeffs=FLOATS, mode=FLOAT), k=st.integers(-1, 12))
def test_float_mul_trunc_matches_schoolbook(pair, k):
    a, b = pair
    assert a.mul_trunc(b, k).terms == schoolbook_mul_trunc(a, b, k)


@ORACLE
@given(t=COEFFS, k=st.integers(1, 10))
def test_shift_of_x_squared_is_x_over_one_minus_tx(t, k):
    # x' = x^2 flows as x / (1 - t x) = sum_{i >= 0} t^i x^(i+1)
    field = VectorFieldJet(PolyMap([MultiPoly(1, {(2,): 1})]))
    jet = shift_jet(field, MultiPoly.const(1, t), k)
    assert jet.coords[0].terms == {(i + 1,): t ** i for i in range(k) if t ** i != 0}

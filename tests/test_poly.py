import math
import random
from fractions import Fraction

import pytest

from jetflow.errors import NotDivisibleError
from jetflow.poly import (EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap,
                          bivariate_homog_gcd, compose, divide_exact)

from conftest import rand_poly


def V(i, n=2):
    return MultiPoly.variable(n, i)


def test_add_cancellation(xy):
    x, y = xy
    assert (x + y) + (x - y) == x.scale(2)


def test_mul_hand_expansion(xy):
    x, y = xy
    product = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    expected = MultiPoly(2, {(4, 0): 1, (2, 2): 3, (0, 4): 2})
    assert product == expected


def test_additive_identity(xy):
    x, y = xy
    p = x * y + x ** 3
    assert p + MultiPoly.zero(2) == p


def test_ring_laws_random():
    rng = random.Random(101)
    for _ in range(25):
        a = rand_poly(rng, 2, 3)
        b = rand_poly(rng, 2, 3)
        c = rand_poly(rng, 2, 3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mode_and_nvars_mismatch(xy):
    x, _ = xy
    with pytest.raises(ValueError):
        x + MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        x + x.to_float()
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0): 0.5}, EXACT)


def test_partial_derivatives(xy):
    x, y = xy
    g = x ** 3 * y ** 4
    assert g.partial(0) == MultiPoly(2, {(2, 4): 3})
    assert g.partial(1) == MultiPoly(2, {(3, 3): 4})
    assert MultiPoly.const(2, 7).partial(0).is_zero()
    with pytest.raises(ValueError):
        g.partial(2)


def test_homogeneous_part_and_min_degree(xy):
    x, y = xy
    f = x + x ** 3
    part = f.homogeneous_part(3)
    assert part == HomogPoly(x ** 3, 3)
    q = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    assert q.min_degree() == 4
    assert MultiPoly.zero(2).min_degree() == math.inf
    # the zero polynomial is homogeneous of every degree
    assert MultiPoly.zero(2).homogeneous_part(5).is_zero()


def test_truncate():
    u = MultiPoly.variable(1, 0)
    f = u + u ** 3
    assert PolyMap([f], 2).coords[0] == u
    assert PolyMap([f], 3).coords[0] == f
    assert PolyMap([MultiPoly.zero(1)], 4).coords[0].is_zero()


def test_truncate_min_law():
    rng = random.Random(55)
    for _ in range(20):
        f = rand_poly(rng, 2, 6)
        k1 = rng.randint(0, 6)
        k2 = rng.randint(0, 6)
        assert f.truncate(k1).truncate(k2) == f.truncate(min(k1, k2))


def test_compose_example():
    u = MultiPoly.variable(1, 0)
    outer = PolyMap([u ** 2])
    inner = PolyMap([u + u ** 2])
    out = compose(outer, inner, 3)
    assert out.coords[0] == u ** 2 + (u ** 3).scale(2)


def test_compose_identity_and_linear():
    u = MultiPoly.variable(1, 0)
    g = PolyMap([u + u ** 2 - u ** 3])
    assert compose(PolyMap.identity(1), g, 3) == g.truncate(3)
    assert compose(PolyMap([u]), PolyMap([u]), 1).coords[0] == u


def test_compose_rejects_constant_terms():
    u = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError):
        compose(PolyMap([u]), PolyMap([u + 1]), 3)


def test_compose_depends_only_on_jets():
    # j^k(f o g) = j^k(j^k(f) o j^k(g))
    rng = random.Random(19)
    for _ in range(10):
        k = rng.randint(2, 5)
        f = PolyMap([rand_poly(rng, 2, 6) for _ in range(2)])
        g = PolyMap([rand_poly(rng, 2, 6, min_deg=1) for _ in range(2)])
        assert compose(f, g, k) == compose(f.truncate(k), g.truncate(k), k)


def test_compose_associative_up_to_truncation():
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randint(2, 5)
        f = PolyMap([rand_poly(rng, 2, 3, min_deg=1) for _ in range(2)])
        g = PolyMap([rand_poly(rng, 2, 3, min_deg=1) for _ in range(2)])
        h = PolyMap([rand_poly(rng, 2, 3, min_deg=1) for _ in range(2)])
        assert compose(f, compose(g, h, k), k) == compose(compose(f, g, k), h, k)


def test_bivariate_gcd_examples(xy):
    x, y = xy
    f = (x ** 3 * y ** 3).scale(4)
    g = (x ** 2 * y ** 4).scale(3)
    assert bivariate_homog_gcd(f, g).poly == x ** 2 * y ** 3

    gx = (x ** 3).scale(4) + (x * y ** 2).scale(6)
    gy = (x ** 2 * y).scale(6) + (y ** 3).scale(8)
    assert bivariate_homog_gcd(gx, gy).poly == MultiPoly.const(2, 1)

    f2 = (x ** 2 + y ** 2).scale(Fraction(3, 2))
    normalized = bivariate_homog_gcd(f2, f2)
    assert normalized.poly == x ** 2 + y ** 2


def test_bivariate_gcd_errors(xy):
    x, _ = xy
    with pytest.raises(ValueError):
        bivariate_homog_gcd(MultiPoly.zero(2), MultiPoly.zero(2))
    with pytest.raises(ValueError):
        bivariate_homog_gcd(MultiPoly.variable(3, 0), MultiPoly.variable(3, 1))


def test_gcd_divides_both_and_monomial_factors(xy):
    x, y = xy
    rng = random.Random(13)
    for _ in range(15):
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        f = rand_poly_homog(rng, da) * x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
        g = rand_poly_homog(rng, db) * x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
        if f.is_zero() and g.is_zero():
            continue
        d = bivariate_homog_gcd(f, g)
        if not f.is_zero():
            divide_exact(f, d.poly)  # raises if the gcd fails to divide
        if not g.is_zero():
            divide_exact(g, d.poly)
        if not (f.is_zero() or g.is_zero()):
            for axis in (0, 1):
                common = min(min(m[axis] for m in f.terms), min(m[axis] for m in g.terms))
                assert min(m[axis] for m in d.poly.terms) >= common


def rand_poly_homog(rng, d):
    from jetflow.poly import monomials_of_degree

    terms = {}
    for m in monomials_of_degree(2, d):
        if rng.random() < 0.7:
            c = Fraction(rng.randint(-4, 4))
            if c:
                terms[m] = c
    return MultiPoly(2, terms)


def test_divide_exact_examples(xy):
    x, y = xy
    f = (x ** 3 * y ** 3).scale(-4)
    d = x ** 2 * y ** 3
    assert divide_exact(f, d) == x.scale(-4)
    p = x ** 2 + y
    assert divide_exact(p, MultiPoly.const(2, 1)) == p
    with pytest.raises(NotDivisibleError):
        divide_exact(x ** 2, y)


def test_divide_exact_roundtrip():
    rng = random.Random(99)
    for _ in range(20):
        f = rand_poly(rng, 2, 3)
        d = rand_poly(rng, 2, 2, nonzero=True)
        assert divide_exact(f * d, d) == f


def test_evaluate(xy):
    x, y = xy
    g = x ** 3 * y ** 4
    assert g.evaluate([1, 1]) == 1
    assert g.evaluate([2, 1]) == 8
    q = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    assert q.evaluate([1, 1]) == 6
    with pytest.raises(ValueError):
        g.evaluate([1])


def test_float_mode_keeps_tiny_terms():
    u = MultiPoly.variable(1, 0, FLOAT)
    f = u + u.scale(1e-15) * u + u ** 4
    assert f.truncate(3).terms == {(1,): 1.0, (2,): 1e-15}
    # only a sum that cancels to exactly 0.0 leaves no term
    assert (f - u).truncate(3).terms == {(2,): 1e-15}
    assert (1 + u).mul_trunc(1 - u, 3).terms == {(0,): 1.0, (2,): -1.0}


def test_string_roundtrip_visual(xy):
    x, y = xy
    p = (x ** 2 * y).scale(Fraction(-3, 4)) + y - 2
    assert str(p) == "-3/4*x^2*y + y - 2"


def test_polymap_shape_errors(xy):
    x, y = xy
    with pytest.raises(ValueError):
        PolyMap([x, MultiPoly.variable(3, 0)])
    m = PolyMap([x, y])
    with pytest.raises(ValueError):
        m + PolyMap([x])


def test_max_abs_coeff_sees_nan_after_a_number():
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    m = PolyMap([x + (y * y).scale(1e-9) + (x * x).scale(math.nan), y])
    assert math.isnan(m.coords[0].max_abs_coeff())
    assert math.isnan(m.max_abs_coeff())
    assert not m.is_identity(3, tol=1e-8)

import math
import random
from fractions import Fraction

import pytest

from jetflow import VectorFieldJet, poly, recover, recover_shift_jet, shift_jet, verify_residual
from jetflow.errors import NotDivisibleError
from jetflow.poly import (EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap, append_above,
                          LieDerivative, bivariate_homog_gcd, combine_trunc, common_quotient,
                          compose, divide_exact)

from conftest import rand_field, rand_fraction, rand_poly


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


def test_exact_division_refuses_float_operands():
    # float elimination ends only where every remainder cancels to exactly
    # 0.0: with a = 0.1x + 0.3y and b = 0.7x - 1.1y + 0.9xy, a*b / a is
    # refused as not divisible, so float operands are refused up front
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    a = x.scale(0.1) + y.scale(0.3)
    b = x.scale(0.7) - y.scale(1.1) + (x * y).scale(0.9)
    with pytest.raises(ValueError, match="exact mode only"):
        divide_exact(a * b, a)
    with pytest.raises(ValueError, match="exact mode only"):
        divide_exact(MultiPoly.zero(2, FLOAT), a)
    with pytest.raises(ValueError, match="exact mode only"):
        common_quotient([a * b, (a * b).scale(2.0)], [a, a.scale(2.0)])


def test_divide_exact_roundtrip():
    rng = random.Random(99)
    for _ in range(20):
        f = rand_poly(rng, 2, 3)
        d = rand_poly(rng, 2, 2, nonzero=True)
        assert divide_exact(f * d, d) == f


def test_common_quotient_of_packed_inputs_builds_no_terms_view(xy):
    x, y = xy
    # every operand below is computed on packed keys, so none has .terms yet
    q = x - (x * y).scale(Fraction(2, 3))
    dens = [(x * x).scale(3) + y.scale(Fraction(1, 2)), y * y - x, x - x]
    nums = [q * d for d in dens]
    got = common_quotient(nums, dens)
    assert all(p._terms is None for p in (got, q, *nums, *dens))
    assert got == q
    with pytest.raises(NotDivisibleError, match="no single polynomial factor"):
        common_quotient([nums[0], nums[1] + x, nums[2]], dens)
    with pytest.raises(NotDivisibleError, match="is not a polynomial multiple of"):
        common_quotient([nums[0] + y * y, *nums[1:]], dens)


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
    # rows of one length, square or not, are a linear map; ragged rows are refused
    assert PolyMap.linear([[1, 2, 3], [4, 5, 6]]).linear_part() == [[1, 2, 3], [4, 5, 6]]
    for ragged in ([[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="differ in length"):
            PolyMap.linear(ragged)


@pytest.mark.parametrize("values", [[math.nan, 1.0, -2.0], [1.0, math.nan, -2.0],
                                    [1.0, -2.0, math.nan], [math.inf, math.nan]])
def test_max_abs_is_nan_wherever_a_nan_stands(values):
    assert math.isnan(poly.max_abs(values))
    assert math.isnan(poly.max_abs(iter(values), 0.0))


def test_max_abs_of_numbers_infinities_and_nothing():
    assert poly.max_abs([1.0, -math.inf, 3.0]) == math.inf
    assert poly.max_abs([-math.inf]) == math.inf
    assert poly.max_abs([0.5, -2.5, 1.0]) == 2.5
    # no values give the zero asked for, of its own type
    assert poly.max_abs([]) == 0 and type(poly.max_abs([])) is int
    assert type(poly.max_abs([], 0.0)) is float
    assert poly.max_abs(iter([]), Fraction(0)) == Fraction(0)
    # exact numerators and Fractions; the first of equal maxima is returned
    assert poly.max_abs([3, -7, 2 ** 200, -(2 ** 201)]) == 2 ** 201
    assert poly.max_abs([Fraction(1, 3), Fraction(-5, 2), Fraction(2)]) == Fraction(5, 2)
    big = Fraction(10 ** 400, 3)  # too large for a float
    assert poly.max_abs([Fraction(1), -big]) == big
    assert type(poly.max_abs([Fraction(-5, 2), 2])) is Fraction


def test_max_abs_coeff_sees_nan_after_a_number():
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    m = PolyMap([x + (y * y).scale(1e-9) + (x * x).scale(math.nan), y])
    assert math.isnan(m.coords[0].max_abs_coeff())
    assert math.isnan(m.max_abs_coeff())
    assert not m.is_identity(3, tol=1e-8)


def test_float_scale_drops_an_underflowed_coefficient():
    p = MultiPoly(1, {(1,): 1e-300}, FLOAT).scale(1e-300)  # 1e-600 underflows to 0.0
    assert p.terms == {}
    assert p.is_zero() and p.degree() == -1


def test_a_narrow_product_leaves_the_operand_whole(xy):
    x, y = xy
    # one operand built from tuples, one computed on packed keys
    for p in (MultiPoly(2, {(1, 0): 1, (0, 5): 3}), x + (y ** 5).scale(3)):
        # order 1's packing has no room for y^5, so it must not become p's own
        assert p.mul_trunc(x, 1).is_zero()
        assert p.degree() == 5
        assert p.max_abs_coeff() == 3
        assert not p.is_homogeneous()
        assert p.truncate(5).terms == p.terms == {(1, 0): 1, (0, 5): 3}


def _count_rekeyings(monkeypatch):
    """A list that grows by one for every call of _pack that re-keys: one
    whose result is not p's packed form, or that replaces a form p had."""
    rekeyed, real = [], poly._pack

    def counting(p, bits=None):
        own = p._packed
        packed = real(p, bits)
        if packed is not p._packed or own is not None and own is not packed:
            rekeyed.append((p.degree(), bits))
        return packed

    monkeypatch.setattr(poly, "_pack", counting)
    return rekeyed


QUARTIC_ALPHA = MultiPoly(2, {(0, 0): 2, (1, 0): -1, (0, 1): 3, (2, 0): 1, (1, 2): -2, (0, 3): 1})


def _recovers(field, alpha, k):
    h = shift_jet(field, alpha, k)
    result = recover_shift_jet(field, h, k)
    return result.residual_ok and [o.poly for o in result.omegas] == alpha.graded_parts(k - field.p)


def test_round_trips_below_degree_32_rekey_nothing(monkeypatch, quartic_field):
    rekeyed = _count_rekeyings(monkeypatch)
    assert _recovers(quartic_field, QUARTIC_ALPHA, 18)
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    rotation = VectorFieldJet(PolyMap([(x * x).scale(0.5) - y.scale(0.8),
                                       x.scale(0.8) - (x * y).scale(0.25)]))
    h = shift_jet(rotation, MultiPoly(2, {(0, 0): 0.6, (1, 0): 0.25, (0, 1): -0.5}, FLOAT), 8)
    assert recover_shift_jet(rotation, h, 8).residual_ok
    assert rekeyed == []


def test_an_operand_keeps_its_packed_form_through_a_wider_product(xy):
    x, y = xy
    # one operand built from tuples, one computed on packed keys, both of
    # degree below 32, against a product at order 40 (a wider key)
    for p in (MultiPoly(2, {(1, 0): 1, (0, 5): 3}), x + (y ** 5).scale(3)):
        packed = poly._pack(p)
        assert p.mul_trunc(x + y, 40).degree() == 6
        assert p._packed is packed


def test_a_round_trip_across_the_width_edge_recovers_alpha(quartic_field):
    # at K = 33 the kernels pack at 7 bits; the field and alpha are packed at 6
    assert _recovers(quartic_field, QUARTIC_ALPHA, 33)


def _count_calls(monkeypatch, name):
    """A list that grows by one for every call of poly.<name>."""
    calls, real = [], getattr(poly, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(poly, name, counting)
    return calls


def _bits(p):
    """p's terms with each coefficient's repr, so that floats compare bitwise."""
    return {m: repr(c) for m, c in p.terms.items()}


def test_a_difference_is_one_kernel_call(monkeypatch, xy):
    x, y = xy
    a, b = (x * y).scale(Fraction(1, 3)) + x, y * y - x.scale(2)
    want_ab, want_ca = a + b.scale(-1), a.scale(-1) + 3
    calls = _count_calls(monkeypatch, "combine_trunc")
    assert a - b == want_ab and len(calls) == 1
    assert 3 - a == want_ca and len(calls) == 2


def test_a_product_bisects_once_per_degree_block_of_a(monkeypatch):
    dense = [m for e in range(9) for m in poly.monomials_of_degree(3, e)]
    a = MultiPoly(3, {m: Fraction(sum(m) + 1, 2) for m in dense})
    b = MultiPoly(3, {m: Fraction(1, sum(m) + 2) for m in dense})
    bound = 3 * len({sum(m) for m in a.terms}) + 2
    assert (len(a.terms), bound) == (165, 29)
    for lo in (0, 8):
        want = {m: c for m, c in (a * b).terms.items() if lo <= sum(m) <= 8}
        calls = _count_calls(monkeypatch, "bisect_left")
        assert combine_trunc(3, EXACT, [(1, a, b)], 8, lo).terms == want
        assert len(calls) <= bound
        monkeypatch.undo()


def test_a_width_below_k_is_refused():
    a = MultiPoly(1, {(40,): 1})  # a 6-bit field would wrap x^80 to x^16
    with pytest.raises(ValueError, match="width"):
        combine_trunc(1, EXACT, [(1, a, a)], 80, 0, 10)
    with pytest.raises(ValueError, match="width"):
        a.mul_trunc(a, 80, 10)
    assert a.mul_trunc(a, 80, 80) == a * a
    assert combine_trunc(1, EXACT, [(1, a, a)], 5, 6, 4).is_zero()  # k < lo: no product


def _packed(p):
    """p's packed form, with each value's repr so that floats compare bitwise."""
    bits, keys, values, den = poly._pack(p)
    return bits, keys, [repr(v) for v in values], den


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_an_append_is_the_sum_of_degree_disjoint_operands(mode):
    x, y = MultiPoly.variable(2, 0, mode), MultiPoly.variable(2, 1, mode)
    zero = MultiPoly.zero(2, mode)
    # denominators 6 and 4: neither coprime nor one a multiple of the other
    a = x.scale(Fraction(1, 6)) + (x * y).scale(Fraction(-5, 6))
    b = (x ** 3).scale(Fraction(1, 4)) + (y ** 4).scale(Fraction(3, 4))
    # b from its terms keeps 6-bit keys; a is re-keyed to 7 bits, as sigma is
    # in a recovery at K = 33
    b6 = MultiPoly(2, {(3, 0): Fraction(1, 4), (0, 4): Fraction(3, 4)}, mode)
    a7 = a.mul_trunc(MultiPoly.const(2, 1, mode), 33)
    assert poly._pack(b6)[0] == 6 and poly._pack(a7)[0] == 7
    for lo, hi, k in ((a, b, 5), (zero, b, 5), (a, zero, 5), (zero, zero, 5), (a7, b6, 33)):
        want = combine_trunc(2, mode, [(1, lo), (1, hi)], k)
        assert _packed(append_above(lo, hi, k)) == _packed(want)


def test_an_append_refuses_a_slice_at_or_below_the_top_degree(xy):
    x, y = xy
    a = x * y + x
    for b in (x * x + y ** 3, y):
        with pytest.raises(ValueError, match="above"):
            append_above(a, b, 5)


def test_a_recovery_appends_each_slice_of_sigma_powers(monkeypatch, quartic_field):
    h = shift_jet(quartic_field, QUARTIC_ALPHA, 18)
    calls = _count_calls(monkeypatch, "combine_trunc")
    monkeypatch.setattr(recover, "combine_trunc", poly.combine_trunc)
    result = recover_shift_jet(quartic_field, h, 18)
    assert [o.poly for o in result.omegas] == QUARTIC_ALPHA.graded_parts(15)
    # a sum of two operands, the second wholly above the first's degree, is
    # an append: a sigma^i (or sigma) and its new slice
    sums = [terms for _, _, terms, *_ in calls
            if len(terms) == 2 and all(len(t) == 2 and t[0] == 1 for t in terms)
            and terms[1][1].min_degree() > terms[0][1].degree()]
    assert calls and sums == []


def test_a_float_difference_is_the_sum_with_the_negation():
    rng = random.Random(5)
    for _ in range(20):
        a, b = (rand_poly(rng, 2, 4, mode=FLOAT).scale(rng.uniform(-3, 3)) for _ in range(2))
        assert _bits(a - b) == _bits(a + b.scale(-1))
        assert _bits(1.25 - a) == _bits(a.scale(-1) + 1.25)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_power_is_repeated_products(monkeypatch, mode):
    x, y = MultiPoly.variable(2, 0, mode), MultiPoly.variable(2, 1, mode)
    one = MultiPoly.const(2, 1, mode)
    # x*y + x/3 - 2 to the 17th has degree 34, past the 6-bit keys' degree 31
    for p in (x * y + x.scale(Fraction(1, 3)) - 2, y.scale(Fraction(-3, 2)) + 1,
              MultiPoly.zero(2, mode), one):
        for e in (0, 1, 2, 5, 17):
            want = one
            for _ in range(e):
                want = want * p
            calls = _count_calls(monkeypatch, "combine_trunc")
            assert _bits(p ** e) == _bits(want)
            assert len(calls) == e
            monkeypatch.undo()
    assert ((x * y + 1) ** 17).degree() == 34


def test_partial_content_and_to_float_read_only_the_packed_form():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    # kernel-born, with mixed denominators and exponents past 32 (7-bit keys)
    p = (x ** 33 * y).scale(Fraction(4, 3)) + (x * y ** 2).scale(Fraction(6, 5)) - 2
    assert p._terms is None
    dx, dy, c, f = p.partial(0), p.partial(1), p.content(), p.to_float()
    assert p._terms is None
    assert dx.terms == {(32, 1): 44, (0, 2): Fraction(6, 5)}
    assert dy.terms == {(33, 0): Fraction(4, 3), (1, 1): Fraction(12, 5)}
    assert c == Fraction(2, 15)
    assert _bits(f) == {(33, 1): repr(4 / 3), (1, 2): repr(1.2), (0, 0): repr(-2.0)}


def test_float_partial_multiplies_by_the_exponent():
    p = MultiPoly(2, {(3, 1): 0.1, (1, 0): 2.5, (0, 2): 1e-300}, FLOAT).scale(1.0)
    assert _bits(p.partial(0)) == {(2, 1): repr(0.1 * 3), (0, 0): repr(2.5)}
    assert _bits(p.partial(1)) == {(3, 0): repr(0.1), (0, 1): repr(1e-300 * 2)}
    assert p._terms is None


def test_to_float_drops_an_underflow_and_refuses_an_overflow():
    x = MultiPoly.variable(1, 0)
    tiny = (x + x ** 40).scale(Fraction(1, 10 ** 400)) + x.scale(Fraction(3, 7))
    assert _bits(tiny.to_float()) == {(1,): repr(3 / 7)}
    with pytest.raises(ValueError, match="too large for float mode"):
        x.scale(Fraction(10 ** 400, 3)).to_float()


def _count_views(monkeypatch):
    """A list that grows by one for every .terms view built."""
    built, real = [], MultiPoly.terms

    def counting(p):
        if p._terms is None:
            built.append(p)
        return real.fget(p)

    monkeypatch.setattr(MultiPoly, "terms", property(counting))
    return built


def test_exact_round_trips_build_no_terms_view(monkeypatch, quartic_field):
    rng = random.Random(8)
    field, alpha = rand_field(rng, 3, 2), rand_poly(rng, 3, 2)
    built = _count_views(monkeypatch)
    for f, a, k in ((quartic_field, QUARTIC_ALPHA, 18), (field, alpha, 8)):
        h = shift_jet(f, a, k)
        result = recover_shift_jet(f, h, k)
        assert result.residual_ok and built == []
        # verify_residual substitutes into h, and Substituter reads .terms: the
        # views it builds are of its operands (h and the cached flow
        # coefficients), so the same check again builds none
        assert verify_residual(f, h, result.omegas, k)
        built.clear()
        assert verify_residual(f, h, result.omegas, k)
        assert built == []


def _lie_cases():
    """Seeded fields in 1..4 variables, dense and sparse, each at k = 6 and at
    31, 32 and 33 (the 6 -> 7-bit key widths), with four p's whose terms reach
    every degree up to k + 1."""
    rng = random.Random("lie derivative oracle")
    for n in range(1, 5):
        for density in (1.0, 0.3):
            field = PolyMap([rand_poly(rng, n, 3, min_deg=1, density=density, nonzero=True)
                             for _ in range(n)])
            for k in (6, 31, 32, 33):
                ps = []
                for _ in range(4):
                    terms = {}
                    for _ in range(12):
                        d = rng.randint(0, k + 1)
                        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
                        terms[tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))] = (
                            rand_fraction(rng) or 1)
                    ps.append(MultiPoly(n, terms))
                yield field, k, ps


def _lie_oracle(field, p, k):
    """j^k of sum_j F_j dp/dx_j, as one combine_trunc."""
    return combine_trunc(p.nvars, EXACT, [(1, f, p.partial(j)) for j, f in enumerate(field.coords)],
                         k)


def test_the_lie_derivative_is_the_sum_of_each_coordinate_times_its_partial():
    for field, k, ps in _lie_cases():
        lie, float_lie = LieDerivative(field, k), LieDerivative(field.to_float(), k)
        sizes = []
        for p in ps:
            want = _lie_oracle(field, p, k)
            assert poly._pack(lie.apply(p)) == poly._pack(want)
            sizes.append(len(lie.outputs))
            got, want = float_lie.apply(p.to_float()), want.to_float()
            tol = 1e-15 * want.max_abs_coeff()
            assert all(abs(got.coefficient(m) - want.coefficient(m)) <= tol
                       for m in set(got.terms) | set(want.terms))
        # later p's reach keys that no earlier one did (in one variable at k = 6
        # the first p reaches them all), and the table grows; the first p's
        # columns still serve it after that growth
        assert sizes == sorted(sizes) and (sizes[-1] > sizes[0] or (field.nvars, k) == (1, 6))
        assert poly._pack(lie.apply(ps[0])) == poly._pack(_lie_oracle(field, ps[0], k))


def test_a_float_lie_derivative_keeps_nan_and_drops_an_exact_cancellation():
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    saddle = LieDerivative(PolyMap([x, y.scale(-1.0)]), 4)
    # (x d/dx - y d/dy)(xy + x) = xy - xy + x
    assert _bits(saddle.apply(x * y + x)) == {(1, 0): repr(1.0)}
    got = saddle.apply(MultiPoly(2, {(2, 0): math.nan, (0, 1): 0.5}, FLOAT))
    assert math.isnan(got.coefficient((2, 0))) and _bits(got)[(0, 1)] == repr(-0.5)
    # a term c x^m meets a x^f of F_j as c * (m_j * a)
    one = LieDerivative(PolyMap([MultiPoly(1, {(1,): 0.7}, FLOAT)]), 4)
    assert _bits(one.apply(MultiPoly(1, {(3,): 0.1}, FLOAT))) == {(3,): repr(0.1 * (3 * 0.7))}

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from jetflow.jet import (BiJet, VectorFieldJet, bidegree_truncate, flow_bijet,
                         flow_taylor_coeffs, flow_time_jet, hatted_shift_jet,
                         jet_inverse, shift_jet)
from jetflow.linalg import RatMatrix
from jetflow.poly import EXACT, FLOAT, LieDerivative, MultiPoly, PolyMap, combine_trunc, compose

from conftest import rand_field, rand_poly


def scalar_field(expr_power=2, mode=EXACT):
    u = MultiPoly.variable(1, 0, mode)
    return VectorFieldJet(PolyMap([u.pow_trunc(expr_power, 10)]))


def test_flow_coeffs_closed_form():
    # flow of x' = x^2 is x/(1-tx): v_i = i! x^(i+1)
    field = scalar_field()
    flow = flow_taylor_coeffs(field, 3, 6)
    u = MultiPoly.variable(1, 0)
    assert flow.coeffs[0].coords[0] == u ** 2
    assert flow.coeffs[1].coords[0] == (u ** 3).scale(2)
    assert flow.coeffs[2].coords[0] == (u ** 4).scale(6)


def test_flow_coeffs_linear_matrix_powers():
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    if all(v == 0 for row in rows for v in row):
        rows[0][0] = Fraction(1)
    mat = RatMatrix(rows)
    field = VectorFieldJet(PolyMap.linear(rows))
    flow = flow_taylor_coeffs(field, 3, 3)
    for i, v in enumerate(flow.coeffs, start=1):
        assert v == PolyMap.linear(mat.power(i).rows, trunc=3)


def test_v1_is_the_field(quartic_field):
    flow = flow_taylor_coeffs(quartic_field, 1, 5)
    assert flow.coeffs[0] == quartic_field.field.truncate(5)


def test_order_bound():
    rng = random.Random(21)
    for _ in range(6):
        p = rng.choice([2, 3])
        n = rng.choice([1, 2])
        field = rand_field(rng, n, p)
        k = 6 * (p - 1)
        flow = flow_taylor_coeffs(field, 6, k)
        for i, v in enumerate(flow.coeffs, start=1):
            bound = i * (p - 1)
            for coord in v.coords:
                assert coord.min_degree() > bound


def test_flow_bijet_example():
    field = scalar_field()
    bj = flow_bijet(field, 2, 3)
    u, t = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert bj.map.coords[0] == u + u ** 2 * t + u ** 3 * t ** 2
    # t = 0 slice is the identity
    zero_slice = compose(bj.map, PolyMap([MultiPoly.variable(1, 0), MultiPoly.zero(1)]), 3)
    assert zero_slice.coords[0] == MultiPoly.variable(1, 0)


def test_flat_field_rejected():
    with pytest.raises(ValueError):
        VectorFieldJet(PolyMap([MultiPoly.zero(1)]))
    with pytest.raises(ValueError):
        VectorFieldJet(PolyMap([MultiPoly.const(1, 1)]))


def test_shift_jet_examples():
    field = scalar_field()
    u = MultiPoly.variable(1, 0)
    assert shift_jet(field, u, 5).coords[0] == u + u ** 3 + u ** 5
    c = Fraction(3, 7)
    out = shift_jet(field, u.scale(c), 3)
    assert out.coords[0] == u + (u ** 3).scale(c)
    assert shift_jet(field, MultiPoly.zero(1), 4) == PolyMap.identity(1, trunc=4)


def test_shift_jet_p1_constant_rejected_exact():
    rows = [[Fraction(-4), Fraction(0)], [Fraction(0), Fraction(3)]]
    field = VectorFieldJet(PolyMap.linear(rows))
    alpha = MultiPoly.const(2, Fraction(1, 4))
    with pytest.raises(ValueError):
        shift_jet(field, alpha, 4)


def test_float_shift_of_a_slow_field_matches_exact(slow_field):
    # F / 1000 shifted by 1000 alpha is the same map as F shifted by alpha,
    # so no coefficient of the float jet may be lost to its scale
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    alpha = (x + y).scale(1000)
    want = shift_jet(VectorFieldJet(slow_field), alpha, 6)
    got = shift_jet(VectorFieldJet(slow_field.to_float()), alpha.to_float(), 6)
    size = float(want.max_abs_coeff())
    for got_j, want_j in zip(got.coords, want.coords):
        for m in set(got_j.terms) | set(want_j.terms):
            assert abs(got_j.coefficient(m) - float(want_j.coefficient(m))) <= 1e-10 * max(1.0, size)


def test_hatted_shift_examples():
    field = scalar_field()
    u = MultiPoly.variable(1, 0)
    h = PolyMap([u + u ** 2])
    out = hatted_shift_jet(field, h, u, 3)
    assert out.coords[0] == u + u ** 2 + u ** 3
    assert hatted_shift_jet(field, h, MultiPoly.zero(1), 5) == h.truncate(5)
    # h = id agrees with the plain shift
    beta = u ** 2
    assert hatted_shift_jet(field, PolyMap.identity(1), beta, 6) == shift_jet(field, beta, 6)


def _rotation_field():
    """A float p = 1 field, x' = -y + x^2, y' = x + x*y."""
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    return VectorFieldJet(PolyMap([x * x - y, x + x * y]))


def _terms(m):
    return [c.terms for c in m.coords]


def test_shift_jets_at_order_zero_are_zero(quartic_field):
    zero = [{}, {}]
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert _terms(shift_jet(quartic_field, 1 + x, 0)) == zero
    assert _terms(hatted_shift_jet(quartic_field, PolyMap([x + y * y, y]), 1 + x, 0)) == zero
    # float p = 1 with alpha(0) != 0
    field = _rotation_field()
    xf, yf = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    assert _terms(shift_jet(field, 0.75 + xf, 0)) == zero
    assert _terms(hatted_shift_jet(field, PolyMap([xf + yf * yf, yf]), 0.75 + xf, 0)) == zero


def test_negative_order_rejected(quartic_field):
    x = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        shift_jet(quartic_field, x, -2)
    with pytest.raises(ValueError, match="nonnegative"):
        hatted_shift_jet(quartic_field, PolyMap.identity(2), x, -1)


def test_float_constant_shift_of_nonlinear_h_is_the_composed_flow():
    # beta = c leaves the one term w_0 o h = Phi_c o h
    field = _rotation_field()
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    h = PolyMap([x + 0.5 * y * y - x * x * y, y - 0.25 * x * y])
    for c, k in ((0.75, 5), (-3.0, 7), (30.0, 4)):
        beta = MultiPoly.const(2, c, FLOAT)
        want = compose(flow_time_jet(field, c, k), h, k)
        assert _terms(hatted_shift_jet(field, h, beta, k)) == _terms(want)


def test_float_zero_shift_is_the_truncation():
    field = _rotation_field()
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    h = PolyMap([x + 0.5 * y * y - x * x * y * y, y - 0.25 * x * y])
    for k in (0, 2, 3, 6):
        got = hatted_shift_jet(field, h, MultiPoly.zero(2, FLOAT), k)
        assert _terms(got) == _terms(h.truncate(k))


def test_hatted_shift_is_conjugated_shift(quartic_field):
    # Phi(h(x), beta(x)) agrees with F_(beta o h^-1) o h for invertible h
    rng = random.Random(47)
    k = 7
    for _ in range(5):
        pert = PolyMap([rand_poly(rng, 2, k, min_deg=2) for _ in range(2)])
        h = PolyMap.identity(2) + pert
        beta = rand_poly(rng, 2, 3, min_deg=1)
        lhs = hatted_shift_jet(quartic_field, h, beta, k)
        h_inv = jet_inverse(h, k)
        beta_conj = compose(PolyMap([beta]), h_inv, k).coords[0]
        rhs = compose(shift_jet(quartic_field, beta_conj, k), h, k)
        assert lhs == rhs


def _whole_power_shift(field, h, beta, k):
    """sum_i b^i / i! (w_i o h) over i = 0..K, every power b^i whole to order
    K: the shift sum without the rule that cuts b^i at K - ord(w_i o h)."""
    c = beta.constant_term() if field.p == 1 else 0
    b = beta - c
    total = [MultiPoly.zero(field.n, field.mode)] * field.n
    for i, w in enumerate(field.flow_series(c, k, k)):
        power = b.pow_trunc(i, k).scale(Fraction(1, math.factorial(i)) if field.mode == EXACT
                                        else 1 / math.factorial(i))
        total = [t + q.mul_trunc(power, k) for t, q in zip(total, compose(w, h, k).coords)]
    return PolyMap(total, k)


def _nilpotent_field():
    """x' = y^2, y' = z^2, z' = 0: p = 2, and v_4 = v_5 = ... = 0."""
    _, y, z = (MultiPoly.variable(3, i) for i in range(3))
    return VectorFieldJet(PolyMap([y * y, z * z, MultiPoly.zero(3)]))


def _truncation_cases():
    rng = random.Random(16)
    cases = []
    for field in (rand_field(rng, 2, 2), rand_field(rng, 2, 3), _nilpotent_field()):
        n = field.n
        ident = PolyMap.identity(n)
        bent = ident + PolyMap([rand_poly(rng, n, 4, min_deg=2, density=0.4) for _ in range(n)])
        for ord_beta in (0, 1):
            beta = rand_poly(rng, n, 3, min_deg=ord_beta, nonzero=True)
            cases += [(field, ident, beta), (field, bent, beta)]
    return cases


@pytest.mark.parametrize("case", _truncation_cases())
def test_cut_powers_give_the_whole_power_sum(case):
    field, h, beta = case
    for k in (1, 5, 8):
        assert hatted_shift_jet(field, h, beta, k) == _whole_power_shift(field, h, beta, k)


@pytest.mark.parametrize("field, c", [
    (VectorFieldJet(rand_field(random.Random(42), 2, 2).field.to_float()), 0.0),
    (_rotation_field(), 0.625)])
def test_float_shift_jet_matches_the_whole_power_sum(field, c):
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    h = PolyMap([x + 0.5 * y * y, y - 0.25 * x * y + x * x * x])
    beta = c + 0.5 * x - y + 0.75 * x * y
    for k in (4, 7):
        for got, inner in ((shift_jet(field, beta, k), PolyMap.identity(2, FLOAT)),
                           (hatted_shift_jet(field, h, beta, k), h)):
            want = _whole_power_shift(field, inner, beta, k)
            assert (got - want).max_abs_coeff() <= 1e-12 * want.max_abs_coeff()


def test_flow_time_jet_linear_matches_expm():
    rng = random.Random(11)
    rows = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
    field = VectorFieldJet(PolyMap.linear(rows, FLOAT))
    c = 0.37
    out = flow_time_jet(field, c, 3)
    expected = expm(np.array(rows) * c)
    got = np.array([[float(v) for v in row] for row in out.linear_part()])
    assert np.max(np.abs(got - expected)) < 1e-9
    assert flow_time_jet(field, 0.0, 3) == PolyMap.identity(2, FLOAT, 3)


def test_flow_time_jet_scalar_example():
    field = scalar_field(mode=FLOAT)
    out = flow_time_jet(field, 0.5, 3)
    coeffs = [out.coords[0].coefficient((k,)) for k in (1, 2, 3)]
    assert abs(coeffs[0] - 1.0) < 1e-9
    assert abs(coeffs[1] - 0.5) < 1e-9
    assert abs(coeffs[2] - 0.25) < 1e-9


def test_flow_time_jet_exact_mode_rejected():
    with pytest.raises(ValueError):
        flow_time_jet(scalar_field(), 1, 3)


def test_flow_time_jet_overflow_reported():
    u = MultiPoly.variable(1, 0, FLOAT)
    field = VectorFieldJet(PolyMap([u.scale(100.0)]))
    with pytest.raises(ValueError, match="blew up"):
        flow_time_jet(field, 10.0, 2)


def _lie_series_reference(field, c, k):
    """x + sum v_i c^i / i! in exact arithmetic, summed until the terms vanish."""
    c = Fraction(c)
    total = [dict(p.terms) for p in PolyMap.identity(field.n, EXACT, k).coords]
    for i in itertools.count(1):
        factor = c ** i / math.factorial(i)
        size = 0.0
        for acc, coord in zip(total, field.flow_coeffs(i, k)[-1].coords):
            for mono, a in coord.terms.items():
                acc[mono] = acc.get(mono, 0) + a * factor
                size = max(size, abs(float(a * factor)))
        largest = max(abs(float(a)) for acc in total for a in acc.values())
        if size <= 1e-30 * largest:
            return total


def test_flow_time_jet_matches_exact_lie_series():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    exact = VectorFieldJet(PolyMap([x.scale(-4) + y * y, y.scale(3) + x * y]))
    for c in (0.5, 1.0):
        ref = _lie_series_reference(exact, c, 8)
        scale = max(abs(float(a)) for acc in ref for a in acc.values())
        # the field slowed down 1000 times reaches the same map at 1000 c
        for slow in (1.0, 1e-3):
            field = VectorFieldJet(exact.field.to_float().scale(slow))
            got = flow_time_jet(field, c / slow, 8)
            for acc, coord in zip(ref, got.coords):
                for mono in set(acc) | set(coord.terms):
                    err = abs(float(acc.get(mono, 0)) - coord.coefficient(mono))
                    assert err <= 1e-10 * scale, (c, slow, mono)


def test_flow_time_jet_closed_form():
    # x' = -x + y^2, y' = -2y flows to
    # (e^-c x + (e^-c - e^-4c)/3 y^2, e^-2c y); c = 3 takes one squaring.
    x = MultiPoly.variable(2, 0, FLOAT)
    y = MultiPoly.variable(2, 1, FLOAT)
    field = VectorFieldJet(PolyMap([-x + y * y, y.scale(-2.0)]))
    c = 3.0
    out = flow_time_jet(field, c, 3)
    want = [{(1, 0): math.exp(-c), (0, 2): (math.exp(-c) - math.exp(-4 * c)) / 3},
            {(0, 1): math.exp(-2 * c)}]
    for terms, coord in zip(want, out.coords):
        for mono in set(terms) | set(coord.terms):
            assert abs(coord.coefficient(mono) - terms.get(mono, 0.0)) < 1e-14, mono


def _float_field(seed, n, p, density):
    """A seeded float field of flat order p in n variables, of degree <= p + 2."""
    rng = random.Random(f"{seed}/{n}/{p}/{density}")
    while True:
        coords = [rand_poly(rng, n, p + 2, min_deg=p, density=density, mode=FLOAT)
                  for _ in range(n)]
        if any(not c.homogeneous_part(p).is_zero() for c in coords):
            return VectorFieldJet(PolyMap(coords))


def _term_by_term_flow(field, c, k):
    """The time-c flow summed term by term: each term of the Lie series of sF
    one LieDerivative.apply per coordinate, the coordinates summed by one
    combine_trunc each, with flow_time_jet's halvings, stop rule and squarings."""
    def largest(coords):
        size = PolyMap(coords).max_abs_coeff()
        if not math.isfinite(size):
            raise ValueError(f"flow integration blew up before time {c}")
        return size

    rate = k * field.field.max_abs_coeff()
    m = 0
    while abs(math.ldexp(c, -m)) * rate > 16.0:
        m += 1
    s = math.ldexp(c, -m)
    lie = LieDerivative(PolyMap([p.scale(s) for p in field.field.coords]), k)
    term = PolyMap.identity(field.n, FLOAT, k).coords
    sums = [[(1.0, x)] for x in term]
    inv_fact = bar = 1.0
    for i in itertools.count(1):
        inv_fact /= i
        term = [lie.apply(p) for p in term]
        size = largest(term) * inv_fact
        for pairs, t in zip(sums, term):
            pairs.append((inv_fact, t))
        if i >= abs(s) * rate and size <= 2.0 ** -53 * bar:
            flow = [combine_trunc(field.n, FLOAT, pairs, k) for pairs in sums]
            bar = largest(flow)
            if size <= 2.0 ** -53 * bar:
                break
        bar = max(bar, size)
    flow = PolyMap(flow, k)
    for _ in range(m):
        flow = compose(flow, flow, k)
        largest(flow.coords)
    return flow


@pytest.mark.parametrize("n, p, density", [(n, p, d) for n in (1, 2, 3) for p in (1, 2)
                                           for d in (1.0, 0.3)])
def test_flow_time_jet_is_bitwise_the_term_by_term_sum(n, p, density):
    field = _float_field(5, n, p, density)
    ks = (0, 1, 2, 5, 8) + ((31, 32, 33) if n == 1 else ())
    squared = 0
    for k in ks:
        for c in (0.3, -0.3, 1.0, -1.0, 3.0, -5.0):
            got, want = flow_time_jet(field, c, k), _term_by_term_flow(field, c, k)
            assert all(a == b for a, b in zip(got.coords, want.coords)), (k, c)
            squared += abs(c) * k * float(field.field.max_abs_coeff()) > 16
    assert squared


def test_flow_time_jet_blows_up_as_the_term_by_term_sum():
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    field = VectorFieldJet(PolyMap([x.scale(100.0) + y * y, y.scale(-3.0)]))
    with pytest.raises(ValueError, match="blew up") as got:
        flow_time_jet(field, 10.0, 3)
    with pytest.raises(ValueError, match="blew up") as want:
        _term_by_term_flow(field, 10.0, 3)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("p", [1, 2])
def test_float_flow_keeps_the_group_law(p):
    # Phi_a o Phi_b = Phi_(a+b) and Phi_-c o Phi_c = id, to rounding on the
    # scale of the flows composed; times on both sides of the squaring
    # threshold |c| * K * max|F| = 16
    squares = set()
    for n, density in ((1, 1.0), (2, 1.0), (2, 0.5), (3, 0.5)):
        field = _float_field(7, n, p, density)
        rate = float(field.field.max_abs_coeff())
        for k in (1, 3, 6):
            ident = PolyMap.identity(n, FLOAT, k)
            for a, b in ((0.2, -0.3), (0.2, 0.9), (-1.5, 0.9), (1.5, -0.3)):
                flows = [flow_time_jet(field, t, k) for t in (a, b, a + b)]
                after = compose(flows[0], flows[1], k)
                size = max(f.max_abs_coeff() for f in flows)
                assert (after - flows[2]).max_abs_coeff() <= 1e-12 * size, (n, k, a, b)
                squares.update(abs(t) * k * rate > 16 for t in (a, b, a + b))
            for c in (0.2, -0.9, 1.5):
                flows = [flow_time_jet(field, t, k) for t in (-c, c)]
                size = max(f.max_abs_coeff() for f in flows)
                back = compose(flows[0], flows[1], k)
                assert (back - ident).max_abs_coeff() <= 1e-12 * size, (n, k, c)
    assert squares == {False, True}


def test_jet_inverse_examples():
    u = MultiPoly.variable(1, 0)
    inv = jet_inverse(PolyMap([u + u ** 2]), 3)
    assert inv.coords[0] == u - u ** 2 + (u ** 3).scale(2)
    assert jet_inverse(PolyMap.identity(1), 4) == PolyMap.identity(1, trunc=4)
    assert jet_inverse(PolyMap([u.scale(2)]), 3).coords[0] == u.scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        jet_inverse(PolyMap([u ** 2]), 3)


def test_jet_inverse_two_sided():
    rng = random.Random(5)
    ident = PolyMap.identity(2)
    for _ in range(8):
        k = rng.randint(2, 5)
        lin = PolyMap.identity(2)
        pert = PolyMap([rand_poly(rng, 2, k, min_deg=2) for _ in range(2)])
        h = lin + pert
        g = jet_inverse(h, k)
        assert compose(h, g, k) == ident.truncate(k)
        assert compose(g, h, k) == ident.truncate(k)


def test_jet_inverse_float():
    rng = random.Random(6)
    k = 5
    ident = PolyMap.identity(2, FLOAT)
    lin = PolyMap.linear([[1.5, 0.25], [-0.5, 2.0]], FLOAT)
    pert = PolyMap([rand_poly(rng, 2, k, min_deg=2).to_float() for _ in range(2)])
    h = lin + pert
    g = jet_inverse(h, k)
    assert (compose(h, g, k) - ident).truncate(k).max_abs_coeff() <= 1e-12
    with pytest.raises(ValueError, match="singular"):
        jet_inverse(PolyMap.linear([[1.0, 2.0], [0.5, 1.0]], FLOAT) + pert, k)


def test_jet_inverse_float_small_linear_part():
    # det = 1e-15 at the scale 1e-5: invertible, though an absolute
    # determinant threshold of 1e-14 would call it singular
    rng = random.Random(7)
    n, k = 3, 4
    lin = PolyMap.linear([[1e-5 if i == j else 0.0 for j in range(n)] for i in range(n)], FLOAT)
    pert = PolyMap([rand_poly(rng, n, k, min_deg=1).to_float().scale(1e-6) for _ in range(n)])
    h = lin + pert
    g = jet_inverse(h, k)
    exact = jet_inverse(PolyMap([MultiPoly(n, {m: Fraction(c) for m, c in q.terms.items()})
                                 for q in h.coords]), k)
    for got, want in zip(g.coords, exact.coords):
        for d in range(1, k + 1):
            a, b = got.homogeneous_part(d).poly, want.homogeneous_part(d).poly
            scale = float(b.max_abs_coeff())
            assert scale > 0
            for mono in set(a.terms) | set(b.terms):
                assert abs(a.coefficient(mono) - float(b.coefficient(mono))) <= 1e-12 * scale


def test_flow_law_bijet(quartic_field):
    n, k, order = 2, 6, 3
    bj = flow_bijet(quartic_field, order, k)
    lift = bj.map.coords
    outer = bj.map
    u_map = PolyMap([c.rename_vars([0, 1, 2], 4) for c in lift]
                    + [MultiPoly.variable(4, 3)])
    lhs = compose(outer, u_map, k + order)
    s_plus_t = PolyMap([MultiPoly.variable(4, 0), MultiPoly.variable(4, 1),
                        MultiPoly.variable(4, 2) + MultiPoly.variable(4, 3)])
    rhs = compose(outer, s_plus_t, k + order)
    assert bidegree_truncate(lhs, n, k, order) == bidegree_truncate(rhs, n, k, order)


def test_group_law(quartic_field):
    rng = random.Random(17)
    k = 8
    for _ in range(8):
        alpha = rand_poly(rng, 2, 3, min_deg=1)
        beta = rand_poly(rng, 2, 3, min_deg=1)
        f_a = shift_jet(quartic_field, alpha, k)
        f_b = shift_jet(quartic_field, beta, k)
        lhs = compose(f_a, f_b, k)
        alpha_after = compose(PolyMap([alpha]), f_b, k).coords[0]
        rhs = shift_jet(quartic_field, alpha_after + beta, k)
        assert lhs == rhs


def test_inverse_law(quartic_field):
    rng = random.Random(23)
    p = quartic_field.p
    for _ in range(6):
        l = rng.randint(1, 3)
        alpha = rand_poly(rng, 2, l + 2, min_deg=l, nonzero=True)
        order = p + l
        f_a = shift_jet(quartic_field, alpha, order)
        assert jet_inverse(f_a, order) == shift_jet(quartic_field, -alpha, order)


def test_jets_of_shifts_detect_jet_of_alpha(quartic_field):
    # conditions (A) and (B): j^l(a) = j^l(b) iff j^{p+l}(F_a) = j^{p+l}(F_b)
    rng = random.Random(31)
    p = quartic_field.p
    from jetflow.poly import monomials_of_degree

    for _ in range(6):
        l = rng.randint(0, 3)
        alpha = rand_poly(rng, 2, l + 2)
        bump = MultiPoly(2, {monomials_of_degree(2, l + 1)[0]: Fraction(1)})
        beta = alpha + bump  # agrees with alpha through degree l only
        assert shift_jet(quartic_field, alpha, p + l) == shift_jet(quartic_field, beta, p + l)
        assert shift_jet(quartic_field, alpha, p + l + 1) != shift_jet(
            quartic_field, beta, p + l + 1)


def test_initial_jet_formula(quartic_field):
    rng = random.Random(41)
    p = quartic_field.p
    p_map = quartic_field.initial_part_map()
    ident = PolyMap.identity(2)
    from conftest import rand_homog

    for _ in range(10):
        l = rng.randint(0, 4)
        omega = rand_homog(rng, 2, l)
        got = shift_jet(quartic_field, omega.poly, p + l)
        expected = (ident + PolyMap([c * omega.poly for c in p_map.coords])).truncate(p + l)
        assert got == expected


def test_initial_jet_formula_p1_l0_float():
    rows = [[-4.0, 0.0], [0.0, 3.0]]
    field = VectorFieldJet(PolyMap.linear(rows, FLOAT))
    alpha = MultiPoly.const(2, 0.3, FLOAT)
    out = shift_jet(field, alpha, 2)
    got = np.array(out.linear_part(), dtype=float)
    expected = expm(np.array(rows) * 0.3)
    assert np.max(np.abs(got - expected)) < 1e-8

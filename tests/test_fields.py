import random
from fractions import Fraction

import pytest

from jetflow.errors import NoSuchFactorError
from jetflow.fields import (binary_form_profile, check_star,
                            classify_exp_subgroup, cross_product_field,
                            gradients_independent_sampled, reduced_hamiltonian,
                            stabilizer_tangent, verify_integral_representation)
from jetflow.jet import VectorFieldJet
from jetflow.linalg import RatMatrix
from jetflow.poly import EXACT, HomogPoly, MultiPoly, PolyMap, compose

from conftest import rand_homog, rand_poly


def test_cross_product_examples(xy):
    x, y = xy
    h = cross_product_field([x ** 3 * y ** 4])
    assert h.coords[0] == (x ** 3 * y ** 3).scale(-4)
    assert h.coords[1] == (x ** 2 * y ** 4).scale(3)

    circ = cross_product_field([x ** 2 + y ** 2])
    assert circ.coords[0] == y.scale(-2)
    assert circ.coords[1] == x.scale(2)

    x3 = MultiPoly.variable(3, 0)
    y3 = MultiPoly.variable(3, 1)
    out = cross_product_field([x3, y3])
    assert out.coords[0].is_zero() and out.coords[1].is_zero()
    assert out.coords[2] == MultiPoly.const(3, 1)

    with pytest.raises(ValueError):
        cross_product_field([x3])


def test_first_integral_property():
    rng = random.Random(5)
    for _ in range(10):
        g = rand_poly(rng, 2, 4, nonzero=True)
        h = cross_product_field([g])
        pairing = g.partial(0) * h.coords[0] + g.partial(1) * h.coords[1]
        assert pairing.is_zero()
    # n = 3: both defining functions are first integrals
    g1 = rand_poly(rng, 3, 2, nonzero=True)
    g2 = rand_poly(rng, 3, 2, nonzero=True)
    h = cross_product_field([g1, g2])
    for g in (g1, g2):
        pairing = MultiPoly.zero(3)
        for j in range(3):
            pairing = pairing + g.partial(j) * h.coords[j]
        assert pairing.is_zero()


def test_reduced_hamiltonian_examples(xy):
    x, y = xy
    d, f = reduced_hamiltonian(x ** 3 * y ** 4)
    assert d.poly == x ** 2 * y ** 3
    assert f.coords[0] == x.scale(-4)
    assert f.coords[1] == y.scale(3)

    g = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    d2, f2 = reduced_hamiltonian(g)
    assert d2.poly == MultiPoly.const(2, 1)
    assert f2.coords[0] == (x ** 2 * y).scale(-3) - (y ** 3).scale(4)
    assert f2.coords[1] == (x ** 3).scale(2) + (x * y ** 2).scale(3)

    d3, f3 = reduced_hamiltonian(x ** 2)
    assert d3.poly == x
    assert f3.coords[0].is_zero()
    assert f3.coords[1] == MultiPoly.const(2, 1)

    with pytest.raises(ValueError):
        reduced_hamiltonian(MultiPoly.const(2, 3))


def test_check_star_examples(xy):
    x, y = xy
    f = VectorFieldJet(PolyMap([x.scale(-4), y.scale(3)]))
    report = check_star(f)
    assert report.p == 1 and report.nondivisible == "yes" and report.witness is None

    h = VectorFieldJet(PolyMap([(x ** 3 * y ** 3).scale(-4), (x ** 2 * y ** 4).scale(3)]))
    report2 = check_star(h)
    assert report2.nondivisible == "no"
    assert report2.witness.poly == x ** 2 * y ** 3

    x3 = MultiPoly.variable(3, 0)
    y3 = MultiPoly.variable(3, 1)
    z3 = MultiPoly.variable(3, 2)
    report3 = check_star(VectorFieldJet(PolyMap([y3, z3, x3])))
    assert report3.nondivisible == "unknown"


def test_check_star_one_variable():
    # in one variable P = c*x^p, so x^p always divides it
    u = MultiPoly.variable(1, 0)
    report = check_star(VectorFieldJet(PolyMap([u ** 3])))
    assert report.p == 3 and report.nondivisible == "no"
    assert report.witness == HomogPoly(u ** 3, 3)


def test_integral_representation_examples(xy):
    x, y = xy
    g = x ** 3 * y ** 4
    f = VectorFieldJet(PolyMap([x.scale(-4), y.scale(3)]))
    assert verify_integral_representation(f, [g]) == x ** 2 * y ** 3

    h = cross_product_field([g])
    assert verify_integral_representation(VectorFieldJet(h), [g]) == MultiPoly.const(2, 1)

    radial = VectorFieldJet(PolyMap([x, y]))
    with pytest.raises(NoSuchFactorError):
        verify_integral_representation(radial, [x ** 2 + y ** 2])


def test_gradients_independent_sampled(xy):
    x, y = xy
    assert gradients_independent_sampled([x ** 2 + y ** 2])
    assert not gradients_independent_sampled([MultiPoly.zero(2)])


def test_stabilizer_examples(xy):
    x, y = xy
    basis = stabilizer_tangent([x ** 2 + y ** 2])
    assert len(basis) == 1
    v = basis[0]
    assert v.rows[0][0] == 0 and v.rows[1][1] == 0
    assert v.rows[0][1] == -v.rows[1][0] != 0

    quartic = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    assert stabilizer_tangent([quartic]) == []

    full = stabilizer_tangent([MultiPoly.zero(2)])
    assert len(full) == 4


def test_stabilizer_consistency_with_reduced_fields(xy):
    x, y = xy
    # p = 1: the tangent space is spanned by L itself
    d, f = reduced_hamiltonian(x ** 2 + y ** 2)
    vf = VectorFieldJet(f)
    assert vf.p == 1
    basis = stabilizer_tangent([x ** 2 + y ** 2])
    l_mat = vf.L
    assert len(basis) == 1
    v = basis[0]
    ratios = {Fraction(a, b) for a, b in
              [(v.rows[i][j], l_mat.rows[i][j]) for i in range(2) for j in range(2)
               if l_mat.rows[i][j] != 0]}
    assert len(ratios) == 1
    # p >= 2: trivial tangent space
    quartic = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    _, f2 = reduced_hamiltonian(quartic)
    assert VectorFieldJet(f2).p == 3
    assert stabilizer_tangent([quartic]) == []


def test_reduced_field_passes_star(xy):
    x, y = xy
    rng = random.Random(9)
    for _ in range(8):
        # a squarefree product of distinct linear and definite quadratic forms
        g = MultiPoly.const(2, 1)
        used = set()
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            if (a, b) in used:
                continue
            used.add((a, b))
            g = g * (x.scale(a) + y.scale(b))
        if rng.random() < 0.7:
            g = g * (x ** 2 + (y ** 2).scale(rng.randint(1, 4)))
        if g.degree() < 2:
            continue  # a linear form reduces to a constant field (p = 0)
        _, f = reduced_hamiltonian(g)
        assert check_star(VectorFieldJet(f)).nondivisible == "yes"


def test_coordinate_change_identity(xy):
    x, y = xy
    rng = random.Random(29)
    for _ in range(10):
        while True:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            a = RatMatrix(rows)
            if a.det() != 0:
                break
        g = rand_poly(rng, 2, 4, nonzero=True)
        lin = PolyMap.linear(rows)
        g_pull = compose(PolyMap([g]), lin, g.degree()).coords[0]
        lhs = cross_product_field([g_pull])
        h = cross_product_field([g])
        h_at_ay = PolyMap([compose(PolyMap([c]), lin, max(c.degree(), 0)).coords[0]
                           for c in h.coords])
        a_inv = a.inverse()
        det = a.det()
        rhs_coords = []
        for i in range(2):
            acc = MultiPoly.zero(2)
            for j in range(2):
                if a_inv.rows[i][j] != 0:
                    acc = acc + h_at_ay.coords[j].scale(a_inv.rows[i][j])
            rhs_coords.append(acc.scale(det))
        assert lhs == PolyMap(rhs_coords)


def test_function_change_under_near_identity(xy):
    # degree-(q-1+k) slice of g(h) - g equals <grad(initial part of g), v>
    x, y = xy
    rng = random.Random(37)
    for _ in range(8):
        q = rng.randint(2, 4)
        k = rng.randint(2, 3)
        g = rand_poly(rng, 2, q + 2, min_deg=q, nonzero=True)
        gamma = g.homogeneous_part(q).poly
        v = [rand_homog(rng, 2, k, nonzero=False).poly for _ in range(2)]
        if all(p.is_zero() for p in v):
            continue
        h = PolyMap.identity(2) + PolyMap(v)
        delta = compose(PolyMap([g]), h, q + k).coords[0] - g
        got = delta.homogeneous_part(q - 1 + k).poly
        expected = gamma.partial(0) * v[0] + gamma.partial(1) * v[1]
        assert got == expected


def test_function_change_under_linear_part(xy):
    # degree-q slice of g(h) - g equals Gamma(Ax) - Gamma(x) when j^1(h) = Ax
    x, y = xy
    rng = random.Random(43)
    for _ in range(6):
        q = rng.randint(2, 4)
        g = rand_poly(rng, 2, q + 2, min_deg=q, nonzero=True)
        gamma = g.homogeneous_part(q).poly
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        h = PolyMap.linear(rows) + PolyMap([rand_poly(rng, 2, 3, min_deg=2)
                                            for _ in range(2)])
        delta = compose(PolyMap([g]), h, q).coords[0] - g.truncate(q)
        lin = PolyMap.linear(rows)
        gamma_pulled = compose(PolyMap([gamma]), lin, q).coords[0]
        assert delta.homogeneous_part(q).poly == gamma_pulled - gamma


def test_classify_examples():
    assert classify_exp_subgroup(RatMatrix([[0, -1], [1, 0]])).tag == "Circle"
    assert classify_exp_subgroup(RatMatrix([[1, 0], [0, -1]])).tag == "ClosedLine"
    two_rotors = RatMatrix([[0, -1, 0, 0], [1, 0, 0, 0],
                            [0, 0, 0, -2], [0, 0, 1, 0]])
    assert classify_exp_subgroup(two_rotors).tag == "DenseLine"
    assert classify_exp_subgroup(RatMatrix.zero(3)).tag == "Trivial"
    assert classify_exp_subgroup(RatMatrix([[0, 1], [0, 0]])).tag == "ClosedLine"
    # commensurable frequencies 1 and 2 (ratio of squares 4): still a circle
    rotors_4 = RatMatrix([[0, -1, 0, 0], [1, 0, 0, 0],
                          [0, 0, 0, -4], [0, 0, 1, 0]])
    assert classify_exp_subgroup(rotors_4).tag == "Circle"
    # complex spectrum off the imaginary axis, no real roots
    quartic_complex = RatMatrix([[0, 0, 0, -1], [1, 0, 0, 0],
                                 [0, 1, 0, -1], [0, 0, 1, 0]])
    assert classify_exp_subgroup(quartic_complex).tag == "ClosedLine"
    # irreducible lambda^4 + 3 lambda^2 + 1: irrational imaginary frequencies
    comp = RatMatrix([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -3], [0, 0, 1, 0]])
    assert classify_exp_subgroup(comp).tag == "Undetermined"


def test_profile_examples(xy):
    x, y = xy
    prof = binary_form_profile(x ** 3 * y ** 4)
    assert (prof.l, prof.q) == (2, 0)
    assert prof.multiplicities == {3: (1, 0), 4: (1, 0)}

    quartic = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    prof2 = binary_form_profile(quartic)
    assert (prof2.l, prof2.q) == (0, 2)
    _, f = reduced_hamiltonian(quartic)
    assert max(c.degree() for c in f.coords) == 0 + 2 * 2 - 1

    prof3 = binary_form_profile(x * y * (x ** 2 + y ** 2))
    assert (prof3.l, prof3.q) == (2, 1)

    with pytest.raises(ValueError):
        binary_form_profile(MultiPoly.variable(3, 0))

import math
import random

import pytest

from jetflow.borel import BorelRealization, bump, finite_diff_jet, realize_jet
from jetflow.poly import FLOAT, HomogPoly, MultiPoly, as_poly

from conftest import rand_homog


def polynomial_coefficients(omegas):
    """Exact coefficients of sum omega_i, keyed like finite_diff_jet output."""
    out = {}
    for omega in omegas:
        poly = as_poly(omega)
        for mono, c in poly.terms.items():
            out[mono] = out.get(mono, 0) + (float(c) if not isinstance(c, float) else c)
    return {m: c for m, c in out.items() if c != 0}


def U():
    return MultiPoly.variable(1, 0)


def test_bump_profile():
    assert bump(0.0) == 1.0
    assert bump(0.5) == 1.0
    assert bump(-0.3) == 1.0
    assert bump(1.5) == 0.0
    assert bump(-1.0) == 0.0
    mid = bump(0.75)
    assert 0.0 < mid < 1.0
    # monotone decreasing across the transition band
    values = [bump(0.5 + 0.05 * i) for i in range(11)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_realize_plateau_polynomial():
    u = U()
    real = realize_jet([MultiPoly.const(1, 1), u, u ** 2])
    r_inner = real.plateau_radius()
    for s in (-r_inner, -r_inner / 2, 0.0, r_inner / 3, r_inner):
        got = real([s])
        assert abs(got - (1 + s + s * s)) < 1e-14
    assert all(a > b for a, b in zip(real.radii, real.radii[1:]))
    assert all(r <= 2.0 ** -i for i, r in enumerate(real.radii))


def test_realize_flat_below_prescribed_order():
    u = U()
    omegas = [MultiPoly.zero(1)] * 5 + [u ** 5]
    real = realize_jet(omegas)
    h = real.plateau_radius() / 8
    coeffs = finite_diff_jet(real, 4, h)
    for j in range(5):
        assert abs(coeffs[(j,)]) < 1e-8


def test_realize_and_read_back_quadratic():
    u = U()
    omegas = [MultiPoly.zero(1), MultiPoly.zero(1), (u ** 2).scale(3), MultiPoly.zero(1)]
    real = realize_jet(omegas)
    h = real.plateau_radius() / 8
    coeffs = finite_diff_jet(real, 3, h)
    assert abs(coeffs[(2,)] - 3.0) < 1e-6


def test_finite_diff_constant_and_linear():
    coeffs = finite_diff_jet(lambda pt: 7.0, 2, 0.01, nvars=1)
    assert abs(coeffs[(0,)] - 7.0) < 1e-12
    assert abs(coeffs[(1,)]) < 1e-9
    assert abs(coeffs[(2,)]) < 1e-7

    u = U()
    real = realize_jet([MultiPoly.zero(1), u.scale(2)])
    coeffs = finite_diff_jet(real, 1, real.plateau_radius() / 4)
    assert abs(coeffs[(0,)]) < 1e-8
    assert abs(coeffs[(1,)] - 2.0) < 1e-8


def test_degree_mismatch_rejected():
    u = U()
    with pytest.raises(ValueError):
        realize_jet([u])  # degree 1 at index 0


def test_stencil_leaves_plateau():
    u = U()
    real = realize_jet([MultiPoly.const(1, 1), u])
    with pytest.raises(ValueError):
        finite_diff_jet(real, 2, real.radii[-1])


@pytest.mark.parametrize("h", [1e200, 1e-105])  # h^3 overflows; h^3 is subnormal
def test_step_whose_power_is_not_a_normal_float_is_refused(h):
    with pytest.raises(ValueError, match="not a normal float"):
        finite_diff_jet(lambda pt: 1.0, 3, h, nvars=1)


def test_prescribed_jet_property_1d():
    rng = random.Random(3)
    for _ in range(5):
        n_top = rng.randint(1, 4)
        omegas = []
        for i in range(n_top + 1):
            omega = rand_homog(rng, 1, i, nonzero=False)
            omegas.append(omega.poly)
        if all(o.is_zero() for o in omegas):
            continue
        real = realize_jet(omegas)
        h = real.radii[-1] / (4 * max(n_top, 1))
        coeffs = finite_diff_jet(real, n_top, h)
        expected = polynomial_coefficients(omegas)
        for mono in coeffs:
            want = expected.get(mono, 0.0)
            err = abs(coeffs[mono] - want)
            assert err <= 1e-4 * max(1.0, abs(want))


def test_prescribed_jet_property_2d():
    rng = random.Random(4)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    omegas = [MultiPoly.const(2, 2), x - y, (x * y).scale(3), MultiPoly.zero(2)]
    real = realize_jet(omegas)
    k = 3
    h = real.radii[-1] / (4 * k * math.sqrt(2))
    coeffs = finite_diff_jet(real, k, h)
    expected = polynomial_coefficients(omegas)
    for mono, got in coeffs.items():
        want = expected.get(mono, 0.0)
        assert abs(got - want) <= 1e-4 * max(1.0, abs(want))


def test_tail_smallness_by_sampling():
    rng = random.Random(8)
    u = U()
    omegas = [rand_homog(rng, 1, i, nonzero=False).poly.scale(rng.randint(1, 9))
              for i in range(6)]
    real = realize_jet(omegas)
    # the bound applies to the tail terms i >= 1; omega_0 is the value at 0
    for i, (omega, r) in enumerate(zip(real.omegas, real.radii)):
        if i == 0:
            continue
        poly = omega.to_float()
        sup = 0.0
        for step in range(-20, 21):
            s = r * step / 20.0
            sup = max(sup, abs(bump(abs(s) / r) * poly.evaluate([s])))
        assert sup <= 2.0 * 2.0 ** -i + 1e-12

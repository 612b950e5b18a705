import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from jetflow.config import RESIDUAL_TOL
from jetflow.errors import InconsistentJetError, NotOnSubgroupError
from jetflow.jet import VectorFieldJet, hatted_shift_jet, shift_jet
from jetflow.linalg import RatMatrix
from jetflow.poly import EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap, monomials_of_degree
from jetflow.recover import (RecoveryResult, delta0_linear, divide_by_initial_part,
                             recover_shift_jet, verify_residual)

from conftest import rand_field, rand_poly


def P_example():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    return [HomogPoly(x.scale(-4), 1), HomogPoly(y.scale(3), 1)], x, y


def test_divide_by_initial_part_examples():
    p_vec, x, y = P_example()
    v = [(x ** 3 * y).scale(-4), (x ** 2 * y ** 2).scale(3)]
    omega = divide_by_initial_part(v, p_vec)
    assert omega == HomogPoly(x ** 2 * y, 3)

    with pytest.raises(InconsistentJetError):
        divide_by_initial_part([x ** 3, x ** 3], p_vec)

    u = MultiPoly.variable(1, 0)
    omega1 = divide_by_initial_part([(u ** 3).scale(3)], [HomogPoly(u ** 2, 2)])
    assert omega1 == HomogPoly(u.scale(3), 1)


def test_divide_by_initial_part_zero_slice():
    p_vec, x, y = P_example()
    omega = divide_by_initial_part([MultiPoly.zero(2), MultiPoly.zero(2)], p_vec, l=2)
    assert omega.is_zero() and omega.degree == 2


def test_delta0_examples():
    rot = [[0.0, -1.0], [1.0, 0.0]]
    a = expm(np.array(rot) * 0.3)
    assert abs(delta0_linear(a, rot) - 0.3) < 1e-9
    assert abs(delta0_linear(np.eye(2), rot)) < 1e-12
    t = delta0_linear([[2.0, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, -1.0]])
    assert abs(t - math.log(2)) < 1e-9


def test_delta0_circle_prefers_smallest_t():
    # rotation by 4.0: the representative closest to zero is 4.0 - 2*pi
    rot = [[0.0, -1.0], [1.0, 0.0]]
    t = delta0_linear(expm(np.array(rot) * 4.0), rot)
    assert abs(t - (4.0 - 2 * math.pi)) < 1e-9


def test_delta0_tolerance_scales_with_the_matrix():
    # entries near e^38: no t is within an absolute 1e-9 of A, but t = 38 is
    # within 1e-9 * ||A||_F, and an off-diagonal entry of 1e-8 * ||A||_F is not
    saddle = np.array([[-1.0, 0.0], [0.0, 1.0]])
    a = expm(saddle * 38.0)
    norm = np.linalg.norm(a)
    assert abs(delta0_linear(a, saddle) - 38.0) < 1e-12
    a[0, 1] = 1e-10 * norm
    assert abs(delta0_linear(a, saddle) - 38.0) < 1e-12
    a[0, 1] = 1e-8 * norm
    with pytest.raises(NotOnSubgroupError) as info:
        delta0_linear(a, saddle)
    assert abs(info.value.best_t - 38.0) < 1e-12
    assert info.value.distance == pytest.approx(1e-8 * norm)


def test_delta0_not_on_subgroup():
    rot = [[0.0, -1.0], [1.0, 0.0]]
    with pytest.raises(NotOnSubgroupError):
        delta0_linear([[2.0, 0.0], [0.0, 3.0]], rot)
    with pytest.raises(ValueError):
        delta0_linear(np.eye(2), [[0.0, 0.0], [0.0, 0.0]])


def test_delta0_refuses_a_matrix_off_the_unit_circle_quickly():
    # two rotations with the irrational frequency ratio 1.4142 give about
    # 100 * 1000 / pi branches; |e^{Lt}| stays 1 on the diagonal, so no t
    # comes within 2 of A = 2I and only the first branch is polished
    l_mat = np.zeros((4, 4))
    l_mat[0, 1], l_mat[1, 0] = -1000.0, 1000.0
    l_mat[2, 3], l_mat[3, 2] = -1414.2, 1414.2
    start = time.perf_counter()
    with pytest.raises(NotOnSubgroupError, match=r"closest t = 0\.0 at distance 2\.000e\+00"):
        delta0_linear(2.0 * np.eye(4), l_mat)
    assert time.perf_counter() - start < 2.0


def test_delta0_keeps_a_start_newton_would_lose():
    # A within the tolerance of the zero matrix: the closed-form start is
    # already close, while Newton runs on toward t -> -infinity
    l_mat = [[0.9654446765375958, -0.0030486964166335727],
             [0.085453413173639, 0.9977260342867106]]
    a_mat = [[-5.4345413350314665e-14, -3.1624213314449354e-14],
             [4.10004174836929e-14, 1.0427038353958503e-13]]
    t = delta0_linear(a_mat, l_mat)
    dist = np.linalg.norm(expm(np.array(l_mat) * t) - np.array(a_mat))
    assert dist <= 1e-9 * max(1.0, np.linalg.norm(a_mat))


def test_recover_round_trip_example(quartic_field):
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    alpha = MultiPoly.const(2, Fraction(1, 2)) + x - (y ** 2).scale(2)
    h = shift_jet(quartic_field, alpha, 10)
    res = recover_shift_jet(quartic_field, h, 10)
    assert res.mode == EXACT
    assert res.residual_ok
    assert res.omegas[0].poly == MultiPoly.const(2, Fraction(1, 2))
    assert res.omegas[1].poly == x
    assert res.omegas[2].poly == (y ** 2).scale(-2)
    assert all(res.omegas[l].is_zero() for l in range(3, 8))
    assert verify_residual(quartic_field, h, res.omegas, 10)


def test_recover_identity(quartic_field):
    res = recover_shift_jet(quartic_field, PolyMap.identity(2), 8)
    assert res.residual_ok
    assert all(om.is_zero() for om in res.omegas)


def test_recover_float_p1_round_trip():
    rows = [[-4.0, 0.0], [0.0, 3.0]]
    field = VectorFieldJet(PolyMap.linear(rows, FLOAT))
    x = MultiPoly.variable(2, 0, FLOAT)
    base = PolyMap.linear(expm(np.array(rows) * 0.25).tolist(), FLOAT, 6)
    h = hatted_shift_jet(field, base, x * x, 6)
    res = recover_shift_jet(field, h, 6)
    assert res.residual_ok
    assert abs(res.omegas[0].poly.constant_term() - 0.25) < 1e-6
    w2 = res.omegas[2].poly
    assert abs(w2.coefficient((2, 0)) - 1.0) < 1e-6
    assert abs(w2.coefficient((1, 1))) < 1e-6
    assert abs(w2.coefficient((0, 2))) < 1e-6


def test_recover_float_slow_field_accepts_its_exact_shift(slow_field):
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    alpha = (x + y).scale(1000)
    h = shift_jet(VectorFieldJet(slow_field), alpha, 6).to_float()
    res = recover_shift_jet(VectorFieldJet(slow_field.to_float()), h, 6)
    assert res.residual_ok
    omega_1 = res.omegas[1].poly
    assert set(omega_1.terms) == {(1, 0), (0, 1)}
    for c in omega_1.terms.values():
        assert abs(c - 1000.0) <= 1e-10 * 1000.0


def test_recover_float_p3_round_trip(quartic_field):
    field = VectorFieldJet(quartic_field.field.to_float())
    x = MultiPoly.variable(2, 0, FLOAT)
    y = MultiPoly.variable(2, 1, FLOAT)
    alpha = MultiPoly.const(2, 0.5, FLOAT) + x - (y * y).scale(2.0)
    h = shift_jet(field, alpha, 8)
    res = recover_shift_jet(field, h, 8)
    assert res.mode == FLOAT
    assert res.residual_ok
    assert abs(res.omegas[0].poly.constant_term() - 0.5) < 1e-9
    assert abs(res.omegas[1].poly.coefficient((1, 0)) - 1.0) < 1e-9
    assert abs(res.omegas[2].poly.coefficient((0, 2)) + 2.0) < 1e-9


def test_recover_round_trip_three_variables():
    # the recovery loop is dimension-generic even though star checks are not
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    z = MultiPoly.variable(3, 2)
    field = VectorFieldJet(PolyMap([y ** 2, z ** 2, x ** 2]))
    alpha = MultiPoly.const(3, Fraction(1, 3)) + x - (y * z).scale(2)
    h = shift_jet(field, alpha, 6)
    res = recover_shift_jet(field, h, 6)
    assert res.residual_ok
    for l in range(6 - field.p + 1):
        assert res.omegas[l].poly == alpha.homogeneous_part(l).poly
    assert verify_residual(field, h, res.omegas, 6)


def test_exact_recovery_takes_only_the_flow_coefficients_it_reads():
    # with ord sigma >= 1 the slice of degree d <= K meets v_i only while
    # i (p - 1 + ord sigma) < d, well short of the bound (K - 1) // (p - 1)
    rng = random.Random(5)
    fmap = rand_field(rng, 2, 2).field
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    alpha = x - y.scale(2) + (x * y).scale(Fraction(1, 3))
    k = 10
    h = shift_jet(VectorFieldJet(fmap), alpha, k)
    field = VectorFieldJet(fmap)  # a fresh flow cache
    res = recover_shift_jet(field, h, k)
    assert [om.poly for om in res.omegas] == [alpha.homogeneous_part(l).poly
                                              for l in range(k - 1)]
    lie_steps = len(field._series[k][1]) - 1  # the cached list is x, v_1, v_2, ...
    assert lie_steps < (k - 1) // (field.p - 1)


def test_recover_float_p1_rotation_with_quadratic_terms():
    # rotation linear part plus one quadratic term per coordinate, t0 near 1:
    # the time-t0 flow jet must be accurate well inside the 1e-8 residual
    # tolerance at every order up to K = 8
    x = MultiPoly.variable(2, 0, FLOAT)
    y = MultiPoly.variable(2, 1, FLOAT)
    field = VectorFieldJet(PolyMap([y.scale(-0.72) - (x * x).scale(0.5),
                                    x.scale(0.72) - y * y]))
    alpha = MultiPoly.const(2, 0.96, FLOAT) + x + y.scale(0.5)
    res = recover_shift_jet(field, shift_jet(field, alpha, 8), 8)
    assert res.residual_ok
    assert abs(res.omegas[0].poly.constant_term() - 0.96) < 1e-6
    w1 = res.omegas[1].poly
    assert abs(w1.coefficient((1, 0)) - 1.0) < 1e-6
    assert abs(w1.coefficient((0, 1)) - 0.5) < 1e-6
    for omega in res.omegas[2:]:
        assert float(omega.poly.max_abs_coeff()) < 1e-6


def test_recover_float_p1_circle_subgroup():
    # rotation generator: {e^{Lt}} is a circle; recovery picks the small branch
    rows = [[0.0, -1.0], [1.0, 0.0]]
    field = VectorFieldJet(PolyMap.linear(rows, FLOAT))
    x = MultiPoly.variable(2, 0, FLOAT)
    base = PolyMap.linear(expm(np.array(rows) * 0.4).tolist(), FLOAT, 6)
    h = hatted_shift_jet(field, base, x * x, 6)
    res = recover_shift_jet(field, h, 6)
    assert res.residual_ok
    assert abs(res.omegas[0].poly.constant_term() - 0.4) < 1e-6
    w2 = res.omegas[2].poly
    assert abs(w2.coefficient((2, 0)) - 1.0) < 1e-6


def test_recover_exact_p1_requires_identity_linear_part():
    rows = [[Fraction(-4), Fraction(0)], [Fraction(0), Fraction(3)]]
    field = VectorFieldJet(PolyMap.linear(rows))
    x = MultiPoly.variable(2, 0)
    h = shift_jet(field, x ** 2, 6)  # alpha(0) = 0, so j^1(h) = id
    res = recover_shift_jet(field, h, 6)
    assert res.residual_ok
    assert res.omegas[2].poly == x ** 2
    bad = PolyMap.linear([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        recover_shift_jet(field, bad, 4)


def test_recover_inconsistent_reports_order(quartic_field):
    x = MultiPoly.variable(2, 0)
    h = shift_jet(quartic_field, x, 8)
    # inject junk at degree 5 that is not P * omega_2
    junk = PolyMap([x ** 5, MultiPoly.zero(2)])
    broken = h + junk
    with pytest.raises(InconsistentJetError) as err:
        recover_shift_jet(quartic_field, broken, 8)
    assert err.value.order == 2


def _three_var_p2_field():
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    return VectorFieldJet(PolyMap([y ** 2 + x * z, z ** 2 - x ** 3, x ** 2 + (y * z).scale(2)]))


def _exact_p1_field():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    return VectorFieldJet(PolyMap([x.scale(-4) + y ** 2, y.scale(3) + x * y]))


@pytest.mark.parametrize("name, k", [("quartic", 8), ("3-var p=2", 5), ("p=1", 5)])
def test_non_shift_jets_keep_their_verdicts(quartic_field, name, k):
    # e * m added to coordinate j of a shift jet, deg m = d: below the flat
    # order the slice e * m fails at order 0; from it on, the recovery
    # matches alpha below degree d, then meets the slice P * alpha_{d-p} +
    # e * m in coordinate j, which no P * omega equals (p = 1 needs d >= 2)
    field = {"quartic": quartic_field, "3-var p=2": _three_var_p2_field(),
             "p=1": _exact_p1_field()}[name]
    n, p = field.n, field.p
    rng = random.Random(89)
    alpha = rand_poly(rng, n, 1, min_deg=1 if p == 1 else 0, nonzero=True)
    h = shift_jet(field, alpha, k)
    for d in range(2 if p == 1 else 1, k + 1):
        for _ in range(2):
            mono = rng.choice(monomials_of_degree(n, d))
            j = rng.randrange(n)
            e = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
            bump = [MultiPoly(n, {mono: e}) if i == j else MultiPoly.zero(n) for i in range(n)]
            with pytest.raises(InconsistentJetError) as err:
                recover_shift_jet(field, h + PolyMap(bump), k)
            slice_ = alpha.homogeneous_part(d - p).poly if d >= p else MultiPoly.zero(n)
            expected = PolyMap([q.poly * slice_ + b for q, b in zip(field.P, bump)])
            assert err.value.order == max(d - p, 0)
            assert err.value.residual == expected


def test_verify_residual_cases(quartic_field):
    x = MultiPoly.variable(2, 0)
    h = shift_jet(quartic_field, x, 8)
    zeros = [HomogPoly.zero(2, l) for l in range(6)]
    assert not verify_residual(quartic_field, h, zeros, 8)
    # K below flat order with nothing to match
    assert verify_residual(quartic_field, PolyMap.identity(2), [], 2)


def test_incremental_matches_batch(quartic_field):
    rng = random.Random(61)
    k = 9
    p = quartic_field.p
    for _ in range(4):
        alpha = rand_poly(rng, 2, 5)
        h = shift_jet(quartic_field, alpha, k)
        res = recover_shift_jet(quartic_field, h, k)
        running = h
        partial = MultiPoly.zero(2)
        for omega in res.omegas:
            running = hatted_shift_jet(quartic_field, running, -omega.poly, k)
            partial = partial + omega.poly
            assert running == hatted_shift_jet(quartic_field, h, -partial, k)


def test_structure_identity_before_extraction(quartic_field):
    # after removing omega_0..omega_l the jet matches the identity through p+l
    rng = random.Random(67)
    k = 9
    p = quartic_field.p
    ident = PolyMap.identity(2)
    alpha = rand_poly(rng, 2, 4)
    h = shift_jet(quartic_field, alpha, k)
    res = recover_shift_jet(quartic_field, h, k)
    running = h
    for l, omega in enumerate(res.omegas):
        diff = running - ident
        for deg in range(1, p + l):
            assert all(c.homogeneous_part(deg).is_zero() for c in diff.coords)
        running = hatted_shift_jet(quartic_field, running, -omega.poly, k)


def test_shift_condition_equivalence(quartic_field):
    # (D) j^K(h) = j^K(F_alpha)  iff  (E) j^K(Phi(h, -alpha)) = id
    rng = random.Random(71)
    k = 7
    ident = PolyMap.identity(2, trunc=k)
    for _ in range(5):
        alpha = rand_poly(rng, 2, 4, min_deg=1)
        h = shift_jet(quartic_field, alpha, k)
        assert hatted_shift_jet(quartic_field, h, -alpha, k) == ident
        other = rand_poly(rng, 2, 4, min_deg=1)
        if shift_jet(quartic_field, other, k) != h:
            assert hatted_shift_jet(quartic_field, h, -other, k) != ident


def test_unique_or_inconsistent_never_parametric(quartic_field):
    rng = random.Random(73)
    p_vec = quartic_field.P
    from conftest import rand_homog

    for _ in range(10):
        l = rng.randint(0, 3)
        omega = rand_homog(rng, 2, l, nonzero=False)
        v = [c.poly * omega.poly for c in p_vec]
        got = divide_by_initial_part(v, p_vec, l=l)
        assert got.poly == omega.poly


def test_recover_k_below_p_rejected(quartic_field):
    with pytest.raises(ValueError):
        recover_shift_jet(quartic_field, PolyMap.identity(2), 2)


def test_round_trip_on_random_nondivisible_fields():
    # random reduced Hamiltonian fields carry the non-divisibility property
    from jetflow.fields import check_star, reduced_hamiltonian

    rng = random.Random(83)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    done = 0
    while done < 5:
        g = (x ** 2 + (y ** 2).scale(rng.randint(1, 4)))
        if rng.random() < 0.5:
            g = g * (x.scale(rng.randint(1, 3)) + y.scale(rng.randint(-3, 3)))
        if rng.random() < 0.5:
            g = g * (x ** 2 + (y ** 2).scale(rng.randint(1, 4)))
        _, fmap = reduced_hamiltonian(g)
        field = VectorFieldJet(fmap)
        if field.p < 2 or check_star(field).nondivisible != "yes":
            continue
        k = field.p + rng.randint(2, 4)
        alpha = rand_poly(rng, 2, 4)
        h = shift_jet(field, alpha, k)
        res = recover_shift_jet(field, h, k)
        assert res.residual_ok
        for l in range(k - field.p + 1):
            assert res.omegas[l].poly == alpha.homogeneous_part(l).poly
        done += 1


def test_divisible_initial_part_still_reported():
    # P = (x^2, xy) is divisible by x; a true shift still recovers cleanly,
    # and the result is reported rather than reinterpreted
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    field = VectorFieldJet(PolyMap([x ** 2, x * y]))
    alpha = y
    h = shift_jet(field, alpha, 5)
    res = recover_shift_jet(field, h, 5)
    assert res.residual_ok
    assert res.omegas[1].poly == y


def test_recovery_refuses_nan_jet(quartic_field):
    # a NaN after a small number in the degree-2 slice, below the flat order 3
    field = VectorFieldJet(quartic_field.field.to_float())
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    h = PolyMap([x + (y * y).scale(1e-9) + (x * x).scale(math.nan), y], 6)
    with pytest.raises(InconsistentJetError) as err:
        recover_shift_jet(field, h, 6)
    assert err.value.order == 0


def _float_p1_field():
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    return VectorFieldJet(PolyMap([y.scale(-0.72) - (x * x).scale(0.5), x.scale(0.72) - y * y]))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_residual_verdict_matches_an_independent_residual(quartic_field, mode):
    # round trips with e * m (one coordinate) or P * e * m added at one
    # degree 1..K (floats of size 1e-10 and 1e-6, either side of the 1e-8
    # bound): whenever recovery returns,
    # residual_ok says whether h - Phi(x, sum omega) lies within the bound,
    # and residuals[m - 1] is its largest coefficient at degree m
    rng = random.Random(101)
    bound = RESIDUAL_TOL if mode == FLOAT else 0
    fields = [quartic_field, _three_var_p2_field(),
              _exact_p1_field() if mode == EXACT else _float_p1_field()]
    if mode == FLOAT:
        fields[:2] = [VectorFieldJet(f.field.to_float()) for f in fields[:2]]
    verdicts = Counter()
    for trial in range(24):
        field = fields[trial % 3]
        n, p = field.n, field.p
        k = {2: 7, 3: 5}[n] if p > 1 else 5
        alpha = rand_poly(rng, n, k - p, min_deg=1 if p == 1 else 0, mode=mode, nonzero=True)
        if p == 1 and mode == FLOAT:
            alpha = alpha + rng.uniform(0.2, 0.8)
        elif mode == FLOAT:
            # slices P * alpha_l of size >= 100 let a misfit of 1e-6 pass the
            # division's relative bound, not the residual's absolute one
            alpha = alpha.scale(8.0)
        d = rng.randint(2 if p == 1 and mode == EXACT else 1, k)  # exact p = 1 needs j^1(h) = id
        e = (rng.choice([1e-10, 1e-6]) * rng.choice([-1, 1]) if mode == FLOAT
             else Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])))
        mono = MultiPoly(n, {rng.choice(monomials_of_degree(n, max(d - p, 0))): e}, mode)
        if d >= p and trial % 2:  # P * e m, which recovery can absorb into omega_{d-p}
            bump = [q.poly * mono for q in field.P]
        else:  # e m in one coordinate
            bump = [mono * MultiPoly(n, {rng.choice(monomials_of_degree(n, min(d, p))): 1}, mode)
                    if i == trial % n else MultiPoly.zero(n, mode) for i in range(n)]
        h = shift_jet(field, alpha, k) + PolyMap(bump)
        try:
            res = recover_shift_jet(field, h, k)
        except (InconsistentJetError, NotOnSubgroupError):
            verdicts["refused"] += 1
            continue
        sigma = MultiPoly.zero(n, mode)
        for omega in res.omegas:
            sigma = sigma + omega.poly
        diff = h - shift_jet(field, sigma, k)
        assert res.residual_ok == (diff.max_abs_coeff() <= bound)
        assert len(res.residuals) == k
        assert res.residual_ok == all(r <= bound for r in res.residuals)
        for m, r in enumerate(res.residuals, start=1):  # rounding: a few ulps of h
            want = PolyMap([c.homogeneous_part(m).poly for c in diff.coords]).max_abs_coeff()
            assert abs(r - want) <= 1e-13 * max(1.0, float(h.max_abs_coeff()))
        verdicts[res.residual_ok] += 1
    # the draw reaches every verdict the mode has
    assert verdicts[True] and verdicts["refused"] and (mode == EXACT or verdicts[False])


def test_recovery_result_residuals_default():
    res = RecoveryResult([], True, EXACT)
    assert res.residuals == [] and res == RecoveryResult([], True, EXACT, [])


def _float_rotation_field():
    x, y = MultiPoly.variable(2, 0, FLOAT), MultiPoly.variable(2, 1, FLOAT)
    return VectorFieldJet(PolyMap([y + x * x, -x + y * y])), x, y


def test_float_recovery_keeps_zero_components_empty():
    # the omega_l, l >= 2, of alpha = x are zero: their slices lie within
    # their own rounding, so nothing at rounding level enters sigma
    field, x, _ = _float_rotation_field()
    res = recover_shift_jet(field, shift_jet(field, x, 30), 30)
    assert res.residual_ok
    assert all(not omega.poly.terms for omega in res.omegas[2:])
    omega_1 = res.omegas[1].poly
    for mono in set(omega_1.terms) | {(1, 0)}:
        want = 1.0 if mono == (1, 0) else 0.0
        assert abs(omega_1.coefficient(mono) - want) <= 4 * math.ulp(1.0)


@pytest.mark.parametrize("fx, fy, alpha", [
    ({(1, 0): -0.85, (2, 0): -1.0}, {(0, 1): 0.68, (0, 2): 1.0}, {(0, 0): 0.8, (1, 0): -0.5, (0, 1): 0.5}),
    ({(1, 0): -1.0, (1, 1): 1.0}, {(0, 1): 0.5, (0, 2): 1.0}, {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 0.5}),
    ({(1, 0): -1.0, (1, 1): 1.0}, {(0, 1): 0.5, (1, 1): 1.0}, {(0, 0): -3.0, (1, 0): 1.0, (0, 1): 0.5}),
    ({(1, 0): -1.0, (0, 2): 1.0}, {(0, 1): 0.5, (2, 0): 1.0}, {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 0.5}),
], ids=["t=0.8", "xy,y2 t=3", "xy,xy t=-3", "y2,x2 t=3"])
def test_float_p1_recovery_of_saddle_shifts(fx, fy, alpha):
    # K = 8, where h reaches 1e2..5e6: each slice is judged on
    # h - Phi(x, t + sigma) itself, with no composition of h with the time -t
    # flow whose rounding could leave terms in the omegas that are zero in
    # truth (l >= 2) or push a slice past the residual tolerance
    field = VectorFieldJet(PolyMap([MultiPoly(2, fx, FLOAT), MultiPoly(2, fy, FLOAT)]))
    alpha = MultiPoly(2, alpha, FLOAT)
    res = recover_shift_jet(field, shift_jet(field, alpha, 8), 8)
    assert res.residual_ok
    assert all(not omega.poly.terms for omega in res.omegas[2:])
    for l, omega in enumerate(res.omegas[:2]):
        want = alpha.homogeneous_part(l).poly
        for mono in set(want.terms) | set(omega.poly.terms):
            assert abs(omega.poly.coefficient(mono) - want.coefficient(mono)) <= 1e-12


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_float_recovery_keeps_small_true_components(eps):
    # a true omega of size eps is far above its slice's rounding, however
    # far below the residual tolerance
    field, x, y = _float_rotation_field()
    alpha = x + (x * x - x * y * y).scale(eps)
    res = recover_shift_jet(field, shift_jet(field, alpha, 12), 12)
    assert res.residual_ok
    assert abs(res.omegas[2].poly.coefficient((2, 0)) - eps) <= 1e-15
    assert abs(res.omegas[3].poly.coefficient((1, 2)) + eps) <= 1e-15


@pytest.mark.parametrize("d", [3, 7, 12, 19])
@pytest.mark.parametrize("j", [0, 1])
def test_float_recovery_refuses_a_perturbed_coefficient(d, j):
    # the largest coefficient of degree d in coordinate j, off by 1e-6
    # relative, is neither rounding nor P * omega
    field, x, _ = _float_rotation_field()
    h = shift_jet(field, x, 20)
    part = h.coords[j].homogeneous_part(d).poly
    mono, c = max(part.terms.items(), key=lambda item: abs(item[1]))
    bump = MultiPoly(2, {mono: c * 1e-6}, FLOAT)
    broken = PolyMap([q + bump if i == j else q for i, q in enumerate(h.coords)], 20)
    with pytest.raises(InconsistentJetError):
        recover_shift_jet(field, broken, 20)


def _dense_drawer(seed):
    """dense(nvars, degrees): every monomial of those degrees, with seeded
    coefficients from a small menu of signed rationals."""
    rng = random.Random(seed)
    menu = [Fraction(s * a, b) for s in (1, -1) for a, b in ((1, 1), (2, 1), (1, 2), (3, 2))]

    def dense(nvars, degrees):
        return MultiPoly(nvars, {m: rng.choice(menu) for d in degrees
                                 for m in monomials_of_degree(nvars, d)})

    return dense


def _exact_round_trip_cases(quartic_field):
    dense = _dense_drawer("exact digest")
    cases = [(quartic_field, dense(2, range(4)), k)
             for k in (10, 14, 18) for _ in range(6)]
    for _ in range(2):
        field = VectorFieldJet(PolyMap([dense(3, (2, 3)) for _ in range(3)]))
        cases += [(field, dense(3, range(3)), k) for k in (6, 8) for _ in range(4)]
    return cases


def test_exact_round_trips_match_their_pinned_digest(quartic_field):
    # exact h and omegas are unique rationals, so any correct implementation
    # reproduces this digest of h, every omega, the residuals and the verdict
    def sorted_terms(p):
        return sorted((mono, Fraction(c)) for mono, c in p.terms.items())

    digest = hashlib.sha256()
    for field, alpha, k in _exact_round_trip_cases(quartic_field):
        h = shift_jet(field, alpha, k)
        res = recover_shift_jet(field, h, k)
        digest.update(repr([[sorted_terms(c) for c in h.coords],
                            [sorted_terms(omega.poly) for omega in res.omegas],
                            [Fraction(r) for r in res.residuals], res.residual_ok]).encode())
    assert digest.hexdigest()[:16] == "9985a0dcf0a4e131"


def _exact_round_trip_family(quartic_field, family):
    dense = _dense_drawer(f"exact round trips/{family}")
    if family == "quartic":
        return [(quartic_field, dense(2, range(4)), k) for k in (10, 14, 18) for _ in range(8)]
    cases = []
    for _ in range(4):
        field = VectorFieldJet(PolyMap([dense(3, (2, 3)) for _ in range(3)]))
        cases += [(field, dense(3, range(3)), k) for k in (6, 8) for _ in range(3)]
    return cases


@pytest.mark.parametrize("family, prefix", [("quartic", "5058facccc6a2353"),
                                            ("dense-3var-p2", "516af884af1d196a")],
                         ids=["quartic", "dense-3var-p2"])
def test_exact_round_trip_families_match_their_pinned_digests(quartic_field, family, prefix):
    # one digest per family, so that a change to exact outputs names the
    # family it reaches: h, every omega, the residuals and the verdict
    def sorted_terms(p):
        return sorted((mono, Fraction(c)) for mono, c in p.terms.items())

    digest = hashlib.sha256()
    for field, alpha, k in _exact_round_trip_family(quartic_field, family):
        h = shift_jet(field, alpha, k)
        res = recover_shift_jet(field, h, k)
        digest.update(repr([[sorted_terms(c) for c in h.coords],
                            [sorted_terms(omega.poly) for omega in res.omegas],
                            [Fraction(r) for r in res.residuals], res.residual_ok]).encode())
    assert digest.hexdigest()[:16] == prefix

"""Jets of flows and of shift maps.

The flow of a polynomial vector field F expands in time as
x + v_1(x) t + v_2(x) t^2/2! + ..., with v_1 = F and v_{i+1} the directional
derivative of v_i along F.  Substituting a function alpha(x) for t gives the
shift map x -> Phi(x, alpha(x)); for a field of flat order p the order bound
j^{i(p-1)}(v_i) = 0 makes every K-jet of a shift a finite computation.
Every shift jet is one sum Phi(h, c + b) = sum_i b^i / i! (w_i o h) over
one list w_0 = Phi_c, w_{i+1} = (F . grad) w_i (VectorFieldJet.flow_series;
a flow commutes with its own Lie derivative), one poly.combine_trunc per
coordinate over the terms (1/i!, w_i o h, b^i).  b^i meets only w_i o h, so
it is built only through degree K - ord(w_i o h).  c = 0 gives w_0 = x and
the cached flow coefficients w_i = v_i; a float shift with p = 1 takes
c = beta(0), and w_0 is the float time-c flow, which steps the Lie series
of a time-scaled field in place over one closed column table, adds each
term into a running sum per coordinate, and squares the result.  Each Lie
step is one application of a Lie derivative table on packed keys
(poly.LieDerivative), in both scalar modes: one sum per coordinate, over the
map's terms in ascending packed order, then j ascending, then F_j's terms
ascending, each term c x^m adding c * (m_j * a) from the column the table
caches for m, and keeping every nonzero sum.  The c = 0 list keeps its
table with it; a c != 0 list, which is not kept, runs on a table of its own
that goes with it.  The shift jet is the hatted shift with h = id, which
composes nothing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .linalg import RatMatrix
from .poly import (EXACT, FLOAT, LieDerivative, MultiPoly, PolyMap, Substituter, combine_trunc,
                   compose)


class VectorFieldJet:
    """A polynomial vector field vanishing at the origin, with its initial part.

    Derives the flat order p (smallest degree carrying a nonzero term), the
    initial part P = degree-p homogeneous slice, and for p = 1 the matrix L
    with P(x) = Lx.  One list x, v_1, v_2, ... of flow coefficients is
    memoized per truncation order, with its Lie derivative.
    """

    def __init__(self, field):
        if field.ncoords != field.nvars:
            raise ValueError("a vector field needs as many coordinates as variables")
        if not field.vanishes_at_origin():
            raise ValueError("vector field must vanish at the origin")
        p = min(c.min_degree() for c in field.coords)
        if p == math.inf:
            raise ValueError("the zero (flat) field has no initial part")
        self.field = field
        self.n = field.nvars
        self.mode = field.mode
        self.p = int(p)
        self.P = [c.homogeneous_part(self.p) for c in field.coords]
        if self.p == 1:
            rows = PolyMap([h.poly for h in self.P]).linear_part()
            self.L = RatMatrix(rows) if self.mode == EXACT else rows
        else:
            self.L = None
        self._series = {}

    def initial_part_map(self):
        return PolyMap([h.poly for h in self.P])

    def flow_series(self, c, imax, k):
        """[w_0, ..., w_imax] at order k: w_0 = Phi_c, w_{i+1} = (F . grad) w_i.

        Each step is one application of a poly.LieDerivative table of F's
        packed keys and numerators, which caches one column per input key.
        At c = 0, w_0 = x and w_i = v_i, and the list is cached per order
        with its table and extended in place.  Otherwise (float mode) w_0 =
        flow_time_jet(c), and the list is not kept, nor is the fresh table
        it runs on, so its columns do not outlive it.
        """
        if c != 0:
            lie, ws = LieDerivative(self.field, k), [flow_time_jet(self, c, k)]
        else:
            entry = self._series.get(k)
            if entry is None:
                entry = self._series[k] = (LieDerivative(self.field, k),
                                           [PolyMap.identity(self.n, self.mode, k)])
            lie, ws = entry
        while len(ws) <= imax:
            ws.append(PolyMap([lie.apply(q) for q in ws[-1].coords], k))
        return ws[:imax + 1]

    def flow_coeffs(self, imax, k):
        """v_1..v_imax, each truncated to order k: the tail of flow_series(0, imax, k)."""
        return self.flow_series(0, imax, k)[1:]

    def __repr__(self):
        return f"VectorFieldJet(p={self.p}, field={self.field})"


class FlowJet:
    """The list v_1..v_N of time-Taylor coefficients of a flow, at x-order K."""

    def __init__(self, base, order, k, coeffs):
        self.base = base
        self.order = order
        self.k = k
        self.coeffs = coeffs


class BiJet:
    """A jet T(x, t) in n+1 variables with T(x, 0) = x.

    Truncated to degree <= xorder in the space variables and <= torder in t;
    t is the last variable of the underlying map.
    """

    def __init__(self, map_, xorder, torder):
        self.map = map_
        self.xorder = xorder
        self.torder = torder


def flow_taylor_coeffs(field, order, k):
    """Flow coefficients v_1..v_order of a vector field, truncated at k."""
    if order < 1 or k < 1:
        raise ValueError("order and truncation must be at least 1")
    return FlowJet(field, order, k, field.flow_coeffs(order, k))


def _inv_factorial(i, mode):
    return Fraction(1, math.factorial(i)) if mode == EXACT else 1.0 / math.factorial(i)


def flow_bijet(field, order, k):
    """T(x, t) = x + sum v_i(x) t^i / i!, as a BiJet, one combine_trunc per coordinate."""
    vs = field.flow_coeffs(order, k)
    n, mode = field.n, field.mode
    embed = list(range(n))  # x_i keeps its slot; t is variable n
    t_pows = [MultiPoly(n + 1, {(0,) * n + (i,): 1}, mode) for i in range(order + 1)]
    coords = []
    for j in range(n):
        terms = [(1, MultiPoly.variable(n + 1, j, mode))]
        terms += [(_inv_factorial(i, mode), v.coords[j].rename_vars(embed, n + 1), t_pows[i])
                  for i, v in enumerate(vs, start=1)]
        coords.append(combine_trunc(n + 1, mode, terms, k + order))
    return BiJet(PolyMap(coords), k, order)


def bidegree_truncate(poly_map, split, xorder, torder):
    """Keep terms with degree <= xorder in the first ``split`` variables and
    <= torder in the rest."""
    coords = []
    for c in poly_map.coords:
        kept = {m: v for m, v in c.terms.items()
                if sum(m[:split]) <= xorder and sum(m[split:]) <= torder}
        coords.append(MultiPoly(c.nvars, kept, c.mode))
    return PolyMap(coords)


def shift_jet(field, alpha, k):
    """j^K of the shift map x -> Phi(x, alpha(x)), the hatted shift with h = id.

    For p = 1 a nonzero alpha(0) is transcendental in exact mode (rejected);
    in float mode the sum runs over the Lie powers of the time-alpha(0) flow,
    and nothing is composed (see hatted_shift_jet).
    """
    if alpha.nvars != field.n:
        raise ValueError("alpha must live in the field's variables")
    if alpha.mode != field.mode:
        raise ValueError("scalar-mode mismatch")
    if field.p == 1 and field.mode == EXACT and alpha.constant_term() != 0:
        raise ValueError(
            "p=1 with alpha(0) != 0 is not exactly computable; "
            "normalize the input or use float mode")
    return hatted_shift_jet(field, PolyMap.identity(field.n, field.mode, k), alpha, k)


def hatted_shift_jet(field, h, beta, k):
    """j^K of x -> Phi(h(x), beta(x)) for a map h vanishing at the origin.

    One sum for every case: Phi(h, c + b) = sum_i b^i / i! (w_i o h) over
    the list w_i of VectorFieldJet.flow_series(c, imax, K), with w_0 = Phi_c
    and w_{i+1} = (F . grad) w_i.  A flow commutes with its own Lie
    derivative: the i-th s-derivative of Phi_c(Phi_s(y)) at s = 0 is
    ((F . grad)^i Phi_c)(y).  c = beta(0) when p = 1, so that b(0) = 0
    (float mode only; exact mode rejects a nonzero beta(0), the time-c flow
    being transcendental), and c = 0 otherwise, where w_0 = x and w_i = v_i.
    Term i has order >= i (p - 1 + ord b) + 1, so the sum stops at
    imax = (K - 1) // (p - 1 + ord b), at 0 when b = 0 or K = 0, and earlier
    once every later w_i o h is zero.  One Substituter(h) serves every w_i,
    and h = id composes nothing.  b^i only meets w_i o h, so it is needed
    through degree K - ord(w_i o h), read from the packed forms; as b^(i+1)
    is built from it, b^i is cut at the largest such degree from i on, and
    packed at K's width, as the final sums read it.  Each coordinate is then
    one poly.combine_trunc over the terms (1/i!, w_ij o h, b^i).
    """
    if k < 0:
        raise ValueError(f"truncation order must be nonnegative, got {k}")
    if not h.vanishes_at_origin():
        raise ValueError("h must vanish at the origin")
    if beta.nvars != field.n or h.nvars != field.n or h.ncoords != field.n:
        raise ValueError("dimension mismatch")
    if beta.mode != field.mode or h.mode != field.mode:
        raise ValueError("scalar-mode mismatch")
    c = beta.constant_term() if field.p == 1 else 0
    if c != 0:
        if field.mode == EXACT:
            raise ValueError(
                "p=1 with beta(0) != 0 is not exactly computable; "
                "normalize the input or use float mode")
        beta = beta - c
    imax = 0 if beta.is_zero() else max(0, (k - 1) // (field.p - 1 + int(beta.min_degree())))
    sub = Substituter(h, k)
    composed = [[sub.apply(q) for q in w.coords] for w in field.flow_series(c, imax, k)]
    # beta^i meets only w_i o h, so it is needed through degree K - ord(w_i o h);
    # it is built from beta^(i-1), so tops[i] is the largest such degree from i on
    tops = list(itertools.accumulate(
        (k - min(q.min_degree() for q in ws) for ws in reversed(composed)), max))[::-1]
    # sums[j] lists the terms (1/i!, w_ij o h, beta^i) whose sum is coordinate j
    sums = [[(1, q)] for q in composed[0]]
    beta_pow = MultiPoly.const(field.n, 1, field.mode)
    for i in range(1, len(composed)):
        if tops[i] < 0:
            break  # every w_i o h from here on is zero
        beta_pow = beta_pow.mul_trunc(beta, tops[i], k)
        inv_fact = _inv_factorial(i, field.mode)
        for terms, q in zip(sums, composed[i]):
            if not q.is_zero():
                terms.append((inv_fact, q, beta_pow))
    return PolyMap([combine_trunc(field.n, field.mode, terms, k) for terms in sums], k)


# flow_time_jet sums the Lie series directly while |s| * K * max|F| stays at
# or below this radius; its terms then peak near index 16 and stay far from
# float overflow.  Longer times are reached by squaring.
_SERIES_RADIUS = 16.0


def _largest(values, c):
    """The largest |value| of floats; raises when one is not finite."""
    values = list(values)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"flow integration blew up before time {c}")
    return max(map(abs, values), default=0.0)


def flow_time_jet(field, c, k):
    """j^K of the time-c flow map, by scaling and squaring the Lie series.

    Float mode only.  Phi_s, the flow of F at time s = c / 2^m, is
    x + sum_i t_i / i! with t_i = (sF . grad)^i x.  The keys reachable from
    x_1..x_n through the columns of a poly.LieDerivative of sF are closed
    once into one ascending table (LieDerivative.closure), and each term is
    one list per coordinate over it: a step adds c * b over the column of
    each nonzero entry c in ascending key order, which is apply's order, so
    every float sum is the one apply forms.  Each term's nonzero entries,
    times 1/i!, are added into a running sum per coordinate in order of i,
    combine_trunc's order for the pairs (1, x_j), (1/i!, t_ij); the n
    polynomials are built once, at K's key width, after the last term.  m is
    the fewest halvings that bring |s| * K * max|F| to at most 16; the group
    law Phi_2s = Phi_s o Phi_s is then applied m times.  The sum stops at the
    first term past index |s| * K * max|F| whose coefficients all lie below
    2^-53 times the largest coefficient of the partial sum.  Each term's
    largest coefficient is held against a bar, the largest of 1 (the
    identity's) and the earlier terms'; the partial sum's largest
    coefficient is read only where a term passes the bar, to confirm the
    stop, and a partial sum that refutes it becomes the bar.  Every term,
    the partial sum where it is read, and the result of every squaring are
    checked to be finite.
    """
    if field.mode != FLOAT:
        raise ValueError("flow_time_jet is available in float mode only")
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"flow time must be finite, got {c}")
    rate = k * float(field.field.max_abs_coeff())
    m = 0
    while abs(math.ldexp(c, -m)) * rate > _SERIES_RADIUS:
        m += 1
    s = math.ldexp(c, -m)
    lie = LieDerivative(PolyMap([p.scale(s) for p in field.field.coords]), k)
    keys, columns, term = lie.closure(PolyMap.identity(field.n, FLOAT, k).coords)
    total = [row[:] for row in term]
    inv_fact = bar = 1.0
    for i in itertools.count(1):
        inv_fact /= i
        steps = []
        for row in term:
            step = [0.0] * len(keys)
            for a, column in zip(row, columns):
                if a:
                    for o, b in column:
                        step[o] += a * b
            steps.append(step)
        term = steps
        size = _largest(itertools.chain(*term), c) * inv_fact
        total = [[a + inv_fact * v if v else a for a, v in zip(acc, row)]
                 for acc, row in zip(total, term)]
        if i >= abs(s) * rate and size <= 2.0 ** -53 * bar:
            bar = _largest(itertools.chain(*total), c)
            if size <= 2.0 ** -53 * bar:
                break
        bar = max(bar, size)
    flow = PolyMap(lie.polys(keys, total), k)
    for _ in range(m):
        flow = compose(flow, flow, k)
        _largest(map(MultiPoly.max_abs_coeff, flow.coords), c)
    return flow


def jet_inverse(h, k):
    """g with j^K(h o g) = j^K(g o h) = id, built order by order.

    Requires h(0) = 0 and an invertible linear part.
    """
    if h.ncoords != h.nvars:
        raise ValueError("only square maps can be inverted")
    if not h.vanishes_at_origin():
        raise ValueError("h must vanish at the origin")
    n = h.nvars
    rows = h.linear_part()
    if h.mode == EXACT:
        a_inv = RatMatrix(rows).inverse().rows
    else:
        import numpy as np

        mat = np.array(rows, dtype=float)
        # matrix_rank's tolerance scales with the matrix: 1e-5 * I is invertible
        if np.linalg.matrix_rank(mat) < n:
            raise ValueError("matrix is singular")
        a_inv = np.linalg.inv(mat).tolist()
    g = PolyMap.linear(a_inv, h.mode, k)
    ident = PolyMap.identity(n, h.mode)
    for order in range(2, k + 1):
        err = compose(h, g, order) - ident.truncate(order)
        parts = [c.homogeneous_part(order).poly for c in err.coords]
        if all(p.is_zero() for p in parts):
            continue
        correction = [combine_trunc(n, h.mode, [(a, q) for a, q in zip(row, parts) if a != 0], order)
                      for row in a_inv]
        g = g - PolyMap(correction)
        g = g.truncate(k)
    return g.truncate(k)

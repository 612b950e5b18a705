"""Univariate polynomial helpers over exact rationals.

A polynomial is a list of Fraction coefficients, index = power, with no
trailing zeros (the zero polynomial is the empty list).  These helpers back
the bivariate homogeneous GCD (via dehomogenization), Sturm-sequence real
root counting and rational roots, and Yun's squarefree decomposition.
``content`` is the rational content (gcd of numerators over lcm of
denominators) of a list of coefficients; ``MultiPoly.content`` reads the
same value off a polynomial's packed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm


def normalize(coeffs):
    """Strip trailing zero coefficients."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return list(coeffs[:n])


def degree(p):
    """Degree of p, or -1 for the zero polynomial."""
    return len(p) - 1


def sub(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    return normalize(out)


def divmod_exact(p, d):
    """Quotient and remainder of p by d over the rationals."""
    if not d:
        raise ZeroDivisionError("univariate division by zero polynomial")
    r = normalize(p)
    q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    while len(r) >= len(d):
        shift = len(r) - len(d)
        factor = r[-1] / d[-1]
        q[shift] = factor
        for i, c in enumerate(d):
            r[shift + i] -= factor * c
        r = normalize(r)  # the leading term cancels exactly
    return q, r


def monic(p):
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def gcd(p, q):
    """Monic GCD by the Euclidean algorithm."""
    a, b = normalize(p), normalize(q)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return monic(a)


def derivative(p):
    return normalize([i * c for i, c in enumerate(p)][1:])


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign(x):
    return (x > 0) - (x < 0)


def _sign_variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_chain(p):
    """Sturm sequence p, p', -rem(...), ... (for squarefree p: standard chain)."""
    chain = [normalize(p)]
    d = derivative(p)
    if d:
        chain.append(d)
        while degree(chain[-1]) > 0:
            _, r = divmod_exact(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _variations_at(chain, x):
    return _sign_variations([_sign(evaluate(f, x)) for f in chain])


def count_real_roots(p, lo=None, hi=None):
    """Number of distinct real roots of p in (lo, hi); None means +-infinity.

    Finite endpoints must not be roots of p.  An infinite one is read at the
    Cauchy bound 1 + max|c_i / c_n|, beyond which p has no root, and the
    chain's sign variations change only at roots of p.
    """
    p = normalize(p)
    if degree(p) <= 0:
        return 0
    chain = sturm_chain(p)
    bound = 1 + max(abs(c / p[-1]) for c in p[:-1])
    va = _variations_at(chain, -bound if lo is None else lo)
    vb = _variations_at(chain, bound if hi is None else hi)
    return va - vb


def squarefree_decomposition(p):
    """Yun's algorithm: list of (multiplicity, monic factor of that multiplicity)."""
    p = normalize(p)
    out = []
    if degree(p) <= 0:
        return out
    g = gcd(p, derivative(p))
    c, _ = divmod_exact(p, g)
    dq, _ = divmod_exact(derivative(p), g)
    d = sub(dq, derivative(c))
    k = 1
    while degree(c) > 0:
        a = gcd(c, d)
        if degree(a) > 0:
            out.append((k, monic(a)))
        c, _ = divmod_exact(c, a)
        dq, _ = divmod_exact(d, a)
        d = sub(dq, derivative(c))
        k += 1
    return out


def content(values):
    """Positive rational c with values / c coprime integers; 0 when all are 0.

    For reduced fractions that is the gcd of the numerators over the lcm of
    the denominators.
    """
    num, den = 0, 1
    for c in values:
        num = int_gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    return Fraction(num, den)


def integerize(p):
    """Scale p by a positive rational so coefficients are coprime integers."""
    p = normalize(p)
    if not p:
        return []
    c = content(p)
    return [int(v / c) for v in p]


def rational_roots(p):
    """All distinct rational roots of p, in increasing order.

    With a = the leading coefficient of the integerized p of degree n,
    q(y) = a^(n-1) p(y / a) is monic with integer coefficients, so its
    rational roots are integers and none lies at a half-integer.  Sturm
    counts bisect the real line on half-integer endpoints down to unit
    intervals, and the integer inside each nonempty one is tested.
    """
    ints = integerize(p)
    roots = []
    if ints and ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    n = len(ints) - 1
    if n < 1:
        return roots
    lead = ints[-1]
    q = [Fraction(c * lead ** (n - 1 - i)) for i, c in enumerate(ints[:-1])] + [Fraction(1)]
    chain = sturm_chain(q)
    bound = 1 + max(abs(c) for c in q[:-1])  # Cauchy: every root has |y| < bound
    half = Fraction(1, 2)
    pending = [(-bound - half, bound + half)]
    while pending:
        lo, hi = pending.pop()
        if _variations_at(chain, lo) == _variations_at(chain, hi):
            continue
        if hi - lo == 1:
            y = lo + half
            if evaluate(q, y) == 0:
                roots.append(y / lead)
            continue
        mid = lo + (hi - lo) // 2
        pending += [(lo, mid), (mid, hi)]
    return sorted(roots)

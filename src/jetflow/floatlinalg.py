"""Float linear algebra on lists of rows, for the float steps of recovery
and jet inversion.

linalg works over exact rationals; this module serves the few float-mode
steps that need matrices, in plain Python, so that float recovery imports
no numerical library:

- ``schur``: the complex Schur form L = Q T Q^H of a real square matrix, by
  Householder reduction to Hessenberg form, then single-shift QR steps with
  Wilkinson shifts, Givens rotations and deflation (Golub and Van Loan,
  *Matrix Computations*, 4th ed., 7.4-7.5).
- ``expm_upper``: e^{Ts} for an upper triangular T, by Taylor scaling and
  squaring (Moler and Van Loan, "Nineteen dubious ways to compute the
  exponential of a matrix, twenty-five years later", SIAM Rev. 45, 2003),
  with the exact exponentials put back on the diagonal (Al-Mohy and Higham,
  SIAM J. Matrix Anal. Appl. 31, 2009).
- ``least_squares`` and ``inverse``: Householder QR with column pivoting and
  a rank test relative to the largest pivot (Golub and Van Loan 5.4).

Apart from schur, which refuses an infinite or NaN input, nothing here
raises on overflow: an infinite or NaN entry propagates to the result.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from operator import mul

_EPS = 2.0 ** -52
# Taylor terms run on T s / 2^m with 1-norm at most _THETA.
_THETA = 0.125


def norm(rows):
    """The Frobenius norm (math.hypot, so it neither overflows nor underflows
    on the way)."""
    return math.hypot(*map(abs, chain.from_iterable(rows)))


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def upper_mul(a, b):
    """The product of two upper triangular matrices stored as rows of
    {column: entry}: an entry exists only where a path of entries leads."""
    out = []
    for row in a:
        acc = {}
        for k, c in row.items():
            for j, v in b[k].items():
                acc[j] = acc.get(j, 0) + c * v
        out.append(acc)
    return out


def log_unipotent(a):
    """sum_{k<n} (-1)^(k+1) (A - I)^k / k: log A when A is unipotent, where
    (A - I)^n = 0 ends the series."""
    n = len(a)
    x = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(a)]
    total, power = x, x
    for k in range(2, n):
        power = matmul(power, x)
        c = (-1) ** (k + 1) / k
        total = [[u + c * v for u, v in zip(r, s)] for r, s in zip(total, power)]
    return total


def _givens(f, g):
    """(c, s), c real, such that the unitary [[c, s], [-conj(s), c]] maps
    (f, g) to (r u, 0), with r = |(f, g)| and u = f / |f| (1 when f = 0)."""
    r = math.hypot(abs(f), abs(g))
    if r == 0:
        return 1.0, 0j
    if f == 0:
        return 0.0, g.conjugate() / abs(g)
    return abs(f) / r, f / abs(f) * g.conjugate() / r


def _rotate_rows(h, k, c, s, columns):
    """Rows k, k+1 of h <- [[c, s], [-conj(s), c]] times them, over ``columns``."""
    top, bottom = h[k], h[k + 1]
    sc = s.conjugate()
    for j in columns:
        x, y = top[j], bottom[j]
        top[j], bottom[j] = c * x + s * y, c * y - sc * x


def _rotate_cols(h, k, c, s, rows):
    """Columns k, k+1 of h <- them times [[c, -s], [conj(s), c]], over ``rows``."""
    sc = s.conjugate()
    for i in rows:
        row = h[i]
        x, y = row[k], row[k + 1]
        row[k], row[k + 1] = c * x + sc * y, c * y - s * x


def schur(a):
    """(T, Q) with A = Q T Q^H, T upper triangular and Q unitary, as lists of
    complex rows.  Raises ValueError when A has an infinite or NaN entry, or
    when the QR steps do not converge."""
    n = len(a)
    h = [[complex(v) for v in row] for row in a]
    if not all(map(cmath.isfinite, chain.from_iterable(h))):
        raise ValueError("array must not contain infs or NaNs")
    q = [[complex(i == j) for j in range(n)] for i in range(n)]
    # Householder reflectors I - 2 v v^H, |v| = 1, zero column k below row k + 1
    for k in range(n - 2):
        x = [h[i][k] for i in range(k + 1, n)]
        if not any(x[1:]):
            continue
        size = math.hypot(*map(abs, x))
        alpha = -size * (x[0] / abs(x[0]) if x[0] else 1)
        x[0] -= alpha
        size = math.hypot(*map(abs, x))
        v = [z / size for z in x]
        rows = range(k + 1, n)
        for j in range(k + 1, n):
            s = 2 * sum(z.conjugate() * h[i][j] for z, i in zip(v, rows))
            for z, i in zip(v, rows):
                h[i][j] -= s * z
        h[k + 1][k] = alpha
        for i in range(k + 2, n):
            h[i][k] = 0j
        for m in (h, q):
            for row in m:
                s = 2 * sum(row[i] * z for z, i in zip(v, rows))
                for z, i in zip(v, rows):
                    row[i] -= s * z.conjugate()
    scale = norm(h)
    hi, steps, budget = n - 1, 0, 30 * n
    while hi > 0:
        # lo: the top of the unreduced block that ends at row hi
        lo = hi
        while lo > 0:
            sub = abs(h[lo][lo - 1])
            near = abs(h[lo][lo]) + abs(h[lo - 1][lo - 1])
            if not sub > _EPS * (near or scale):
                h[lo][lo - 1] = 0j
                break
            lo -= 1
        if lo == hi:
            hi, steps = hi - 1, 0
            continue
        budget -= 1
        if budget < 0:
            raise ValueError("the QR steps of the Schur form did not converge")
        steps += 1
        a11, a12, a21, a22 = h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi]
        if steps % 10 == 0:
            # an exceptional shift breaks a cycle
            shift = a22 + abs(a21)
        else:
            # Wilkinson: the eigenvalue of the trailing 2 x 2 block nearer a22
            half = (a11 - a22) / 2
            root = cmath.sqrt(half * half + a12 * a21)
            den = half + root if abs(half + root) >= abs(half - root) else half - root
            shift = a22 - a12 * a21 / den if den else a22
        for i in range(lo, hi + 1):
            h[i][i] -= shift
        rotations = []
        for k in range(lo, hi):
            c, s = _givens(h[k][k], h[k + 1][k])
            _rotate_rows(h, k, c, s, range(k, n))
            rotations.append((k, c, s))
        for k, c, s in rotations:
            _rotate_cols(h, k, c, s, range(k + 2))
            _rotate_cols(q, k, c, s, range(n))
        for i in range(lo, hi + 1):
            h[i][i] += shift
    return h, q


def _exp(z):
    try:
        return cmath.exp(z)
    except OverflowError:
        return complex(math.inf, math.inf)


def expm_upper(t, s):
    """e^{Ts} for a real s and an upper triangular T stored as rows of
    {column: entry}, in the same form.  The diagonal is e^{T_jj s}; a T with
    entries off its diagonal adds the rest by Taylor terms of T s / 2^m and
    m squarings."""
    n = len(t)
    widths = [0.0] * n
    for row in t:
        for j, z in row.items():
            widths[j] += abs(z)
    size = abs(s) * max(widths)
    if not size < math.inf:
        return [{j: complex(math.nan, math.nan) for j in range(i, n)} for i in range(n)]
    total = [{} for _ in range(n)]
    if any(row.keys() - {i} for i, row in enumerate(t)):
        squarings = max(0, math.frexp(size / _THETA)[1])
        h = math.ldexp(s, -squarings)
        x = [{j: z * h for j, z in row.items()} for row in t]
        total = [{**row, i: row.get(i, 0) + 1} for i, row in enumerate(x)]
        term = x
        for k in range(2, 30):
            term = [{j: z / k for j, z in row.items()} for row in upper_mul(term, x)]
            for acc, row in zip(total, term):
                for j, z in row.items():
                    acc[j] = acc.get(j, 0) + z
            if max((abs(z) for row in term for z in row.values()), default=0.0) <= _EPS * max(
                    abs(z) for row in total for z in row.values()):
                break
        for _ in range(squarings):
            total = upper_mul(total, total)
    for i, row in enumerate(total):
        row[i] = _exp(t[i].get(i, 0) * s)
    return total


def least_squares(a, rhs):
    """For each vector b in ``rhs``, the x minimizing ||A x - b||_2, where A is
    the m x k matrix ``a`` (lists of rows); None when A's numerical rank is
    below k, that is when a pivot is at most max(m, k) * 2^-52 times the
    first.

    Householder QR with column pivoting: each step moves the remaining
    column of largest norm first, so the pivots |R_jj| do not increase.
    """
    m, k = len(a), len(a[0])
    if m < k:
        return None
    cols = [list(col) for col in zip(*a)]
    rhs = [list(b) for b in rhs]
    perm = list(range(k))
    for j in range(k):
        sizes = [math.hypot(*col[j:]) for col in cols[j:]]
        p = j + max(range(len(sizes)), key=sizes.__getitem__)
        cols[j], cols[p] = cols[p], cols[j]
        perm[j], perm[p] = perm[p], perm[j]
        size = sizes[p - j]
        if j == 0:
            first = size
        if not size > max(m, k) * _EPS * first:
            return None
        x = cols[j]
        alpha = -math.copysign(size, x[j])
        v = x[j:]
        v[0] -= alpha
        length = math.hypot(*v)
        v = [w / length for w in v]
        x[j:] = [alpha] + [0.0] * (m - j - 1)
        # y <- y - 2 v (v . y), |v| = 1: the reflector that maps x to alpha e_j
        for y in chain(cols[j + 1:], rhs):
            f = 2 * sum(map(mul, v, y[j:]))
            y[j:] = [u - f * w for u, w in zip(y[j:], v)]
    solutions = []
    for y in rhs:
        z = [0.0] * k
        for i in reversed(range(k)):
            z[i] = (y[i] - sum(cols[j][i] * z[j] for j in range(i + 1, k))) / cols[i][i]
        x = [0.0] * k
        for i, p in enumerate(perm):
            x[p] = z[i]
        solutions.append(x)
    return solutions


def inverse(a):
    """A^{-1} for a square A; raises ValueError when A is singular to working
    precision (the rank test of least_squares)."""
    n = len(a)
    cols = least_squares(a, [[float(i == j) for i in range(n)] for j in range(n)])
    if cols is None:
        raise ValueError("matrix is singular")
    return [list(row) for row in zip(*cols)]

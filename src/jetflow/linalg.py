"""Exact rational linear algebra: dense matrices over Fraction.

Provides the square RatMatrix type (determinant, inverse, powers) plus
rectangular solvers (RREF, nullspace, exact solve) and minimal polynomials,
all over exact rationals.  Float-mode callers convert to numpy themselves.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational entry, got {type(x).__name__}")


class RatMatrix:
    """Square matrix with exact rational entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("RatMatrix must be square")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n):
        return cls([[Fraction(0)] * n for _ in range(n)])

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in row) for row in self.rows)
        return f"RatMatrix[{body}]"

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def __matmul__(self, other):
        if isinstance(other, RatMatrix):
            n = self.n
            if other.n != n:
                raise ValueError("size mismatch")
            cols = list(zip(*other.rows))
            return RatMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                              for row in self.rows])
        raise TypeError("RatMatrix @ needs another RatMatrix")

    def power(self, k):
        acc = RatMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base
            k >>= 1
        return acc

    def det(self):
        work = [list(row) for row in self.rows]
        n = self.n
        sign = 1
        result = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                sign = -sign
            result *= work[col][col]
            inv = 1 / work[col][col]
            for r in range(col + 1, n):
                f = work[r][col] * inv
                if f == 0:
                    continue
                for c in range(col, n):
                    work[r][c] -= f * work[col][c]
        return sign * result

    def inverse(self):
        n = self.n
        red, pivots = rref([list(row) + [Fraction(i == j) for j in range(n)]
                            for i, row in enumerate(self.rows)])
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix([row[n:] for row in red])

    def to_floats(self):
        return [[float(x) for x in row] for row in self.rows]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    work = [[_frac(x) for x in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        # Row operations touch only the pivot row's nonzero columns.
        support = [(j, b) for j, b in enumerate(work[r]) if b]
        for i in range(len(work)):
            row = work[i]
            f = row[col]
            if i == r or f == 0:
                continue
            for j, b in support:
                row[j] -= f * b
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work, pivots


def nullspace(rows, ncols):
    """Canonical basis of {x : rows @ x = 0} for a rectangular system."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(v)
    return basis


def solve_exact(rows, rhs):
    """Solve rows @ x = rhs exactly.

    Returns a solution, or None when the system is inconsistent.  When free
    variables remain, the solution has zeros in the free coordinates.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def minimal_polynomial(m):
    """Monic minimal polynomial of a RatMatrix, as a univar coefficient list."""
    n = m.n
    flat_powers = [[Fraction(i == j) for i in range(n) for j in range(n)]]
    power = RatMatrix.identity(n)
    for k in range(1, n + 1):
        power = power @ m
        flat = [x for row in power.rows for x in row]
        sol = solve_exact([list(row) for row in zip(*flat_powers)], flat)
        if sol is not None:
            return [-c for c in sol] + [Fraction(1)]
        flat_powers.append(flat)
    raise RuntimeError("minimal polynomial not found below degree n+1")

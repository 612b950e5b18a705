"""Sparse multivariate polynomial arithmetic, truncation, and bivariate GCD.

A MultiPoly is a finite map from exponent tuples to nonzero coefficients.
Coefficients are either exact rationals (Fraction) or 64-bit floats; the
two scalar modes never mix inside one computation.  PolyMap bundles m
coordinate polynomials sharing the same variables and an optional truncation
order K, and represents a K-jet of a map at the origin.

Products (``*``, mul_trunc, pow_trunc, product_slice for one degree, and
through them composition), the sums of scaled products in composition and
in the flow series, and the Lie derivative of a vector field (LieDerivative,
one fused step per flow coefficient) run on packed graded keys: each
exponent tuple becomes one int with the total degree in its top field
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), so that multiplying monomials is one
integer addition and truncation one comparison.  Exact coefficients there
are integer numerators over one common denominator per polynomial, so a
Fraction is built once per output term.  Float sums run in a documented
order and keep every nonzero sum: a product in ascending order of its
operands' terms, a Lie derivative step in ascending order of p's terms,
then j, then F_j's terms.  ``.terms`` stays the tuple-keyed view; products
in both scalar modes build it on first access, and the degree, zero,
homogeneity and truncation queries read the packed form while it is
unbuilt.  Exact division, by one polynomial (divide_exact) or
coordinatewise by a vector (common_quotient), reduces by a single divisor in
graded-lex order (Cox, Little and O'Shea, "Ideals, Varieties, and
Algorithms", 2.3).

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter

from . import univar
from .errors import NotDivisibleError

EXACT = "exact"
FLOAT = "float"

# Default display names; --vars overrides at the CLI layer.
_DEFAULT_NAMES = ("x", "y", "z")


def default_var_names(nvars):
    """x, y, z for up to three variables, x1..xn beyond."""
    if nvars <= 3:
        return list(_DEFAULT_NAMES[:nvars])
    return [f"x{i + 1}" for i in range(nvars)]


def _coerce(value, mode):
    if mode == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise ValueError(f"exact mode cannot hold a {type(value).__name__} coefficient")
    if mode == FLOAT:
        if isinstance(value, (int, float, Fraction)):
            try:
                return float(value)
            except OverflowError:
                raise ValueError("coefficient too large for float mode") from None
        raise ValueError(f"float mode cannot hold a {type(value).__name__} coefficient")
    raise ValueError(f"unknown scalar mode {mode!r}")


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in descending lex order."""
    if nvars == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


def mono_deg(mono):
    return sum(mono)


def _max_nan(values, default):
    """max(values, default=default), except that any NaN makes the result NaN.

    Plain max() returns NaN only when NaN comes first, because every
    comparison with NaN is false.
    """
    best = default
    for v in values:
        if v != v:  # only NaN is unequal to itself
            return v
        if v > best:
            best = v
    return best


def _check_pair(a, b):
    if a.nvars != b.nvars:
        raise ValueError(f"variable-count mismatch: {a.nvars} vs {b.nvars}")
    if a.mode != b.mode:
        raise ValueError(f"scalar-mode mismatch: {a.mode} vs {b.mode}")


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables over one scalar mode."""

    # Products are born packed (see _pack); their tuple-keyed terms are
    # built on first access, so intermediate products never make one.
    __slots__ = ("nvars", "mode", "_terms", "_packed")

    def __init__(self, nvars, terms=None, mode=EXACT):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} does not have {nvars} exponents")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = _coerce(coeff, mode)
            if c != 0:
                clean[mono] = c
        self.nvars = nvars
        self.mode = mode
        self._terms = clean
        self._packed = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars, mode=EXACT):
        return cls(nvars, {}, mode)

    @classmethod
    def const(cls, nvars, value, mode=EXACT):
        return cls(nvars, {(0,) * nvars: value}, mode)

    @classmethod
    def variable(cls, nvars, index, mode=EXACT):
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: 1}, mode)

    @classmethod
    def _raw(cls, nvars, terms, mode):
        """Internal: terms already clean (no zeros, correct tuples, coerced)."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.mode = mode
        self._terms = terms
        self._packed = None
        return self

    @property
    def terms(self):
        """Dict from exponent tuples to nonzero coefficients (do not mutate)."""
        terms = self._terms
        if terms is None:
            bits, keys, values, den = self._packed
            if self.mode == EXACT:
                values = [Fraction(v, den) for v in values]
            self._terms = terms = dict(zip(_unpack_keys(self.nvars, bits, keys), values))
        return terms

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not (self._packed[1] if self._terms is None else self._terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if self._terms is None:
            bits, keys, _, _ = self._packed
            return keys[-1] >> self.nvars * bits if keys else -1
        return max(map(mono_deg, self.terms), default=-1)

    def min_degree(self):
        """Smallest total degree with a nonzero term; math.inf for zero."""
        return min(map(mono_deg, self.terms), default=math.inf)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, _coerce(0, self.mode))

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), _coerce(0, self.mode))

    def max_abs_coeff(self):
        """Largest |coefficient|: 0 for the zero polynomial, NaN if any is NaN.

        Reads the packed form while ``.terms`` is unbuilt."""
        if self._terms is None:
            _, _, values, den = self._packed
            largest = _max_nan(map(abs, values), 0)
            return Fraction(largest, den) if self.mode == EXACT else float(largest)
        return _max_nan(map(abs, self.terms.values()), _coerce(0, self.mode))

    def is_homogeneous(self, d=None):
        if self._terms is None:
            bits, keys, _, _ = self._packed  # sorted: the degree is lowest first, highest last
            degs = {key >> self.nvars * bits for key in keys[:1] + keys[-1:]}
        else:
            degs = set(map(mono_deg, self.terms))
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.mode == other.mode and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.mode, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (mono_deg(kv[0]), kv[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = MultiPoly.const(self.nvars, other, self.mode)
        _check_pair(self, other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return MultiPoly._raw(self.nvars, out, self.mode)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {m: -c for m, c in self.terms.items()}, self.mode)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = MultiPoly.const(self.nvars, other, self.mode)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(MultiPoly.const(self.nvars, other, self.mode))

    def scale(self, c):
        c = _coerce(c, self.mode)
        if c == 0:
            return MultiPoly.zero(self.nvars, self.mode)
        return MultiPoly._raw(self.nvars, {m: v * c for m, v in self.terms.items()}, self.mode)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        return _product(self, other, self.degree() + other.degree())

    def __rmul__(self, other):
        return self.__mul__(other)

    def mul_trunc(self, other, k):
        """Product truncated to total degree <= k (the jet product)."""
        return _product(self, other, k)

    def pow_trunc(self, e, k):
        """e-th power truncated to total degree <= k."""
        if e < 0:
            raise ValueError("negative exponent")
        acc = MultiPoly.const(self.nvars, 1, self.mode).truncate(k)
        for _ in range(e):
            acc = acc.mul_trunc(self, k)
        return acc

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponents must be natural numbers")
        acc = MultiPoly.const(self.nvars, 1, self.mode)
        for _ in range(e):
            acc = acc * self
        return acc

    # -- jets --------------------------------------------------------------

    def truncate(self, k):
        """Drop all terms of total degree > k."""
        if self._terms is None and self.degree() <= k:
            return self  # a packed product within the order stays packed
        out = {m: c for m, c in self.terms.items() if mono_deg(m) <= k}
        if len(out) == len(self.terms):
            return self  # values are immutable; keeps the packed cache
        return MultiPoly._raw(self.nvars, out, self.mode)

    def homogeneous_part(self, d):
        """The degree-d slice, as a HomogPoly (zero slice allowed)."""
        out = {m: c for m, c in self.terms.items() if mono_deg(m) == d}
        return HomogPoly(MultiPoly._raw(self.nvars, out, self.mode), d)

    def graded_parts(self, k):
        """The homogeneous parts of degrees 0..k, as MultiPolys, in one pass."""
        parts = [{} for _ in range(k + 1)]
        for mono, c in self.terms.items():
            deg = mono_deg(mono)
            if deg <= k:
                parts[deg][mono] = c
        return [MultiPoly._raw(self.nvars, part, self.mode) for part in parts]

    def partial(self, index):
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range for {self.nvars} variables")
        out = {}
        for mono, c in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            lowered = tuple(v - 1 if i == index else v for i, v in enumerate(mono))
            out[lowered] = c * e
        return MultiPoly._raw(self.nvars, out, self.mode)

    def rename_vars(self, index_map, new_nvars):
        """Inject into a ring with ``new_nvars`` variables; old var i -> index_map[i]."""
        out = {}
        for mono, c in self.terms.items():
            new = [0] * new_nvars
            for i, e in enumerate(mono):
                if e:
                    new[index_map[i]] += e
            key = tuple(new)
            s = out.get(key)
            s = c if s is None else s + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return MultiPoly._raw(new_nvars, out, self.mode)

    # -- evaluation and conversion ------------------------------------------

    def evaluate(self, point):
        """Value at a point given as one scalar per variable."""
        point = [_coerce(v, self.mode) for v in point]
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = _coerce(0, self.mode)
        for mono, c in self.terms.items():
            term = c
            for e, v in zip(mono, point):
                if e:
                    term *= v ** e
            total += term
        return total

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return MultiPoly(self.nvars, self.terms, FLOAT)

    def content(self):
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.mode != EXACT:
            raise ValueError("content is defined in exact mode only")
        return univar.content(self.terms.values())

    # -- display -------------------------------------------------------------

    def to_string(self, names=None):
        if self.is_zero():
            return "0"
        names = names or default_var_names(self.nvars)
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if self.mode == EXACT:
                sign = "-" if coeff < 0 else "+"
                mag = -coeff if coeff < 0 else coeff
                if not factors:
                    body = str(mag)
                elif mag == 1:
                    body = "*".join(factors)
                else:
                    body = "*".join([str(mag)] + factors)
            else:
                sign = "-" if coeff < 0 else "+"
                mag = abs(coeff)
                body = "*".join([repr(mag)] + factors) if factors else repr(mag)
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"MultiPoly({self})"


def _pack(p, bits):
    """p's terms in packed form: (bits, keys, values, denominator).

    A packed key holds the total degree in its top field and the exponents
    below it, ``bits`` bits each, first variable highest, so that adding keys
    multiplies monomials and ascending keys are ascending (degree, exponent
    tuple).  Terms of degree >= 2**bits do not fit and are left out.  The
    keys list is sorted.  Exact values are integer numerators over the common
    denominator (the lcm of the coefficients' denominators); float values
    are the coefficients, over 1.  The result is cached on p, which is
    immutable, for the last ``bits`` asked for.
    """
    packed = p._packed
    if packed is not None and packed[0] == bits:
        return packed
    limit = 1 << bits
    items = []
    for mono, c in p.terms.items():
        deg = sum(mono)
        if deg < limit:
            key = deg
            for e in mono:
                key = key << bits | e
            items.append((key, c))
    items.sort(key=itemgetter(0))
    keys = [key for key, _ in items]
    if p.mode == EXACT:
        den = math.lcm(*(c.denominator for _, c in items))
        values = [c.numerator * (den // c.denominator) for _, c in items]
    else:
        den = 1
        values = [c for _, c in items]
    p._packed = packed = (bits, keys, values, den)
    return packed


def _from_sums(n, mode, bits, sums, den):
    """The MultiPoly whose packed terms are ``sums``: key -> numerator over
    den (exact) or key -> float.  Zero sums are left out (NaN stays).  The
    sorted packed form is kept as the result's cache, and ``.terms`` is
    built from it on first access."""
    keys = sorted(key for key, v in sums.items() if v)
    values = [sums[key] for key in keys]
    if mode == EXACT:
        # Dividing out the gcd leaves den the lcm of the reduced
        # coefficients' denominators, as _pack would compute it.
        g = math.gcd(den, *values)
        den //= g
        values = [v // g for v in values]
    result = MultiPoly._raw(n, None, mode)
    result._packed = (bits, keys, values, den)
    return result


def _unpack_keys(n, bits, keys):
    """Exponent tuples of packed keys (see _pack)."""
    mask = (1 << bits) - 1
    shifts = range((n - 1) * bits, -1, -bits)
    return [tuple([key >> s & mask for s in shifts]) for key in keys]


def _product(a, b, k, lo=0, bits=None):
    """The terms of a*b of total degree lo..k.

    Runs on packed keys (see _pack), ``bits`` bits per field (at least k's
    width; the default): a caller that takes products of several degrees
    from the same operands packs them at the largest order's width once.
    Only term pairs landing in degrees lo..k are visited, each found by
    bisection, and each pair costs one integer addition for the monomial and
    one multiplication of integer numerators (exact) or floats.  Sums
    accumulate in ascending (degree, exponent tuple) order of a's terms, then
    b's, so float results do not depend on the dict order of the operands
    or on the degree window.
    """
    _check_pair(a, b)
    n, mode = a.nvars, a.mode
    if k < max(lo, 0):
        return MultiPoly._raw(n, {}, mode)
    if bits is None:
        bits = k.bit_length() + 1
    shift = n * bits
    _, keys1, values1, den1 = _pack(a, bits)
    _, keys2, values2, den2 = _pack(b, bits)
    sums = {}
    if keys1 and keys2:
        get = sums.get
        low2, high2 = keys2[0] >> shift, keys2[-1] >> shift
        if lo > high2:
            first = bisect_left(keys1, (lo - high2) << shift)
            keys1, values1 = keys1[first:], values1[first:]
        for key1, v1 in zip(keys1, values1):
            deg1 = key1 >> shift
            if deg1 + low2 > k:
                break
            start = bisect_left(keys2, (lo - deg1) << shift) if lo > deg1 + low2 else 0
            cut = bisect_left(keys2, (k - deg1 + 1) << shift)
            for key2, v2 in zip(keys2[start:cut], values2[start:cut]):
                key = key1 + key2
                sums[key] = get(key, 0) + v1 * v2
    return _from_sums(n, mode, bits, sums, den1 * den2)


class LieDerivative:
    """j^k of the Lie derivative (F . grad) p = sum_j F_j dp/dx_j, on packed keys,
    for a field F with F(0) = 0 (so that terms of p above k contribute nothing).

    One sparse matrix-vector step of the Carleman operator of F (Carleman,
    Acta Math. 59, 1932), without a derivative or a product polynomial in
    between.  The table is built once per field and order: for each j, F_j's
    packed keys minus key(x_j) at k's width, its numerators over one common
    denominator for the whole field (exact mode), and for each degree the
    prefix of terms f with that degree - 1 + deg f <= k.  A term c x^m of p
    with m_j >= 1 then adds m_j * c * a to the key key(m) + key(f) - key(x_j)
    for each term a x^f of F_j: packed keys are linear in the exponents, so
    that sum is the key of m - e_j + f.  Sums run in one dict, p's terms in
    ascending packed order, then j ascending, then F_j's terms ascending,
    and every nonzero sum is kept.
    """

    def __init__(self, field, k):
        n = self.nvars = field.nvars
        self.mode, self.k = field.mode, k
        self.bits = bits = k.bit_length() + 1
        shift = n * bits
        packs = [_pack(f, bits) for f in field.coords]
        self.den = math.lcm(*(pack[3] for pack in packs))
        self.rows = []
        for j, (_, keys, values, den) in enumerate(packs):
            at = (n - 1 - j) * bits
            e_j = 1 << shift | 1 << at
            scale = self.den // den
            pairs = [(key - e_j, v * scale) for key, v in zip(keys, values)]
            degrees = [key >> shift for key in keys]
            # a term of p of degree d meets the terms f with deg f <= k + 1 - d
            by_degree = [pairs[:bisect_right(degrees, k + 1 - d)] for d in range(k + 1)]
            self.rows.append((at, by_degree))

    def apply(self, p):
        """j^k((F . grad) p), for p in F's variables and scalar mode."""
        n, bits = self.nvars, self.bits
        if p.nvars != n or p.mode != self.mode:
            raise ValueError(f"the Lie derivative needs {self.mode} polynomials in {n} variables")
        shift, mask = n * bits, (1 << bits) - 1
        _, keys, values, den = _pack(p, bits)
        cut = bisect_left(keys, (self.k + 1) << shift)
        sums = {}
        get = sums.get
        for key, c in zip(keys[:cut], values[:cut]):
            d = key >> shift
            for at, by_degree in self.rows:
                m_j = key >> at & mask
                if m_j:
                    c_j = m_j * c
                    for offset, a in by_degree[d]:
                        out = key + offset
                        sums[out] = get(out, 0) + c_j * a
        return _from_sums(n, self.mode, bits, sums, den * self.den)


def product_slice(a, b, d, k):
    """The degree-d slice of a*b, for d <= k, with both operands packed at
    order k's width: slices of every degree up to k reuse one packing of
    each operand (see _product)."""
    return _product(a, b, d, d, k.bit_length() + 1)


def combine_trunc(n, mode, pairs, k):
    """j^k of sum(c * p for c, p in pairs): one sum over all the terms, in a
    dict of packed keys, in place of a chain of additions.

    Exact sums run on integer numerators over one common denominator.  Float
    sums accumulate in pair order.  Both keep every nonzero sum, as a chain
    of additions would.
    """
    if any(p.nvars != n or p.mode != mode for _, p in pairs):
        raise ValueError(f"combine_trunc needs {mode} polynomials in {n} variables")
    if k < 0:
        return MultiPoly._raw(n, {}, mode)
    bits = k.bit_length() + 1
    limit = (k + 1) << (n * bits)
    packs = [(c, _pack(p, bits)) for c, p in pairs]
    if mode == EXACT:
        den = math.lcm(*(c.denominator * d for c, (_, _, _, d) in packs))
        packs = [(c.numerator * (den // (c.denominator * pack[3])), pack) for c, pack in packs]
    else:
        den = 1
    sums = {}
    get = sums.get
    for c, (_, keys, values, _) in packs:
        cut = bisect_left(keys, limit)
        for key, v in zip(keys[:cut], values[:cut]):
            sums[key] = get(key, 0) + c * v
    return _from_sums(n, mode, bits, sums, den)


def as_poly(p):
    """The MultiPoly under p: p.poly for a HomogPoly, p itself otherwise."""
    return p.poly if isinstance(p, HomogPoly) else p


class HomogPoly:
    """A MultiPoly together with its declared homogeneity degree.

    The zero polynomial is homogeneous of every degree.
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly, degree):
        if degree < 0:
            raise ValueError("homogeneity degree must be nonnegative")
        if not poly.is_homogeneous(degree):
            raise ValueError(f"polynomial is not homogeneous of degree {degree}")
        self.poly = poly
        self.degree = degree

    @classmethod
    def zero(cls, nvars, degree, mode=EXACT):
        return cls(MultiPoly.zero(nvars, mode), degree)

    def is_zero(self):
        return self.poly.is_zero()

    def __eq__(self, other):
        return (isinstance(other, HomogPoly) and self.degree == other.degree
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.degree, self.poly))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"HomogPoly(deg={self.degree}, {self.poly})"


class PolyMap:
    """m-tuple of polynomials in n shared variables, with a truncation order.

    ``trunc`` is an int K (the map is a K-jet; terms above K are cut on
    construction) or None for an untruncated polynomial map.
    """

    __slots__ = ("nvars", "ncoords", "coords", "trunc")

    def __init__(self, coords, trunc=None):
        coords = tuple(coords)
        if not coords:
            raise ValueError("a PolyMap needs at least one coordinate")
        nvars = coords[0].nvars
        mode = coords[0].mode
        for c in coords[1:]:
            if c.nvars != nvars:
                raise ValueError("coordinates disagree on variable count")
            if c.mode != mode:
                raise ValueError("coordinates disagree on scalar mode")
        if trunc is not None:
            coords = tuple(c.truncate(trunc) for c in coords)
        self.nvars = nvars
        self.ncoords = len(coords)
        self.coords = coords
        self.trunc = trunc

    @property
    def mode(self):
        return self.coords[0].mode

    @classmethod
    def identity(cls, nvars, mode=EXACT, trunc=None):
        return cls([MultiPoly.variable(nvars, i, mode) for i in range(nvars)], trunc)

    @classmethod
    def linear(cls, matrix_rows, mode=EXACT, trunc=None):
        """The linear map x -> Ax from an iterable of matrix rows."""
        rows = [list(r) for r in matrix_rows]
        n = len(rows[0])
        coords = []
        for row in rows:
            terms = {}
            for j, a in enumerate(row):
                mono = tuple(1 if i == j else 0 for i in range(n))
                terms[mono] = a
            coords.append(MultiPoly(n, terms, mode))
        return cls(coords, trunc)

    def vanishes_at_origin(self):
        return all(c.constant_term() == 0 for c in self.coords)

    def truncate(self, k):
        return PolyMap(self.coords, k)

    def __add__(self, other):
        self._check_shape(other)
        t = _merge_trunc(self.trunc, other.trunc)
        return PolyMap([a + b for a, b in zip(self.coords, other.coords)], t)

    def __sub__(self, other):
        self._check_shape(other)
        t = _merge_trunc(self.trunc, other.trunc)
        return PolyMap([a - b for a, b in zip(self.coords, other.coords)], t)

    def scale(self, c):
        return PolyMap([p.scale(c) for p in self.coords], self.trunc)

    def _check_shape(self, other):
        if self.nvars != other.nvars or self.ncoords != other.ncoords:
            raise ValueError("map shape mismatch")
        if self.mode != other.mode:
            raise ValueError("scalar-mode mismatch")

    def __eq__(self, other):
        return (isinstance(other, PolyMap) and self.nvars == other.nvars
                and self.coords == other.coords)

    def linear_part(self):
        """Rows of the Jacobian at the origin (list of lists of scalars)."""
        rows = []
        for p in self.coords:
            row = []
            for j in range(self.nvars):
                mono = tuple(1 if i == j else 0 for i in range(self.nvars))
                row.append(p.coefficient(mono))
            rows.append(row)
        return rows

    def max_abs_coeff(self):
        """Largest |coefficient| over all coordinates; NaN if any is NaN."""
        return _max_nan((p.max_abs_coeff() for p in self.coords), _coerce(0, self.mode))

    def is_identity(self, k=None, tol=0):
        """Whether this map is the identity jet to order k, coefficientwise within tol."""
        diff = self - PolyMap.identity(self.nvars, self.mode)
        if k is not None:
            diff = diff.truncate(k)
        return diff.max_abs_coeff() <= tol

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return PolyMap([c.to_float() for c in self.coords], self.trunc)

    def evaluate(self, point):
        return [c.evaluate(point) for c in self.coords]

    def to_string(self, names=None):
        return ", ".join(c.to_string(names) for c in self.coords)

    def __str__(self):
        return f"({self.to_string()})"

    def __repr__(self):
        return f"PolyMap({self}, trunc={self.trunc})"


def _merge_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Substituter:
    """Shared power cache for substituting the coordinates of G into polynomials.

    Builds mixed powers G_1^e1 * ... * G_n^en lazily, each from a predecessor
    by a single truncated multiplication, so repeated substitutions against
    the same inner map (e.g. all flow coefficients v_i composed with one h)
    share the work.  Substituting into the identity map is plain truncation.
    """

    def __init__(self, inner, k):
        if not inner.vanishes_at_origin():
            raise ValueError("inner map must vanish at the origin for truncated composition")
        self.inner = inner
        self.k = k
        self.mode = inner.mode
        self._identity = inner.coords == PolyMap.identity(inner.nvars, inner.mode).coords
        one = MultiPoly.const(inner.nvars, 1, inner.mode)
        self._cache = {(0,) * inner.ncoords: one}
        self._orders = [c.min_degree() for c in inner.coords]

    def _power(self, mono):
        cached = self._cache.get(mono)
        if cached is not None:
            return cached
        idx = next(i for i, e in enumerate(mono) if e)
        prev = tuple(e - 1 if i == idx else e for i, e in enumerate(mono))
        value = self._power(prev).mul_trunc(self.inner.coords[idx], self.k)
        self._cache[mono] = value
        return value

    def apply(self, poly):
        """j^k(poly o inner)."""
        if poly.nvars != self.inner.ncoords:
            raise ValueError("dimension mismatch in composition")
        if poly.mode != self.mode:
            raise ValueError("scalar-mode mismatch")
        if self._identity:
            return poly.truncate(self.k)
        # Terms whose substituted order already exceeds k contribute nothing.
        pairs = [(c, self._power(mono)) for mono, c in poly.terms.items()
                 if sum(e * o for e, o in zip(mono, self._orders) if e) <= self.k]
        return combine_trunc(self.inner.nvars, self.mode, pairs, self.k)


def compose(outer, inner, k):
    """j^k(outer o inner) for maps with inner vanishing at the origin."""
    sub = Substituter(inner, k)
    return PolyMap([sub.apply(c) for c in outer.coords], k)


def divide_exact(f, d):
    """Quotient q with q*d = f exactly; raises NotDivisibleError otherwise.

    Works in any number of variables via graded-lex reduction by the single
    divisor d.
    """
    _check_pair(f, d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return MultiPoly.zero(f.nvars, f.mode)
    key = lambda m: (mono_deg(m), m)
    lead_d = max(d.terms, key=key)
    lead_d_coeff = d.terms[lead_d]
    rem = dict(f.terms)
    quot = {}
    while rem:
        lead_r = max(rem, key=key)
        diff = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(e < 0 for e in diff):
            raise NotDivisibleError(f"{d} does not divide {f}")
        c = rem[lead_r] / lead_d_coeff
        quot[diff] = c
        for m2, c2 in d.terms.items():
            mono = mono_mul(diff, m2)
            s = rem.get(mono, None)
            s = -c * c2 if s is None else s - c * c2
            if s == 0:
                rem.pop(mono, None)
            else:
                rem[mono] = s
    return MultiPoly(f.nvars, quot, f.mode)


def common_quotient(nums, dens):
    """The one q with q * dens[j] = nums[j] for every coordinate j.

    Divides the first coordinate with a nonzero divisor by divide_exact and
    checks the others by multiplying back, comparing packed terms (see _pack)
    so that no Fraction is built.  Raises NotDivisibleError when no
    such q exists, ZeroDivisionError when every divisor is zero.
    """
    pairs = list(zip(nums, dens, strict=True))
    num, den = next(((n, d) for n, d in pairs if not d.is_zero()), (None, None))
    if den is None:
        raise ZeroDivisionError("division by the zero vector")
    try:
        q = divide_exact(num, den)
    except NotDivisibleError:
        raise NotDivisibleError(
            f"coordinate {num} is not a polynomial multiple of {den}") from None
    for n, d in pairs:
        if n is num and d is den:
            continue
        # packed forms at one width are canonical: equal keys, numerators
        # and denominator mean equal polynomials
        k = max(q.degree() + d.degree(), n.degree(), 0)
        if _product(q, d, k)._packed[1:] != _pack(n, k.bit_length() + 1)[1:]:
            raise NotDivisibleError("no single polynomial factor works for every coordinate")
    return q


def dehomogenize(p, keep):
    """Coefficient list, lowest degree first, of p with every variable but
    ``keep`` set to 1 (univar's convention; exact mode)."""
    coeffs = [Fraction(0)] * (max((m[keep] for m in p.terms), default=0) + 1)
    for m, c in p.terms.items():
        coeffs[m[keep]] += c
    return univar.normalize(coeffs)


def _strip_common_monomial(f, g):
    """Largest monomial dividing both nonzero f and g; returns (mono, f/mono, g/mono)."""
    n = f.nvars
    mono = tuple(min(m[i] for m in (*f.terms, *g.terms)) for i in range(n))
    if all(e == 0 for e in mono):
        return mono, f, g
    shift = lambda p: MultiPoly(n, {tuple(a - b for a, b in zip(m, mono)): c
                                    for m, c in p.terms.items()}, p.mode)
    return mono, shift(f), shift(g)


def _gcd_normalize(p):
    """Scale to integer content 1 with positive lexicographically-leading coefficient."""
    if p.is_zero():
        return p
    c = p.content()
    p = p.scale(1 / c)
    lead = max(p.terms)  # plain lexicographic order on exponent tuples
    if p.terms[lead] < 0:
        p = p.scale(-1)
    return p


def _as_homog_poly(p):
    p = as_poly(p)
    if not p.is_homogeneous():
        raise ValueError("expected a homogeneous polynomial")
    return p


def bivariate_homog_gcd(f, g):
    """GCD of two homogeneous polynomials in two variables.

    Strips common monomial factors, dehomogenizes to one variable, runs the
    Euclidean algorithm over the rationals, and rehomogenizes.  The result is
    normalized to integer content 1 with a positive lexicographically-leading
    coefficient.
    """
    pf = _as_homog_poly(f)
    pg = _as_homog_poly(g)
    _check_pair(pf, pg)
    if pf.nvars != 2:
        raise ValueError("bivariate GCD needs exactly two variables")
    if pf.mode != EXACT:
        raise ValueError("GCD is computed in exact mode only")
    if pf.is_zero() and pg.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if pf.is_zero() or pg.is_zero():
        p = _gcd_normalize(pg if pf.is_zero() else pf)
        return HomogPoly(p, max(p.degree(), 0))
    mono, pf, pg = _strip_common_monomial(pf, pg)
    h = univar.gcd(dehomogenize(pf, 0), dehomogenize(pg, 0))
    d = univar.degree(h)
    terms = {(i + mono[0], d - i + mono[1]): c for i, c in enumerate(h)}
    out = _gcd_normalize(MultiPoly(2, terms, EXACT))
    return HomogPoly(out, max(out.degree(), 0))

"""Sparse multivariate polynomial arithmetic, truncation, and bivariate GCD.

A MultiPoly is a finite map from exponent tuples to nonzero coefficients.
Coefficients are either exact rationals (Fraction) or 64-bit floats; the
two scalar modes never mix inside one computation.  PolyMap bundles m
coordinate polynomials sharing the same variables and an optional truncation
order K, and represents a K-jet of a map at the origin.

Every product and sum of products is one kernel, combine_trunc, the degree
lo..k terms of sum c * a * b with b possibly left out; ``*`` and mul_trunc
are one-term calls of it.  The one sum outside it is append_above, a + b for
degree-disjoint operands (every term of b above a's degree), which
concatenates the two packed forms.  combine_trunc and the Lie derivative of a
vector field (LieDerivative, one fused step per flow coefficient, which caches
each input key's column of output positions and scaled coefficients and adds
it into a list accumulator) run on packed graded keys: each exponent tuple
becomes one int with the total degree in its top field (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007), so that multiplying monomials is one integer addition
and truncation one comparison.
Exact coefficients there are integer numerators over one common denominator,
so a Fraction is built once per output term.  Float sums keep every nonzero
sum, in the orders documented at combine_trunc and LieDerivative.  Queries,
sums, differences, scalings, powers, slices, partial, content and to_float
read only the packed form, in one pass each; it holds every term and is set
once (see _pack; one key width per degree, see _width).  ``.terms`` is the
tuple-keyed view, built on first access.  Exact division, by one polynomial
(divide_exact) or coordinatewise by a vector (common_quotient), is defined in
exact mode only; it reduces by a single divisor in graded-lex order (Cox,
Little and O'Shea, "Ideals, Varieties, and Algorithms", 2.3) on the packed
keys, with integer numerators.

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


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in descending lex order."""
    if nvars <= 1:
        return [(d,)] if nvars else [] if d else [()]
    return [(first,) + rest for first in range(d, -1, -1)
            for rest in monomials_of_degree(nvars - 1, d - first)]


def max_abs(values, zero=0):
    """The largest |v| over values, ``zero`` when there are none; NaN when one is NaN.

    Plain max() returns NaN only when NaN comes first, because every
    comparison with NaN is false.  This loop also beats max() and sum() over
    a list of the |v| on the short lists of coefficients it mostly sees.
    """
    best = zero
    for v in map(abs, values):
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

    # _packed, once set, holds every term (see _pack); _terms is None until
    # .terms is asked for on a polynomial computed on packed keys.
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
        return not _pack(self)[1]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        bits, keys, _, _ = _pack(self)
        return keys[-1] >> self.nvars * bits if keys else -1

    def min_degree(self):
        """Smallest total degree with a nonzero term; math.inf for zero."""
        bits, keys, _, _ = _pack(self)
        return keys[0] >> self.nvars * bits if keys else math.inf

    def constant_term(self):
        _, keys, values, den = _pack(self)
        c = values[0] if keys and keys[0] == 0 else 0
        return Fraction(c, den) if self.mode == EXACT else float(c)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), _coerce(0, self.mode))

    def max_abs_coeff(self):
        """Largest |coefficient|: 0 for the zero polynomial, NaN if any is NaN."""
        _, _, values, den = _pack(self)
        largest = max_abs(values)
        return Fraction(largest, den) if self.mode == EXACT else float(largest)

    def is_homogeneous(self, d=None):
        bits, keys, _, _ = _pack(self)
        if not keys:
            return True
        shift = self.nvars * bits  # keys are sorted: the lowest degree first, the highest last
        return keys[0] >> shift == keys[-1] >> shift and d in (None, keys[0] >> shift)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.mode == other.mode and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.mode, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _sum(self, other, c=1, d=1):
        """c * self + d * other, for a polynomial or a scalar other: one combine_trunc."""
        if isinstance(other, (int, Fraction, float)):
            other = MultiPoly.const(self.nvars, other, self.mode)
        _check_pair(self, other)
        return combine_trunc(self.nvars, self.mode, [(c, self), (d, other)],
                             max(self.degree(), other.degree()))

    __add__ = __radd__ = _sum

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._sum(other, 1, -1)

    def __rsub__(self, other):
        return self._sum(other, -1)

    def scale(self, c):
        c = _coerce(c, self.mode)
        if c == 0:
            return MultiPoly.zero(self.nvars, self.mode)
        return combine_trunc(self.nvars, self.mode, [(c, self)], self.degree())

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        return self.mul_trunc(other, self.degree() + other.degree())

    def __rmul__(self, other):
        return self.__mul__(other)

    def mul_trunc(self, other, k, width=None):
        """Product truncated to total degree <= k (the jet product), packed
        at order ``width``'s key width (k's by default; see combine_trunc)."""
        return combine_trunc(self.nvars, self.mode, [(1, self, other)], k, 0, width)

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
        return self.pow_trunc(e, e * max(self.degree(), 0))

    # -- jets --------------------------------------------------------------

    def truncate(self, k):
        """Drop all terms of total degree > k."""
        return self._degrees(0, k)

    def homogeneous_part(self, d):
        """The degree-d slice, as a HomogPoly (zero slice allowed)."""
        return HomogPoly(self._degrees(d, d), d)

    def graded_parts(self, k):
        """The homogeneous parts of degrees 0..k, as MultiPolys."""
        return [self._degrees(d, d) for d in range(k + 1)]

    def _degrees(self, lo, hi):
        """The terms of total degree lo..hi, cut from the sorted packed keys by
        bisection; self (values are immutable) when that is every term."""
        bits, keys, values, den = _pack(self)
        shift = self.nvars * bits
        start, stop = bisect_left(keys, lo << shift), bisect_left(keys, (hi + 1) << shift)
        if start == 0 and stop == len(keys):
            return self
        return _from_packed(self.nvars, self.mode, bits, keys[start:stop],
                            values[start:stop], den)

    def partial(self, index):
        """Exact partial derivative with respect to variable ``index`` (0-based):
        each packed key whose x_index field e is nonzero loses one key step of
        x_index, and its value is multiplied by e."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range for {self.nvars} variables")
        bits, keys, values, den = _pack(self)
        at, mask = (self.nvars - 1 - index) * bits, (1 << bits) - 1
        step = 1 << self.nvars * bits | 1 << at
        sums = {key - step: v * e for key, v in zip(keys, values) if (e := key >> at & mask)}
        return _from_sums(self.nvars, self.mode, bits, sums, den)

    def rename_vars(self, index_map, new_nvars):
        """Inject into a ring with ``new_nvars`` variables; old var i -> index_map[i]."""
        out = {}
        for mono, c in self.terms.items():
            new = [0] * new_nvars
            for i, e in enumerate(mono):
                if e:
                    new[index_map[i]] += e
            key = tuple(new)
            out[key] = out.get(key, 0) + c
        return MultiPoly(new_nvars, out, self.mode)

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
        """Each coefficient as numerator / denominator, which rounds correctly,
        as float(Fraction) does; one that underflows to 0.0 is left out."""
        if self.mode == FLOAT:
            return self
        bits, keys, values, den = _pack(self)
        try:
            floats = {key: v / den for key, v in zip(keys, values)}
        except OverflowError:
            raise ValueError("coefficient too large for float mode") from None
        return _from_sums(self.nvars, FLOAT, bits, floats, 1)

    def content(self):
        """Positive rational c such that self/c has coprime integer coefficients:
        gcd(numerators) / denominator, as the packed form is canonical."""
        if self.mode != EXACT:
            raise ValueError("content is defined in exact mode only")
        _, _, values, den = _pack(self)
        return Fraction(math.gcd(*values), den)

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
            sign, mag = "-" if coeff < 0 else "+", abs(coeff)
            if self.mode == EXACT:
                if not factors:
                    body = str(mag)
                # a leading -x^2 would read back as (-x)^2: it prints as -1*x^2
                elif mag == 1 and (pieces or sign == "+" or next(e for e in mono if e) % 2):
                    body = "*".join(factors)
                else:
                    body = "*".join([str(mag)] + factors)
            else:
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


def _keys(monos, bits):
    """The packed keys of exponent tuples (see _pack)."""
    keys = []
    for mono in monos:
        key = sum(mono)
        for e in mono:
            key = key << bits | e
        keys.append(key)
    return keys


def _width(d):
    """Bits per key field for degree (or kernel order) d: every exponent up
    to d with a spare top bit (divide_exact's borrow guard).  The floor of 6
    gives every degree below 32 one width and keeps a key in up to four
    variables within one 30-bit CPython digit."""
    return max(6, d.bit_length() + 1)


def _pack(p, bits=None):
    """p's terms in packed form: (bits, keys, values, denominator).

    A packed key holds the total degree in its top field and the exponents
    below it, ``bits`` bits each, first variable highest, so that adding keys
    multiplies monomials and ascending keys are ascending (degree, exponent
    tuple).  The keys list is sorted.  Exact values are integer numerators
    over the common denominator (the lcm of the coefficients' denominators);
    float values are the coefficients, over 1.  With ``bits`` None or p's
    own width this is p's own packed form, which holds every term.  It is set
    once: at birth from a kernel, or packed from ``.terms`` at the width of
    p's degree on first need.  At another width the result is a re-keyed copy
    of the terms of degree < 2**bits, which p does not keep.
    """
    packed = p._packed
    if packed is None:
        terms = p._terms
        width = _width(max(map(sum, terms), default=0))
        items = sorted(zip(_keys(terms, width), terms.values()), key=itemgetter(0))
        keys = [key for key, _ in items]
        if p.mode == EXACT:
            den = math.lcm(*(c.denominator for _, c in items))
            values = [c.numerator * (den // c.denominator) for _, c in items]
        else:
            den = 1
            values = [c for _, c in items]
        p._packed = packed = (width, keys, values, den)
    width, keys, values, den = packed
    if bits is None or bits == width:
        return packed
    cut = bisect_left(keys, 1 << bits << p.nvars * width)  # the terms of degree < 2**bits
    return bits, _keys(_unpack_keys(p.nvars, width, keys[:cut]), bits), values[:cut], den


def _from_sums(n, mode, bits, sums, den):
    """The MultiPoly whose packed terms are ``sums``: key -> numerator over
    den (exact) or key -> float.  Zero sums are left out (NaN stays)."""
    keys = sorted(key for key, v in sums.items() if v)
    return _from_packed(n, mode, bits, keys, [sums[key] for key in keys], den)


def _from_packed(n, mode, bits, keys, values, den):
    """The MultiPoly whose packed form is (bits, keys, values, den), for
    sorted keys and nonzero values."""
    if mode == EXACT:
        # Dividing out the gcd leaves den the lcm of the reduced
        # coefficients' denominators, as _pack would compute it, so that
        # packed forms at one width are canonical.
        g = math.gcd(den, *values)
        den //= g
        values = [v // g for v in values]
    result = object.__new__(MultiPoly)
    result.nvars, result.mode, result._terms = n, mode, None
    result._packed = (bits, keys, values, den)
    return result


def append_above(a, b, k):
    """a + b packed at order k's key width, for operands of degree <= k and
    every term of b above a's degree: the two packed forms concatenated.

    Exact numerators are rescaled to the lcm L of the two denominators, and
    that is already in lowest terms: a prime dividing L and every value
    would divide all of a's or all of b's numerators together with their
    denominator.  Float values are kept as they are, bitwise what the sum
    0 + 1 * v gives for a stored (nonzero) v.  Raises ValueError when b has
    a term at or below a's degree.
    """
    _check_pair(a, b)
    bits = _width(k)
    _, keys1, values1, den1 = _pack(a, bits)
    _, keys2, values2, den2 = _pack(b, bits)
    shift = a.nvars * bits
    if keys1 and keys2 and keys2[0] >> shift <= keys1[-1] >> shift:
        raise ValueError("append_above needs every term of b above a's degree")
    den = math.lcm(den1, den2)
    if den != den1:
        values1 = [v * (den // den1) for v in values1]
    if den != den2:
        values2 = [v * (den // den2) for v in values2]
    result = object.__new__(MultiPoly)
    result.nvars, result.mode, result._terms = a.nvars, a.mode, None
    result._packed = (bits, keys1 + keys2, values1 + values2, den)
    return result


def _unpack_keys(n, bits, keys):
    """Exponent tuples of packed keys (see _pack)."""
    mask = (1 << bits) - 1
    shifts = range((n - 1) * bits, -1, -bits)
    return [tuple([key >> s & mask for s in shifts]) for key in keys]


class LieDerivative:
    """j^k of the Lie derivative (F . grad) p = sum_j F_j dp/dx_j, on packed keys,
    for a field F with F(0) = 0 (so that terms of p above k contribute nothing).

    One sparse matrix-vector step of the Carleman operator of F (Carleman,
    Acta Math. 59, 1932), without a derivative or a product polynomial in
    between.  The table is built once per field and order: for each j, F_j's
    packed keys minus key(x_j) at k's width, its numerators over one common
    denominator for the whole field (exact mode), and for each degree the
    prefix of terms f with that degree - 1 + deg f <= k.  A term c x^m of p
    with m_j >= 1 then adds c * (m_j * a) to the key key(m) + key(f) - key(x_j)
    for each term a x^f of F_j: packed keys are linear in the exponents, so
    that sum is the key of m - e_j + f.  The pairs (output, m_j * a) of a key
    m, j ascending, then F_j's terms ascending, are its column, cached on
    first use; an output is a position in a registry of the keys reached so
    far.  A step sums p's terms in ascending packed order, each over its
    column, into one list indexed by position, and keeps every nonzero sum.
    """

    def __init__(self, field, k):
        n = self.nvars = field.nvars
        self.mode, self.k = field.mode, k
        self.bits = bits = _width(k)
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
        self.columns = {}  # key of p -> [(position of the output key, m_j * a), ...]
        self.positions, self.outputs = {}, []  # output key <-> position

    def _column(self, key):
        """The column of x^key: (position, m_j * a) over j, then F_j's terms."""
        d, mask = key >> self.nvars * self.bits, (1 << self.bits) - 1
        positions, outputs = self.positions, self.outputs
        column = []
        for at, by_degree in self.rows:
            m_j = key >> at & mask
            if m_j:
                for offset, a in by_degree[d]:
                    out = key + offset
                    o = positions.get(out)
                    if o is None:
                        o = positions[out] = len(outputs)
                        outputs.append(out)
                    column.append((o, m_j * a))
        return column

    def apply(self, p):
        """j^k((F . grad) p), for p in F's variables and scalar mode."""
        n, bits = self.nvars, self.bits
        if p.nvars != n or p.mode != self.mode:
            raise ValueError(f"the Lie derivative needs {self.mode} polynomials in {n} variables")
        _, keys, values, den = _pack(p, bits)
        cut = bisect_left(keys, (self.k + 1) << n * bits)
        keys, columns = keys[:cut], self.columns
        for key in keys:
            if key not in columns:
                columns[key] = self._column(key)
        acc = [0] * len(self.outputs)
        for key, c in zip(keys, values):
            for o, b in columns[key]:
                acc[o] += c * b
        return _from_sums(n, self.mode, bits, dict(zip(self.outputs, acc)), den * self.den)

    def closure(self):
        """The closed table of a float series that steps x_1..x_n by this derivative.

        Returns the packed keys reachable from x_1..x_n (none when k = 0)
        through their columns, ascending; each key's column, with its
        outputs as positions in that list; and each x_j's values over those
        keys, 1.0 at x_j's key and 0 elsewhere.  Summing a row's nonzero
        entries in position order, each over its column, is then what apply
        sums, in apply's order.
        """
        shift = self.nvars * self.bits
        columns, outputs = self.columns, self.outputs
        units = [1 << shift | 1 << at for at, _ in self.rows]  # the keys of x_1..x_n
        todo = units[:] if self.k >= 1 else []
        reached = set(todo)
        while todo:
            key = todo.pop()
            if key not in columns:
                columns[key] = self._column(key)
            for o, _ in columns[key]:
                if outputs[o] not in reached:
                    reached.add(outputs[o])
                    todo.append(outputs[o])
        keys = sorted(reached)
        index = {key: q for q, key in enumerate(keys)}
        rows = [[1.0 if key == unit else 0 for key in keys] for unit in units]
        return keys, [[(index[outputs[o]], b) for o, b in columns[key]] for key in keys], rows

    def polys(self, keys, rows):
        """The polynomials whose coefficients over the sorted packed keys are
        rows of floats (or integers), packed at k's width; zeros are left out."""
        return [_from_packed(self.nvars, self.mode, self.bits,
                             [key for key, v in zip(keys, row) if v], [v for v in row if v], 1)
                for row in rows]


def combine_trunc(n, mode, terms, k, lo=0, width=None):
    """The terms of degree lo..k of sum(c * a * b for c, a, b in terms), where
    a term (c, a) omits b, which stands for 1: the one product and sum loop.

    The result is packed at order ``width``'s key width (k's by default;
    see _width), and an operand of another width is re-keyed to it (see
    _pack), so that a computation to order K that passes K keeps its
    lower-order products at K's width.  Raises ValueError for a width below
    k, whose key fields a degree-k exponent would overflow.  Only the pairs
    of terms that land in degrees lo..k are visited.  A product cuts a once
    to its degrees lo - high(b)..k - low(b) and walks that cut in degree
    blocks: for a's block of degree e, bisection finds the end of the block
    and b's run of degrees max(lo - e, low(b))..k - e, and every term of the
    block meets that one run.  All sums run in one dict: exact ones on
    integer numerators over one common denominator, float ones in the order
    the terms are given, each product over a's ascending terms, then b's, as
    (c * a) * b.  Every nonzero sum is kept.
    """
    if k < max(lo, 0):
        return MultiPoly.zero(n, mode)
    if width is not None and width < k:
        raise ValueError(f"combine_trunc needs width >= k, got width {width} for k = {k}")
    bits = _width(k if width is None else width)
    exact = mode == EXACT
    packs, den, d = [], 1, 1
    for term in terms:
        c, a, b = term if len(term) == 3 else (*term, None)
        if a.nvars != n or a.mode != mode or b is not None and (b.nvars != n or b.mode != mode):
            raise ValueError(f"combine_trunc needs {mode} polynomials in {n} variables")
        a, b = _pack(a, bits), None if b is None else _pack(b, bits)
        if exact:
            d = c.denominator * a[3] * (1 if b is None else b[3])
            den = math.lcm(den, d)
        packs.append((c, d, a, b))
    shift = n * bits
    sums = {}
    get = sums.get
    for c, d, (_, keys1, values1, _), b in packs:
        f = c.numerator * (den // d) if exact else c
        if b is None:
            start, stop = bisect_left(keys1, lo << shift), bisect_left(keys1, (k + 1) << shift)
            for key, v in zip(keys1[start:stop], values1[start:stop]):
                sums[key] = get(key, 0) + f * v
            continue
        _, keys2, values2, _ = b
        if not keys2:
            continue
        low2, high2 = keys2[0] >> shift, keys2[-1] >> shift
        # a's terms of degree lo - high2..k - low2, the ones that meet b in lo..k
        first = bisect_left(keys1, (lo - high2) << shift) if lo > high2 else 0
        stop = bisect_left(keys1, (k - low2 + 1) << shift)
        keys1, values1 = keys1[first:stop], values1[first:stop]
        if f != 1:
            values1 = [f * v for v in values1]
        # a's terms of degree deg1 meet one run of b: degrees max(lo - deg1, low2)..k - deg1
        i, m = 0, len(keys1)
        while i < m:
            deg1 = keys1[i] >> shift
            end = bisect_left(keys1, (deg1 + 1) << shift, i)
            start = bisect_left(keys2, (lo - deg1) << shift) if lo > deg1 + low2 else 0
            cut = bisect_left(keys2, (k - deg1 + 1) << shift)
            run = list(zip(keys2[start:cut], values2[start:cut]))
            for key1, v1 in zip(keys1[i:end], values1[i:end]):
                for key2, v2 in run:
                    key = key1 + key2
                    sums[key] = get(key, 0) + v1 * v2
            i = end
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
        """The linear map x -> Ax from an iterable of matrix rows of one length."""
        rows = [list(r) for r in matrix_rows]
        units = monomials_of_degree(len(rows[0]), 1)
        if any(len(row) != len(units) for row in rows):
            raise ValueError("matrix rows differ in length")
        return cls([MultiPoly(len(units), dict(zip(units, row)), mode) for row in rows], trunc)

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
        units = monomials_of_degree(self.nvars, 1)
        return [[p.coefficient(mono) for mono in units] for p in self.coords]

    def max_abs_coeff(self):
        """Largest |coefficient| over all coordinates; NaN if any is NaN."""
        return max_abs(map(MultiPoly.max_abs_coeff, self.coords), _coerce(0, self.mode))

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
    return min((t for t in (a, b) if t is not None), default=None)


class Substituter:
    """Shared power cache for substituting the coordinates of G into polynomials.

    Builds mixed powers G_1^e1 * ... * G_n^en lazily, each from a predecessor
    by a single truncated multiplication, so repeated substitutions against
    the same inner map (e.g. all flow coefficients v_i composed with one h)
    share the work.  Substituting into the identity map is plain truncation.
    """

    def __init__(self, inner, k):
        if not inner.vanishes_at_origin():
            raise ValueError("h must vanish at the origin: truncated composition substitutes it")
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

    Exact mode only, as a float remainder cancels to 0.0 only by luck.
    Leading-term elimination by the single divisor d on sorted packed keys
    at f's own width, whose spare top bit per exponent field (see _width)
    catches a negative exponent.  Remainders stay integer numerators:
    where d's leading numerator does not divide the remainder's, both the
    remainder and the quotient so far are scaled up, and so is q's denominator.
    """
    _check_pair(f, d)
    if f.mode != EXACT:
        raise ValueError("exact division is defined in exact mode only")
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    n = f.nvars
    if f.is_zero():
        return MultiPoly.zero(n, EXACT)
    if d.degree() > f.degree():
        raise NotDivisibleError(f"{d} does not divide {f}")
    bits, keys, values, den_f = _pack(f)  # its width leaves every top bit spare
    _, dkeys, dvalues, den_d = _pack(d, bits)
    guard = sum(1 << (j * bits + bits - 1) for j in range(n))
    lead_key, lead = dkeys[-1], dvalues[-1]
    rest = list(zip(dkeys[:-1], dvalues[:-1]))
    rem, quot, scale = dict(zip(keys, values)), {}, 1
    while rem:
        key = max(rem)
        mono = key - lead_key
        if mono & guard:  # a borrow out of some exponent field
            raise NotDivisibleError(f"{d} does not divide {f}")
        r = rem.pop(key)
        missing = abs(lead) // math.gcd(r, lead)
        if missing != 1:
            scale *= missing
            rem = {m: v * missing for m, v in rem.items()}
            quot = {m: v * missing for m, v in quot.items()}
            r *= missing
        c = quot[mono] = r // lead
        for dkey, v in rest:
            m = mono + dkey
            s = rem.get(m, 0) - c * v
            if s:
                rem[m] = s
            else:
                rem.pop(m, None)
    # f = F / den_f, d = D / den_d and scale * F = Q * D: q = Q den_d / (scale den_f)
    quot = {m: v * den_d for m, v in quot.items()}
    return _from_sums(n, EXACT, bits, quot, den_f * scale)


def common_quotient(nums, dens):
    """The one q with q * dens[j] = nums[j] for every coordinate j.

    Divides the first coordinate with a nonzero divisor by divide_exact and
    checks each other one as one combine_trunc, q * dens[j] - nums[j] = 0, on
    packed terms, so that no Fraction is built.  Exact mode only, as
    divide_exact is.  Raises NotDivisibleError when no such q exists,
    ZeroDivisionError when every divisor is zero.
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
        k = max(q.degree() + d.degree(), n.degree(), 0)
        if not combine_trunc(q.nvars, q.mode, [(1, q, d), (-1, n)], k).is_zero():
            raise NotDivisibleError("no single polynomial factor works for every coordinate")
    return q


def dehomogenize(p, keep):
    """Coefficient list, lowest degree first, of p with every variable but
    ``keep`` set to 1 (univar's convention; exact mode)."""
    coeffs = [Fraction(0)] * (max((m[keep] for m in p.terms), default=0) + 1)
    for m, c in p.terms.items():
        coeffs[m[keep]] += c
    return univar.normalize(coeffs)


def _as_homog_poly(p):
    p = as_poly(p)
    if not p.is_homogeneous():
        raise ValueError("expected a homogeneous polynomial")
    return p


def bivariate_homog_gcd(f, g):
    """GCD of two homogeneous polynomials in two variables, not both zero.

    Setting y = 1 in a nonzero form q keeps every factor of q except its
    power of y, which is deg q - deg q(x, 1).  So the GCD is y to the least
    of those powers times the rehomogenized Euclidean GCD, over the
    rationals, of the operands at y = 1; a zero operand is 0 at y = 1 and
    leaves the other operand's factors.  The result is normalized to integer
    content 1 with a positive lexicographically-leading coefficient.
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
    at_y1 = [dehomogenize(pf, 0), dehomogenize(pg, 0)]
    y_power = min(p.degree() - univar.degree(u) for p, u in zip((pf, pg), at_y1) if u)
    h = univar.gcd(*at_y1)  # monic: the lexicographically-leading coefficient is 1
    d = univar.degree(h)
    out = MultiPoly(2, {(i, d - i + y_power): c for i, c in enumerate(h)}, EXACT)
    out = out.scale(1 / out.content())
    return HomogPoly(out, out.degree())

"""JSON encoding of polynomials, maps, and matrices.

A polynomial is a list of term objects {"exps": [..], "num": str, "den": str}
in descending graded-lexicographic order; float coefficients ride in "num"
with "den" = "1".  Polynomial and map documents re-ingest losslessly through
the matching from_json readers; the jets document that the borel subcommand
reads, {"nvars": n, "omegas": [...]} with omega_i at index i, is not written here.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap, as_poly


def _term_to_json(mono, coeff):
    if isinstance(coeff, Fraction):
        return {"exps": list(mono), "num": str(coeff.numerator), "den": str(coeff.denominator)}
    return {"exps": list(mono), "num": repr(float(coeff)), "den": "1"}


def poly_to_json(p):
    return [_term_to_json(m, c) for m, c in as_poly(p).sorted_terms()]


def poly_from_json(entries, nvars, mode=EXACT):
    """The MultiPoly of a term list; ValueError for a document of another shape."""
    if not isinstance(entries, list):
        raise ValueError("a polynomial document is a list of term objects")
    terms = {}
    for entry in entries:
        get = entry.get if isinstance(entry, dict) else {}.get
        exps, num, den = get("exps"), get("num"), get("den", "1")
        if not (isinstance(exps, list) and all(isinstance(e, int) for e in exps)
                and isinstance(num, str) and isinstance(den, str) and float(den)):
            raise ValueError('a term is an object with an "exps" list of integers, '
                             'a "num" string and a nonzero "den" string')
        mono = tuple(exps)
        if mode == FLOAT or "." in num or "e" in num or "inf" in num or "nan" in num:
            coeff = float(num) / float(den)
        else:
            coeff = Fraction(int(num), int(den))
        terms[mono] = terms.get(mono, 0) + coeff
    return MultiPoly(nvars, terms, mode)


def polymap_to_json(m):
    return {"nvars": m.nvars, "trunc": m.trunc, "coords": [poly_to_json(c) for c in m.coords]}


def polymap_from_json(data, mode=EXACT):
    """The PolyMap of a map document; ValueError when it has another shape."""
    if not (isinstance(data, dict) and isinstance(data.get("nvars"), int)
            and isinstance(data.get("coords"), list)
            and isinstance(data.get("trunc"), (int, type(None)))):
        raise ValueError('a map document is an object with an integer "nvars", '
                         'a "coords" list and an optional integer "trunc"')
    coords = [poly_from_json(c, data["nvars"], mode) for c in data["coords"]]
    return PolyMap(coords, data.get("trunc"))


def matrix_to_json(m):
    return [[str(x) for x in row] for row in m.rows]


def jets_from_json(data):
    if not (isinstance(data, dict) and isinstance(data.get("nvars"), int)
            and isinstance(data.get("omegas"), list)):
        raise ValueError('a jets document is an object with an integer "nvars" and an "omegas" list')
    nvars = data["nvars"]
    omegas = []
    for i, entries in enumerate(data["omegas"]):
        poly = poly_from_json(entries, nvars)
        omegas.append(HomogPoly(poly, i))
    return omegas

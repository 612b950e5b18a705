import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from jetflow import VectorFieldJet, reduced_hamiltonian
from jetflow.poly import EXACT, MultiPoly, PolyMap, monomials_of_degree


def fresh_python(script):
    """Standard output of `script` run by a new interpreter that imports
    jetflow from this checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True).stdout


def rand_fraction(rng, lo=-5, hi=5):
    num = rng.randint(lo, hi)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def rand_poly(rng, nvars, max_deg, min_deg=0, density=0.6, mode=EXACT, nonzero=False):
    while True:
        terms = {}
        for d in range(min_deg, max_deg + 1):
            for mono in monomials_of_degree(nvars, d):
                if rng.random() < density:
                    c = rand_fraction(rng)
                    if c:
                        terms[mono] = float(c) if mode == "float" else c
        p = MultiPoly(nvars, terms, mode)
        if not nonzero or not p.is_zero():
            return p


def rand_homog(rng, nvars, d, nonzero=True):
    while True:
        terms = {m: rand_fraction(rng) for m in monomials_of_degree(nvars, d)
                 if rng.random() < 0.7}
        terms = {m: c for m, c in terms.items() if c}
        p = MultiPoly(nvars, terms)
        if not nonzero or not p.is_zero():
            return p.homogeneous_part(d)


def rand_field(rng, nvars, p, extra=2, max_coord_deg=None):
    """Random field with flat order exactly p."""
    top = max_coord_deg if max_coord_deg is not None else p + extra
    while True:
        coords = [rand_poly(rng, nvars, top, min_deg=p, density=0.5)
                  for _ in range(nvars)]
        fmap = PolyMap(coords)
        if any(not c.homogeneous_part(p).is_zero() for c in coords):
            return VectorFieldJet(fmap)


@pytest.fixture
def xy():
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


@pytest.fixture
def quartic_field():
    """Reduced Hamiltonian of (x^2+y^2)(x^2+2y^2); flat order 3."""
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    g = (x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2)
    _, field = reduced_hamiltonian(g)
    return VectorFieldJet(field)


@pytest.fixture
def slow_field():
    """(-4x + y^2, 3y + x y) / 1000: a slow p = 1 field whose shifts are large."""
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    return PolyMap([(x.scale(-4) + y * y).scale(Fraction(1, 1000)),
                    (y.scale(3) + x * y).scale(Fraction(1, 1000))])

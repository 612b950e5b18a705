"""Machine-speed probe for normalising wall times on a shared host.

A sparse bivariate polynomial product over `Fraction` with tuple keys in a
dict: the same kind of work as jetflow's exact kernel (allocation-heavy
interpreter work), written here in plain Python so that no change to
jetflow can change its cost.  On a host whose speed drifts with its
neighbours' load, it slows down together with the workloads.
"""

import random
import statistics
import time
from fractions import Fraction

_rng = random.Random(0)
_TERMS = {(i, j): Fraction(_rng.choice((-3, -2, -1, 1, 2, 3)), _rng.randint(1, 4))
          for i in range(7) for j in range(7 - i)}

# Median of sample_ms() on the reference machine (2-core x86_64 VM,
# Python 3.11.7) in a quiet period.  Normalised times are "ms at this speed".
REFERENCE_MS = 3.0


def _product():
    out = {}
    for (a, b), c in _TERMS.items():
        for (d, e), f in _TERMS.items():
            key = (a + d, b + e)
            s = out.get(key)
            out[key] = c * f if s is None else s + c * f
    return out


def sample_ms(repeats=5):
    """Median of `repeats` timings of the probe product, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _product()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3

"""Seeded inputs, operations and correctness checks for the four workloads.

Every workload is a stream of *groups*; a group is a short list of
operations that together cover the workload's mix once (every K of a
library workload, every command of the CLI pool).  A run always finishes the
group it is in, so the mix stays balanced whatever the run length.

The functions of the library are looked up on the ``jetflow`` package at
call time, never bound here, so that the traced run sees every call the
benchmark makes.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import jetflow
from jetflow.poly import EXACT, FLOAT, MultiPoly, PolyMap, monomials_of_degree

# Groups drawn per seed; a run that needs more reuses them from the start.
GROUPS_PER_SEED = 40

# Coefficient menu of the exact workloads: small heights, never zero.
EXACT_COEFFS = [Fraction(s * a, b) for s in (1, -1) for a, b in
                ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2))]
FLOAT_COEFFS = [-1.0, -0.5, 0.5, 1.0]

# A float-mode slice of the recovered shift must match alpha this closely;
# the same bound the repository's own p = 1 acceptance test uses.
FLOAT_MATCH_TOL = 1e-6


@dataclass
class Op:
    """One round trip (library workloads) or one CLI invocation (cli-cold)."""

    kind: str                  # "exact" | "float" | "cli"
    k: int = 0
    field: object = None       # shared VectorFieldJet, or None
    field_map: object = None   # PolyMap built into a new VectorFieldJet per op
    alpha: object = None
    argv: list = dc_field(default_factory=list)
    expected: object = None
    label: str = ""


@dataclass
class Record:
    """Outcome and wall times (ms) of one operation."""

    label: str
    status: str                # "ok" | "refused" | "wrong"
    op_ms: float
    shift_ms: float | None = None
    recover_ms: float | None = None
    detail: str = ""


def _dense(rng, nvars, degrees, coeffs, mode=EXACT):
    terms = {m: rng.choice(coeffs) for d in degrees for m in monomials_of_degree(nvars, d)}
    return MultiPoly(nvars, terms, mode)


# -- exact-quartic ---------------------------------------------------------

# A run reports p50 and p90 of one mixed distribution of operation times.
# With K = 14 three times, p50 lies mid-way through the K = 14 cluster and
# p90 mid-way through the K = 18 one, where both quantiles are steadiest.
QUARTIC_KS = (10, 14, 14, 14, 18)


def quartic_field():
    """The paper's worked field: reduced Hamiltonian of (x^2+y^2)(x^2+2y^2)."""
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    _, fmap = jetflow.reduced_hamiltonian((x ** 2 + y ** 2) * (x ** 2 + y ** 2 * 2))
    return jetflow.VectorFieldJet(fmap)


def draw_exact_quartic(seed):
    rng = random.Random(f"exact-quartic/{seed}")
    field = quartic_field()
    return [[Op("exact", k=k, field=field, alpha=_dense(rng, 2, range(4), EXACT_COEFFS),
                label=f"K={k}") for k in QUARTIC_KS]
            for _ in range(GROUPS_PER_SEED)]


# -- exact-3var-p2 ---------------------------------------------------------

# One K = 8 in five operations puts p90 mid-way through the K = 8 cluster
# and p50 inside the K = 6 one, not on the edge between the two.
THREEVAR_KS = (6, 6, 6, 6, 8)


def draw_exact_3var(seed):
    rng = random.Random(f"exact-3var-p2/{seed}")
    groups = []
    for _ in range(GROUPS_PER_SEED):
        group = []
        for k in THREEVAR_KS:
            fmap = PolyMap([_dense(rng, 3, (2, 3), EXACT_COEFFS) for _ in range(3)])
            group.append(Op("exact", k=k, field_map=fmap,
                            alpha=_dense(rng, 3, range(3), EXACT_COEFFS), label=f"K={k}"))
        groups.append(group)
    return groups


# -- float-p1 --------------------------------------------------------------

FLOAT_KS = (6, 8)
QUADRATIC_MONOS = monomials_of_degree(2, 2)


def _p1_field(rng, family, quadratic):
    # Entries stay within [-1, 1], so flow_time_jet always takes its default
    # step of 0.01 and the RK4 step count is set by t0 alone.
    if family == "rotation":
        b = rng.uniform(0.6, 1.0)
        lin = [[0.0, -b], [b, 0.0]]
    else:
        lin = [[-rng.uniform(0.6, 1.0), 0.0], [0.0, rng.uniform(0.6, 1.0)]]
    coords = []
    for row, mono in zip(lin, quadratic):
        terms = {(1, 0): row[0], (0, 1): row[1], mono: rng.choice(FLOAT_COEFFS)}
        coords.append(MultiPoly(2, terms, FLOAT))
    return jetflow.VectorFieldJet(PolyMap(coords))


# Two rotation-type fields per saddle-type one: saddle round trips are the
# cheapest, so the median then lies inside the rotation K = 6 cluster
# instead of on the edge between two clusters.
FLOAT_FAMILIES = ("rotation", "rotation", "saddle")


def draw_float_p1(seed):
    """Groups of three fields, each at K = 6 and K = 8.

    Two draws are balanced rather than independent, because they set most
    of an operation's cost:
    - [0.25, 1] is cut into one cell per operation of a group; operation i
      of group g takes its t0 at a seeded point of cell (i + g + offset)
      mod cells, so each (family, K) slot walks through every cell;
    - the pair of quadratic monomials (one per coordinate) cycles through
      all nine pairs, from a seeded start, within each family.
    """
    rng = random.Random(f"float-p1/{seed}")
    ncells = len(FLOAT_FAMILIES) * len(FLOAT_KS)
    width = 0.75 / ncells
    offset = rng.randrange(ncells)
    pairs = [(a, b) for a in QUADRATIC_MONOS for b in QUADRATIC_MONOS]
    drawn = {family: rng.randrange(len(pairs)) for family in FLOAT_FAMILIES}
    groups = []
    for g in range(GROUPS_PER_SEED):
        group = []
        for family in FLOAT_FAMILIES:
            field = _p1_field(rng, family, pairs[drawn[family] % len(pairs)])
            drawn[family] += 1
            for k in FLOAT_KS:
                cell = (len(group) + g + offset) % ncells
                t0 = 0.25 + width * (cell + rng.random())
                alpha = MultiPoly(2, {(0, 0): t0, (1, 0): rng.choice(FLOAT_COEFFS),
                                      (0, 1): rng.choice(FLOAT_COEFFS)}, FLOAT)
                group.append(Op("float", k=k, field=field, alpha=alpha,
                                label=f"{family} K={k}"))
        groups.append(group)
    return groups


# -- library round trip ----------------------------------------------------


def _check_exact(res, alpha, k, p):
    if not res.residual_ok:
        return "wrong", "residual_ok is false"
    if len(res.omegas) != k - p + 1:
        return "wrong", f"{len(res.omegas)} components for K - p = {k - p}"
    for l, omega in enumerate(res.omegas):
        if omega.poly != alpha.homogeneous_part(l).poly:
            return "wrong", f"omega_{l} differs from alpha's degree-{l} slice"
    return "ok", ""


def _check_float(res, alpha, k, p):
    if not res.residual_ok:
        return "refused", "residual_ok is false"
    if len(res.omegas) != k - p + 1:
        return "wrong", f"{len(res.omegas)} components for K - p = {k - p}"
    for l, omega in enumerate(res.omegas):
        want = alpha.homogeneous_part(l).poly
        got = omega.poly
        for mono in set(want.terms) | set(got.terms):
            if abs(got.coefficient(mono) - want.coefficient(mono)) > FLOAT_MATCH_TOL:
                return "wrong", f"omega_{l} differs from alpha at {mono}"
    return "ok", ""


def run_round_trip(op):
    """h = shift_jet(F, alpha, K); recover_shift_jet(F, h, K); check against alpha."""
    shift_ms = recover_ms = None
    start = time.perf_counter()
    try:
        field = op.field if op.field is not None else jetflow.VectorFieldJet(op.field_map)
        t0 = time.perf_counter()
        h = jetflow.shift_jet(field, op.alpha, op.k)
        t1 = time.perf_counter()
        shift_ms = (t1 - t0) * 1e3
        try:
            res = jetflow.recover_shift_jet(field, h, op.k)
        finally:
            recover_ms = (time.perf_counter() - t1) * 1e3
        check = _check_exact if op.kind == "exact" else _check_float
        status, detail = check(res, op.alpha, op.k, field.p)
    except jetflow.JetflowError as exc:
        # A float-mode tolerance refusal is a missing verdict; in exact mode
        # the input is a shift by construction, so any refusal is wrong.
        status = "refused" if op.kind == "float" else "wrong"
        detail = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # the run goes on and reports the failure
        status, detail = "wrong", f"{type(exc).__name__}: {exc}"
    op_ms = (time.perf_counter() - start) * 1e3
    return Record(op.label, status, op_ms, shift_ms, recover_ms, detail)


# -- cli-cold --------------------------------------------------------------

# The console script `jetflow` is exactly this: import the entry point, call it.
CLI_BOOT = "from jetflow.cli import main; main()"


def _t(exps, num, den="1"):
    return {"exps": list(exps), "num": num, "den": den}


def _ft(exps, value):
    """A float term; ``value`` is compared numerically, not as text."""
    return {"exps": list(exps), "num": float(value), "den": "1"}


def _env(command, result):
    return {"ok": True, "command": command, "result": result}


# Jets document for the borel case: omega = (1/2, x, -2y^2).
BOREL_JETS = {"nvars": 2, "omegas": [[_t((0, 0), "1", "2")], [_t((1, 0), "1")],
                                     [_t((0, 2), "-2")]]}


def cli_cases(jets_path):
    """(argv, expected envelope) pairs; every expectation is derived by hand.

    Closed forms used: the flow of x' = x^2 is x/(1 - t x); for
    x' = -x + y^2, y' = -2y it is x(t) = e^-t x + y^2 (e^-t - e^-4t)/3,
    y(t) = e^-2t y; e^{Lt} = diag(1/2, 1/4) for L = diag(-1, -2) at t = ln 2.
    Borel radii r_i = min(r_{i-1}/2, 1/(1 + i! * sum|coeffs of omega_i|)).
    """
    quartic = "-3*x^2*y-4*y^3, 2*x^3+3*x*y^2"
    quartic_map = {"nvars": 2, "trunc": None, "coords": [
        [_t((2, 1), "-3"), _t((0, 3), "-4")], [_t((3, 0), "2"), _t((1, 2), "3")]]}
    e = math.exp
    return [
        (["classify-exp", "-L", "0,-1;1,0"], _env("classify-exp", {
            "tag": "Circle", "evidence": {"min_poly": ["1", "0", "1"],
                                          "zero_eigenvalue": False,
                                          "frequency_squares": ["1"]}})),
        (["classify-exp", "-L", "1,0;0,2"], _env("classify-exp", {
            "tag": "ClosedLine", "evidence": {
                "min_poly": ["2", "-3", "1"], "zero_eigenvalue": False,
                "reason": "spectrum not symmetric under negation (roots off the imaginary axis)"}})),
        (["classify-exp", "-L", "0,-1,0;1,0,0;0,0,0"], _env("classify-exp", {
            "tag": "Circle", "evidence": {"min_poly": ["0", "1", "0", "1"],
                                          "zero_eigenvalue": True,
                                          "frequency_squares": ["1"]}})),
        (["profile", "-g", "x*y*(x^2+y^2)"], _env("profile", {
            "l": 2, "q": 1, "multiplicities": {"1": [2, 1]}})),
        (["profile", "-g", "(x-y)^2*(x^2+y^2)"], _env("profile", {
            "l": 1, "q": 1, "multiplicities": {"1": [0, 1], "2": [1, 0]}})),
        (["check-star", "-F", "-4*x^3*y^3, 3*x^2*y^4"], _env("check-star", {
            "p": 6, "P": [[_t((3, 3), "-4")], [_t((2, 4), "3")]],
            "nondivisible": "no", "witness": [_t((2, 3), "1")]})),
        (["check-star", "-F", quartic], _env("check-star", {
            "p": 3, "P": quartic_map["coords"], "nondivisible": "yes"})),
        (["reduce-ham", "-g", "x^3*y^4"], _env("reduce-ham", {
            "D": [_t((2, 3), "1")],
            "F": {"nvars": 2, "trunc": None,
                  "coords": [[_t((1, 0), "-4")], [_t((0, 1), "3")]]}})),
        (["reduce-ham", "-g", "(x^2+y^2)*(x^2+2*y^2)"], _env("reduce-ham", {
            "D": [_t((0, 0), "1")], "F": quartic_map})),
        (["stab", "-f", "x^2+y^2"], _env("stab", {
            "dimension": 1, "basis": [[["0", "-1"], ["1", "0"]]]})),
        (["stab", "-f", "x*y"], _env("stab", {
            "dimension": 1, "basis": [[["-1", "0"], ["0", "1"]]]})),
        (["borel", "--jets", jets_path, "--eval", "0.01,0.02", "--fd-order", "2"],
         _env("borel", {
             "radii": [2 / 3, 1 / 3, 1 / 6], "point": [0.01, 0.02],
             "value": 0.5 + 0.01 - 2 * 0.02 ** 2, "fd_step": (1 / 12) / 4,
             "fd_coeffs": {"0,0": 0.5, "0,1": 0.0, "0,2": -2.0, "1,0": 1.0,
                           "1,1": 0.0, "2,0": 0.0}})),
        (["shift-jet", "-F", "x^2", "-a", "x", "-K", "5"], _env("shift-jet", {
            "map": {"nvars": 1, "trunc": 5,
                    "coords": [[_t((5,), "1"), _t((3,), "1"), _t((1,), "1")]]}})),
        (["shift-jet", "-F", "x^2, y^2", "-a", "1", "-K", "4"], _env("shift-jet", {
            "map": {"nvars": 2, "trunc": 4, "coords": [
                [_t((d, 0), "1") for d in (4, 3, 2, 1)],
                [_t((0, d), "1") for d in (4, 3, 2, 1)]]}})),
        (["shift-jet", "-F", "-x+y^2, -2*y", "-a", "1/2", "-K", "3", "--float"],
         _env("shift-jet", {"map": {"nvars": 2, "trunc": 3, "coords": [
             [_ft((0, 2), (e(-0.5) - e(-2.0)) / 3), _ft((1, 0), e(-0.5))],
             [_ft((0, 1), e(-1.0))]]}})),
        (["recover", "-F", "x^2", "-h", "x+x^3+x^5", "-K", "5"], _env("recover", {
            "mode": "exact", "omegas": [[], [_t((1,), "1")], [], []],
            "residual_ok": True})),
        (["recover", "-F", "x^2, y^2", "-h", "x+x^2+x^3+x^4, y+y^2+y^3+y^4", "-K", "4"],
         _env("recover", {"mode": "exact", "omegas": [[_t((0, 0), "1")], [], []],
                          "residual_ok": True})),
        (["recover", "-F", "-x, -2*y", "-h", "1/2*x, 1/4*y", "-K", "2", "--float"],
         _env("recover", {"mode": "float", "omegas": [[_ft((0, 0), math.log(2))], []],
                          "residual_ok": True})),
    ]


CLI_FLOAT_TOL = 1e-9


def envelope_matches(got, want):
    """Structural equality; expected floats match within CLI_FLOAT_TOL."""
    if isinstance(want, float) and not isinstance(want, bool):
        try:
            value = float(got)
        except (TypeError, ValueError):
            return False
        return abs(value - want) <= CLI_FLOAT_TOL * max(1.0, abs(want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(envelope_matches(got[key], want[key]) for key in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(envelope_matches(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def draw_cli_cold(seed, work_dir):
    """Every pool case once per group, in a seeded order."""
    jets_path = os.path.join(work_dir, "jets.json")
    with open(jets_path, "w", encoding="utf-8") as fh:
        json.dump(BOREL_JETS, fh)
    cases = cli_cases(jets_path)
    rng = random.Random(f"cli-cold/{seed}")
    groups = []
    for _ in range(GROUPS_PER_SEED):
        order = list(range(len(cases)))
        rng.shuffle(order)
        groups.append([Op("cli", argv=cases[i][0] + ["--json"], expected=cases[i][1],
                          label=cases[i][0][0]) for i in order])
    return groups


def run_cli(op, env, prefix):
    """One fresh `jetflow` process (``prefix`` + argv); its envelope is compared
    with the expected one."""
    start = time.perf_counter()
    proc = subprocess.run([*prefix, *op.argv], env=env, capture_output=True, text=True,
                          timeout=120)
    op_ms = (time.perf_counter() - start) * 1e3
    status, detail = "ok", ""
    try:
        got = json.loads(proc.stdout)
    except ValueError:
        got = None
    if proc.returncode != 0 or not envelope_matches(got, op.expected):
        status = "wrong"
        detail = f"exit {proc.returncode}: {proc.stdout.strip()[:200]} {proc.stderr.strip()[-200:]}"
    rec = Record(op.label, status, op_ms, detail=detail)
    if op.label == "shift-jet":
        rec.shift_ms = op_ms
    elif op.label == "recover":
        rec.recover_ms = op_ms
    return rec


# -- registry --------------------------------------------------------------

LIBRARY_DRAWS = {
    "exact-quartic": draw_exact_quartic,
    "exact-3var-p2": draw_exact_3var,
    "float-p1": draw_float_p1,
}
WORKLOADS = tuple(LIBRARY_DRAWS) + ("cli-cold",)


def draw(workload, seed, work_dir):
    """The seeded groups of a workload, with its shared fields built."""
    if workload == "cli-cold":
        return draw_cli_cold(seed, work_dir)
    return LIBRARY_DRAWS[workload](seed)

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jetflow.cli import MAX_FD_ORDER, MAX_FLOW_ORDER, MAX_ORDER, run
from jetflow.errors import ParseError
from jetflow.parsing import MAX_EXPONENT, MAX_NESTING, parse_poly
from jetflow.poly import EXACT, FLOAT, MultiPoly, PolyMap
from jetflow.serialize import (poly_from_json, poly_to_json, polymap_from_json,
                               polymap_to_json)

from conftest import fresh_python, rand_poly


def jets_to_json(omegas, nvars):
    """Prescribed-jet document for the borel subcommand: omega_i at index i."""
    return {"nvars": nvars, "omegas": [poly_to_json(o) for o in omegas]}


def test_parse_examples():
    p = parse_poly("-4*x^3*y^3", ["x", "y"])
    assert p.terms == {(3, 3): Fraction(-4)}
    q = parse_poly("(x^2+y^2)*(x^2+2*y^2)", ["x", "y"])
    assert q.terms == {(4, 0): Fraction(1), (2, 2): Fraction(3), (0, 4): Fraction(2)}
    r = parse_poly("1/2 + x - 2*y^2", ["x", "y"])
    assert r.coefficient((0, 0)) == Fraction(1, 2)


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_poly("x^(2)", ["x"])
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse_poly("x + w", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("1/0", ["x"])
    with pytest.raises(ParseError):
        parse_poly("   ", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x + ", ["x"])


def test_parse_unary_minus():
    p = parse_poly("x - -y", ["x", "y"])
    assert p == MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
    q = parse_poly("-(x + y)", ["x", "y"])
    assert q == -(MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1))
    # the exponent binds to the whole base, including a leading minus
    r = parse_poly("-x^2", ["x"])
    assert r == MultiPoly.variable(1, 0) ** 2


def test_parse_print_parse_identity():
    rng = random.Random(77)
    names = ["x", "y"]
    for _ in range(25):
        p = rand_poly(rng, 2, 5)
        assert parse_poly(p.to_string(names), names) == p


PRINTED_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                     Fraction(1, 2), Fraction(-1, 2)]), max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(terms=PRINTED_TERMS)
@example(terms={(2, 0): -1})
@example(terms={(2, 1): -1, (0, 1): 1})
def test_printed_polynomials_read_back(terms):
    p = MultiPoly(2, terms)
    assert parse_poly(p.to_string(["x", "y"]), ["x", "y"]) == p


def test_only_a_leading_minus_one_before_an_even_power_prints_its_coefficient(xy):
    x, y = xy
    assert str(-(x ** 2)) == "-1*x^2"
    assert str(y - x ** 2 * y) == "-1*x^2*y + y"
    assert str(x - x ** 3) == "-x^3 + x"
    assert str(-(x * y ** 2)) == "-x*y^2"
    assert str(x ** 4 - y ** 2) == "x^4 - y^2"
    assert str((x ** 2).to_float().scale(-1)) == "-1.0*x^2"


def test_json_roundtrip_polys():
    rng = random.Random(78)
    for _ in range(20):
        p = rand_poly(rng, 3, 4)
        assert poly_from_json(poly_to_json(p), 3) == p
    f = rand_poly(rng, 2, 3, mode=FLOAT)
    assert poly_from_json(poly_to_json(f), 2, FLOAT) == f


def test_json_roundtrip_maps():
    rng = random.Random(79)
    m = PolyMap([rand_poly(rng, 2, 4) for _ in range(2)], 4)
    assert polymap_from_json(polymap_to_json(m)) == m


def test_cli_reduce_ham(capsys):
    code = run(["reduce-ham", "-g", "x^3*y^4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D = x^2*y^3" in out
    assert "F = (-4*x, 3*y)" in out


def test_cli_check_star_witness(capsys):
    code = run(["check-star", "-F", "x, x"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nondivisible = no" in out
    assert "witness = x" in out


def test_cli_recover_round_trip(capsys):
    from jetflow.jet import VectorFieldJet, shift_jet

    names = ["x", "y"]
    coords = [parse_poly("-3*x^2*y-4*y^3", names), parse_poly("2*x^3+3*x*y^2", names)]
    field = VectorFieldJet(PolyMap(coords))
    alpha = parse_poly("1/2 + x - 2*y^2", names)
    h = shift_jet(field, alpha, 8)
    code = run(["recover", "-F", "-3*x^2*y-4*y^3, 2*x^3+3*x*y^2",
                "-h", h.to_string(names), "-K", "8", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["command"] == "recover"
    assert doc["result"]["residual_ok"] is True
    omegas = doc["result"]["omegas"]
    assert omegas[0] == [{"exps": [0, 0], "num": "1", "den": "2"}]
    assert omegas[1] == [{"exps": [1, 0], "num": "1", "den": "1"}]
    assert omegas[2] == [{"exps": [0, 2], "num": "-2", "den": "1"}]


def test_cli_json_reingestion(capsys):
    code = run(["cross", "-f", "x^3*y^4", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    h = polymap_from_json(doc["result"]["H"])
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert h.coords[0] == (x ** 3 * y ** 3).scale(-4)
    assert h.coords[1] == (x ** 2 * y ** 4).scale(3)


def test_cli_exit_codes(capsys):
    assert run([]) == 1
    capsys.readouterr()
    assert run(["shift-jet", "-F", "x^(2)", "-a", "x", "-K", "3"]) == 2
    capsys.readouterr()
    assert run(["integral-rep", "-F", "x, y", "-f", "x^2+y^2"]) == 3
    capsys.readouterr()
    assert run(["recover", "-F", "x^2", "-h", "x, y", "-K", "3"]) == 1  # coord count mismatch
    capsys.readouterr()
    assert run(["reduce-ham", "-g", "x^2", "--vars", "x,y,z"]) == 1  # wrong --vars arity
    capsys.readouterr()


def test_cli_error_envelope(capsys):
    code = run(["integral-rep", "-F", "x, y", "-f", "x^2+y^2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["ok"] is False
    assert doc["error"]["kind"] == "NoSuchFactor"


def test_cli_long_float_flow_ends_in_envelope(capsys):
    # the time-10^6 flow of x' = x + y^2 overflows: reported quickly, not
    # integrated step by step
    start = time.perf_counter()
    code = run(["shift-jet", "--float", "-F", "x+y^2, -y", "-a", "1000000",
                "-K", "4", "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert elapsed < 5.0
    assert code == 1
    assert doc["ok"] is False
    assert "blew up" in doc["error"]["detail"]


def test_cli_float_shift_jet_imports_neither_numpy_nor_scipy():
    # a float shift with alpha(0) != 0 runs the time-c flow in plain Python,
    # so the cold command pays no numpy or scipy import
    script = (
        "import sys\n"
        "from jetflow import cli\n"
        "code = cli.run(['shift-jet', '-F', '-x+y^2, -2*y', '-a', '1/2', '-K', '3',"
        " '--float', '--json'])\n"
        "print(code, sorted({'numpy', 'scipy'} & set(sys.modules)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv, floatlinalg", [
    (["recover", "-F", "-x, -2*y", "-h", "1/2*x, 1/4*y", "-K", "2", "--float"], True),
    (["recover", "-F", "x^2", "-h", "x+x^3+x^5", "-K", "5", "--float"], True),
    (["shift-jet", "-F", "-x+y^2, -2*y", "-a", "1/2", "-K", "3", "--float"], False),
], ids=["recover-float-p1", "recover-float-p2", "shift-jet-float"])
def test_cli_cold_float_command_imports_neither_numpy_nor_scipy(argv, floatlinalg):
    # delta0_linear (p = 1) and the float division of omega_1 by P = x^2
    # (p = 2) run on jetflow.floatlinalg, in plain Python; the float shift
    # pipeline does not load that module at all
    script = (
        "import sys\n"
        "from jetflow import cli\n"
        f"code = cli.run({argv + ['--json']!r})\n"
        "print(code, sorted({'numpy', 'scipy'} & set(sys.modules)),"
        " 'jetflow.floatlinalg' in sys.modules)\n")
    assert fresh_python(script).splitlines()[-1] == f"0 [] {floatlinalg}"


_SHIFT_JET_NEVER_LOADS = ("jetflow.recover", "jetflow.fields", "jetflow.borel",
                          "dataclasses", "inspect")


@pytest.mark.parametrize("argv, unloaded", [
    (["shift-jet", "-F", "x^2", "-a", "x", "-K", "5"], _SHIFT_JET_NEVER_LOADS),
    (["shift-jet", "-F", "-x+y^2, -2*y", "-a", "1/2", "-K", "3", "--float"], _SHIFT_JET_NEVER_LOADS),
    (["stab", "-f", "x^2+y^2"], ("jetflow.recover", "jetflow.borel")),
    (["profile", "-g", "x*y*(x^2+y^2)"], ("jetflow.recover", "jetflow.borel")),
    (["recover", "-F", "x^2", "-h", "x+x^3+x^5", "-K", "5"], ("jetflow.fields", "jetflow.borel")),
], ids=["shift-jet", "shift-jet-float", "stab", "profile", "recover"])
def test_cli_cold_command_loads_only_its_pipeline(argv, unloaded):
    # a fresh process imports the core and the one pipeline its subcommand runs
    script = (
        "import sys\n"
        "from jetflow import cli\n"
        f"code = cli.run({argv + ['--json']!r})\n"
        f"print(code, sorted(set({unloaded!r}) & set(sys.modules)))\n")
    assert fresh_python(script).splitlines()[-1] == "0 []"


def test_cli_float_overflow_ends_in_envelope(capsys):
    # 10^400 has no float value: a usage error, not an OverflowError traceback
    code = run(["shift-jet", "--float", "-F", "x^2", "-a", "10^400", "-K", "3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["ok"] is False
    assert doc["error"]["kind"] == "Usage"


def test_cli_inconsistent_carries_order(capsys):
    code = run(["recover", "-F", "-3*x^2*y-4*y^3, 2*x^3+3*x*y^2",
                "-h", "x + x^5, y", "-K", "6", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"]["kind"] == "Inconsistent"
    assert "order" in doc["error"]


def test_cli_inconsistent_carries_residual(capsys):
    # x^5 is no P * omega_2: exact mode reports the degree-5 slice as term
    # lists per coordinate, float mode its least-squares residual
    argv = ["recover", "-F", "-3*x^2*y-4*y^3, 2*x^3+3*x*y^2", "-h", "x + x^5, y",
            "-K", "6", "--json"]
    assert run(argv) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["order"] == 2
    assert error["residual"] == [[{"exps": [5, 0], "num": "1", "den": "1"}], []]
    assert run(argv + ["--float"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["order"] == 2
    assert error["residual"] == pytest.approx(1.0)


def test_cli_not_on_subgroup_carries_best_t(capsys):
    # the linear part diag(2, 3) is no rotation; the closest one is t = 0
    code = run(["recover", "-F", "-y, x", "-h", "2*x, 3*y", "-K", "2", "--float", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    error = doc["error"]
    assert error["kind"] == "NotOnSubgroup"
    assert error["best_t"] == pytest.approx(0.0, abs=1e-9)
    assert error["distance"] == pytest.approx(5 ** 0.5)
    assert "closest t = " in error["detail"]


def test_cli_classify_large_frequency_square(capsys):
    # x^2 + 1000000000000000000039: its rational roots used to be searched by
    # trial division up to the square root of the constant term
    start = time.perf_counter()
    code = run(["classify-exp", "-L", "0,-1000000000000000000039;1,0", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert doc["result"]["tag"] == "Circle"
    assert doc["result"]["evidence"]["frequency_squares"] == ["1000000000000000000039"]


def test_cli_vars_override(capsys):
    code = run(["reduce-ham", "-g", "u^3*v^4", "--vars", "u,v"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D = u^2*v^3" in out


def test_cli_classify(capsys):
    assert run(["classify-exp", "-L", "0,-1;1,0"]) == 0
    assert "tag = Circle" in capsys.readouterr().out
    assert run(["classify-exp", "-L", "1,0;0,-1"]) == 0
    assert "tag = ClosedLine" in capsys.readouterr().out


def test_cli_flow_and_float(capsys):
    assert run(["flow-jet", "-F", "x^2", "-N", "3", "-K", "6"]) == 0
    out = capsys.readouterr().out
    assert "v_3 = (6*x^4)" in out
    assert run(["shift-jet", "-F", "-4*x, 3*y", "-a", "1/4", "-K", "2", "--float"]) == 0
    capsys.readouterr()
    # the same input is transcendental in exact mode: usage error
    assert run(["shift-jet", "-F", "-4*x, 3*y", "-a", "1/4", "-K", "2"]) == 1
    capsys.readouterr()


def test_cli_borel(tmp_path, capsys):
    u = MultiPoly.variable(1, 0)
    omegas = [MultiPoly.const(1, 1), u, u ** 2]
    path = tmp_path / "jets.json"
    path.write_text(json.dumps(jets_to_json(omegas, 1)))
    code = run(["borel", "--jets", str(path), "--eval", "0.01",
                "--fd-order", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["result"]["value"] - (1 + 0.01 + 0.0001)) < 1e-12
    coeffs = doc["result"]["fd_coeffs"]
    for key, want in (("0", 1.0), ("1", 1.0), ("2", 1.0)):
        assert abs(coeffs[key] - want) < 1e-6


def _borel_fd(tmp_path, capsys, order):
    path = tmp_path / "jets.json"
    path.write_text(json.dumps(jets_to_json([MultiPoly.const(2, 1)], 2)))
    start = time.perf_counter()
    code = run(["borel", "--jets", str(path), "--fd-order", str(order), "--json"])
    return code, json.loads(capsys.readouterr().out), time.perf_counter() - start


def test_cli_borel_negative_fd_order_is_a_usage_error(tmp_path, capsys):
    code, doc, _ = _borel_fd(tmp_path, capsys, -1)
    assert code == 1
    assert doc["error"]["kind"] == "Usage"
    assert "--fd-order" in doc["error"]["detail"]


def test_cli_borel_fd_order_is_bounded(tmp_path, capsys):
    code, doc, _ = _borel_fd(tmp_path, capsys, MAX_FD_ORDER)
    assert code == 0 and len(doc["result"]["fd_coeffs"]) == (MAX_FD_ORDER + 1) * (MAX_FD_ORDER + 2) // 2
    for order in (MAX_FD_ORDER + 1, 150):
        code, doc, seconds = _borel_fd(tmp_path, capsys, order)
        assert code == 1 and doc["error"]["kind"] == "Usage"
        assert seconds < 2.0


def test_cli_flow_jet_order_is_bounded(monkeypatch, capsys):
    assert run(["flow-jet", "-F", "x^2", "-N", str(MAX_FLOW_ORDER), "-K", "3", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["v"]) == MAX_FLOW_ORDER

    def no_work(*args):
        raise AssertionError("the field was parsed before -N was checked")

    monkeypatch.setattr("jetflow.cli._parse_field", no_work)
    for order in (MAX_FLOW_ORDER + 1, 10 ** 8):
        code = run(["flow-jet", "-F", "x^2", "-N", str(order), "-K", "3", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["error"]["kind"] == "Usage"
        assert f"got {order}" in doc["error"]["detail"]


@pytest.mark.parametrize("argv", [
    ["flow-jet", "-F", "x^2", "-N", "2"],
    ["shift-jet", "-F", "x^2", "-a", "x"],
    ["hatted-shift", "-F", "x^2", "-h", "x", "-b", "x"],
    ["recover", "-F", "x^2", "-h", "x"],
])
def test_cli_truncation_order_is_bounded(monkeypatch, capsys, argv):
    assert run(argv + ["-K", str(MAX_ORDER), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True

    def no_work(*args):
        raise AssertionError("the field was parsed before -K was checked")

    monkeypatch.setattr("jetflow.cli._parse_field", no_work)
    for order in (MAX_ORDER + 1, 10 ** 8):
        code = run(argv + ["-K", str(order), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["error"]["kind"] == "Usage"
        assert f"-K must be at most {MAX_ORDER}, got {order}" == doc["error"]["detail"]


def test_cli_bounds_are_checked_before_any_input_is_read(capsys):
    # -N is checked first; a refused -K stops recover before it imports its pipeline
    assert run(["flow-jet", "-F", "x^2", "-N", "201", "-K", "101", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["detail"] == "-N must be at most 200, got 201"
    script = (
        "import sys\n"
        "from jetflow import cli\n"
        "code = cli.run(['recover', '-F', 'x^2', '-h', 'x', '-K', '101', '--json'])\n"
        "print(code, 'jetflow.recover' in sys.modules)\n")
    out = fresh_python(script).splitlines()
    assert json.loads(out[0])["error"]["detail"] == "-K must be at most 100, got 101"
    assert out[-1] == "1 False"


# Each subcommand: the flags it requires, in the order it names them, a
# command line that runs it, and whether it takes --float.
_SUBCOMMANDS = [
    ("flow-jet", "-F, -N, -K", ["-F", "x^2", "-N", "2", "-K", "3"], True),
    ("shift-jet", "-F, -a, -K", ["-F", "x^2", "-a", "x", "-K", "3"], True),
    ("hatted-shift", "-F, -h, -b, -K", ["-F", "x^2", "-h", "x", "-b", "x", "-K", "3"], True),
    ("recover", "-F, -h, -K", ["-F", "x^2", "-h", "x+x^3", "-K", "3"], True),
    ("check-star", "-F", ["-F", "-4*x, 3*y"], False),
    ("reduce-ham", "-g", ["-g", "x^3*y^4"], False),
    ("cross", "-f", ["-f", "x^3*y^4"], False),
    ("integral-rep", "-F, -f", ["-F", "-4*x, 3*y", "-f", "x^3*y^4"], False),
    ("stab", "-f", ["-f", "x^2+y^2"], False),
    ("classify-exp", "-L", ["-L", "0,-1;1,0"], False),
    ("profile", "-g", ["-g", "x*y"], False),
    ("borel", "--jets", ["--jets", "jets.json", "--eval", "0.1", "--fd-order", "1",
                         "--fd-step", "0.01"], False),
]


@pytest.mark.parametrize("command, required, argv, takes_float", _SUBCOMMANDS,
                         ids=[c[0] for c in _SUBCOMMANDS])
def test_cli_subcommand_options(tmp_path, monkeypatch, capsys, command, required, argv,
                                takes_float):
    (tmp_path / "jets.json").write_text(json.dumps(jets_to_json([MultiPoly.const(1, 1)], 1)))
    monkeypatch.chdir(tmp_path)
    assert run([command]) == 1
    assert capsys.readouterr().err == f"usage error: the following arguments are required: {required}\n"
    assert run([command] + argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    code = run([command] + argv + ["--float", "--json"])
    captured = capsys.readouterr()
    if takes_float:
        assert code == 0 and json.loads(captured.out)["ok"] is True
    else:
        assert code == 1 and captured.err == "usage error: unrecognized arguments: --float\n"


@pytest.mark.parametrize("argv", [
    ["--fd-order", "3", "--fd-step", "1e-200"],  # h^3 underflows to 0
    ["--eval", "nan,0"],
    ["--eval", "inf,0"],
    ["--fd-order", "2", "--fd-step", "nan"],
])
def test_cli_borel_non_finite_input_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "jets.json"
    path.write_text(json.dumps(jets_to_json([MultiPoly.const(2, 1)], 2)))
    code = run(["borel", "--jets", str(path), *argv, "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)  # strict JSON: NaN and Infinity are refused below
    assert "NaN" not in out and "Infinity" not in out
    assert code == 1 and doc["error"]["kind"] == "Usage"


@pytest.mark.parametrize("argv", [
    ["--fd-step", "0"],  # an explicit zero step is not replaced by the default
    ["--fd-step=-0.0"],
    ["--fd-step", "1e-105"],  # h^3 is subnormal: rounding error / h^3 reads 1e88-1e298
])
def test_cli_borel_step_out_of_range_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "jets.json"
    u = MultiPoly.variable(1, 0)
    path.write_text(json.dumps(jets_to_json([MultiPoly.const(1, 1), u], 1)))
    code = run(["borel", "--jets", str(path), "--fd-order", "3", *argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["error"]["kind"] == "Usage"
    assert "step" in doc["error"]["detail"]


def test_cli_borel_jets_missing_keys(tmp_path, capsys):
    for doc in ({"nvars": 1}, {"omegas": []}, [1, 2]):
        path = tmp_path / "jets.json"
        path.write_text(json.dumps(doc))
        code = run(["borel", "--jets", str(path), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["kind"] == "Usage"
        assert "omegas" in out["error"]["detail"]


def test_cli_malformed_json_documents_end_in_usage_envelope(tmp_path, capsys):
    term = {"exps": [1], "num": "1", "den": "1"}
    scalars = [[1, 2], {"exps": [1]}, [{"exps": [1]}], [{"exps": ["a"], "num": "1"}],
               [{"exps": [1], "num": 1}], [{**term, "den": "0"}], [5]]
    maps = [[1, 2], {"nvars": 1, "coords": [[{"exps": [1]}]]}, {"nvars": "1", "coords": [[term]]},
            {"nvars": 1, "coords": 5}, {"nvars": 1, "coords": [[term]], "trunc": "3"},
            {"nvars": 1, "coords": [[{**term, "exps": None}]]}]
    jets = [{"nvars": 1, "omegas": [[{"exps": [0]}]]}, {"nvars": 1, "omegas": [5]},
            {"nvars": [1], "omegas": []}, {"nvars": 1, "omegas": 5}]
    path = tmp_path / "f.json"
    cases = ([["shift-jet", "-F", "x^2", "-a", f"@{path}", "-K", "3"], doc] for doc in scalars)
    cases = [*cases, *([["recover", "-F", "x^2", "-h", f"@{path}", "-K", "3"], doc] for doc in maps),
             *([["borel", "--jets", str(path)], doc] for doc in jets)]
    for argv, doc in cases:
        path.write_text(json.dumps(doc))
        code = run([*argv, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1, (argv, doc)
        assert out["ok"] is False and out["error"]["kind"] == "Usage", (argv, doc)


def test_cli_json_operand_round_trip(tmp_path, capsys):
    # a float map produced by shift-jet --json feeds back into recover via @file
    code = run(["shift-jet", "-F", "-4*x, 3*y", "-a", "1/4 + x^2", "-K", "5",
                "--float", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc["result"]["map"]))
    code = run(["recover", "-F", "-4*x, 3*y", "-h", f"@{path}", "-K", "5",
                "--float", "--json"])
    doc2 = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc2["result"]["residual_ok"] is True
    omega0 = doc2["result"]["omegas"][0][0]
    assert abs(float(omega0["num"]) - 0.25) < 1e-6


def test_cli_batch(tmp_path, capsys):
    script = tmp_path / "batch.txt"
    script.write_text('reduce-ham -g "x^3*y^4"\n# comment\ncheck-star -F "-4*x, 3*y"\n')
    code = run(["--batch", str(script)])
    out = capsys.readouterr().out
    assert code == 0
    assert "D = x^2*y^3" in out
    assert "nondivisible = yes" in out


def test_cli_batch_running_itself(tmp_path, capsys):
    # directly, and through a second batch file; the other lines still run
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    first.write_text(f'reduce-ham -g "x^3*y^4"\n--batch {first}\n--batch {second}\n')
    second.write_text(f'--batch {first}\ncheck-star -F "-4*x, 3*y"\n')
    code = run(["--batch", str(first)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.count("D = x^2*y^3") == 1
    assert captured.out.count("nondivisible = yes") == 1
    assert captured.err.count(f"batch file {first} runs itself") == 2


def test_cli_batch_unbalanced_quote(tmp_path, capsys):
    # the line that cannot be split is a usage error; the next line still runs
    script = tmp_path / "batch.txt"
    script.write_text('reduce-ham -g "x^3*y^4\ncheck-star -F "-4*x, 3*y"\n')
    code = run(["--batch", str(script)])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage error" in captured.err
    assert "nondivisible = yes" in captured.out


def test_cli_shift_jets_at_order_zero(capsys):
    for argv, nvars in ((["shift-jet", "-F", "x^2", "-a", "1 + x"], 1),
                        (["shift-jet", "--float", "-F", "x*x - y, x + x*y", "-a", "3/4 + x"], 2),
                        (["hatted-shift", "--float", "-F", "x*x - y, x + x*y", "-h", "x + y^2, y",
                          "-b", "3/4 + x"], 2)):
        code = run(argv + ["-K", "0", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["result"]["map"] == {"nvars": nvars, "trunc": 0, "coords": [[]] * nvars}


def test_cli_negative_order_is_a_usage_error(capsys):
    for argv in (["shift-jet", "-F", "x^2", "-a", "x", "-K", "-2"],
                 ["hatted-shift", "-F", "x^2", "-h", "x", "-b", "x", "-K", "-1"]):
        code = run(argv + ["--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["ok"] is False
        assert doc["error"]["kind"] == "Usage"


@pytest.mark.parametrize("matrix", ["1/0,0;0,1", "1e10000000,0;0,1"])
def test_cli_classify_bad_entry_ends_in_envelope(capsys, matrix):
    # entries follow the expression grammar: no zero denominator, no exponent notation
    start = time.perf_counter()
    code = run(["classify-exp", "-L", matrix, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert doc["error"]["kind"] == "ParseError"


def test_float_tol_env_override(monkeypatch):
    from jetflow import config

    monkeypatch.setenv("JETFLOW_FLOAT_TOL", "0.125")
    assert config.residual_tol() == 0.125
    assert config.delta0_tol() == 0.125
    monkeypatch.delenv("JETFLOW_FLOAT_TOL")
    assert config.residual_tol() == config.RESIDUAL_TOL
    assert config.residual_tol(1e-3) == 1e-3


def test_cli_deep_nesting_is_a_parse_error(capsys):
    depth = 3000
    code = run(["profile", "-g", "(" * depth + "x*y" + ")" * depth, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"]["kind"] == "ParseError"
    assert doc["error"]["offset"] == MAX_NESTING
    # the bound itself still parses
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(nested, ["x"]) == MultiPoly.variable(1, 0)


def test_cli_huge_exponent_is_a_parse_error(capsys):
    start = time.perf_counter()
    code = run(["profile", "-g", "x^100000000", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert doc["error"]["kind"] == "ParseError"
    assert doc["error"]["offset"] == 2
    assert parse_poly(f"x^{MAX_EXPONENT}", ["x"]).degree() == MAX_EXPONENT


def test_cli_values_that_start_with_a_minus(tmp_path, capsys):
    assert run(["classify-exp", "-L", "-1,0;0,-1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["tag"] == "ClosedLine"
    assert run(["profile", "-g", "-x*y"]) == 0
    assert "l = 2" in capsys.readouterr().out
    # the grammar reads -x^2 as (-x)^2: F = x^2, Phi(x, -x) = x / (1 + x^2)
    assert run(["shift-jet", "-F", "-x^2", "-a", "-x", "-K", "3"]) == 0
    assert "F_alpha = (-x^3 + x)" in capsys.readouterr().out
    path = tmp_path / "jets.json"
    path.write_text(json.dumps(jets_to_json([MultiPoly.const(2, 1), MultiPoly.variable(2, 0)], 2)))
    assert run(["borel", "--jets", str(path), "--eval", "-0.01,0.02", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["point"] == [-0.01, 0.02]
    # an option of the subcommand in place of a value stays an option
    assert run(["shift-jet", "-F", "x", "-K", "3", "-a", "--json"]) == 1
    assert "argument -a: expected one argument" in capsys.readouterr().err


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every `jetflow ...` line of README's CLI block exits 0, with the output
    its comment names where the comment is a result."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^jetflow (.*)$", readme, flags=re.M)
    jets = re.search(r"```json\n(\{\"nvars\".*?)```", readme, flags=re.S).group(1)
    (tmp_path / "jets.json").write_text(jets)
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in lines:
        if "<map>" in line:
            continue  # a placeholder for a map jet
        code = run(shlex.split(line, comments=True))
        out = capsys.readouterr().out
        assert code == 0, line
        ran += 1
        if line.startswith("classify-exp"):
            assert "tag = Circle" in out.splitlines()
        if line.startswith("profile"):
            assert {"l = 2", "q = 1"} <= set(out.splitlines())
    assert ran == len(lines) - 1 >= 11

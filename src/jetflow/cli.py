"""Command-line front end.

One subcommand per pipeline; aligned-text output by default, a stable JSON
envelope with --json.  Exit codes: 0 success, 1 usage error, 2 expression
parse error, 3 mathematical error (NotDivisible, Inconsistent,
NotOnSubgroup, NoSuchFactor).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shlex
import sys
from fractions import Fraction

from .errors import JetflowError, ParseError
from .jet import VectorFieldJet, flow_taylor_coeffs, hatted_shift_jet, shift_jet
from .linalg import RatMatrix
from .parsing import parse_poly
from .poly import EXACT, FLOAT, PolyMap, default_var_names
from .serialize import (jets_from_json, matrix_to_json, poly_from_json,
                        poly_to_json, polymap_from_json, polymap_to_json)


# flow-jet -N n prints n coefficient maps, about 1 KB each even when zero:
# n = 200 for x' = y + x^2, y' = -x + y^2 at K = 8 takes about 0.4 s and
# prints 1.9 MB of JSON on a 2-core Xeon, n = 1000 about 2 s and 34 MB.
MAX_FLOW_ORDER = 200

# flow-jet, shift-jet, hatted-shift and recover -K k: shift-jet on
# x' = y + x^2, y' = -x + y^2 with alpha = x takes about 0.5 s at k = 80,
# 1.0 s at k = 100, 2 s at k = 128 and 10.7 s (7.1 MB of JSON) at k = 200 on a
# 2-core Xeon.
MAX_ORDER = 100

# borel --fd-order k inverts an exact (2k+1)-point Vandermonde matrix and
# samples (2k+1)^n points: k = 20 with two variables takes about 0.7 s on a
# 2-core Xeon, k = 60 about 14 s.
MAX_FD_ORDER = 20


class UsageError(Exception):
    pass


def __getattr__(name):
    # The pipelines load on first use; these names keep them reachable here.
    if name in ("borel_mod", "fields_mod", "recover_mod"):
        return importlib.import_module(f".{name[:-4]}", __package__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _var_names(n, override):
    if override:
        names = [v.strip() for v in override.split(",") if v.strip()]
        if len(names) != n:
            raise UsageError(f"--vars lists {len(names)} names but the input has {n} coordinates")
        return names
    return default_var_names(n)


def _split_coords(text):
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise UsageError("empty coordinate in a comma-separated list")
    return parts


def _read_json(path):
    """The JSON document in a file: an @file.json operand or a --jets file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_map(text, mode, vars_override, expect_n=None):
    if text.startswith("@"):
        data = _read_json(text[1:])
        mapped = polymap_from_json(data, mode)
        n = expect_n if expect_n is not None else mapped.nvars
        if mapped.nvars != n:
            raise UsageError(f"expected a map in {n} variables, got {mapped.nvars}")
        return mapped, _var_names(n, vars_override)
    parts = _split_coords(text)
    n = expect_n if expect_n is not None else len(parts)
    if len(parts) != n:
        raise UsageError(f"expected {n} coordinates, got {len(parts)}")
    names = _var_names(n, vars_override)
    coords = [parse_poly(p, names, mode) for p in parts]
    return PolyMap(coords), names


def _parse_scalar(text, names, mode):
    if text.startswith("@"):
        return poly_from_json(_read_json(text[1:]), len(names), mode)
    return parse_poly(text, names, mode)


def _parse_field(args, mode):
    fmap, names = _parse_map(args.field, mode, args.vars)
    return VectorFieldJet(fmap), names


def _split_funcs(text):
    return [p.strip() for p in text.split(";") if p.strip()]


def _parse_funcs(text, vars_override):
    parts = _split_funcs(text)
    if not parts:
        raise UsageError("no functions given")
    n = len(parts) + 1
    names = _var_names(n, vars_override)
    return [parse_poly(p, names) for p in parts], names


def _parse_matrix(text):
    """Rows split by ';', entries by ','; each entry is a constant expression."""
    rows = []
    for row_text in text.split(";"):
        entries = [e.strip() for e in row_text.split(",") if e.strip()]
        rows.append([parse_poly(e, []).constant_term() for e in entries])
    if any(len(r) != len(rows) for r in rows):
        raise UsageError("matrix rows must all have length n")
    return RatMatrix(rows)


def _mode(args):
    return FLOAT if getattr(args, "float_mode", False) else EXACT


# -- subcommand handlers ---------------------------------------------------


def _cmd_flow_jet(args):
    field, names = _parse_field(args, _mode(args))
    flow = flow_taylor_coeffs(field, args.order_n, args.order_k)
    result = {"p": field.p, "v": [polymap_to_json(v) for v in flow.coeffs]}
    lines = [f"p = {field.p}"]
    for i, v in enumerate(flow.coeffs, start=1):
        lines.append(f"v_{i} = ({v.to_string(names)})")
    return result, lines


def _cmd_shift_jet(args):
    mode = _mode(args)
    field, names = _parse_field(args, mode)
    alpha = _parse_scalar(args.alpha, names, mode)
    out = shift_jet(field, alpha, args.order_k)
    return {"map": polymap_to_json(out)}, [f"F_alpha = ({out.to_string(names)})"]


def _cmd_hatted_shift(args):
    mode = _mode(args)
    field, names = _parse_field(args, mode)
    hmap, _ = _parse_map(args.map, mode, args.vars, expect_n=field.n)
    beta = _parse_scalar(args.beta, names, mode)
    out = hatted_shift_jet(field, hmap, beta, args.order_k)
    return {"map": polymap_to_json(out)}, [f"F_hat_beta = ({out.to_string(names)})"]


def _cmd_recover(args):
    from . import recover as recover_mod
    mode = _mode(args)
    field, names = _parse_field(args, mode)
    hmap, _ = _parse_map(args.map, mode, args.vars, expect_n=field.n)
    res = recover_mod.recover_shift_jet(field, hmap, args.order_k)
    result = {
        "mode": res.mode,
        "omegas": [poly_to_json(o) for o in res.omegas],
        "residual_ok": res.residual_ok,
    }
    lines = [f"mode = {res.mode}"]
    for l, omega in enumerate(res.omegas):
        lines.append(f"omega_{l} = {omega.poly.to_string(names)}")
    lines.append(f"residual_ok = {str(res.residual_ok).lower()}")
    return result, lines


def _cmd_check_star(args):
    from . import fields as fields_mod
    field, names = _parse_field(args, EXACT)
    report = fields_mod.check_star(field)
    result = {
        "p": report.p,
        "P": [poly_to_json(q) for q in report.P],
        "nondivisible": report.nondivisible,
    }
    lines = [f"p = {report.p}",
             f"P = ({', '.join(q.poly.to_string(names) for q in report.P)})",
             f"nondivisible = {report.nondivisible}"]
    if report.witness is not None:
        result["witness"] = poly_to_json(report.witness)
        lines.append(f"witness = {report.witness.poly.to_string(names)}")
    return result, lines


def _cmd_reduce_ham(args):
    from . import fields as fields_mod
    names = _var_names(2, args.vars)
    g = parse_poly(args.g, names)
    d, f = fields_mod.reduced_hamiltonian(g)
    result = {"D": poly_to_json(d), "F": polymap_to_json(f)}
    lines = [f"D = {d.poly.to_string(names)}", f"F = ({f.to_string(names)})"]
    return result, lines


def _cmd_cross(args):
    from . import fields as fields_mod
    funcs, names = _parse_funcs(args.funcs, args.vars)
    h = fields_mod.cross_product_field(funcs)
    return {"H": polymap_to_json(h)}, [f"H = ({h.to_string(names)})"]


def _cmd_integral_rep(args):
    from . import fields as fields_mod
    field, names = _parse_field(args, EXACT)
    parts = _split_funcs(args.funcs)
    if len(parts) != field.n - 1:
        raise UsageError(f"need {field.n - 1} functions for a field in {field.n} variables")
    funcs = [parse_poly(p, names) for p in parts]
    eta = fields_mod.verify_integral_representation(field, funcs)
    independent = fields_mod.gradients_independent_sampled(funcs)
    result = {"eta": poly_to_json(eta), "gradients_independent_sampled": independent}
    lines = [f"eta = {eta.to_string(names)}",
             f"gradients_independent_sampled = {str(independent).lower()}"]
    return result, lines


def _cmd_stab(args):
    from . import fields as fields_mod
    funcs, names = _parse_funcs(args.funcs, args.vars)
    basis = fields_mod.stabilizer_tangent(funcs)
    result = {"dimension": len(basis), "basis": [matrix_to_json(m) for m in basis]}
    lines = [f"dimension = {len(basis)}"]
    for i, m in enumerate(basis):
        body = "; ".join(",".join(str(x) for x in row) for row in m.rows)
        lines.append(f"V_{i} = [{body}]")
    return result, lines


def _cmd_classify_exp(args):
    from . import fields as fields_mod
    mat = _parse_matrix(args.matrix)
    cls = fields_mod.classify_exp_subgroup(mat)
    evidence = {k: ([str(v) for v in val] if isinstance(val, list) else
                    (str(val) if isinstance(val, Fraction) else val))
                for k, val in cls.evidence.items()}
    result = {"tag": cls.tag, "evidence": evidence}
    lines = [f"tag = {cls.tag}"]
    for k, v in evidence.items():
        lines.append(f"{k} = {v}")
    return result, lines


def _cmd_profile(args):
    from . import fields as fields_mod
    names = _var_names(2, args.vars)
    g = parse_poly(args.g, names)
    prof = fields_mod.binary_form_profile(g)
    mult = {str(k): list(v) for k, v in sorted(prof.multiplicities.items())}
    result = {"l": prof.l, "q": prof.q, "multiplicities": mult}
    lines = [f"l = {prof.l}", f"q = {prof.q}"]
    for k, (lin, quad) in sorted(prof.multiplicities.items()):
        lines.append(f"multiplicity {k}: linear = {lin}, quadratic = {quad}")
    return result, lines


def _cmd_borel(args):
    from . import borel as borel_mod
    omegas = jets_from_json(_read_json(args.jets))
    realization = borel_mod.realize_jet(omegas)
    result = {"radii": realization.radii}
    lines = [f"radii = {realization.radii}"]
    if args.eval_point is not None:
        point = [float(v) for v in args.eval_point.split(",")]
        value = realization(point)
        result["point"] = point
        result["value"] = value
        lines.append(f"value at {point} = {value!r}")
    if args.fd_order is not None:
        k = args.fd_order
        if not 0 <= k <= MAX_FD_ORDER:
            raise UsageError(f"--fd-order must lie in 0..{MAX_FD_ORDER}, got {k}")
        h = args.fd_step
        if h is None:
            h = realization.plateau_radius() / (2 * max(k, 1))
        coeffs = borel_mod.finite_diff_jet(realization, k, h)
        printable = {",".join(map(str, m)): c for m, c in sorted(coeffs.items())}
        result["fd_step"] = h
        result["fd_coeffs"] = printable
        lines.append(f"fd_step = {h!r}")
        for m, c in printable.items():
            lines.append(f"coeff[{m}] = {c!r}")
    return result, lines


# The value options, as (flag, dest, type, required); an optional one
# defaults to None.
_F, _K, _H = ("-F", "field", str, True), ("-K", "order_k", int, True), ("-h", "map", str, True)
_FUNCS, _G = ("-f", "funcs", str, True), ("-g", "g", str, True)

# subcommand: (handler, takes --float, value options); every subcommand also
# takes --vars and --json.
_COMMANDS = {
    "flow-jet": (_cmd_flow_jet, True, [_F, ("-N", "order_n", int, True), _K]),
    "shift-jet": (_cmd_shift_jet, True, [_F, ("-a", "alpha", str, True), _K]),
    "hatted-shift": (_cmd_hatted_shift, True, [_F, _H, ("-b", "beta", str, True), _K]),
    "recover": (_cmd_recover, True, [_F, _H, _K]),
    "check-star": (_cmd_check_star, False, [_F]),
    "reduce-ham": (_cmd_reduce_ham, False, [_G]),
    "cross": (_cmd_cross, False, [_FUNCS]),
    "integral-rep": (_cmd_integral_rep, False, [_F, _FUNCS]),
    "stab": (_cmd_stab, False, [_FUNCS]),
    "classify-exp": (_cmd_classify_exp, False, [("-L", "matrix", str, True)]),
    "profile": (_cmd_profile, False, [_G]),
    "borel": (_cmd_borel, False, [("--jets", "jets", str, True),
                                  ("--eval", "eval_point", str, False),
                                  ("--fd-order", "fd_order", int, False),
                                  ("--fd-step", "fd_step", float, False)]),
}

# Upper bounds, {dest: (flag, cap)}, checked in this order before the
# handler runs, so before any input is parsed or any pipeline imported.
_BOUNDS = {"order_n": ("-N", MAX_FLOW_ORDER), "order_k": ("-K", MAX_ORDER)}


def build_parser():
    top = _Parser(prog="jetflow", description=__doc__, add_help=True)
    top.add_argument("--batch", default=None, metavar="FILE",
                     help="run one command line per file line")
    sub = top.add_subparsers(dest="command")
    for name, (handler, float_flag, options) in _COMMANDS.items():
        sp = sub.add_parser(name, add_help=False)
        sp.set_defaults(handler=handler)
        for flag, dest, kind, required in options:
            sp.add_argument(flag, dest=dest, type=kind, required=required)
        sp.add_argument("--vars")
        sp.add_argument("--json", action="store_true", dest="json_out")
        if float_flag:
            sp.add_argument("--float", action="store_true", dest="float_mode")
    return top


def _emit(args, command, result=None, error=None, lines=()):
    if getattr(args, "json_out", False):
        envelope = {"ok": error is None, "command": command}
        if error is None:
            envelope["result"] = result
        else:
            envelope["error"] = error
        print(json.dumps(envelope))
    else:
        for line in lines:
            print(line)
        if error is not None:
            print(f"error ({error['kind']}): {error['detail']}", file=sys.stderr)


def _join_dash_values(parser, argv):
    """argv with each value that starts with "-" joined onto the option that
    takes it ("-L -1,0" becomes "-L=-1,0"), which argparse would otherwise
    read as an option.  The options are the parser's own and, once it is
    named, the subcommand's; a token that is one of them stays an option."""
    commands = parser._subparsers._group_actions[0].choices
    options, out = parser._option_string_actions, []
    for token in argv:
        action = options.get(out[-1]) if out else None
        if action is not None and action.nargs != 0:
            if token.startswith("-") and token not in options:
                out[-1] += "=" + token
                continue
        elif options is parser._option_string_actions and token in commands:
            options = commands[token]._option_string_actions
        out.append(token)
    return out


def run(argv, _batches=()):
    """Execute one command line; returns the process exit code.

    ``_batches`` holds the real paths of the batch files whose lines are
    running, so a batch file that runs itself is refused, not recursed into.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(parser, argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    if args.batch:
        path = os.path.realpath(args.batch)
        if path in _batches:
            print(f"usage error: batch file {args.batch} runs itself", file=sys.stderr)
            return 1
        code = 0
        try:
            with open(args.batch, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh]
        except OSError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            if not line or line.startswith("#"):
                continue
            try:
                argv = shlex.split(line)
            except ValueError as exc:  # e.g. an unbalanced quote
                print(f"usage error: {exc} in batch line {line!r}", file=sys.stderr)
                sub_code = 1
            else:
                sub_code = run(argv, _batches + (path,))
            if code == 0:
                code = sub_code
        return code

    if not getattr(args, "command", None):
        print("usage error: no subcommand given (see jetflow --help)", file=sys.stderr)
        return 1

    try:
        for dest, (flag, cap) in _BOUNDS.items():
            if getattr(args, dest, 0) > cap:
                raise UsageError(f"{flag} must be at most {cap}, got {getattr(args, dest)}")
        result, lines = args.handler(args)
    except ParseError as exc:
        _emit(args, args.command,
              error={"kind": "ParseError", "detail": str(exc), "offset": exc.offset})
        return 2
    except JetflowError as exc:
        error = {"kind": exc.kind, "detail": str(exc)}
        for key in ("order", "best_t", "distance"):
            value = getattr(exc, key, None)
            if value is not None:
                error[key] = value
        residual = getattr(exc, "residual", None)
        if isinstance(residual, PolyMap):
            error["residual"] = [poly_to_json(c) for c in residual.coords]
        elif residual is not None:
            error["residual"] = residual if math.isfinite(residual) else repr(residual)
        _emit(args, args.command, error=error)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        _emit(args, args.command, error={"kind": "Usage", "detail": str(exc)})
        return 1
    _emit(args, args.command, result=result, lines=lines)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

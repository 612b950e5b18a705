"""Jets of flows of polynomial vector fields and shift-function recovery.

``import jetflow`` loads the core that every subcommand needs: ``errors``,
``poly``, ``jet``, ``linalg`` and ``parsing``.  The pipelines ``fields``,
``recover`` and ``borel`` load on first use: their public names, and the
submodules themselves, resolve through the module ``__getattr__`` below
(PEP 562).  It looks the name up in its home module on every access and
keeps no copy, so a name rebound in its home module reads the same through
the package.
"""

import importlib

from .errors import (InconsistentJetError, JetflowError, NoSuchFactorError,
                     NotDivisibleError, NotOnSubgroupError, ParseError)
from .jet import (BiJet, FlowJet, VectorFieldJet, flow_bijet, flow_taylor_coeffs,
                  flow_time_jet, hatted_shift_jet, jet_inverse, shift_jet)
from .linalg import RatMatrix
from .parsing import parse_poly
from .poly import (EXACT, FLOAT, HomogPoly, MultiPoly, PolyMap,
                   bivariate_homog_gcd, compose, divide_exact)

_PIPELINES = {
    "borel": ("BorelRealization", "bump", "finite_diff_jet", "realize_jet"),
    "fields": ("BinaryFormProfile", "ExpSubgroupClass", "StarReport",
               "binary_form_profile", "check_star", "classify_exp_subgroup",
               "cross_product_field", "reduced_hamiltonian", "stabilizer_tangent",
               "verify_integral_representation"),
    "recover": ("RecoveryResult", "delta0_linear", "divide_by_initial_part",
                "recover_shift_jet", "verify_residual"),
}
_HOME = {name: module for module, names in _PIPELINES.items() for name in names}

__all__ = [
    "BiJet", "BinaryFormProfile", "BorelRealization", "EXACT",
    "ExpSubgroupClass", "FLOAT", "FlowJet", "HomogPoly",
    "InconsistentJetError", "JetflowError", "MultiPoly", "NoSuchFactorError",
    "NotDivisibleError", "NotOnSubgroupError", "ParseError", "PolyMap",
    "RatMatrix", "RecoveryResult", "StarReport", "VectorFieldJet",
    "binary_form_profile", "bivariate_homog_gcd", "bump", "check_star",
    "classify_exp_subgroup", "compose", "cross_product_field",
    "delta0_linear", "divide_by_initial_part", "divide_exact",
    "finite_diff_jet", "flow_bijet", "flow_taylor_coeffs", "flow_time_jet",
    "hatted_shift_jet", "jet_inverse", "parse_poly", "realize_jet",
    "recover_shift_jet", "reduced_hamiltonian", "shift_jet",
    "stabilizer_tangent", "verify_integral_representation", "verify_residual",
]


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        # An imported submodule is bound here by the import system; reading
        # it first spares the import machinery on every later access.
        return getattr(globals().get(home) or __getattr__(home), name)
    if name in _PIPELINES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

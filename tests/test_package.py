import importlib

import pytest

import jetflow
import jetflow.recover

from conftest import fresh_python

# The public names by home module, as the package exported them when every
# module loaded with it; __all__ lists them sorted.
HOME = {
    "borel": ["BorelRealization", "bump", "finite_diff_jet", "realize_jet"],
    "errors": ["InconsistentJetError", "JetflowError", "NoSuchFactorError",
               "NotDivisibleError", "NotOnSubgroupError", "ParseError"],
    "fields": ["BinaryFormProfile", "ExpSubgroupClass", "StarReport", "binary_form_profile",
               "check_star", "classify_exp_subgroup", "cross_product_field",
               "reduced_hamiltonian", "stabilizer_tangent", "verify_integral_representation"],
    "jet": ["BiJet", "FlowJet", "VectorFieldJet", "flow_bijet", "flow_taylor_coeffs",
            "flow_time_jet", "hatted_shift_jet", "jet_inverse", "shift_jet"],
    "linalg": ["RatMatrix"],
    "parsing": ["parse_poly"],
    "poly": ["EXACT", "FLOAT", "HomogPoly", "MultiPoly", "PolyMap", "bivariate_homog_gcd",
             "compose", "divide_exact"],
    "recover": ["RecoveryResult", "delta0_linear", "divide_by_initial_part",
                "recover_shift_jet", "verify_residual"],
}
ALL = sorted(name for names in HOME.values() for name in names)


def test_all_lists_the_public_names_in_order():
    assert len(ALL) == 44
    assert jetflow.__all__ == ALL


@pytest.mark.parametrize("module", sorted(HOME))
def test_every_public_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"jetflow.{module}")
    for name in HOME[module]:
        assert getattr(jetflow, name) is getattr(home, name), name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from jetflow import *", namespace)
    assert set(ALL) <= namespace.keys()
    assert set(ALL) <= set(dir(jetflow))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        jetflow.no_such_name  # noqa: B018


def test_pipeline_names_read_their_module_on_every_access(monkeypatch):
    # no copy is kept, so a rebinding in the home module (and its undoing)
    # shows through the package at once
    original = jetflow.recover.recover_shift_jet
    sentinel = object()
    monkeypatch.setattr(jetflow.recover, "recover_shift_jet", sentinel)
    assert jetflow.recover_shift_jet is sentinel
    monkeypatch.undo()
    assert jetflow.recover_shift_jet is original


def test_import_jetflow_loads_the_core_and_the_pipelines_on_first_use():
    script = (
        "import sys\n"
        "import jetflow\n"
        "pipelines = ['jetflow.borel', 'jetflow.fields', 'jetflow.recover']\n"
        "print(sorted(set(pipelines) & set(sys.modules)))\n"
        "print(jetflow.fields.__name__, jetflow.realize_jet.__module__,\n"
        "      sorted(set(pipelines) & set(sys.modules)))\n")
    assert fresh_python(script).splitlines() == [
        "[]", "jetflow.fields jetflow.borel ['jetflow.borel', 'jetflow.fields']"]

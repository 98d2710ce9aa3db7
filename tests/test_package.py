"""Package layout: each shared helper has exactly one definition, and every
export of `adqc` resolves on first use to the object its submodule defines."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import adqc


def test_shared_public_names_are_one_object():
    """A public module-level name bound in more than one adqc module is the
    same object everywhere: a second definition of a shared constant or
    helper (rather than an import of the first) fails."""
    modules = [adqc] + [importlib.import_module(f"adqc.{m.name}") for m in pkgutil.iter_modules(adqc.__path__)]
    bound: dict[str, dict[int, list[str]]] = {}
    for module in modules:
        for name, value in vars(module).items():
            if not name.startswith("_"):
                bound.setdefault(name, {}).setdefault(id(value), []).append(module.__name__)
    copies = {name: sorted(where.values()) for name, where in bound.items() if len(where) > 1}
    assert copies == {}


# every name ``adqc`` exported when its __init__ imported each submodule
EXPORTED = {
    "core": ("AncillaSpec", "BranchReport", "CartanParams", "Entangler", "KrausPair", "LocalFrame",
             "MeasBasis", "assemble_entangler", "branch_analysis", "kraus_pair", "param_state", "preset",
             "preset_labels", "rotation", "weyl_interaction"),
    "linalg": ("PureState", "equal_up_to_global_phase", "tensor"),
    "conditions": ("ParamPoint", "TableCase", "classify_parameters", "constraint_residual",
                   "fg_coefficients", "l_hiding_residual", "required_alpha_x", "vw_form_check"),
    "register": ("AdaptiveAngle", "AdqcStep", "GatePattern", "init_register", "run_pattern"),
    "patterns": ("CircuitDescription", "CircuitGate", "compile_circuit", "standard_pattern",
                 "verify_pattern"),
    "protocol": ("AuditReport", "Client", "ClientSecret", "Message", "ProtocolTranscript", "Server",
                 "audit_blindness", "run_delegation"),
}


def test_every_export_resolves_to_its_home_object():
    listed = dir(adqc)
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"adqc.{module}")
        for name in names:
            assert getattr(adqc, name) is getattr(home, name), name
            assert name in listed and name in adqc.__all__, name
        assert getattr(adqc, module) is home
    assert adqc.__version__ == "0.1.0"


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        adqc.no_such_name
    assert not hasattr(adqc, "no_such_name")


SEED_SRC_LINES = 3044  # lines of src/adqc/*.py at the seed, the yardstick the package stays below


def test_package_stays_below_the_seed_line_count():
    lines = sum(len(path.read_text().splitlines()) for path in Path(adqc.__file__).parent.glob("*.py"))
    assert lines <= SEED_SRC_LINES

"""Measurement-driven gate simulation with blind delegated execution.

The package exports load on first use (PEP 562): ``import adqc`` imports no
submodule, and ``adqc.run_delegation`` imports ``adqc.protocol`` and returns
the object defined there.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "core": ("AncillaSpec", "BranchReport", "CartanParams", "Entangler", "KrausPair", "LocalFrame", "MeasBasis",
             "assemble_entangler", "branch_analysis", "kraus_pair", "param_state", "preset", "preset_labels",
             "rotation", "weyl_interaction"),
    "linalg": ("PureState", "equal_up_to_global_phase", "tensor"),
    "conditions": ("ParamPoint", "TableCase", "classify_parameters", "constraint_residual", "fg_coefficients",
                   "l_hiding_residual", "required_alpha_x", "vw_form_check"),
    "register": ("AdaptiveAngle", "AdqcStep", "GatePattern", "init_register", "run_pattern"),
    "patterns": ("CircuitDescription", "CircuitGate", "compile_circuit", "standard_pattern", "verify_pattern"),
    "protocol": ("AuditReport", "Client", "ClientSecret", "Message", "ProtocolTranscript", "Server",
                 "audit_blindness", "run_delegation"),
}.items() for name in names}
_SUBMODULES = ("cli", "conditions", "core", "linalg", "patterns", "protocol", "register")

__all__ = list(_EXPORTS)


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})

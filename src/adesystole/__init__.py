"""Systoles and volumes of stability data on ADE root systems.

`import adesystole` loads no submodule: the first use of a public name
imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(
        ("AdeType", "IdentityReport", "RootSystem", "build_root_system", "cartan_matrix",
         "count_positive_roots", "coxeter_number", "verify_volume_identity"),
        "roots",
    ),
    **dict.fromkeys(
        ("SystolicReport", "as_charge", "check_inequality", "evaluate_charge", "heart_membership",
         "systole_lower", "systole_upper", "volume_basis", "volume_roots"),
        "stability",
    ),
    **dict.fromkeys(
        ("BACKWARD", "FORWARD", "EquivarianceReport", "ExchangeGraph", "HeartState", "act_scaling",
         "canonical_heart", "exchange_graph", "reflect_charge", "reflect_class", "simple_tilt",
         "verify_action_equivariance"),
        "actions",
    ),
    **dict.fromkeys(("SearchConfig", "SearchResult", "optimize_ratio", "sample_ratios"), "search"),
    **dict.fromkeys(
        ("CorrespondenceReport", "PointConfiguration", "geometric_systole", "geometric_volume",
         "induced_charge", "points_from_coefficients", "validate_configuration",
         "verify_correspondence"),
        "milnor",
    ),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    """A public name from its submodule, or a submodule asked for by name.

    The value is not cached here: a name rebound in its submodule (a test
    patch, a tracing wrapper) is seen, and its restoration too."""
    if name in _SOURCES:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    if name in _SOURCES.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

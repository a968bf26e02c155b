"""The package's public surface and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adesystole
from adesystole import actions, milnor, roots, search, stability

# The public names and the modules that define them, as the package
# exported them when it imported every module eagerly.
EXPORTS = {
    roots: (
        "AdeType", "IdentityReport", "RootSystem", "build_root_system", "cartan_matrix",
        "count_positive_roots", "coxeter_number", "verify_volume_identity",
    ),
    stability: (
        "SystolicReport", "as_charge", "check_inequality", "evaluate_charge", "heart_membership",
        "systole_lower", "systole_upper", "volume_basis", "volume_roots",
    ),
    actions: (
        "BACKWARD", "FORWARD", "EquivarianceReport", "ExchangeGraph", "HeartState", "act_scaling",
        "canonical_heart", "exchange_graph", "reflect_charge", "reflect_class", "simple_tilt",
        "verify_action_equivariance",
    ),
    search: ("SearchConfig", "SearchResult", "optimize_ratio", "sample_ratios"),
    milnor: (
        "CorrespondenceReport", "PointConfiguration", "geometric_systole", "geometric_volume",
        "induced_charge", "points_from_coefficients", "validate_configuration", "verify_correspondence",
    ),
}

SRC = str(Path(adesystole.__file__).resolve().parent.parent)


def test_all_lists_every_imported_public_name():
    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert len(names) == 41
    assert adesystole.__all__ == sorted(names)
    for module, module_names in EXPORTS.items():
        for name in module_names:
            assert getattr(adesystole, name) is getattr(module, name), name
    star = {}
    exec("from adesystole import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_names_resolve_without_being_cached():
    # A name rebound in its module (a test patch, a tracing wrapper) is what
    # the package returns, and so is the original once it is restored.
    assert "sample_ratios" not in vars(adesystole)
    assert adesystole.sample_ratios is search.sample_ratios
    assert "sample_ratios" not in vars(adesystole)
    assert set(adesystole.__all__) <= set(dir(adesystole))


def test_submodules_by_name_and_unknown_names():
    assert adesystole.search is search
    with pytest.raises(AttributeError, match="no_such_name"):
        adesystole.no_such_name


def _fresh_modules(code: str) -> set[str]:
    """The adesystole modules, and numpy if loaded, after `code` runs in a fresh interpreter."""
    probe = (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'adesystole' or m == 'numpy']))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code + probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return set(json.loads(proc.stdout))


def test_import_loads_no_submodule_and_no_numpy():
    assert _fresh_modules("import adesystole") == {"adesystole"}


def test_building_root_systems_loads_no_numpy():
    build = (
        "import adesystole\n"
        "for family, rank in [('A', 1), ('A', 32), ('D', 4), ('D', 32), ('E', 6), ('E', 7), ('E', 8)]:\n"
        "    ade = adesystole.AdeType(family, rank)\n"
        "    rs = adesystole.build_root_system(ade)\n"
        "    assert rs.cartan == adesystole.cartan_matrix(ade)\n"
        "    assert len(rs.positive_roots) == adesystole.count_positive_roots(ade)\n"
        "    assert rs.coxeter == adesystole.coxeter_number(ade)\n"
    )
    assert _fresh_modules(build) == {"adesystole", "adesystole.roots"}
    # The array views are numpy's, loaded on first read.
    assert _fresh_modules(build + "rs.complex_root_matrix\n") == {"adesystole", "adesystole.roots", "numpy"}


BASE = {"adesystole", "adesystole.cli", "adesystole.roots"}
NUMERIC = {"adesystole.stability", "numpy"}

# One command of each family, and the modules it loads beyond BASE: only
# `roots` runs without numpy.
COMMAND_MODULES = [
    (["roots", "--family", "A", "--rank", "3"], set()),
    (["identity", "--family", "D", "--rank", "4"], {"numpy"}),
    (["inequality", "--family", "A", "--rank", "2", "--charge", "1i,1i"], NUMERIC),
    (
        ["tilt-graph", "--family", "D", "--rank", "4", "--depth", "3", "--output", "json"],
        NUMERIC | {"adesystole.actions"},
    ),
    (
        ["sample", "--family", "A", "--rank", "2", "--count", "10", "--output", "csv"],
        NUMERIC | {"adesystole.search", "adesystole._csvdigits"},
    ),
    (["optimize", "--family", "A", "--rank", "2", "--restarts", "2"], NUMERIC | {"adesystole.search"}),
    (["milnor", "--points", "1+0i,-1+0i", "--correspond"], NUMERIC | {"adesystole.milnor"}),
    (["correspond", "--poly", "0+0i,-1+0i"], NUMERIC | {"adesystole.milnor"}),
]


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_uses(tmp_path, argv, extra):
    argv = [*argv, "--out-file", str(tmp_path / "report")]
    code = f"from adesystole import cli\nassert cli.main({argv!r}) == 0"
    assert _fresh_modules(code) == BASE | extra

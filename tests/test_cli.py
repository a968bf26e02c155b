"""CLI tests: parsing, dispatch, report formats, exit codes, config files."""

import hashlib
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from adesystole import actions, cli, roots


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    assert err == ""
    return code, json.loads(out)


# == Charge parsing ==========================================================

def test_parse_charge_examples():
    assert cli.parse_charge("0+1i,0+2i") == [1j, 2j]
    assert cli.parse_charge("1.5e0-0.5i") == [1.5 - 0.5j]
    assert cli.parse_charge("-1+0i, 2-3i") == [-1 + 0j, 2 - 3j]
    assert cli.parse_charge("2i,-0.5i") == [2j, -0.5j]


def test_parse_charge_errors_carry_token_index():
    with pytest.raises(cli.CLIError, match="token 0"):
        cli.parse_charge("abc")
    with pytest.raises(cli.CLIError, match="token 1"):
        cli.parse_charge("1+1i,oops,3i")
    with pytest.raises(cli.CLIError):
        cli.parse_charge("inf+1i")


def test_format_complex_round_trips():
    for z in (1.5 - 0.5j, -2j, 3.25 + 0j, 1e-17 + 2e8j, -0.1 - 0.2j):
        assert cli.parse_complex(cli.format_complex(z)) == z


# == Subcommands =============================================================

def test_identity_json_e8(capsys):
    code, payload = run_json(capsys, "identity", "--family", "E", "--rank", "8")
    assert code == 0
    assert payload["pass"] is True
    assert payload["pairs_checked"] == 36
    assert payload["schema_version"] == 1
    assert payload["inputs"] == {"family": "E", "rank": 8}


def test_inequality_a1_equality(capsys):
    code, payload = run_json(
        capsys, "inequality", "--family", "A", "--rank", "1", "--charge", "0+1i"
    )
    assert code == 0
    assert payload["slack"] == 0.0
    assert payload["bound_exact"] == "2"
    assert payload["satisfied"] is True


def test_roots_human_output(capsys):
    code, out, err = run_cli(capsys, "roots", "--family", "A", "--rank", "3")
    assert code == 0
    assert "coxeter: 4" in out
    assert "count: 6" in out


def test_volume_routes_agree_via_cli(capsys):
    code, payload = run_json(
        capsys, "volume", "--family", "D", "--rank", "4", "--charge", "1+1i,2i,0.5+3i,-1+1i"
    )
    assert code == 0
    assert payload["agree"] is True
    assert payload["volume_basis"] == pytest.approx(payload["volume_roots"], rel=1e-9)


def test_systole_command(capsys):
    code, payload = run_json(
        capsys, "systole", "--family", "A", "--rank", "2", "--charge", "0+1i,0+2i"
    )
    assert code == 0
    assert payload["sys_upper"] == 1.0
    assert payload["sys_lower"] == 1.0


def test_json_round_trip_reproduces_outputs(capsys):
    args = ("inequality", "--family", "A", "--rank", "2", "--charge", "0.25+1i,-1+0.5i")
    code, first = run_json(capsys, *args)
    assert code == 0
    echoed = first["inputs"]["charge"]
    code, second = run_json(
        capsys, "inequality", "--family", "A", "--rank", "2", "--charge", echoed
    )
    assert code == 0
    for key in ("sys_lower", "sys_upper", "volume", "slack"):
        assert first[key] == second[key]


def test_sample_command_and_csv(capsys, tmp_path):
    code, payload = run_json(
        capsys, "sample", "--family", "A", "--rank", "1", "--seed", "5", "--count", "50"
    )
    assert code == 0
    assert payload["best_ratio"] == 2.0
    assert payload["samples_violating"] == 0

    out_file = tmp_path / "samples.csv"
    code, out, err = run_cli(
        capsys,
        "sample", "--family", "A", "--rank", "2", "--seed", "5", "--count", "10",
        "--output", "csv", "--out-file", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "index,ratio,sys_upper,sys_lower,volume"
    assert len(lines) == 11


def test_sample_determinism_bit_identical(capsys):
    args = ("sample", "--family", "D", "--rank", "4", "--seed", "11", "--count", "200")
    _, first_out, _ = run_cli(capsys, *args, "--output", "json")
    _, second_out, _ = run_cli(capsys, *args, "--output", "json")
    assert first_out == second_out


def test_optimize_command(capsys):
    code, payload = run_json(
        capsys, "optimize", "--family", "A", "--rank", "2", "--seed", "3", "--restarts", "5"
    )
    assert code == 0
    assert 1.45 <= payload["best_ratio"] <= 1.5 + 1e-9
    assert payload["samples_violating"] == 0


def test_tilt_graph_json_and_dot(capsys, tmp_path):
    code, payload = run_json(capsys, "tilt-graph", "--family", "A", "--rank", "1", "--depth", "4")
    assert code == 0
    assert len(payload["nodes"]) == 2
    assert payload["complete"] is True

    code, out, err = run_cli(
        capsys, "tilt-graph", "--family", "A", "--rank", "2", "--depth", "2", "--output", "dot"
    )
    assert code == 0
    assert out.startswith("digraph tilts {")
    assert 'label="F:1"' in out

    dot_file = tmp_path / "graph.dot"
    code, _, _ = run_cli(
        capsys,
        "tilt-graph", "--family", "A", "--rank", "1", "--depth", "2",
        "--output", "dot", "--out-file", str(dot_file),
    )
    assert code == 0
    assert dot_file.read_text().startswith("digraph tilts {")


@pytest.mark.parametrize("family,rank,depth", [("A", 2, 4), ("D", 4, 3)])
def test_tilt_graph_json_equals_stdlib_rendering(capsys, tmp_path, family, rank, depth):
    graph = actions.exchange_graph(roots.build_root_system(roots.AdeType(family, rank)), depth)
    payload = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "tilt-graph",
        "inputs": {"family": family, "rank": rank, "depth": depth},
        **graph.adjacency(),
    }
    expected = json.dumps(payload, indent=2) + "\n"
    argv = ["tilt-graph", "--family", family, "--rank", str(rank), "--depth", str(depth), "--output", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected, "")
    target = tmp_path / "graph.json"
    code, out, err = run_cli(capsys, *argv, "--out-file", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text(encoding="utf-8") == expected


def test_tilt_graph_human_output_is_pinned(capsys):
    # sha256 of the human report, captured before render_human dumped each item once.
    code, out, err = run_cli(capsys, "tilt-graph", "--family", "D", "--rank", "4", "--depth", "13")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4aca4c936b0b2813a2b51bbcccb053e20ec43bf36d452de2e79e28ae948e8956"
    )


def _reference_render_human(payload):
    """render_human with two walks and a whole-list json.dumps, as its oracle."""
    lines = []
    for key, value in payload.items():
        value = cli._fmt17(cli._jsonable(value))
        if isinstance(value, (dict, list)):
            text = json.dumps(value)
            if len(text) > 100 and isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {json.dumps(item)}" for item in value)
                continue
            lines.append(f"{key}: {text}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def test_render_human_matches_reference():
    payload = {
        "empty": [],
        "short": [1, 2.5, "x"],
        "at_limit": ["a" * 96],
        "over_limit": ["a" * 97],
        "long": [{"v": k / 3, "f": Fraction(k, 7), "z": complex(k, -k)} for k in range(12)],
        "nested": {"a": [Fraction(1, 3), 0.1], "b": (1j, 2.0)},
        "scalars": (True, None, 10**20),
        "float": 0.1,
        "fraction": Fraction(3, 2),
        "complex": 1 - 2j,
        "text": "plain",
    }
    assert len(json.dumps(["a" * 96])) == 100
    assert cli.render_human(payload) == _reference_render_human(payload)


def test_milnor_with_correspondence(capsys):
    code, payload = run_json(capsys, "milnor", "--points", "1+0i,-1+0i", "--correspond")
    assert code == 0
    assert payload["n"] == 1
    assert payload["systole"] == pytest.approx(6.283185307179586)
    assert payload["correspondence"]["passed"] is True
    assert payload["correspondence"]["systole_rel_error"] == 0.0


def test_correspond_with_polynomial(capsys):
    code, payload = run_json(capsys, "correspond", "--poly", "0+0i,-1+0i")
    assert code == 0
    assert payload["passed"] is True
    assert payload["n"] == 2


def test_milnor_flags_collinear(capsys):
    code, payload = run_json(capsys, "milnor", "--points", "0+0i,1+0i,2+0i")
    assert code == 0
    assert payload["general_position"] is False
    assert payload["systole"] == pytest.approx(3.141592653589793)


# == Validation failures (exit 1) ============================================

@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "--family", "E", "--rank", "5"),
        ("inequality", "--family", "A", "--rank", "2", "--charge", "abc"),
        ("inequality", "--family", "A", "--rank", "2", "--charge", "1i"),
        ("inequality", "--family", "A", "--rank", "2"),
        ("inequality", "--family", "A", "--rank", "2", "--charge", "0+0i,0+0i"),
        ("milnor", "--points", "1+0i,1+0i"),
        ("milnor",),
        ("roots", "--rank", "3"),
        ("sample", "--family", "A", "--rank", "2", "--count", "0"),
        ("identity", "--family", "E", "--rank", "8", "--output", "dot"),
        ("roots", "--family", "X"),
        ("roots", "--rank", "abc"),
        ("optimize", "--family", "A", "--rank", "2", "--count", "3"),
        ("sample", "--family", "A", "--rank", "2", "--restarts", "2"),
        ("inequality", "--family", "A", "--rank", "2", "--charge", "0+0i,0+1i"),
    ],
)
def test_invalid_inputs_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command,charge,overflows",
    [
        ("inequality", "1e300+1e300i,1+1i", True),
        ("volume", "1e300+1e300i,1+1i", True),
        ("inequality", "1e-170+1e-170i,1e-170i", False),
        ("inequality", "1e160+1e160i,1e160i", True),
    ],
)
def test_out_of_range_charge_exits_one(capsys, command, charge, overflows):
    # Finite entries whose volume leaves the float range are bad input:
    # not a pass with volume inf, and not a property violation.
    argv = (command, "--family", "A", "--rank", "2", "--charge", charge)
    if overflows:
        with pytest.warns(RuntimeWarning):
            code, out, err = run_cli(capsys, *argv)
    else:
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: charge is out of float range")


def test_property_violation_exits_two(capsys, monkeypatch):
    # Force the two volume routes apart to exercise the exit-2 path.
    from adesystole import stability

    monkeypatch.setattr(cli.stability, "volume_roots", lambda rs, z: stability.volume_basis(rs, z) + 1.0)
    code, out, err = run_cli(
        capsys, "volume", "--family", "A", "--rank", "2", "--charge", "0+1i,0+1i"
    )
    assert code == 2


# == Config files ============================================================

def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = A\nrank = 2\ncharge = 0+1i,0+1i  # heart charge\n")
    code, payload = run_json(capsys, "inequality", "--config", str(config))
    assert code == 0
    assert payload["volume"] == pytest.approx(2.0)


def test_flags_override_config(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = A\nrank = 1\ncharge = 0+1i\nseed = 9\ncount = 10\n")
    code, payload = run_json(capsys, "sample", "--config", str(config), "--count", "25")
    assert code == 0
    assert payload["inputs"]["count"] == 25
    assert payload["inputs"]["seed"] == 9


def test_config_output_mode_is_checked(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = A\nrank = 2\noutput = xml\n")
    code, out, err = run_cli(capsys, "roots", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_config_file_bad_line(capsys, tmp_path):
    config = tmp_path / "broken.cfg"
    config.write_text("family A\n")
    code, out, err = run_cli(capsys, "identity", "--config", str(config))
    assert code == 1


def test_out_file_json(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "identity", "--family", "A", "--rank", "4",
        "--output", "json", "--out-file", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["pass"] is True


# == README examples =========================================================

def _readme_cli_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", readme, re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("adesystole ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_examples_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if "csv" in argv or "dot" in argv:
        return
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["command"] == argv[0]

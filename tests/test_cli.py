"""CLI tests: parsing, dispatch, report formats, exit codes, config files."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adesystole import _csvdigits, actions, cli, roots, search
from test_actions import adjacency


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
    assert cli.parse_charge("0+1i,0+2i", "--charge") == [1j, 2j]
    assert cli.parse_charge("1.5e0-0.5i", "--charge") == [1.5 - 0.5j]
    assert cli.parse_charge("-1+0i, 2-3i", "--charge") == [-1 + 0j, 2 - 3j]
    assert cli.parse_charge("2i,-0.5i", "--charge") == [2j, -0.5j]


def test_parse_charge_errors_carry_token_index():
    with pytest.raises(cli.CLIError, match="token 0"):
        cli.parse_charge("abc", "--charge")
    with pytest.raises(cli.CLIError, match="token 1"):
        cli.parse_charge("1+1i,oops,3i", "--charge")
    with pytest.raises(cli.CLIError):
        cli.parse_charge("inf+1i", "--charge")


@pytest.mark.parametrize("token", ["inf", "-inf", "infinity", "1+infi", "inf+1i"])
def test_parse_complex_reports_infinities_as_not_finite(token):
    with pytest.raises(cli.CLIError, match=f"complex literal '{re.escape(token)}' is not finite"):
        cli.parse_complex(token)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["correspond", "--poly", "1+0i,abc"], "--poly token 1: could not parse complex literal 'abc'"),
        (["milnor", "--points", "1,nan"], "--points token 1: complex literal 'nan' is not finite"),
        (["milnor", "--points", "1,inf"], "--points token 1: complex literal 'inf' is not finite"),
        (["volume", "--family", "A", "--rank", "2", "--charge", "1i,-inf"], "--charge token 1: complex literal '-inf' is not finite"),
    ],
    ids=["poly", "points-nan", "points-inf", "charge"],
)
def test_parse_errors_name_the_option(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


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
        **adjacency(graph),
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


# sha256 of stdout, captured before optimizer trials were screened and CSV
# reports streamed.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("optimize", "--family", "A", "--rank", "2", "--seed", "7", "--restarts", "20"),
            "d5970d5f71d92160cb5ce6d8d31443ebe89a5dadc4761ad1e2307088ca701385",
        ),
        (
            ("optimize", "--family", "A", "--rank", "2", "--seed", "7", "--restarts", "20", "--output", "json"),
            "d741af5845fc6dd829a5f6e1399a6ff22ff1397759d1d7afc9fdc073b04f73dd",
        ),
        (
            ("optimize", "--family", "A", "--rank", "2", "--seed", "7", "--restarts", "20", "--output", "csv"),
            "5878fed799b04805bd53955f783312929d4172eb7ae16ef016a646c90c64c8db",
        ),
        (
            ("sample", "--family", "E", "--rank", "8", "--count", "5000", "--output", "csv"),
            "a41e66b7e185577150ea51d82cd065250cf87fc08a2ef54c7291e55072906238",
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "sha256",
)
def test_search_reports_are_pinned(capsys, tmp_path, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    target = tmp_path / "report"
    code, out, err = run_cli(capsys, *argv, "--out-file", str(target))
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("count", [1, cli._CSV_ROWS - 1, cli._CSV_ROWS, cli._CSV_ROWS + 1, 2 * cli._CSV_ROWS])
def test_csv_chunks_join_to_one_row_per_line(capsys, count):
    code, out, err = run_cli(
        capsys, "sample", "--family", "A", "--rank", "2", "--count", str(count), "--output", "csv"
    )
    assert (code, err) == (0, "")
    lines = out.split("\n")
    assert lines[0] == "index,ratio,sys_upper,sys_lower,volume" and lines[-1] == ""
    assert [line.split(",", 1)[0] for line in lines[1:-1]] == [str(i) for i in range(count)]


def test_csv_report_is_streamed(capsys, tmp_path):
    # The sampler holds 24 B per sample; the ratios are derived and the
    # CSV text written a chunk of rows at a time, never whole.
    count = 10**6
    target = tmp_path / "ratios.csv"
    argv = ["sample", "--family", "A", "--rank", "2", "--count", str(count), "--output", "csv"]
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out-file", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 24 * count + 5 * 2**20
    assert target.read_text(encoding="utf-8").count("\n") == count + 1


# == CSV writer against the %-template =========================================
# render_csv as it was before the digit kernel: one `%` template per chunk,
# the index riding along as a float column.  The kernel must match it byte
# for byte on every input, including the values it leaves to the template.

def _reference_render_csv(result):
    columns = (result.ratios, result.sys_upper, result.sys_lower, result.volumes)
    count = len(result.ratios)
    yield "index,ratio,sys_upper,sys_lower,volume"
    for start in range(0, count, cli._CSV_ROWS):
        stop = min(start + cli._CSV_ROWS, count)
        block = np.column_stack((np.arange(start, stop, dtype=np.float64), *(c[start:stop] for c in columns)))
        yield ("\n%d,%.17g,%.17g,%.17g,%.17g" * (stop - start)) % tuple(block.ravel().tolist())


def _columns(*columns):
    """A report whose four float columns are given; one column stands for all four."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    ratios, sys_upper, sys_lower, volumes = columns * (4 // len(columns))
    return SimpleNamespace(
        ratios=ratios, ratios_of=ratios.__getitem__, sys_upper=sys_upper, sys_lower=sys_lower, volumes=volumes
    )


def assert_csv_matches_reference(result):
    got = "".join(cli.render_csv(result))
    want = "".join(_reference_render_csv(result))
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        raise AssertionError(next((g, w) for g, w in pairs if g != w))


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    below, above = np.nextafter(values, 0.0), np.nextafter(values, np.inf)
    return np.concatenate((np.nextafter(below, 0.0), below, values, above, np.nextafter(above, np.inf)))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_csv_writer_matches_template_on_finite_doubles(values):
    assert_csv_matches_reference(_columns(values))
    assert_csv_matches_reference(_columns(np.abs(values)))


def test_csv_writer_matches_template_next_to_powers_of_ten():
    # Just below a power of ten, log10 can round up to the exponent above.
    assert_csv_matches_reference(_columns(_neighbours([10.0**k for k in range(-300, 301)])))
    assert_csv_matches_reference(_columns(_neighbours([5 * 10.0**k for k in range(-300, 301)])))


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_csv_writer_survives_a_log10_one_ulp_off(monkeypatch, direction):
    # With E one too high the product is below 10^16; one too low, it
    # rounds to 10^17 or more.  Either row must go to the template.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), direction))
    values = _neighbours([10.0**k for k in range(-280, 281)])
    assert_csv_matches_reference(_columns(np.concatenate((values, values * 3.0))))


def test_csv_scaling_error_is_far_inside_the_tie_margin():
    # prod + rem against x * 10^(16-E) in exact arithmetic: the margin that
    # sends near-ties to the template rests on this error bound.
    rng = np.random.default_rng(5)
    x = np.abs(np.frombuffer(rng.bytes(8 * 4000), dtype=np.float64))
    x = np.concatenate((x[(x >= 1e-280) & (x <= 1e280)], _neighbours([1e-280, 1e280, 1.0, 0.1, 1e16, 1e17])))
    at, prod, rem = _csvdigits._scaled(_csvdigits._csv_tables(), x)
    for value, e, p, r in zip(x.tolist(), (at - _csvdigits._EXP).tolist(), prod.tolist(), rem.tolist()):
        exact = Fraction(value) * Fraction(10) ** (16 - e)
        assert abs(Fraction(p) + Fraction(r) - exact) < Fraction(1, 10**14), value
    assert _csvdigits._MARGIN > 1e-14


def test_csv_writer_matches_template_on_ties_and_integers():
    k = np.arange(20_000, dtype=np.float64)
    assert_csv_matches_reference(_columns(k / 2 + 1e15))  # x * 10 is a tie for odd k
    assert_csv_matches_reference(_columns(k / 4 + 2**50, k * 2 + 2**53, k + 1e16 - 1e4, k * 5 + 1e17))
    assert_csv_matches_reference(_columns(k, k / 8, (k + 0.5) * 10.0**-4, k * 10.0**12))


def test_csv_writer_matches_template_at_the_edges():
    tiny, huge = 5e-324, np.finfo(np.float64).max
    edges = _neighbours([1e-280, 1e280, 1e-300, 1e300, 1e16, 1e17, 1e-4, 1e-5, tiny * 2**20, huge / 2])
    special = np.array([0.0, -0.0, tiny, 2.2250738585072014e-308, huge, -huge, np.inf, -np.inf, np.nan, -1.5])
    values = np.concatenate((edges, special, -edges))
    assert_csv_matches_reference(_columns(values))
    # One awkward value in a row of ordinary ones, at every position.
    for pos in range(4):
        columns = [np.full(len(values), 0.25) for _ in range(4)]
        columns[pos] = values
        assert_csv_matches_reference(_columns(*columns))


def test_csv_writer_matches_template_on_random_bits():
    rng = np.random.default_rng(12)
    bits = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.float64)
    assert_csv_matches_reference(_columns(np.abs(bits)))
    assert_csv_matches_reference(_columns(*bits.reshape(4, -1)))


@pytest.mark.parametrize("family, rank, seed", [("A", 2, 12), ("D", 16, 13), ("E", 8, 14)])
def test_csv_writer_matches_template_on_samples(family, rank, seed):
    rs = roots.build_root_system(roots.AdeType(family, rank))
    result = search.sample_ratios(rs, search.SearchConfig(sample_count=100_000, seed=seed))
    assert_csv_matches_reference(result)


@pytest.mark.parametrize("count", [0, 1, 2, cli._CSV_ROWS - 1, cli._CSV_ROWS + 1, 2 * cli._CSV_ROWS + 1])
def test_csv_writer_matches_template_at_block_edges(count):
    rng = np.random.default_rng(count)
    values = np.exp(rng.uniform(-40, 40, (4, count)))
    values[:, ::97] = 0.0  # rows left to the template, spread over the blocks
    assert_csv_matches_reference(_columns(*values))


def _csv_buffers(rows):
    words = np.tile(_csvdigits._csv_tables().template, (rows, 1))
    return words, np.empty_like(words)


def test_csv_index_digits_match_template():
    # Rows past 10, 100, ..., 10^7 get one more index digit; render the
    # rows around each boundary without rendering every row before it.
    for power in range(1, 8):
        start = 10**power - 3
        values = np.full(6, 0.5)
        text = _csvdigits._csv_block(_csvdigits._csv_tables(), start, np.column_stack([values] * 4), *_csv_buffers(6))
        assert text == "".join(_csvdigits._CSV_ROW % (start + i, 0.5, 0.5, 0.5, 0.5) for i in range(6))


def test_csv_tables_are_built_on_first_render_only():
    code = (
        "import sys\n"
        "from adesystole import cli\n"
        "cli.main(['sample', '--family', 'A', '--rank', '2', '--count', '3', '--output', 'json'])\n"
        "assert 'adesystole._csvdigits' not in sys.modules\n"
        "cli.main(['sample', '--family', 'A', '--rank', '2', '--count', '3', '--output', 'csv'])\n"
        "from adesystole import _csvdigits\n"
        "assert _csvdigits._csv_tables.cache_info().currsize == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_tilt_graph_json_is_streamed(tmp_path):
    # Closed E6 is 86 MiB of JSON; the export holds one chunk of it at a time.
    target = tmp_path / "e6.json"
    argv = ["tilt-graph", "--family", "E", "--rank", "6", "--depth", "37", "--output", "json"]
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out-file", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = target.stat().st_size
    assert size > 80 * 2**20 and peak < size / 4


def test_tilt_graph_human_is_streamed(tmp_path):
    # Closed E6 is 50.5 MB of human output, the default mode; like JSON and
    # DOT it is written one chunk at a time.
    target = tmp_path / "e6.txt"
    argv = ["tilt-graph", "--family", "E", "--rank", "6", "--depth", "37"]
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out-file", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = target.stat().st_size
    assert size > 50 * 10**6 and peak < size / 4


def test_closed_e6_human_output_is_pinned(tmp_path):
    # sha256 of the report, captured through --out-file before human output
    # was streamed, when it was render_human over the whole adjacency.
    target = tmp_path / "e6.txt"
    assert cli.main(["tilt-graph", "--family", "E", "--rank", "6", "--depth", "37", "--out-file", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "17463fd0396c606b0508962fd4174625a85dd36361474b3b00cf381960ecde6f"
    )


def _reference_fmt17(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return {k: _reference_fmt17(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_fmt17(v) for v in value]
    return value


def _reference_render_human(payload):
    """render_human as it was with a whole-list json.dumps, as its oracle."""
    lines = []
    for key, value in payload.items():
        value = _reference_fmt17(value)
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
        "long": [{"v": k / 3, "f": str(k / 7), "z": [k, -k]} for k in range(12)],
        "nested": {"a": ["1/3", 0.1], "b": ((1, 2), 2.0)},
        "scalars": (True, None, 10**20),
        "float": 0.1,
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


# sha256 of stdout, captured before the polish evaluated p and p' in one
# Horner loop and the correspondence took one root product.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("correspond", "--poly", "0+0i,-1+0i"),
            "2803da2cf06b5a4199f2dfa7f6f6333b5be6c6cdf304abfdbdde2116ff920e60",
        ),
        (
            ("correspond", "--poly", "0+0i,-1+0i", "--output", "json"),
            "3d866ff826a4ea7de4aa20845562e3aa6eba9267d77661d3788c976356d5c6ba",
        ),
        (
            ("milnor", "--points", "1+0i,-1+0i", "--correspond"),
            "914f36288f51f8203578dd34714c54b50cf412b7322e3ef4b222fc0782565128",
        ),
        (
            ("milnor", "--points", "1+0i,-1+0i", "--correspond", "--output", "json"),
            "e6cc0edd7a45320ea72040de85e0fbcdd11ecc5469021461e2c831c901a0fb26",
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "sha256",
)
def test_correspondence_reports_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_correspond_with_polynomial_whose_value_overflows_at_a_root(capsys):
    # z^3 + 1e300 z + 1: p overflows at its roots +-1e150 i.
    code, payload = run_json(capsys, "correspond", "--poly", "1e300+0i,1+0i")
    assert code == 0
    assert payload["passed"] is True
    assert payload["systole_geometric"] == pytest.approx(math.pi * 1e150)


@pytest.mark.parametrize("count", [34, 40])
def test_correspondence_past_the_public_type_a_rank_cap(capsys, count):
    # n + 1 points give a rank-n charge; n = 33 and 39 are past AdeType's cap of 32.
    angles = (2 * math.pi * k / count for k in range(count))
    points = cli.format_charge(complex(math.cos(a), math.sin(a)) for a in angles)
    code, payload = run_json(capsys, "correspond", "--points", points)
    assert (code, payload["n"], payload["passed"]) == (0, count - 1, True)
    code, payload = run_json(capsys, "milnor", "--points", points, "--correspond")
    assert (code, payload["correspondence"]["n"], payload["correspondence"]["passed"]) == (0, count - 1, True)


@pytest.mark.parametrize("command", [("correspond",), ("milnor", "--correspond")])
def test_too_many_points_exit_one(capsys, command):
    angles = [2 * math.pi * k / 257 for k in range(257)]  # one point past milnor.MAX_POINTS
    points = cli.format_charge(complex(math.cos(a), math.sin(a)) for a in angles)
    code, out, err = run_cli(capsys, *command, "--points", points)
    assert (code, out, err) == (1, "", "error: at most 256 points are supported, got 257\n")
    code, out, err = run_cli(capsys, *command, "--poly", ",".join(["1+0i"] * 256))
    assert (code, out) == (1, "")
    assert err == "error: at most 255 coefficients (256 points) are supported, got 256\n"


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
    "argv",
    [
        ("volume", "--family", "A", "--rank", "2", "--charge", "-1+1i,2i"),
        ("inequality", "--family", "A", "--rank", "2", "--charge", "-.5-1e-3i,-2+0i"),
        ("milnor", "--points", "-1+0i,1+0i"),
        ("milnor", "--correspond", "--points", "-1+0i,1+0i,0.5i"),
        ("correspond", "--poly", "-1+0i"),
        ("correspond", "--poly", "-0+0i,-1+0i"),
        # A unique prefix of the flag, as argparse allows.
        ("correspond", "--pol", "-1+0i"),
        ("milnor", "--poi", "-1+0i,1+0i"),
        ("volume", "--family", "A", "--rank", "2", "--ch", "-1+1i,2i"),
    ],
    ids=" ".join,
)
def test_a_value_that_starts_with_minus_may_follow_its_flag(capsys, monkeypatch, argv):
    *head, flag, value = argv
    for output in ("human", "json"):
        joined = run_cli(capsys, *head, f"{flag}={value}", "--output", output)
        assert joined[0] == 0 and joined[2] == ""
        assert run_cli(capsys, *head, flag, value, "--output", output) == joined
    # The same through sys.argv, as the console script passes it.
    monkeypatch.setattr(sys, "argv", ["adesystole", *head, flag, value])
    assert cli.main() == 0
    assert capsys.readouterr() == (run_cli(capsys, *head, f"{flag}={value}")[1], "")


@pytest.mark.parametrize("flag", ["--charge", "--points", "--poly"])
def test_a_flag_followed_by_another_flag_still_lacks_its_value(capsys, flag):
    head = ("volume", "--family", "A", "--rank", "2") if flag == "--charge" else ("correspond",)
    code, out, err = run_cli(capsys, *head, flag, "--output", "json")
    assert (code, out, err) == (1, "", f"error: argument {flag}: expected one argument\n")


def test_a_signed_token_after_a_flag_with_its_value_is_not_joined_to_it(capsys):
    argv = ("volume", "--family", "A", "--rank", "2", "--charge=1i,1i", "-1")
    assert run_cli(capsys, *argv) == (1, "", "error: unrecognized arguments: -1\n")


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
    # The overflow inside numpy stays silent: stderr is the one error line.
    code, out, err = run_cli(capsys, command, "--family", "A", "--rank", "2", "--charge", charge)
    assert (code, out) == (1, "")
    assert err.startswith("error: charge is out of float range") and err.count("\n") == 1
    assert err.endswith(("inf\n", "nan\n")) == overflows


@pytest.mark.parametrize("command", ["milnor", "correspond"])
@pytest.mark.parametrize("points", ["1e200+0i,-1e200+0i,1e200i", "1e-200+0i,-1e-200+0i,1e-200i"])
def test_out_of_range_points_exit_one(capsys, command, points):
    code, out, err = run_cli(capsys, command, "--points", points)
    assert (code, out) == (1, "")
    assert err.startswith("error: points are out of float range") and err.count("\n") == 1


def test_property_violation_exits_two(capsys, monkeypatch):
    # Force the two volume routes apart to exercise the exit-2 path.
    from adesystole import stability

    monkeypatch.setattr(stability, "volume_roots", lambda rs, z: stability.volume_basis(rs, z) + 1.0)
    code, out, err = run_cli(
        capsys, "volume", "--family", "A", "--rank", "2", "--charge", "0+1i,0+1i"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--family", "D", "--rank", "32"),  # 105 KiB, built whole
        ("sample", "--family", "A", "--rank", "2", "--count", "5000", "--output", "csv"),  # 425 KiB, streamed
    ],
    ids=lambda argv: argv[0],
)
def test_closed_pipe_ends_quietly_with_status_zero(argv):
    # The reader takes one line and closes the pipe, as `| head -1` does; the
    # report is larger than a pipe's buffer, so the writer meets the closed pipe.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    with subprocess.Popen(
        [sys.executable, "-m", "adesystole.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        assert (code, proc.stderr.read()) == (0, b"")


# Output modes each command accepts; every other mode is a usage error.
OUTPUT_MODES = {
    "roots": {"human", "json"},
    "identity": {"human", "json"},
    "volume": {"human", "json"},
    "systole": {"human", "json"},
    "inequality": {"human", "json"},
    "sample": {"human", "json", "csv"},
    "optimize": {"human", "json", "csv"},
    "tilt-graph": {"human", "json", "dot"},
    "milnor": {"human", "json"},
    "correspond": {"human", "json"},
}

OUTPUT_MODE_ARGS = {
    "volume": ("--charge", "1i,1i"),
    "systole": ("--charge", "1i,1i"),
    "inequality": ("--charge", "1i,1i"),
    "sample": ("--count", "20"),
    "optimize": ("--restarts", "1"),
    "tilt-graph": ("--depth", "2"),
    "milnor": ("--points", "1+0i,-1+0i"),
    "correspond": ("--points", "1+0i,-1+0i"),
}


def test_output_modes_table_covers_every_command():
    assert set(OUTPUT_MODES) == set(cli.COMMANDS)


@pytest.mark.parametrize("mode", ["human", "json", "csv", "dot"])
@pytest.mark.parametrize("command", list(OUTPUT_MODES))
def test_each_command_accepts_only_its_output_modes(capsys, command, mode):
    ade = ("--family", "A", "--rank", "2") if cli.COMMANDS[command].ade else ()
    code, out, err = run_cli(capsys, command, *ade, *OUTPUT_MODE_ARGS.get(command, ()), "--output", mode)
    if mode in OUTPUT_MODES[command]:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --output: invalid choice")


def _assert_json_native(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            assert isinstance(key, str), (path, key)
            _assert_json_native(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            _assert_json_native(item, f"{path}[{idx}]")
    else:
        assert value is None or isinstance(value, (str, int, float, bool)), (path, type(value))


def test_every_payload_is_json_native(capsys, monkeypatch):
    # JSON output is json.dumps of the payload and human output formats its
    # floats only, so each report must convert its own Fractions and complex
    # numbers: a payload holds nothing json cannot write.
    payloads = {}

    def recorder(payload, source):
        payloads[payload["command"]] = payload
        return ""

    for mode in cli.RENDERERS:
        monkeypatch.setitem(cli.RENDERERS, mode, recorder)
    for command in cli.COMMANDS.values():
        for mode in command.outputs:
            monkeypatch.setitem(command.outputs, mode, recorder)
    args = {**OUTPUT_MODE_ARGS, "milnor": ("--points", "1+0i,-1+0i,0.5i", "--correspond")}
    for name, command in cli.COMMANDS.items():
        ade = ("--family", "A", "--rank", "2") if command.ade else ()
        assert run_cli(capsys, name, *ade, *args.get(name, ()), "--output", "json") == (0, "\n", "")
    assert set(payloads) == set(cli.COMMANDS)
    for name, payload in payloads.items():
        _assert_json_native(payload, name)


def test_help_lists_each_commands_own_output_modes(capsys):
    for command, shows_csv in (("sample", True), ("roots", False)):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert ("csv" in capsys.readouterr().out) == shows_csv


# == Config files ============================================================

def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = A\nrank = 2\ncharge = 0+1i,0+1i  # heart charge\n")
    code, payload = run_json(capsys, "inequality", "--config", str(config))
    assert code == 0
    assert payload["volume"] == pytest.approx(2.0)


def test_config_file_with_a_byte_order_mark_reads_its_first_key(capsys, tmp_path):
    # Editors on Windows may start a UTF-8 file with U+FEFF; its first key is still `seed`.
    text = "seed = 7\nfamily = A\nrank = 2\nrestarts = 2\n"
    outputs = []
    for name, data in (("plain.cfg", text.encode()), ("bom.cfg", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).write_bytes(data)
        outputs.append(run_cli(capsys, "optimize", "--config", str(tmp_path / name), "--output", "json"))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][1])["inputs"]["seed"] == 7


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


@pytest.mark.parametrize("on_command_line", [False, True])
def test_config_flag_yes_sets_it_with_or_without_the_flag(capsys, tmp_path, on_command_line):
    config = tmp_path / "run.cfg"
    config.write_text("points = -1+0i,1+0i,0.5i\ncorrespond = yes\n")
    flag = ["--correspond"] if on_command_line else []
    code, payload = run_json(capsys, "milnor", "--config", str(config), *flag)
    assert code == 0
    assert payload["correspondence"]["passed"] is True


def test_config_flag_no_leaves_it_unset(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("points = -1+0i,1+0i,0.5i\ncorrespond = no\n")
    code, payload = run_json(capsys, "milnor", "--config", str(config))
    assert code == 0
    assert "correspondence" not in payload


def test_config_values_get_the_flags_types(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = A\nrank = x\n")
    code, out, err = run_cli(capsys, "roots", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --rank")


def test_config_family_is_case_insensitive(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = d\nrank = 4\n")
    code, payload = run_json(capsys, "identity", "--config", str(config))
    assert code == 0
    assert payload["inputs"]["family"] == "D"


def test_config_command_and_config_keys_are_ignored(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = A\nrank = 2\ncommand = sample\nconfig = other.cfg\n")
    code, payload = run_json(capsys, "roots", "--config", str(config))
    assert code == 0
    assert payload["command"] == "roots"
    assert payload["inputs"] == {"family": "A", "rank": 2}


def test_config_output_mode_must_be_the_commands(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = A\nrank = 2\noutput = csv\n")
    code, out, err = run_cli(capsys, "roots", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --output: invalid choice")


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

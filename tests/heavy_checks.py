"""Full-size checks, about two minutes in all: the CSV writer, the kernels
and Milnor byte-identical to their references on many inputs, and the memory
bounds of 10^7 A2 samples and of closed E7.  `PYTHONPATH=src python -m pytest
-q tests/heavy_checks.py` runs them.  Tier-1's `pytest` skips this file, whose
name does not match `test_*.py`, while pytest collects a file named on its
command line whatever the name: no marker or option is needed.  A memory check
runs in a fresh interpreter and reads its own peak, VmHWM, since Linux carries
this process's peak into a child's `ru_maxrss` across the exec."""

import subprocess
import sys

import numpy as np
import pytest

from adesystole import roots, search
from test_cli import _columns, assert_csv_matches_reference
from test_milnor import assert_poly_matches_reference, assert_segments_match_reference, polynomial_cases
from test_properties import ALL_TYPES
from test_stability import adversarial_charges, assert_kernels_match_reference


def _max_rss(code: str) -> list[int]:
    """The integers printed by `code` in a fresh interpreter, where `max_rss()` is its peak RSS in bytes."""
    prelude = 'max_rss = lambda: 1024 * int(open("/proc/self/status").read().split("VmHWM:")[1].split()[0])\n'
    proc = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [int(word) for word in proc.stdout.split()]


@pytest.mark.parametrize("case", ["A2", "D16", "E8", "abs", "raw"])
def test_csv_writer_matches_the_template(case):
    if case in ("abs", "raw"):
        # Random-bit doubles, each alone on its row: every value takes its own path.
        bits = np.frombuffer(np.random.default_rng(12).bytes(8 * 10**6), dtype=np.float64)
        result = _columns(bits if case == "raw" else np.abs(bits))
    else:
        rs = roots.build_root_system(roots.AdeType(case[0], int(case[1:])))
        result = search.sample_ratios(rs, search.SearchConfig(sample_count=200_000, seed=12))
    assert_csv_matches_reference(result)


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_kernels_match_their_references(ade):
    # 1,000 charges at scales 1e-150 to 1e150, a third with a zero entry, and the adversarial set.
    rs = roots.build_root_system(ade)
    rng = np.random.default_rng(14_000 + 100 * "ADE".index(ade.family) + ade.rank)
    for k in range(1_000):
        z = (rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)) * 10.0 ** rng.uniform(-150, 150)
        if k % 3 == 0:
            z[rng.integers(rs.rank)] = 0
        assert_kernels_match_reference(rs, z)
    for z in adversarial_charges(rng, rs.rank):
        assert_kernels_match_reference(rs, z)


@pytest.mark.parametrize("n", range(1, 33))
def test_milnor_matches_its_reference(n):
    for seed in range(20):
        for coeffs in polynomial_cases(np.random.default_rng(14_000 + 100 * n + seed), n):
            # A validated configuration also has the reference's segments, systole and volume.
            config = assert_poly_matches_reference(coeffs)
            if config is not None:
                assert_segments_match_reference(config)


@pytest.mark.parametrize("mode", ["json", "csv"])
def test_ten_million_a2_samples_fit_in_0_35_gb(mode):
    argv = ["sample", "--family", "A", "--rank", "2", "--count", "10000000", "--output", mode]
    code = f"import os\nfrom adesystole import cli\nassert cli.main({argv} + ['--out-file', os.devnull]) == 0\nprint(max_rss())"
    # The result holds 24 B per sample (240 MB); the ratios exist a block, or a CSV chunk, at a time.
    assert _max_rss(code)[0] < 0.35e9


E7 = """import os
import numpy as np
from adesystole import actions, cli, roots
graph = actions.exchange_graph(roots.build_root_system(roots.AdeType("E", 7)), 64)
order = 2_903_040  # |W(E7)|
assert graph.complete and graph.stack.shape == (order, 7, 7), graph.stack.shape
assert graph.targets.shape == (order, 7), graph.targets.shape
# Level d holds the elements of length d: Poincare's prod (1 + ... + q^(d - 1)) over E7's degrees.
widths = np.array([1])
for degree in (2, 6, 8, 10, 12, 14, 18):
    widths = np.convolve(widths, np.ones(degree, dtype=np.int64))
assert len(graph.levels) - 1 == 64 and np.diff(graph.levels).tolist() == widths.tolist()
# Each target is one forward and one backward edge.  The views compute only
# the items read.  The last node is the longest element, -1 on E7's root lattice.
assert len(graph.edges) == 2 * graph.targets.size == 2 * 7 * order, len(graph.edges)
assert graph.edges[-1] == (order - 1, int(graph.targets[-1, -1]), 7, actions.BACKWARD), graph.edges[-1]
assert graph.nodes[-1] == tuple(map(tuple, (-np.eye(7, dtype=int)).tolist())), graph.nodes[-1]
print(max_rss())
# Each report streamed as the CLI writes it: human about 3.5 GB, JSON 6.3 GB, DOT 1.9 GB.
head = {"schema_version": cli.SCHEMA_VERSION, "command": "tilt-graph", "inputs": {"family": "E", "rank": 7, "depth": 64}}
for chunks in (graph.human_chunks(cli.render_human(head)), graph.json_chunks(head), graph.dot_chunks()):
    cli.emit(chunks, os.devnull)
print(max_rss())"""


def test_closed_e7_fits_in_0_4_gb_and_its_reports_in_1_5_gb():
    built, streamed = _max_rss(E7)
    # The arrays, 49 + 28 bytes a node, are allocated once and filled in place.
    assert built < 0.4e9 and streamed < 1.5e9

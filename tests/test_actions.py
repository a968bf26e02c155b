"""Action-layer tests: charge rescaling, reflections, tilting, tilt graph."""

import hashlib
import json
import math
import re
import tracemalloc
from itertools import cycle, product

import numpy as np
import pytest

from adesystole import actions, cli
from adesystole.actions import (
    _CHUNK_NODES,
    BACKWARD,
    FORWARD,
    ExchangeGraph,
    HeartState,
    act_scaling,
    canonical_heart,
    _level_widths,
    _row_bytes,
    _tilt,
    exchange_graph,
    reflect_charge,
    reflect_class,
    simple_tilt,
    verify_action_equivariance,
)
from adesystole.cli import render_human
from adesystole.roots import AdeType, build_root_system, count_positive_roots
from adesystole.stability import evaluate_charge, systole_upper, volume_roots
from test_roots import _bareiss

A1 = build_root_system(AdeType("A", 1))
A2 = build_root_system(AdeType("A", 2))
A3 = build_root_system(AdeType("A", 3))
A5 = build_root_system(AdeType("A", 5))
D4 = build_root_system(AdeType("D", 4))
D5 = build_root_system(AdeType("D", 5))
E6 = build_root_system(AdeType("E", 6))

SMALL_TYPES = (
    [AdeType("A", n) for n in range(1, 6)]
    + [AdeType("D", n) for n in (4, 5)]
    + [AdeType("E", 6)]
)

ALL_TYPES = (
    [AdeType("A", n) for n in range(1, 33)]
    + [AdeType("D", n) for n in range(4, 33)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)

WEYL_ORDERS = {"D4": 192, "D5": 1920, "E6": 51_840}


def closing_depth(rs):
    """One past the longest Weyl word, |Phi+|: every node is then expanded."""
    return count_positive_roots(rs.ade) + 1


# == Rescaling ===============================================================

def test_scaling_identity():
    z = np.array([1j, 2j])
    assert np.array_equal(act_scaling(z, 0), z)


def test_scaling_shift_by_one_negates():
    out = act_scaling([1j, 2j], 1)
    assert out == pytest.approx(np.array([-1j, -2j]))


def test_scaling_imaginary_shift_scales_moduli():
    z = np.array([0.5 + 1j, -2 + 0.25j])
    out = act_scaling(z, -1j)
    assert np.abs(out) == pytest.approx(math.exp(-math.pi) * np.abs(z))


def test_scaling_modulus_rule():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for zeta in (0.3 - 0.7j, -1.5 + 0.2j, 2.0):
        out = act_scaling(z, zeta)
        assert np.abs(out) == pytest.approx(math.exp(math.pi * complex(zeta).imag) * np.abs(z))


@pytest.mark.parametrize(
    "z, zeta",
    [
        ([1j, 2j], math.nan),
        ([1j, 2j], complex(0, math.inf)),
        ([1j, 2j], 1000j),  # exp(1000 pi) overflows
        ([1j, 2j], -1000j),  # exp(-1000 pi) is 0, and so is every entry
        ([1j, 2j], 1e308),  # pi Re(zeta) overflows
        ([1e300j, 1j], 100j),  # a factor of about 1e136 sends an entry to inf
        ([1e-300j, 1j], -100j),  # and to 0
    ],
    ids=str,
)
def test_scaling_out_of_float_range_is_bad_input(z, zeta):
    # A ValueError and no RuntimeWarning (an error under this suite's config).
    message = f"zeta = {complex(zeta)} rescales the charge out of floating-point range"
    with pytest.raises(ValueError, match=re.escape(message)):
        act_scaling(z, zeta)


def test_scaling_keeps_zero_entries():
    assert np.array_equal(act_scaling([0j, 1j], -100j) != 0, [False, True])


# == Reflections =============================================================

def test_reflect_class_examples():
    assert reflect_class(A2, 1, (1, 0)) == (-1, 0)
    assert reflect_class(A2, 1, (0, 1)) == (1, 1)
    assert reflect_class(A3, 2, (1, 1, 1)) == (1, 1, 1)


def test_reflect_class_vertex_out_of_range():
    for i in (0, 3, -1):
        with pytest.raises(IndexError):
            reflect_class(A2, i, (1, 0))


@pytest.mark.parametrize("ade", SMALL_TYPES, ids=str)
def test_reflect_class_involution(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(31 + ade.rank)
    roots = rs.positive_roots
    for _ in range(200):
        alpha = roots[rng.integers(len(roots))]
        i = int(rng.integers(1, rs.rank + 1))
        assert reflect_class(rs, i, reflect_class(rs, i, alpha)) == alpha


@pytest.mark.parametrize("ade", SMALL_TYPES, ids=str)
def test_reflect_class_permutes_other_positive_roots(ade):
    rs = build_root_system(ade)
    roots = set(rs.positive_roots)
    for i in range(1, rs.rank + 1):
        e_i = tuple(int(k == i - 1) for k in range(rs.rank))
        assert reflect_class(rs, i, e_i) == tuple(-c for c in e_i)
        others = roots - {e_i}
        image = {reflect_class(rs, i, alpha) for alpha in others}
        assert image == others


@pytest.mark.parametrize("n", range(1, 5))
def test_longest_word_negates_positive_roots(n):
    # Standard reduced word s_1, s_2 s_1, ..., s_n ... s_1 read left to right.
    rs = build_root_system(AdeType("A", n))
    word = []
    for k in range(1, n + 1):
        word.extend(range(k, 0, -1))
    assert len(word) == n * (n + 1) // 2
    image = set()
    for alpha in rs.positive_roots:
        for i in word:
            alpha = reflect_class(rs, i, alpha)
        image.add(alpha)
    assert image == {tuple(-c for c in a) for a in rs.positive_roots}


def test_reflect_charge_examples():
    out = reflect_charge(A2, 1, [2 + 1j, 5 - 1j])
    assert out == pytest.approx(np.array([-2 - 1j, 7 + 0j]))
    assert reflect_charge(A1, 1, [3 + 4j]) == pytest.approx(np.array([-3 - 4j]))


def test_reflect_charge_out_of_float_range_is_bad_input():
    # 1e308 + 1e308 overflows: a ValueError, where numpy would return inf and warn.
    with pytest.raises(ValueError, match=re.escape("charge is out of float range: its reflection at vertex 1")):
        reflect_charge(A2, 1, [1e308, 1e308])
    assert reflect_charge(A2, 1, [1e307, 1e308]) == pytest.approx(np.array([-1e307, 1.1e308]))


def test_reflect_charge_negates_an_entry_whose_double_overflows():
    # 2 * -1e308 overflows, but the reflection itself is representable.
    assert np.array_equal(reflect_charge(A2, 2, [1e308, -1e308]), [0, 1e308])
    assert np.array_equal(reflect_charge(A2, 1, [1e308, -1e308]), [-1e308, 0])
    assert np.array_equal(reflect_charge(A1, 1, [-1e308 + 1.5e308j]), [1e308 - 1.5e308j])


def test_reflect_charge_keeps_the_bits_of_z_minus_c_z_i():
    # Where nothing overflows, the result is z - C[i] z_i bit for bit,
    # the signed zeros of numpy's complex product included.
    parts = [0.0, -0.0, 1.5, -2.0, 1e-310, -1e-310]
    for re_i, im_i, i in product(parts, parts, (1, 2)):
        z = np.array([complex(-0.0, 3.0), complex(2.0, -0.0)])
        z[i - 1] = complex(re_i, im_i)
        expected = z - A2.cartan_array[i - 1] * z[i - 1]
        assert reflect_charge(A2, i, z).tobytes() == expected.tobytes(), (re_i, im_i, i)


def test_reflect_charge_involution():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rs = build_root_system(AdeType("A", 4))
    for i in range(1, 5):
        assert reflect_charge(rs, i, reflect_charge(rs, i, z)) == pytest.approx(z)


def test_reflect_charge_matches_class_action():
    # Z'(alpha) must equal Z(s_i(alpha)) for every class.
    rng = np.random.default_rng(17)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rs = build_root_system(AdeType("D", 4))
    for i in range(1, 5):
        zi = reflect_charge(rs, i, z)
        for alpha in rs.positive_roots:
            direct = np.dot(np.array(reflect_class(rs, i, alpha)), z)
            assert np.dot(np.array(alpha), zi) == pytest.approx(direct)


# == Tilting =================================================================

def test_tilt_examples():
    heart = canonical_heart(A2)
    tilted = simple_tilt(A2, heart, 1, FORWARD)
    assert tilted.simples == ((-1, 0), (1, 1))
    assert tilted.word == ((1, FORWARD),)

    single = simple_tilt(A1, canonical_heart(A1), 1, FORWARD)
    assert single.simples == ((-1,),)


def test_tilt_forward_then_backward_is_identity():
    heart = canonical_heart(A3)
    for k in (1, 2, 3):
        there = simple_tilt(A3, heart, k, FORWARD)
        back = simple_tilt(A3, there, k, BACKWARD)
        assert back.simples == heart.simples
        assert len(back.word) == 2


def test_tilt_bad_arguments():
    heart = canonical_heart(A2)
    with pytest.raises(IndexError):
        simple_tilt(A2, heart, 0, FORWARD)
    with pytest.raises(IndexError):
        simple_tilt(A2, heart, 3, FORWARD)
    with pytest.raises(ValueError):
        simple_tilt(A2, heart, 1, "sideways")


_AT_POSITION = {
    "reflect_class": (lambda i: reflect_class(A2, i, (1, 0)), "vertex index {} out of range 1..2"),
    "reflect_charge": (lambda i: reflect_charge(A2, i, [1, 1j]), "vertex index {} out of range 1..2"),
    "simple_tilt": (lambda k: simple_tilt(A2, canonical_heart(A2), k, FORWARD), "tilt position {} out of range 1..2"),
}


@pytest.mark.parametrize("name", sorted(_AT_POSITION))
@pytest.mark.parametrize("value", [True, 1.0, 2.5, "1"], ids=repr)
def test_vertex_and_tilt_position_must_be_integers(name, value):
    call = _AT_POSITION[name][0]
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {value!r}")):
        call(value)


# A class vector (0, entry), and the name its entries go by.
_WITH_CLASS = {
    "reflect_class": (lambda alpha: reflect_class(A2, 1, alpha), "class vector"),
    "simple_tilt": (lambda alpha: simple_tilt(A2, HeartState(((1, 0), alpha)), 1, FORWARD), "simple 2"),
    "evaluate_charge": (lambda alpha: evaluate_charge(A2, [1j, 2j], alpha), "class vector"),
}


@pytest.mark.parametrize("name", sorted(_WITH_CLASS))
@pytest.mark.parametrize("value", [True, 1.0, 1.5, "1"], ids=repr)
def test_class_vector_entries_must_be_integers(name, value):
    call, label = _WITH_CLASS[name]
    with pytest.raises(ValueError, match=re.escape(f"{label} entry 2 must be an integer, got {value!r}")):
        call((0, value))
    assert call((np.int64(0), np.int8(1))) == call((0, 1))


@pytest.mark.parametrize("name", sorted(_AT_POSITION))
def test_vertex_and_tilt_position_range(name):
    call, message = _AT_POSITION[name]
    for i in (0, 3, -1):
        with pytest.raises(IndexError, match=re.escape(message.format(i))):
            call(i)
    call(np.int64(2))  # a numpy integer is an integer


def validate_heart(rs, heart):
    """Raise unless the simples are signed positive roots forming a basis."""
    n = rs.rank
    if len(heart.simples) != n:
        raise ValueError(f"heart has {len(heart.simples)} simples, expected {n}")
    positive = set(rs.positive_roots)
    for v in heart.simples:
        if v not in positive and tuple(-c for c in v) not in positive:
            raise ValueError(f"class {v} is not a positive root up to sign")
    det = _bareiss(heart.simples)[0]
    if abs(det) != 1:
        raise ValueError(f"simple classes do not form a basis (determinant {det})")


@pytest.mark.parametrize("ade", SMALL_TYPES, ids=str)
def test_tilt_sequences_preserve_invariants(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(1000 + ade.rank)
    for _ in range(40):
        heart = canonical_heart(rs)
        for _ in range(int(rng.integers(1, 11))):
            k = int(rng.integers(1, rs.rank + 1))
            direction = FORWARD if rng.integers(2) else BACKWARD
            heart = simple_tilt(rs, heart, k, direction)
            validate_heart(rs, heart)
        # One more forward/backward pair at a random position is a no-op.
        k = int(rng.integers(1, rs.rank + 1))
        again = simple_tilt(rs, simple_tilt(rs, heart, k, FORWARD), k, BACKWARD)
        assert again.simples == heart.simples


def test_validate_heart_rejects_bad_states():
    with pytest.raises(ValueError):
        validate_heart(A2, HeartState(simples=((1, 0),)))
    with pytest.raises(ValueError):
        validate_heart(A2, HeartState(simples=((1, 0), (2, 1))))  # basis but (2,1) not a root
    with pytest.raises(ValueError):
        validate_heart(A2, HeartState(simples=((1, 0), (1, 0))))  # not a basis
    # Four positive roots of D4 spanning a sublattice of index 2.
    with pytest.raises(ValueError, match="determinant 2"):
        validate_heart(D4, HeartState(simples=((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 1, 1))))


# == Exchange graph ==========================================================

def test_a1_graph_two_nodes():
    graph = exchange_graph(A1, 2)
    assert len(graph.nodes) == 2
    assert set(graph.nodes) == {((1,),), ((-1,),)}
    assert graph.complete
    assert graph.targets.shape == (2, 1)  # both nodes expanded: 2 labelled edges each
    labels = {(src, dst, pos, d) for src, dst, pos, d in graph.edges}
    assert (0, 1, 1, FORWARD) in labels and (0, 1, 1, BACKWARD) in labels


def test_a1_graph_depth_four_stays_two_nodes():
    graph = exchange_graph(A1, 4)
    assert len(graph.nodes) == 2
    assert graph.complete


@pytest.mark.parametrize(
    "ade,weyl_order",
    [
        (AdeType("A", 1), 2),
        (AdeType("A", 2), 6),
        (AdeType("A", 3), 24),
        (AdeType("A", 4), 120),
        (AdeType("A", 5), 720),
        (AdeType("D", 4), 192),
        (AdeType("D", 5), 1920),
    ],
    ids=["A1", "A2", "A3", "A4", "A5", "D4", "D5"],
)
def test_closed_graph_sizes(ade, weyl_order):
    # A closed graph has one node per Weyl group element (Humphreys).
    rs = build_root_system(ade)
    graph = exchange_graph(rs, closing_depth(rs))
    assert graph.complete
    assert len(graph.nodes) == weyl_order
    assert len(graph.edges) == 2 * rs.rank * weyl_order
    assert graph.targets.shape == (weyl_order, rs.rank)  # every node has 2n labelled edges


def test_closed_e6_graph():
    graph = exchange_graph(E6, 37)
    assert graph.complete
    assert len(graph.nodes) == 51_840
    assert len(graph.edges) == 622_080
    assert graph.targets.shape == (51_840, 6)


@pytest.mark.parametrize("rs", [A3, D4, A5, D5], ids=["A3", "D4", "A5", "D5"])
def test_graph_edges_match_simple_tilt(rs):
    graph = exchange_graph(rs, closing_depth(rs))
    assert graph.complete
    for src, dst, k, direction in graph.edges:
        tilted = simple_tilt(rs, HeartState(simples=graph.nodes[src]), k, direction)
        assert tilted.simples == graph.nodes[dst]


def _reference_exchange_graph(rs, max_depth):
    """The breadth-first search with one global dict of every key seen, as
    the oracle for the numbering of exchange_graph's level-local lookup.
    Returns (nodes, edges, complete)."""
    n = rs.rank
    cartan = rs.cartan_array.astype(np.int8)
    level = np.eye(n, dtype=np.int8)[None]
    index = {level.tobytes(): 0}
    levels = [level]
    edges = []
    for _ in range(max_depth):
        if not len(level):
            break
        first, known = len(index) - len(level), len(index)
        targets = np.stack([_tilt(cartan, level, k) for k in range(n)], axis=1)
        dsts = np.array([index.setdefault(key, len(index)) for key in _row_bytes(targets, n * n)])
        ids, rows = np.unique(dsts, return_index=True)
        level = targets.reshape(-1, n, n)[rows[ids >= known]]
        levels.append(level)
        srcs = np.repeat(np.arange(first, known), 2 * n).tolist()
        positions = np.tile(np.repeat(np.arange(1, n + 1), 2), known - first).tolist()
        edges.extend(zip(srcs, np.repeat(dsts, 2).tolist(), positions, cycle((FORWARD, BACKWARD))))
    return _node_tuples(np.concatenate(levels)), tuple(edges), not len(level)


def _node_tuples(stack):
    """Nodes as tuples of class tuples, equal classes sharing one tuple: the
    reference for `ExchangeGraph.nodes`, built whole."""
    n = stack.shape[1]
    keys = _row_bytes(stack, n)
    vector = {key: tuple(np.frombuffer(key, dtype=stack.dtype).tolist()) for key in set(keys)}
    classes = list(map(vector.__getitem__, keys))
    return tuple(tuple(classes[i : i + n]) for i in range(0, len(classes), n))


def _edge_tuples(targets):
    """Every (source, target, position, direction), source-major, position-minor,
    forward first: the reference for `ExchangeGraph.edges`, built whole."""
    m, n = targets.shape
    srcs = np.repeat(np.arange(m), 2 * n).tolist()
    positions = np.tile(np.repeat(np.arange(1, n + 1), 2), m).tolist()
    dsts = np.repeat(targets.ravel(), 2).tolist()
    return tuple(zip(srcs, dsts, positions, cycle((FORWARD, BACKWARD))))


def assert_graph_matches_reference(rs, depth):
    graph = exchange_graph(rs, depth)
    assert (graph.nodes, graph.edges, graph.complete) == _reference_exchange_graph(rs, depth)


@pytest.mark.parametrize("ade", [AdeType("A", n) for n in range(1, 7)] + SMALL_TYPES[5:], ids=str)
def test_closed_graph_matches_reference_search(ade):
    rs = build_root_system(ade)
    assert_graph_matches_reference(rs, closing_depth(rs))


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_shallow_graph_matches_reference_search(ade):
    # Depth 4 takes 1-5 s a type past rank 16 (58k nodes of 32x32 classes
    # at rank 32), so there it is checked on A32 alone.
    rs = build_root_system(ade)
    deep = ade.rank <= 16 or str(ade) == "A32"
    for depth in (1, 2, 3, 4) if deep else (1, 2, 3):
        assert_graph_matches_reference(rs, depth)


def poincare(degrees):
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1)) over the degrees
    d_i of W: the number of Weyl group elements of each length
    (Humphreys, Reflection Groups and Coxeter Groups, Ch. 3).  In Python ints,
    as the largest coefficient passes 2^63 from A21 and D18 on."""
    coeffs = [1]
    for d in degrees:
        coeffs = [sum(coeffs[max(k - d + 1, 0) : k + 1]) for k in range(len(coeffs) + d - 1)]
    return coeffs


def weyl_degrees(ade):
    n = ade.rank
    if ade.family == "A":
        return range(2, n + 2)
    if ade.family == "D":
        return [*range(2, 2 * n - 1, 2), n]
    return {
        "E6": (2, 5, 6, 8, 9, 12),
        "E7": (2, 6, 8, 10, 12, 14, 18),
        "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    }[str(ade)]


def mahonian(n):
    """Coefficients of prod_{k=1..n} (1 + q + ... + q^k): the number of
    elements of S_{n+1} of each length."""
    coeffs = np.array([1])
    for k in range(1, n + 1):
        coeffs = np.convolve(coeffs, np.ones(k + 1, dtype=int))
    return coeffs.tolist()


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_type_a_level_widths_are_mahonian(n):
    rs = build_root_system(AdeType("A", n))
    graph = exchange_graph(rs, closing_depth(rs))
    assert np.diff(graph.levels).tolist() == mahonian(n) == poincare(weyl_degrees(rs.ade))


@pytest.mark.parametrize("ade", SMALL_TYPES + [AdeType("A", 6)], ids=str)
def test_closed_level_widths_are_poincare_coefficients(ade):
    rs = build_root_system(ade)
    graph = exchange_graph(rs, closing_depth(rs))
    assert np.diff(graph.levels).tolist() == poincare(weyl_degrees(ade))


@pytest.mark.parametrize("rs", [A5, D5, E6], ids=["A5", "D5", "E6"])
def test_closed_graph_nodes_are_weyl_group_elements(rs):
    # exchange_graph relies on both facts: every node pairs its simples by
    # C, so a tilt is the fixed map T_k, and the heights of the simples,
    # w(rho) in weight coordinates, tell the nodes apart in n int8 bytes.
    graph = exchange_graph(rs, closing_depth(rs))
    stack = graph.stack.astype(np.int64)
    assert (np.einsum("fij,jk,flk->fil", stack, rs.cartan_array, stack) == rs.cartan_array).all()
    heights = stack.sum(axis=2)
    assert len(np.unique(heights, axis=0)) == len(stack)
    assert np.abs(heights).max() <= rs.coxeter - 1


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_level_widths_are_the_poincare_coefficients_from_the_degree_table(ade):
    # The widths come from the root heights; the oracle from the degrees.
    rs = build_root_system(ade)
    closed = poincare(weyl_degrees(ade))
    assert len(closed) == count_positive_roots(ade) + 1
    assert _level_widths(rs, len(closed)) == closed + [0]
    assert _level_widths(rs, 3) == (closed + [0, 0])[:4]  # A1's polynomial is 1 + q


@pytest.mark.parametrize(
    "ade,depth",
    [(AdeType("E", 7), 6), (AdeType("E", 8), 5), (AdeType("A", 32), 3), (AdeType("D", 32), 3)],
    ids=str,
)
def test_depth_limited_widths_are_the_first_poincare_coefficients(ade, depth):
    graph = exchange_graph(build_root_system(ade), depth)
    assert not graph.complete and len(graph.levels) == depth + 2
    assert np.diff(graph.levels).tolist() == poincare(weyl_degrees(ade))[: depth + 1]


@pytest.mark.parametrize("level", [1, 2, 15, 16])
def test_a_level_off_its_poincare_coefficient_is_a_property_violation(monkeypatch, capsys, level):
    # Level 16 of A5 is the width 0 past the longest element, reached only
    # when the closed graph expands it.
    def off_by_one(rs, depth):
        widths = _level_widths(rs, depth)
        widths[level] += 1
        return widths

    monkeypatch.setattr(actions, "_level_widths", off_by_one)
    with pytest.raises(ArithmeticError, match=f"level {level} of the A5 tilt graph"):
        exchange_graph(A5, closing_depth(A5))
    assert cli.main(["tilt-graph", "--family", "A", "--rank", "5", "--depth", "16"]) == 2
    assert f"property violation: level {level}" in capsys.readouterr().err


def test_graphs_over_the_byte_budget_are_rejected_before_building(monkeypatch, capsys):
    # Closed A5: 720 nodes of 5 x 5 int8 classes, 720 x 5 int32 targets.
    size = 720 * 25 + 720 * 5 * 4
    monkeypatch.setattr(actions, "MAX_GRAPH_BYTES", size)
    assert len(exchange_graph(A5, closing_depth(A5)).stack) == 720
    monkeypatch.setattr(actions, "MAX_GRAPH_BYTES", size - 1)
    with pytest.raises(ValueError, match=f"has 720 nodes in {size:,} bytes"):
        exchange_graph(A5, closing_depth(A5))
    monkeypatch.undo()
    # Closed E8 would take about 67 GB.
    assert cli.main(["tilt-graph", "--family", "E", "--rank", "8", "--depth", "121"]) == 1
    assert "has 696,729,600 nodes in 66,886,041,600 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("ade", SMALL_TYPES[5:], ids=str)
def test_closed_level_widths_are_palindromic(ade):
    # Multiplying by the longest element maps length l to |Phi+| - l.
    rs = build_root_system(ade)
    graph = exchange_graph(rs, closing_depth(rs))
    widths = np.diff(graph.levels).tolist()
    assert widths == widths[::-1]
    assert len(widths) == count_positive_roots(ade) + 1
    assert sum(widths) == len(graph.stack) == WEYL_ORDERS[str(ade)]


@pytest.mark.parametrize(
    "ade,depth",
    [(AdeType("A", 5), 16), (AdeType("D", 5), 21), (AdeType("E", 6), 37)]
    + [(AdeType("E", 7), 6), (AdeType("D", 8), 5)],
    ids=str,
)
def test_every_edge_joins_adjacent_levels(ade, depth):
    graph = exchange_graph(build_root_system(ade), depth)
    level_of = np.repeat(np.arange(len(graph.levels) - 1), np.diff(graph.levels))
    sources = level_of[: len(graph.targets), None]
    assert (np.abs(level_of[graph.targets] - sources) == 1).all()


def test_graph_arrays_back_the_tuple_views():
    graph = exchange_graph(D4, 5)
    assert graph.stack.dtype == np.int8 and graph.stack.shape == (len(graph.nodes), 4, 4)
    assert graph.targets.shape == (graph.levels[-2], 4)
    assert graph.nodes[7] == tuple(map(tuple, graph.stack[7].tolist()))
    assert graph.edges[8 * 3 + 2 * 1 + 1] == (3, int(graph.targets[3, 1]), 2, BACKWARD)
    assert graph.nodes is graph.nodes and graph.edges is graph.edges


def test_views_of_closed_e6_are_not_built_whole():
    graph = exchange_graph(E6, 37)
    tracemalloc.start()
    try:
        for view in (graph.nodes, graph.edges):
            assert len(view) and view[-1] and view[0]
            for _ in view:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Built whole, as tuples, the two views took about 94 MB.
    assert peak < 8e6, peak


def test_writers_stream_the_exports():
    a6 = build_root_system(AdeType("A", 6))
    graph = exchange_graph(a6, closing_depth(a6))
    head = {"schema_version": 1}
    # Each chunk holds at most _CHUNK_NODES nodes, or the edges of as many sources.
    chunks, text = list(graph.json_chunks(head)), graph.to_json(head)
    assert len(chunks) == 10 and max(map(len, chunks)) < len(text) * _CHUNK_NODES / len(graph.stack)


def test_closed_d4_exports_are_pinned():
    graph = exchange_graph(D4, closing_depth(D4))
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert sha(graph.to_json()) == "353633dee4002ed7839eae3b6333e0db52ddc246d6b087e8672c485798af02ab"
    assert sha(graph.to_dot()) == "4db3da51f1627ab00dbe6d79e2f5182e9da200691170da5b7eb8f43e921afa73"


def test_closed_a5_d5_exports_are_pinned():
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    a5 = exchange_graph(A5, closing_depth(A5))
    assert sha(a5.to_json()) == "ddef7af7afd519f4f75241af6fbf9495b59fb00e3a6f0262dd4b4525f611904b"
    assert sha(a5.to_dot()) == "17404717bbfe71e60f6de195b85ccc2fa046ae9700c22a9196c75cae9e1778d5"
    d5 = exchange_graph(D5, closing_depth(D5))
    assert sha(d5.to_json()) == "8075ac4f6cb3ad90eb7efb92c72d2e4986d7283894cfbd0676bdc4afee688970"
    assert sha(d5.to_dot()) == "3220e4ced1554753480a8c02cb8e2f53c356f0e5d8de5f8e2c7a25eaf5186119"


def test_closed_e6_exports_are_pinned():
    # Captured before the graph was stored as arrays and exported in chunks.
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    e6 = exchange_graph(E6, 37)
    assert sha(e6.to_json()) == "f992423c8cff8b04b25f383662457bab110dbd5b8b14d31b990c4e3ea7ac0534"
    assert sha(e6.to_dot()) == "ce0a263cd41cbf88a4c1f8ad8deb264baed87b8e9ed0ed64f6617db2c0788da8"


def adjacency(graph):
    """The graph's fields as plain Python values: the oracle of its JSON and human exports."""
    return {
        "rank": graph.rank,
        "depth": graph.depth,
        "complete": graph.complete,
        "nodes": graph.stack.tolist(),
        "edges": [
            {"src": src, "dst": dst, "position": pos, "direction": direction}
            for src, dst, pos, direction in graph.edges
        ],
    }


def _json_cases():
    ades = [AdeType("A", n) for n in range(1, 7)] + [AdeType("D", 4), AdeType("D", 5)]
    for ade in ades:
        for depth in (1, 2, 3, count_positive_roots(ade) + 1):
            yield pytest.param(ade, depth, id=f"{ade}-{depth}")
    for depth in (1, 2, 3, 4):
        yield pytest.param(AdeType("E", 6), depth, id=f"E6-{depth}")


@pytest.mark.parametrize("ade,depth", _json_cases())
def test_to_json_matches_stdlib_indent(ade, depth):
    graph = exchange_graph(build_root_system(ade), depth)
    assert graph.to_json() == json.dumps(adjacency(graph), indent=2)


def _reference_to_dot(graph):
    """One formatted line per node and per edge, as the oracle for the chunked DOT writer."""
    lines = ["digraph tilts {"]
    for idx, node in enumerate(graph.nodes):
        lines.append(f'  n{idx} [label="{";".join(",".join(map(str, v)) for v in node)}"];')
    for src, dst, pos, direction in graph.edges:
        lines.append(f'  n{src} -> n{dst} [label="{"F" if direction == FORWARD else "B"}:{pos}"];')
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize("ade,depth", _json_cases())
def test_to_dot_matches_reference_rendering(ade, depth):
    graph = exchange_graph(build_root_system(ade), depth)
    assert graph.to_dot() == _reference_to_dot(graph)


@pytest.mark.parametrize("ade,depth", _json_cases())
def test_human_chunks_match_render_human_of_the_adjacency(ade, depth):
    # The reference is human output as the CLI built it before it streamed:
    # render_human over the whole adjacency, one dict per edge.
    graph = exchange_graph(build_root_system(ade), depth)
    head = {"schema_version": 1, "command": "tilt-graph", "inputs": {"family": ade.family, "depth": depth}}
    text = "".join(graph.human_chunks(render_human(head)))
    assert text == render_human({**head, **adjacency(graph)})
    assert "".join(graph.human_chunks()) == render_human(adjacency(graph))


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("ade,depth", _json_cases())
def test_exports_across_chunk_boundaries(monkeypatch, chunk, ade, depth):
    monkeypatch.setattr("adesystole.actions._CHUNK_NODES", chunk)
    graph = exchange_graph(build_root_system(ade), depth)
    chunks = list(graph.json_chunks())
    assert len(chunks) == 4 + -(-len(graph.stack) // chunk) + -(-len(graph.targets) // chunk)
    assert "".join(chunks) == json.dumps(adjacency(graph), indent=2)
    assert graph.to_dot() == _reference_to_dot(graph)
    assert "".join(graph.human_chunks()) == render_human(adjacency(graph))


def _lone_node_graph():
    """The start node of a rank-1 graph, left unexpanded."""
    return ExchangeGraph(1, np.ones((1, 1, 1), np.int8), np.empty((0, 1), np.int32), (0, 1), 1, False)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize(
    "graph",
    [exchange_graph(A3, closing_depth(A3)), exchange_graph(D4, 3), _lone_node_graph()],
    ids=["A3-closed", "D4-3", "lone"],
)
def test_views_match_the_built_tuples_across_chunk_boundaries(monkeypatch, chunk, graph):
    monkeypatch.setattr("adesystole.actions._CHUNK_NODES", chunk)
    for view, reference in ((graph.nodes, _node_tuples(graph.stack)), (graph.edges, _edge_tuples(graph.targets))):
        assert len(view) == len(reference)
        assert tuple(view) == reference
        assert [view[i] for i in range(-len(view), len(view))] == [*reference, *reference]
        # json.dumps rejects numpy integers: the items hold Python ints and strs.
        assert json.dumps(view[:]) == json.dumps(reference)
        if reference:
            assert view[np.int64(-1)] == reference[-1]
            assert view != reference[:-1] and view != [None, *reference[1:]]
        for part in (slice(None), slice(1, 5), slice(-4, None), slice(None, None, -3), slice(7, 2), slice(2, 99, 5)):
            assert view[part] == reference[part] and type(view[part]) is tuple
        with pytest.raises(IndexError):
            view[len(view)]
        with pytest.raises(IndexError):
            view[-len(view) - 1]
        with pytest.raises(TypeError):
            view[1.0]
        assert view == reference and reference == view and view == list(reference)
        assert view != [*reference, None] and view != 5
        with pytest.raises(TypeError):
            hash(view)


def test_human_chunks_of_an_edgeless_graph():
    graph = _lone_node_graph()
    text = "".join(graph.human_chunks("command: tilt-graph"))
    assert text == render_human({"command": "tilt-graph", **adjacency(graph)})
    assert text.endswith("\nnodes: [[[1]]]\nedges: []")


@pytest.mark.parametrize("values,width", [([-100] * 10, 100), ([-100] * 2 + [100] * 9, 101)], ids=["100", "101"])
def test_human_chunks_keep_the_100_character_line(values, width):
    # A chain of rank-1 nodes whose node list is `width` characters on one line.
    stack, targets = np.array(values, np.int8).reshape(-1, 1, 1), np.arange(1, len(values), dtype=np.int32)[:, None]
    graph = ExchangeGraph(1, stack, targets, tuple(range(len(values) + 1)), len(values), False)
    assert graph.edges[-1] == (len(values) - 2, len(values) - 1, 1, BACKWARD)
    assert len(json.dumps(adjacency(graph)["nodes"])) == width
    assert "".join(graph.human_chunks()) == render_human(adjacency(graph))


def test_human_chunks_decide_the_node_line_from_15_nodes(monkeypatch):
    spans, render = [], ExchangeGraph._node_text
    monkeypatch.setattr(ExchangeGraph, "_node_text", lambda g, fmt, a, b: spans.append(b - a) or render(g, fmt, a, b))
    graph = exchange_graph(A5, closing_depth(A5))
    chunks = graph.human_chunks()
    assert spans == [15]  # decided before the first chunk, from 15 of the 720 nodes
    assert "".join(chunks) == render_human(adjacency(graph))


def test_to_json_head_and_empty_arrays_match_stdlib():
    head = {"schema_version": 1, "inputs": {"family": "A", "tag": 'q"\n'}, "empty": {}, "none": []}
    graph = _lone_node_graph()
    assert graph.to_json() == json.dumps(adjacency(graph), indent=2)
    assert graph.to_json(head) == json.dumps({**head, **adjacency(graph)}, indent=2)


def test_depth_cap_leaves_frontier_unexpanded():
    graph = exchange_graph(A2, 1)
    # Forward and backward tilts agree on classes, so one step from the
    # start gives two distinct neighbors.
    assert len(graph.nodes) == 3
    assert not graph.complete
    assert graph.targets.shape == (1, 2)  # only the start is expanded, with 4 labelled edges


def test_graph_determinism():
    first = exchange_graph(D4, 5)
    second = exchange_graph(D4, 5)
    assert first.nodes == second.nodes
    assert first.edges == second.edges


def test_graph_requires_positive_depth():
    with pytest.raises(ValueError):
        exchange_graph(A2, 0)


@pytest.mark.parametrize("depth", [True, 2.5], ids=["bool", "float"])
def test_graph_rejects_bool_and_non_integer_depth(depth):
    with pytest.raises(ValueError, match="max_depth must be an integer"):
        exchange_graph(A2, depth)


def test_dot_export():
    text = exchange_graph(A2, 2).to_dot()
    assert text.startswith("digraph tilts {")
    assert 'label="1,0;0,1"' in text
    assert 'label="F:1"' in text and 'label="B:2"' in text
    assert text.rstrip().endswith("}")


def test_json_adjacency_round_trip():
    graph = exchange_graph(A2, 2)
    payload = json.loads(graph.to_json())
    assert payload["rank"] == 2
    assert payload["nodes"][0] == [[1, 0], [0, 1]]
    assert len(payload["edges"]) == 2 * graph.targets.size
    directions = {edge["direction"] for edge in payload["edges"]}
    assert directions == {FORWARD, BACKWARD}


# == Equivariance checks =====================================================

def test_equivariance_real_shift_changes_nothing():
    report = verify_action_equivariance(A2, [1j, 2j], 0.75)
    assert report.passed
    assert report.sys_scaling_error < 1e-12
    assert report.vol_scaling_error < 1e-12


def test_equivariance_imaginary_shift_multiplier():
    z = np.array([1j, 2j])
    expected = math.exp(-2 * math.pi) * volume_roots(A2, z)
    assert volume_roots(A2, act_scaling(z, -1j)) == pytest.approx(expected)
    report = verify_action_equivariance(A2, z, -1j)
    assert report.passed


@pytest.mark.parametrize("ade", SMALL_TYPES, ids=str)
def test_equivariance_random_trials(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(ade.rank)
    z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
    report = verify_action_equivariance(rs, z, 0.5 - 0.5j, trials=50, seed=2024)
    assert report.trials == 50
    assert report.passed
    assert report.ratio_error <= 1e-12


def _reference_equivariance(rs, z0, zeta, trials, seed):
    """The per-call kernels' loop: three systole_upper and three
    volume_roots calls per pair, plus one volume_roots per reflection."""

    def rel_err(measured, expected):
        return abs(measured - expected) / max(1.0, abs(expected))

    rng = np.random.default_rng(seed)
    pairs = [(np.asarray(z0, dtype=complex), complex(zeta))]
    for _ in range(trials - 1):
        z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        while not z.all():
            z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        pairs.append((z, complex(rng.uniform(-2, 2), rng.uniform(-1, 1))))
    sys_err = vol_err = ref_err = ratio_err = 0.0
    for z, zt in pairs:
        sys0 = systole_upper(rs, z)
        vol0 = volume_roots(rs, z)
        scaled = act_scaling(z, zt)
        mult = math.exp(math.pi * zt.imag)
        sys_err = max(sys_err, rel_err(systole_upper(rs, scaled), mult * sys0))
        vol_err = max(vol_err, rel_err(volume_roots(rs, scaled), mult**2 * vol0))
        for i in range(1, rs.rank + 1):
            ref_err = max(ref_err, rel_err(volume_roots(rs, reflect_charge(rs, i, z)), vol0))
        ratio0 = sys0**2 / vol0
        ratio1 = systole_upper(rs, scaled) ** 2 / volume_roots(rs, scaled)
        ratio_err = max(ratio_err, abs(ratio1 - ratio0) / max(1.0, abs(ratio0)))
    return actions.EquivarianceReport(
        trials=len(pairs),
        sys_scaling_error=sys_err,
        vol_scaling_error=vol_err,
        reflect_error=ref_err,
        ratio_error=ratio_err,
    )


@pytest.mark.parametrize("seed", [0, 2024])
@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_equivariance_report_matches_the_per_kernel_loop(ade, seed):
    # One check_inequality per charge gives the same bits as the kernels.
    rs = build_root_system(ade)
    rng = np.random.default_rng([seed, rs.rank])
    z0 = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
    zeta = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
    report = verify_action_equivariance(rs, z0, zeta, trials=5, seed=seed)
    assert report == _reference_equivariance(rs, z0, zeta, 5, seed)
    assert report.trials == 5 and report.passed


def test_equivariance_reflect_invariance_each_vertex():
    rng = np.random.default_rng(77)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vol = volume_roots(D4, z)
    for i in range(1, 5):
        assert volume_roots(D4, reflect_charge(D4, i, z)) == pytest.approx(vol, rel=1e-9)


def test_equivariance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_action_equivariance(A2, [0, 0], 1j)
    with pytest.raises(ValueError):
        verify_action_equivariance(A2, [1j, 1j], 1j, trials=0)
    with pytest.raises(ValueError, match="systole squared"):
        verify_action_equivariance(A2, [1e-200j, 1j], 0)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"trials": True}, "trials must be an integer, got True"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": "3"}, "trials must be an integer, got '3'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
        ({"seed": 2**64}, "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    ],
    ids=["trials-bool", "trials-float", "trials-str", "seed-float", "seed-bool", "seed-negative", "seed-2**64"],
)
def test_equivariance_rejects_bool_non_integer_and_out_of_range_trials_and_seed(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_action_equivariance(A2, [1j, 2j], 0.75, **kwargs)


def test_equivariance_pairs_are_streamed():
    # Each seeded pair is drawn when it is checked, so the memory does not
    # grow with the trials (a list of pairs held about 150 B a trial on A2).
    def peak(trials):
        tracemalloc.start()
        try:
            verify_action_equivariance(A2, [1j, 2j], 0.75, trials=trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first call imports what the kernels load lazily
    assert abs(peak(5000) - peak(500)) < 64 * 2**10


def test_equivariance_takes_numpy_integers_and_the_largest_seed():
    report = verify_action_equivariance(A2, [1j, 2j], 0.75, trials=np.int64(3), seed=2**64 - 1)
    assert report.trials == 3 and report.passed


def test_equivariance_charges_out_of_float_range_are_bad_input():
    # sys^2 overflows or underflows: bad input, a ValueError, not an ArithmeticError.
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="volume evaluates to inf"):
        verify_action_equivariance(A2, [1e200j, 1e200j], 0)
    with pytest.raises(ValueError, match="systole squared evaluates to 0.0"):
        verify_action_equivariance(A2, [1e-200j, 1j], 0)
    # In range, but rescaled by exp(pi * 100) ~ 1e136 out of it.
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="zeta = 100j"):
        verify_action_equivariance(A2, [1e100j, 1e100j], 100j)


@pytest.mark.parametrize("zeta", [300j, -300j, 200j, -200j, complex("nan+1j"), complex(0, math.inf)])
def test_equivariance_rejects_zeta_out_of_range(zeta):
    # at |Im zeta| = 200 the rescaled charge is finite but its volume overflows
    with pytest.raises(ValueError, match="zeta"):
        verify_action_equivariance(A2, [1j, 1j], zeta)


def test_equivariance_large_zeta_in_range_passes():
    assert verify_action_equivariance(A2, [1j, 1j], 0.5 + 100j).passed


def test_ratio_invariant_under_scaling():
    rng = np.random.default_rng(123)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ratio = systole_upper(A3, z) ** 2 / volume_roots(A3, z)
    for zeta in (1.5, -0.25j, 0.3 + 0.8j):
        scaled = act_scaling(z, zeta)
        scaled_ratio = systole_upper(A3, scaled) ** 2 / volume_roots(A3, scaled)
        assert abs(scaled_ratio - ratio) <= 1e-12 * max(1.0, ratio)

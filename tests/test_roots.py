"""Root-engine tests: Cartan data, exact inverses, enumeration, identity.

Independent oracles used here:
  - the closed-form inverse entries for types A and D,
  - an explicit construction of the D_n positive roots by shape,
  - brute-force enumeration of norm-2 box vectors for E8.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from adesystole.roots import (
    AdeType,
    _bareiss,
    build_root_system,
    cartan_matrix,
    cartan_pairing,
    count_positive_roots,
    coxeter_number,
    verify_volume_identity,
)

ALL_SMALL_TYPES = (
    [AdeType("A", n) for n in range(1, 9)]
    + [AdeType("D", n) for n in range(4, 9)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)

ALL_TYPES = (
    [AdeType("A", n) for n in range(1, 33)]
    + [AdeType("D", n) for n in range(4, 33)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)


def basis_vector(n, i):
    return tuple(int(k == i - 1) for k in range(n))


# == AdeType validation ======================================================

@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("A", 33), ("D", 3), ("D", 33), ("E", 5), ("E", 9), ("B", 2), ("A", -1)],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        AdeType(family, rank)


def test_bool_rank_rejected():
    # bool is an int subclass; AdeType("A", True) would otherwise be "ATrue".
    for rank in (True, False):
        with pytest.raises(ValueError):
            AdeType("A", rank)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 32), ("D", 4), ("D", 32), ("E", 6)])
def test_valid_types_accepted(family, rank):
    assert AdeType(family, rank).rank == rank


def test_coxeter_table():
    assert [coxeter_number(AdeType("A", n)) for n in (1, 2, 5)] == [2, 3, 6]
    assert [coxeter_number(AdeType("D", n)) for n in (4, 6)] == [6, 10]
    assert [coxeter_number(AdeType("E", n)) for n in (6, 7, 8)] == [12, 18, 30]


# == Cartan matrices =========================================================

@pytest.mark.parametrize("ade", ALL_SMALL_TYPES, ids=str)
def test_cartan_structure(ade):
    mat = cartan_matrix(ade)
    n = ade.rank
    offdiag = 0
    for i in range(n):
        assert mat[i][i] == 2
        for j in range(n):
            assert mat[i][j] == mat[j][i]
            if i != j:
                assert mat[i][j] in (0, -1)
                offdiag += mat[i][j] == -1
    assert offdiag == 2 * (n - 1)  # underlying graph is a tree


def test_d_type_fork_labels():
    # The branch vertex n-2 touches n-3, n-1 and n.
    for n in (4, 5, 8):
        mat = cartan_matrix(AdeType("D", n))
        assert mat[n - 3][n - 2] == -1
        assert mat[n - 3][n - 1] == -1
        degree = sum(-mat[n - 3][j] for j in range(n) if j != n - 3)
        assert degree == 3


def test_e8_bourbaki_adjacency():
    mat = cartan_matrix(AdeType("E", 8))
    edges = {(i + 1, j + 1) for i in range(8) for j in range(i + 1, 8) if mat[i][j] == -1}
    assert edges == {(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)}


# == Exact inverse ===========================================================

@pytest.mark.parametrize("ade", ALL_SMALL_TYPES + [AdeType("A", 20), AdeType("D", 12)], ids=str)
def test_inverse_is_exact(ade):
    rs = build_root_system(ade)
    n = ade.rank
    inv = rs.cartan_inv
    for i in range(n):
        for j in range(n):
            entry = sum(Fraction(rs.cartan[i][k]) * inv[k][j] for k in range(n))
            assert entry == Fraction(int(i == j))


@pytest.mark.parametrize("n", range(1, 33))
def test_a_inverse_closed_form(n):
    inv = build_root_system(AdeType("A", n)).cartan_inv
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert inv[i - 1][j - 1] == Fraction(min(i, j)) - Fraction(i * j, n + 1)


@pytest.mark.parametrize("n", range(4, 33))
def test_d_inverse_closed_form(n):
    inv = build_root_system(AdeType("D", n)).cartan_inv
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if j <= n - 2:
                expected = Fraction(i)
            elif i <= n - 2:
                expected = Fraction(i, 2)
            elif i == j:
                expected = Fraction(n, 4)
            else:
                expected = Fraction(n - 2, 4)
            assert inv[i - 1][j - 1] == expected
            assert inv[j - 1][i - 1] == expected


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_cartan_determinant_closed_form(ade):
    # det C is the order of the weight lattice modulo the root lattice.
    expected = {"A": ade.rank + 1, "D": 4, "E": 9 - ade.rank}[ade.family]
    assert _bareiss(cartan_matrix(ade))[0] == expected


def test_inverse_spot_values():
    assert build_root_system(AdeType("A", 1)).cartan_inv[0][0] == Fraction(1, 2)
    a2 = build_root_system(AdeType("A", 2)).cartan_inv
    assert (a2[0][0], a2[0][1], a2[1][1]) == (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
    assert build_root_system(AdeType("D", 4)).cartan_inv[2][3] == Fraction(1, 2)


# == Positive-root enumeration ===============================================

def test_a3_positive_roots():
    rs = build_root_system(AdeType("A", 3))
    expected = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 1, 1),
    }
    assert set(rs.positive_roots) == expected
    assert len(rs.positive_roots) == 6


def test_a1_trivial():
    rs = build_root_system(AdeType("A", 1))
    assert rs.positive_roots == ((1,),)
    assert rs.coxeter == 2


@pytest.mark.parametrize(
    "ade,expected",
    [
        (AdeType("A", 4), 10),
        (AdeType("D", 4), 12),
        (AdeType("D", 5), 20),
        (AdeType("E", 6), 36),
        (AdeType("E", 7), 63),
        (AdeType("E", 8), 120),
    ],
    ids=str,
)
def test_counts(ade, expected):
    assert count_positive_roots(ade) == expected
    assert len(build_root_system(ade).positive_roots) == expected


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES + [AdeType("A", 16), AdeType("D", 11)], ids=str)
def test_count_matches_enumeration(ade):
    assert count_positive_roots(ade) == len(build_root_system(ade).positive_roots)


@pytest.mark.parametrize("n", range(4, 33))
def test_d_roots_match_explicit_construction(n):
    """Oracle: build the D_n positive roots by their four explicit shapes."""
    def root(coeffs):
        out = [0] * n
        for idx, c in coeffs:
            out[idx - 1] = c
        return tuple(out)

    expected = set()
    for i in range(1, n - 1):
        for j in range(i, n - 1):
            expected.add(root([(k, 1) for k in range(i, j + 1)]))
    for i in range(1, n):
        expected.add(root([(k, 1) for k in range(i, n - 1)] + [(n - 1, 1)]))
        expected.add(root([(k, 1) for k in range(i, n - 1)] + [(n, 1)]))
    for a in range(0, n - 2):
        for i in range(1, n - a - 1):
            coeffs = [(k, 1) for k in range(i, n - a - 1)]
            coeffs += [(k, 2) for k in range(n - a - 1, n - 1)]
            coeffs += [(n - 1, 1), (n, 1)]
            expected.add(root(coeffs))
    assert len(expected) == n * (n - 1)
    assert set(build_root_system(AdeType("D", n)).positive_roots) == expected


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES, ids=str)
def test_roots_have_norm_two(ade):
    rs = build_root_system(ade)
    for alpha in rs.positive_roots:
        assert cartan_pairing(rs, alpha, alpha) == 2


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES, ids=str)
def test_contains_simples(ade):
    rs = build_root_system(ade)
    roots = set(rs.positive_roots)
    for i in range(1, ade.rank + 1):
        assert basis_vector(ade.rank, i) in roots


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_positive_roots_sorted_by_height_then_tuple(ade):
    roots = build_root_system(ade).positive_roots
    assert list(roots) == sorted(roots, key=lambda a: (sum(a), a))
    assert len(set(roots)) == len(roots)


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES + [AdeType("A", 32), AdeType("D", 32)], ids=str)
def test_reflection_closure_is_idempotent(ade):
    rs = build_root_system(ade)
    roots = set(rs.positive_roots)
    cartan = np.array(rs.cartan)
    for alpha in rs.positive_roots:
        vec = np.array(alpha)
        pairings = cartan @ vec
        for i in range(ade.rank):
            beta = vec.copy()
            beta[i] -= pairings[i]
            if (beta >= 0).all():
                assert tuple(int(c) for c in beta) in roots


def test_e8_norm_two_box_enumeration():
    """Oracle: all vectors in the box 0..6 with Cartan norm 2 are exactly
    the enumerated positive roots (E8 minimal vectors have norm 2)."""
    rs = build_root_system(AdeType("E", 8))
    cartan = np.array(rs.cartan, dtype=np.int64)
    total = 7**8
    found = set()
    chunk = 1 << 19
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((idx.shape[0], 8), dtype=np.int64)
        rem = idx
        for col in range(7, -1, -1):
            digits[:, col] = rem % 7
            rem = rem // 7
        norms = np.einsum("ri,ij,rj->r", digits, cartan, digits)
        for row in digits[norms == 2]:
            found.add(tuple(int(c) for c in row))
    assert found == set(rs.positive_roots)
    assert len(found) == 120


# == Coefficient identity ====================================================

@pytest.mark.parametrize("ade", ALL_SMALL_TYPES, ids=str)
def test_identity_holds(ade):
    report = verify_volume_identity(build_root_system(ade))
    assert report.passed
    assert report.failures == ()
    assert report.pairs_checked == ade.rank * (ade.rank + 1) // 2


@pytest.mark.parametrize("ade", [AdeType("A", 12), AdeType("D", 10)], ids=str)
def test_identity_holds_at_larger_rank(ade):
    assert verify_volume_identity(build_root_system(ade)).passed


def test_identity_fails_with_wrong_coxeter():
    rs = build_root_system(AdeType("A", 5))
    broken = dataclasses.replace(rs, coxeter=rs.coxeter + 1)
    report = verify_volume_identity(broken)
    assert not report.passed
    assert len(report.failures) > 0
    i, j, lhs, rhs = report.failures[0]
    assert lhs != rhs
    assert 1 <= i <= j <= 5
    # The reported right side is the root sum over the sabotaged Coxeter number.
    coeff_sum = sum(a[i - 1] * a[j - 1] for a in rs.positive_roots)
    assert rhs == Fraction(coeff_sum, rs.coxeter + 1)

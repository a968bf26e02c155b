"""Root-engine tests: Cartan data, exact inverses, enumeration, identity.

Independent oracles used here:
  - the closed-form inverse entries for types A and D,
  - an explicit construction of the D_n positive roots by shape,
  - brute-force enumeration of norm-2 box vectors for E8,
  - Bareiss elimination, the exact inverse that the certified one must equal,
  - the positive roots raised by int64 numpy products, which the pure-Python
    enumeration must equal in order.
"""

import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

from adesystole import roots
from adesystole.roots import (
    AdeType,
    _positive_roots,
    build_root_system,
    cartan_matrix,
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


def _bareiss(rows) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """Exact (det, adjugate) of a square integer matrix, or (0, None) if singular.

    Fraction-free Gauss-Jordan on [M | I] (Bareiss, Math. Comp. 22, 1968):
    each division by the previous pivot is exact, and [M | I] ends as
    [d I | d M^-1] with d = +-det(M), the sign set by the row swaps."""
    n = len(rows)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k, p = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def _reference_positive_roots(cartan) -> tuple[tuple[int, ...], ...]:
    """Positive roots in (height, tuple) order, raised by int64 products.

    Each level's roots alpha pair with the simples as the rows of alpha @ C;
    alpha + e_i is raised wherever that pairing is -1."""
    c = np.array(cartan, dtype=np.int64)
    eye = np.eye(len(c), dtype=np.int64)
    level, found = sorted(map(tuple, eye.tolist())), []
    while level:
        found += level
        arr = np.array(level, dtype=np.int64)
        rows, cols = np.nonzero(arr @ c == -1)
        level = sorted(set(map(tuple, (arr[rows] + eye[cols]).tolist())))
    return tuple(found)


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


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8, np.intp])
def test_numpy_integer_rank_is_stored_as_an_int(integer):
    ade = AdeType("A", integer(3))
    assert type(ade.rank) is int
    assert ade == AdeType("A", 3) and hash(ade) == hash(AdeType("A", 3))
    assert str(ade) == "A3"
    assert build_root_system(ade) is build_root_system(AdeType("A", 3))
    assert json.loads(json.dumps(ade._asdict())) == {"family": "A", "rank": 3}
    with pytest.raises(ValueError, match="type D requires 4 <= rank <= 32, got 3"):
        AdeType("D", integer(3))


def test_records_are_immutable():
    ade = AdeType("D", 5)
    rs = build_root_system(ade)
    for record, name in ((ade, "rank"), (ade, "extra"), (rs, "coxeter"), (rs, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    rs.cartan_array  # a cached view is not an assignment
    assert (rs.coxeter, rs.rank, ade.rank) == (8, 5, 5) and not hasattr(rs, "extra")


def test_replacing_a_field_checks_it_like_a_new_type():
    assert AdeType("A", 3)._replace(family="D", rank=4) == AdeType("D", 4)
    with pytest.raises(ValueError, match="type D requires 4 <= rank <= 32, got 3"):
        AdeType("A", 3)._replace(family="D")


@pytest.mark.parametrize("ade", [AdeType("A", 1), AdeType("D", 7), AdeType("E", 8)], ids=str)
def test_records_pickle_and_equal_records_hash_equal(ade):
    rs = build_root_system(ade)
    rs.complex_root_matrix  # a cached view goes along
    for record in (ade, rs, verify_volume_identity(rs)):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)
    assert build_root_system(pickle.loads(pickle.dumps(ade))) is rs
    assert hash(AdeType(ade.family, np.int64(ade.rank))) == hash(ade)
    with pytest.raises(AttributeError):  # an equal plain tuple is not served from the cache
        build_root_system((ade.family, ade.rank))


@pytest.mark.parametrize("rank", [True, False, 3.0, 2.5, "3", None, Fraction(3), np.float64(3)])
def test_non_integer_rank_keeps_its_message(rank):
    with pytest.raises(ValueError) as info:
        AdeType("A", rank)
    assert str(info.value) == f"rank must be an integer, got {rank!r}"


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


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_certified_inverse_equals_the_bareiss_inverse(ade):
    det, adj = _bareiss(cartan_matrix(ade))
    rs = build_root_system(ade)
    assert (rs.determinant, rs.adjugate) == (det, adj)
    assert rs.cartan_inv == tuple(tuple(Fraction(x, det) for x in row) for row in adj)


def _rounded(inverse) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in inverse])


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_inverse_array_has_the_bits_of_the_rounded_fractions(ade):
    rs = build_root_system(ade)
    assert np.array_equal(rs.inverse_array, _rounded(rs.cartan_inv))
    assert rs.inverse_array.tobytes() == _rounded(rs.cartan_inv).tobytes()
    # One Fraction per distinct entry, built on first read.
    assert len({id(x) for row in rs.cartan_inv for x in row}) == len(set().union(*rs.adjugate))


@pytest.fixture
def cold_builds():
    """An empty build cache before and after, so no test sees another's build."""
    build_root_system.cache_clear()
    yield
    build_root_system.cache_clear()


@pytest.mark.parametrize("ade", [AdeType("A", 1), AdeType("A", 32), AdeType("D", 32), AdeType("E", 8)], ids=str)
@pytest.mark.parametrize("entry,unit", [((0, 0), 1), ((-1, 0), -1)], ids=["first+1", "last-1"])
def test_an_inverse_wrong_by_one_unit_is_never_returned(monkeypatch, cold_builds, ade, entry, unit):
    adjugate = roots._tree_adjugate

    def wrong(cartan):
        det, adj = adjugate(cartan)
        row, col = entry
        adj[row][col] += unit  # one adjugate entry a unit off
        return det, adj

    monkeypatch.setattr(roots, "_tree_adjugate", wrong)
    with pytest.raises(ArithmeticError, match=f"{ade} Cartan matrix"):
        build_root_system(ade)


@pytest.mark.parametrize("scale,exact", [(2, True), (-3, True), (0, False)])
def test_the_certificate_holds_for_any_nonzero_determinant(monkeypatch, cold_builds, scale, exact):
    # C A = d I with d != 0 proves C^-1 = A / d even when d is not det C.
    ade = AdeType("D", 7)
    det, adj = _bareiss(cartan_matrix(ade))
    adjugate = roots._tree_adjugate

    def scaled(cartan):
        d, a = adjugate(cartan)
        return scale * d, [[scale * x for x in row] for row in a]

    monkeypatch.setattr(roots, "_tree_adjugate", scaled)
    if not exact:
        with pytest.raises(ArithmeticError, match="not exact"):
            build_root_system(ade)
        return
    rs = build_root_system(ade)
    assert rs.cartan_inv == tuple(tuple(Fraction(x, det) for x in row) for row in adj)
    assert rs.inverse_array.tobytes() == _rounded(rs.cartan_inv).tobytes()


# == Positive-root enumeration ===============================================

@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_positive_roots_equal_the_int64_enumeration(ade):
    cartan = cartan_matrix(ade)
    found, expected = _positive_roots(cartan), _reference_positive_roots(cartan)
    assert found == expected  # element for element, in order
    assert all(type(c) is int for alpha in found for c in alpha)


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


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_roots_have_norm_two(ade):
    rs = build_root_system(ade)
    roots = np.array(rs.positive_roots, dtype=np.int64)
    assert (np.einsum("ri,ij,rj->r", roots, rs.cartan_array, roots) == 2).all()


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
    broken = rs._replace(coxeter=rs.coxeter + 1)
    report = verify_volume_identity(broken)
    assert not report.passed
    assert len(report.failures) > 0
    i, j, lhs, rhs = report.failures[0]
    assert lhs != rhs
    assert 1 <= i <= j <= 5
    # The reported right side is the root sum over the sabotaged Coxeter number.
    coeff_sum = sum(a[i - 1] * a[j - 1] for a in rs.positive_roots)
    assert rhs == Fraction(coeff_sum, rs.coxeter + 1)


def _reference_identity_failures(rs):
    """The identity's witnesses as the check found them with one Fraction per pair."""
    roots = np.array(rs.positive_roots, dtype=np.int64)
    gram = (roots.T @ roots).tolist()
    failures = []
    for i in range(rs.rank):
        for j in range(i, rs.rank):
            lhs, rhs = rs.cartan_inv[i][j], Fraction(gram[i][j], rs.coxeter)
            if lhs != rhs:
                failures.append((i + 1, j + 1, lhs, rhs))
    return tuple(failures)


def _off_by_one(rs, i, j, unit):
    """`rs` with the inverse entry (i, j), 0-based, moved by unit / h: the stored
    integers are scaled by h, so adding unit * d to one adjugate entry moves it."""
    h, d = rs.coxeter, rs.determinant
    adj = [[h * x for x in row] for row in rs.adjugate]
    adj[i][j] += unit * d
    return rs._replace(adjugate=tuple(map(tuple, adj)), determinant=h * d)


@pytest.mark.parametrize(
    "ade", [AdeType("A", 1), AdeType("A", 5), AdeType("D", 6), AdeType("E", 7), AdeType("D", 32)], ids=str
)
def test_identity_witnesses_match_the_fraction_check(ade):
    rs = build_root_system(ade)
    n, h = rs.rank, rs.coxeter
    doctored = [rs._replace(coxeter=c) for c in (h + 1, h - 1, 2 * h, -h)]
    doctored += [_off_by_one(rs, 0, 0, 1), _off_by_one(rs, 0, n - 1, -1), _off_by_one(rs, n - 1, 0, 1)]
    for broken in doctored:
        report, expected = verify_volume_identity(broken), _reference_identity_failures(broken)
        assert report.failures == expected and report.passed == (not expected)
        assert report.pairs_checked == n * (n + 1) // 2
    # Only i <= j is checked: an entry below the diagonal goes unseen.
    assert verify_volume_identity(doctored[-1]).passed == (n > 1)

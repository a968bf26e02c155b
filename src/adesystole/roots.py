"""ADE root-system data built by exact arithmetic.

A root system here is the K-theoretic shadow of an ADE graph: its Cartan
matrix, the exact rational inverse, the Coxeter number, and the positive
roots written as integer coefficient vectors in the basis of simples.
One fraction-free elimination gives the inverse, the positive roots are
raised height by height, and one R^T R product checks the identity.
Vertices carry the labels 1..n used throughout: type A is the chain
1-2-...-n, type D is the chain 1-...-(n-1) with vertex n attached to
vertex n-2, and types E6/E7/E8 use the Bourbaki numbering (chain
1-3-4-...-n with vertex 2 attached to vertex 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

RootClass = tuple[int, ...]

FAMILIES = ("A", "D", "E")

# Rank-dependent Coxeter numbers; E types are fixed constants.
_E_COXETER = {6: 12, 7: 18, 8: 30}
_E_ROOT_COUNT = {6: 36, 7: 63, 8: 120}

MAX_RANK_AD = 32


@dataclass(frozen=True)
class AdeType:
    """A simply-laced family letter plus a rank, e.g. AdeType('D', 5)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if isinstance(self.rank, bool) or not isinstance(self.rank, int):
            raise ValueError(f"rank must be an integer, got {self.rank!r}")
        n = self.rank
        if self.family == "A" and not 1 <= n <= MAX_RANK_AD:
            raise ValueError(f"type A requires 1 <= rank <= {MAX_RANK_AD}, got {n}")
        if self.family == "D" and not 4 <= n <= MAX_RANK_AD:
            raise ValueError(f"type D requires 4 <= rank <= {MAX_RANK_AD}, got {n}")
        if self.family == "E" and n not in (6, 7, 8):
            raise ValueError(f"type E requires rank in (6, 7, 8), got {n}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def coxeter_number(ade: AdeType) -> int:
    """Coxeter number: n+1 for A_n, 2(n-1) for D_n, 12/18/30 for E6/E7/E8."""
    if ade.family == "A":
        return ade.rank + 1
    if ade.family == "D":
        return 2 * (ade.rank - 1)
    return _E_COXETER[ade.rank]


def _edges(ade: AdeType) -> list[tuple[int, int]]:
    """Adjacent vertex pairs (0-based) of the underlying graph."""
    n = ade.rank
    if ade.family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if ade.family == "D":
        # Chain 1..n-1 with the extra vertex n forking off vertex n-2.
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    # Bourbaki: chain 1-3-4-5-...-n, branch vertex 2 attached to vertex 4.
    chain = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    return chain + [(1, 3)]


def cartan_matrix(ade: AdeType) -> tuple[tuple[int, ...], ...]:
    """Symmetric Cartan matrix: 2 on the diagonal, -1 at adjacent pairs."""
    n = ade.rank
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in _edges(ade):
        mat[i][j] = mat[j][i] = -1
    return tuple(tuple(row) for row in mat)


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


def _positive_roots(cartan) -> tuple[RootClass, ...]:
    """Positive roots in (height, tuple) order, raised height by height.

    In a simply-laced system, alpha + e_i is a root for a positive root
    alpha != e_i iff <alpha, e_i> = -1, and every root of height > 1 is
    reached this way from one of height one less."""
    c = np.array(cartan, dtype=np.int64)
    eye = np.eye(len(c), dtype=np.int64)
    level, roots = sorted(map(tuple, eye.tolist())), []
    while level:
        roots += level
        arr = np.array(level, dtype=np.int64)
        rows, cols = np.nonzero(arr @ c == -1)
        level = sorted(set(map(tuple, (arr[rows] + eye[cols]).tolist())))
    return tuple(roots)


@dataclass(frozen=True)
class RootSystem:
    """Cartan data plus the enumerated positive roots of one ADE type."""

    ade: AdeType
    cartan: tuple[tuple[int, ...], ...]
    cartan_inv: tuple[tuple[Fraction, ...], ...]
    coxeter: int
    positive_roots: tuple[RootClass, ...]

    @property
    def rank(self) -> int:
        return self.ade.rank

    @cached_property
    def bound(self) -> Fraction:
        """The systolic bound h/n of sys^2 <= (h/n) vol."""
        return Fraction(self.coxeter, self.rank)

    @cached_property
    def cartan_array(self) -> np.ndarray:
        """Cartan matrix as an integer numpy array."""
        return np.array(self.cartan, dtype=np.int64)

    @cached_property
    def inverse_array(self) -> np.ndarray:
        """Inverse Cartan matrix rounded into floats, for numeric work."""
        return np.array([[float(x) for x in row] for row in self.cartan_inv])

    @cached_property
    def root_matrix(self) -> np.ndarray:
        """Positive roots stacked as rows of a float array."""
        return np.array(self.positive_roots, dtype=np.float64)

    @cached_property
    def complex_root_matrix(self) -> np.ndarray:
        """`root_matrix` cast once to complex128, so a product with a complex
        charge does not cast the whole matrix again on every call."""
        return self.root_matrix.astype(np.complex128)


@lru_cache(maxsize=None)
def build_root_system(ade: AdeType) -> RootSystem:
    """Assemble the full root-system record for one ADE type.

    Results are cached; RootSystem is immutable, so sharing is safe.
    """
    cartan = cartan_matrix(ade)
    det, adj = _bareiss(cartan)
    return RootSystem(
        ade=ade,
        cartan=cartan,
        cartan_inv=tuple(tuple(Fraction(x, det) for x in row) for row in adj),
        coxeter=coxeter_number(ade),
        positive_roots=_positive_roots(cartan),
    )


def count_positive_roots(ade: AdeType) -> int:
    """Closed-form count of positive roots: n(n+1)/2, n(n-1), or 36/63/120."""
    n = ade.rank
    if ade.family == "A":
        return n * (n + 1) // 2
    if ade.family == "D":
        return n * (n - 1)
    return _E_ROOT_COUNT[n]


def cartan_pairing(rs: RootSystem, alpha, beta) -> int:
    """Integer symmetric pairing alpha^T . Cartan . beta."""
    n = rs.rank
    if len(alpha) != n or len(beta) != n:
        raise ValueError("class vector length does not match rank")
    cartan = rs.cartan
    return sum(alpha[i] * cartan[i][j] * beta[j] for i in range(n) for j in range(n))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the exact coefficient identity check.

    For each index pair i <= j the inverse-Cartan entry is compared with
    the Coxeter-normalized sum of coefficient products over the positive
    roots; `failures` lists (i, j, inverse_entry, root_sum) witnesses.
    """

    passed: bool
    pairs_checked: int
    failures: tuple[tuple[int, int, Fraction, Fraction], ...]


def verify_volume_identity(rs: RootSystem) -> IdentityReport:
    """Check, in exact rational arithmetic, that for every pair i <= j the
    (i,j) entry of the inverse Cartan matrix equals the sum of c_i(M)c_j(M)
    over positive roots M divided by the Coxeter number.  The sums are the
    entries of R^T R, R the integer matrix with the positive roots as rows."""
    n = rs.rank
    roots = np.array(rs.positive_roots, dtype=np.int64)
    gram = (roots.T @ roots).tolist()
    failures = []
    for i in range(n):
        for j in range(i, n):
            lhs = rs.cartan_inv[i][j]
            rhs = Fraction(gram[i][j], rs.coxeter)
            if lhs != rhs:
                failures.append((i + 1, j + 1, lhs, rhs))
    pairs = n * (n + 1) // 2
    return IdentityReport(passed=not failures, pairs_checked=pairs, failures=tuple(failures))

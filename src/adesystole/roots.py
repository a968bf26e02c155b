"""ADE root-system data built by exact arithmetic.

A root system here is the K-theoretic shadow of an ADE graph: its Cartan
matrix, the exact rational inverse, the Coxeter number, and the positive
roots written as integer coefficient vectors in the basis of simples.
Vertices carry the labels 1..n used throughout: type A is the chain
1-2-...-n, type D is the chain 1-...-(n-1) with vertex n attached to
vertex n-2, and types E6/E7/E8 use the Bourbaki numbering (chain
1-3-4-...-n with vertex 2 attached to vertex 4).
"""

from __future__ import annotations

from collections import deque
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


def _fraction_inverse(mat) -> tuple[tuple[Fraction, ...], ...]:
    """Invert an integer matrix by Gauss-Jordan elimination over Fraction."""
    n = len(mat)
    work = [[Fraction(x) for x in row] for row in mat]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def _reflect(cartan, i0: int, alpha: RootClass) -> RootClass:
    """Simple reflection at 0-based vertex i0: alpha minus <alpha, e_i>e_i."""
    pairing = sum(cartan[i0][k] * alpha[k] for k in range(len(alpha)))
    out = list(alpha)
    out[i0] -= pairing
    return tuple(out)


def _enumerate_positive_roots(cartan) -> tuple[RootClass, ...]:
    """Close the simple roots under reflections, keeping nonnegative vectors."""
    n = len(cartan)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simples)
    queue = deque(simples)
    while queue:
        alpha = queue.popleft()
        for i in range(n):
            beta = _reflect(cartan, i, alpha)
            if beta not in seen and all(c >= 0 for c in beta):
                seen.add(beta)
                queue.append(beta)
    return tuple(sorted(seen, key=lambda a: (sum(a), a)))


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
    return RootSystem(
        ade=ade,
        cartan=cartan,
        cartan_inv=_fraction_inverse(cartan),
        coxeter=coxeter_number(ade),
        positive_roots=_enumerate_positive_roots(cartan),
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
    over positive roots M divided by the Coxeter number."""
    n = rs.rank
    failures = []
    pairs = 0
    for i in range(n):
        for j in range(i, n):
            pairs += 1
            coeff_sum = sum(alpha[i] * alpha[j] for alpha in rs.positive_roots)
            lhs = rs.cartan_inv[i][j]
            rhs = Fraction(coeff_sum, rs.coxeter)
            if lhs != rhs:
                failures.append((i + 1, j + 1, lhs, rhs))
    return IdentityReport(passed=not failures, pairs_checked=pairs, failures=tuple(failures))

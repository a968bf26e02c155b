"""ADE root-system data built by exact arithmetic.

A root system here is the K-theoretic shadow of an ADE graph: its Cartan
matrix, the exact rational inverse, the Coxeter number, and the positive
roots written as integer coefficient vectors in the basis of simples.
All of it is integer work in plain Python: C^-1 is an integer adjugate
over the Dynkin tree, certified by one integer product, and the positive
roots are raised height by height.  numpy is imported only by the array
views of a RootSystem and by the identity check's R^T R product.
Vertices carry the labels 1..n used throughout: type A is the chain
1-2-...-n, type D is the chain 1-...-(n-1) with vertex n attached to
vertex n-2, and types E6/E7/E8 use the Bourbaki numbering (chain
1-3-4-...-n with vertex 2 attached to vertex 4).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

RootClass = tuple[int, ...]

FAMILIES = ("A", "D", "E")

# Rank-dependent Coxeter numbers; E types are fixed constants.
_E_COXETER = {6: 12, 7: 18, 8: 30}
_E_ROOT_COUNT = {6: 36, 7: 63, 8: 120}

MAX_RANK_AD = 32


def _check_int(name: str, value) -> None:
    """ValueError unless `value` is an integer; a bool, float or string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_class(alpha, rank: int, name: str = "class vector") -> RootClass:
    """`alpha` as a tuple of ints; ValueError unless it has `rank` integer entries."""
    alpha = tuple(alpha)
    if len(alpha) != rank:
        raise ValueError(f"{name} has length {len(alpha)}, expected {rank}")
    for j, c in enumerate(alpha, 1):
        if type(c) is not int:  # a tilt checks n^2 entries; a plain int needs no name formatted
            _check_int(f"{name} entry {j}", c)
    return tuple(map(int, alpha))


def _check_seed(seed) -> None:
    """ValueError unless `seed` is an integer that numpy's generators take."""
    _check_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


@dataclass(frozen=True)
class AdeType:
    """A simply-laced family letter plus a rank, e.g. AdeType('D', 5)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        _check_int("rank", self.rank)
        n = int(self.rank)
        object.__setattr__(self, "rank", n)  # a numpy rank is stored, hashed and dumped as an int
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


def _positive_roots(cartan) -> tuple[RootClass, ...]:
    """Positive roots in (height, tuple) order, raised height by height.

    In a simply-laced system, alpha + e_i is a root for a positive root
    alpha != e_i iff <alpha, e_i> = -1, and every root of height > 1 is
    reached this way from one of height one less.  Each root carries its
    pairings with the simples, C alpha, so alpha + e_i pairs as C alpha
    plus column i of C, which has at most four nonzeros."""
    n = len(cartan)
    column = [[(j, cartan[j][i]) for j in range(n) if cartan[j][i]] for i in range(n)]
    level = {tuple(int(i == j) for j in range(n)): [cartan[j][i] for j in range(n)] for i in range(n)}
    roots = []
    while level:
        raised = {}
        for alpha in sorted(level):
            roots.append(alpha)
            pairing = level[alpha]
            for i, p in enumerate(pairing):
                if p == -1:
                    beta = (*alpha[:i], alpha[i] + 1, *alpha[i + 1:])
                    if beta not in raised:
                        raised[beta] = up = pairing.copy()
                        for j, c in column[i]:
                            up[j] += c
        level = raised
    return tuple(roots)


def _tree_adjugate(cartan) -> tuple[int, list[list[int]]]:
    """(det C, adj C) in integers for a Cartan matrix whose graph is a tree,
    2 on the diagonal and -1 on the edges.

    Hang the tree from j; let D(v) be the determinant of the subtree at v
    and E(v) the product of D over v's children, so that D(v) = 2 E(v)
    minus, for each child c, E(c) E(v) / D(c).  Deleting the path from j
    to i leaves the subtrees hanging off it, so adj_ij is their product of
    determinants: adj_jj = E(j), and each step down to a child c divides
    out D(c) and multiplies in E(c).  A subtree depends only on the edge
    it hangs from, so each is measured once.  Every subtree of an ADE
    graph is a union of ADE graphs, so no D(v) is 0."""
    n = len(cartan)
    nbrs = [[k for k in range(n) if k != v and cartan[v][k]] for v in range(n)]

    @lru_cache(maxsize=None)
    def hanging(v, p):
        """(D(v), E(v)) for the subtree at v, hung from its neighbour p."""
        parts = [hanging(c, v) for c in nbrs[v] if c != p]
        e = math.prod(d for d, _ in parts)
        return 2 * e - sum(e_c * (e // d_c) for d_c, e_c in parts), e

    adj = [[0] * n for _ in range(n)]
    for j, row in enumerate(adj):  # adj C is symmetric: row j is column j
        row[j] = hanging(j, -1)[1]
        walk = [(j, -1)]
        for v, p in walk:  # outward from j, each vertex after its parent
            for c in nbrs[v]:
                if c != p:
                    d, e = hanging(c, v)
                    row[c] = row[v] // d * e
                    walk.append((c, v))
    return hanging(0, -1)[0], adj


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
        import numpy as np

        return np.array(self.cartan, dtype=np.int64)

    @cached_property
    def inverse_array(self) -> np.ndarray:
        """Inverse Cartan matrix rounded into floats, for numeric work."""
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.cartan_inv])

    @cached_property
    def complex_root_matrix(self) -> np.ndarray:
        """Positive roots stacked as rows of a complex128 array, so a product
        with a complex charge does not cast the whole matrix on every call."""
        import numpy as np

        return np.array(self.positive_roots, dtype=np.complex128)


@lru_cache(maxsize=None)
def build_root_system(ade: AdeType) -> RootSystem:
    """Assemble the full root-system record for one ADE type.

    The inverse is an integer adjugate proved exact: C A = d I with d != 0
    proves C^-1 = A / d, checked over the nonzeros of C; if not,
    ArithmeticError.  `_tree_adjugate` is exact only when the graph of
    `_edges` is a tree with no singular subtree; the tests compare it with
    an elimination on all 64 types, and this check keeps a wrong inverse
    from being returned where they do not run, as in an installed copy.
    Results are cached; RootSystem is immutable, so sharing is safe.
    """
    cartan = cartan_matrix(ade)
    det, adj = _tree_adjugate(cartan)
    # Row i of C A sums the rows of A that row i of C names: at most four.
    product = [
        [sum(col) for col in zip(*[[c * x for x in adj[k]] for k, c in enumerate(row) if c])] for row in cartan
    ]
    if det == 0 or product != [[det * (i == j) for j in range(ade.rank)] for i in range(ade.rank)]:
        raise ArithmeticError(f"the integer adjugate of the {ade} Cartan matrix is not exact")
    exact = {x: Fraction(x, det) for x in set().union(*adj)}  # one Fraction per distinct entry
    return RootSystem(
        ade=ade,
        cartan=cartan,
        cartan_inv=tuple(tuple(map(exact.__getitem__, row)) for row in adj),
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
    """Check, in exact arithmetic, that for every pair i <= j the (i,j)
    entry of the inverse Cartan matrix is the sum of c_i(M)c_j(M) over the
    positive roots M divided by the Coxeter number, a/b = g/h as a h = g b in
    integers.  The sums are R^T R, R the positive roots as float rows, exact:
    no root coefficient passes 6, so no partial sum passes |Phi+| 6^2 < 2^53."""
    import numpy as np

    n, h = rs.rank, rs.coxeter
    r = np.array(rs.positive_roots, dtype=np.float64)
    gram = (r.T @ r).astype(np.int64).tolist()
    failures = []
    for i in range(n):
        for j in range(i, n):
            lhs = rs.cartan_inv[i][j]
            if lhs.numerator * h != gram[i][j] * lhs.denominator:
                failures.append((i + 1, j + 1, lhs, Fraction(gram[i][j], h)))
    pairs = n * (n + 1) // 2
    return IdentityReport(passed=not failures, pairs_checked=pairs, failures=tuple(failures))

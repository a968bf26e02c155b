"""Plane point configurations and the matching-segment model for type A.

A configuration of n+1 distinct centered points is the geometric face of
a rank-n type-A charge: order the points, take successive differences as
the charge, and the modulus of the charge on the segment class
e_i + ... + e_j telescopes to the distance between points i and j+1.
Geometric systole and volume are the straight-segment infimum and the
normalized sum of squared segment lengths; both match their categorical
counterparts up to factors of pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from adesystole.roots import MAX_RANK_AD, AdeType, _check_int, build_root_system
from adesystole.stability import _NORMAL_MIN, _score

DISTINCT_REL_TOL = 1e-12
AREA_REL_TOL = 1e-9
CORRESPONDENCE_REL_TOL = 1e-9

# The triangle check visits n^3/6 triples in Python and the segment-class
# matrix holds n^3/2 complex entries: 256 points take seconds and about
# 0.2 GB, and a thousand would exhaust memory.
MAX_POINTS = 256


@dataclass(frozen=True)
class PointConfiguration:
    """n+1 distinct points with centroid zero, plus a labeling order.

    `points` keeps the construction-time (centered) input order; the k-th
    labeled point is labeled[k] = points[ordering[k]].  `general_position`
    records whether every triple spans a genuinely nonzero triangle.
    `segments` holds (i, j, l_ij) for 1 <= i <= j <= n, where l_ij is the
    distance between labeled points i and j+1, read from the distances
    that `validate_configuration` forms for its distinct-pair check.
    """

    points: tuple[complex, ...]
    ordering: tuple[int, ...]
    general_position: bool
    labeled: tuple[complex, ...] = field(repr=False, compare=False)
    segments: tuple[tuple[int, int, float], ...] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.points) - 1


def validate_configuration(raw_points, ordering=None) -> PointConfiguration:
    """Center, deduplicate-check, and label a raw list of points.

    At most MAX_POINTS points are taken, and every point must be finite;
    the centroid is subtracted on construction.
    The sum of the squared distances over all pairs of points, which is
    n+1 times the sum of the centered points' squared moduli, must be a
    normal float with a factor 2 to spare for round-off: every squared
    segment length and the geometric volume are then finite, and the
    volume is a normal float.
    Points closer together than DISTINCT_REL_TOL times the configuration
    scale are rejected with the offending pair.  The default labeling sorts
    by (real, imaginary); pass `ordering` (a permutation of 0..n) to
    override it.
    """
    pts = [complex(p) for p in raw_points]
    if len(pts) > MAX_POINTS:
        raise ValueError(f"at most {MAX_POINTS} points are supported, got {len(pts)}")
    for k, p in enumerate(pts, 1):
        if not cmath.isfinite(p):
            raise ValueError(f"point {k} is not finite: {p}")
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    center = sum(pts) / len(pts)
    pts = [p - center for p in pts]
    scale = max(abs(p) for p in pts)
    if scale == 0.0:
        raise ValueError("all points coincide (pair 1, 2)")
    size = len(pts) * sum(p.real * p.real + p.imag * p.imag for p in pts)
    if not _NORMAL_MIN <= 2.0 * size < math.inf:
        raise ValueError(
            f"points are out of float range: their sum of squared distances evaluates to {size!r}"
        )
    tol = DISTINCT_REL_TOL * scale
    spokes = [[q - p for q in pts[k + 1 :]] for k, p in enumerate(pts)]  # pts[l] - pts[k], l > k
    distances = [[abs(d) for d in spoke] for spoke in spokes]
    for k, row in enumerate(distances, 1):
        for l, length in enumerate(row, k + 1):
            if length <= tol:
                raise ValueError(f"points must be pairwise distinct (pair {k}, {l})")
    if ordering is None:
        order = tuple(sorted(range(len(pts)), key=lambda k: (pts[k].real, pts[k].imag)))
    else:
        order = tuple(ordering)
        for k, entry in enumerate(order, 1):
            _check_int(f"ordering entry {k}", entry)
        if sorted(order) != list(range(len(pts))):
            raise ValueError(f"ordering must be a permutation of 0..{len(pts) - 1}")
        order = tuple(map(int, order))
    floor = AREA_REL_TOL * scale**2
    general = all(  # every triangle a, b, c has a nonzero area
        abs((d * e.conjugate()).imag) / 2.0 > floor
        for spoke in spokes
        for d, e in combinations(spoke, 2)
    )
    # |pts[b] - pts[a]| is |pts[a] - pts[b]| bit for bit: read from the earlier point's row.
    segments = tuple(
        (i, j, distances[a][b - a - 1] if a < b else distances[b][a - b - 1])
        for i, a in enumerate(order, 1)
        for j, b in enumerate(order[i:], i)
    )
    labeled = tuple(pts[k] for k in order)
    return PointConfiguration(tuple(pts), order, general, labeled=labeled, segments=segments)


def geometric_systole(p: PointConfiguration) -> float:
    """pi times the shortest segment between two of the points."""
    return math.pi * min(length for _, _, length in p.segments)


def geometric_volume(p: PointConfiguration) -> float:
    """pi^2 / (n+1) times the sum of all squared segment lengths."""
    return math.pi**2 / (p.n + 1) * sum(length**2 for _, _, length in p.segments)


def induced_charge(p: PointConfiguration) -> np.ndarray:
    """Successive differences of the labeled points.

    With Z_i = zeta_{i+1} - zeta_i, the charge on e_i + ... + e_j
    telescopes to zeta_{j+1} - zeta_i, so every |Z(segment class)| equals
    the matching segment length.
    """
    zeta = p.labeled
    return np.array([zeta[k + 1] - zeta[k] for k in range(p.n)], dtype=np.complex128)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Both sides of the geometric/categorical matching, with errors."""

    n: int
    general_position: bool
    systole_geometric: float
    systole_categorical: float
    volume_geometric: float
    volume_categorical: float
    systole_rel_error: float
    volume_rel_error: float
    inequality_slack: float

    @property
    def passed(self) -> bool:
        return (
            self.systole_rel_error <= CORRESPONDENCE_REL_TOL
            and self.volume_rel_error <= CORRESPONDENCE_REL_TOL
            and self.inequality_slack >= -CORRESPONDENCE_REL_TOL * self.volume_geometric
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _segment_classes(n: int) -> np.ndarray:
    """The segment classes e_i + ... + e_j, the positive roots of A_n for any
    n, as complex rows in `build_root_system`'s (height, tuple) order: grid
    cell (a, b) is the segment of length a + 1 that ends at n - 1 - b.
    `verify_correspondence` lays them out only past A32, the last type
    with a root system, whose cached root matrix it takes up to there."""
    column = np.arange(n)
    last = n - 1 - column
    first = last - column[:, None]
    rows = (first[:, :, None] <= column) & (column <= last[:, None])
    return rows[first >= 0].astype(np.complex128)


def verify_correspondence(p: PointConfiguration) -> CorrespondenceReport:
    """Check the geometric quantities against the induced type-A charge.

    The geometric systole must be pi times the lower systole bound of the
    induced charge (for this charge the bound is attained: the stable
    classes are exactly the segment classes), the geometric volume pi^2
    times the root-sum volume, and the squared systole must stay below
    (n+1)/n times the volume.
    """
    z = induced_charge(p)
    n = p.n
    classes = build_root_system(AdeType("A", n)).complex_root_matrix if n <= MAX_RANK_AD else _segment_classes(n)
    sys_lower, vol = _score(classes, z, n, n + 1)[2:]
    sys_geo = geometric_systole(p)
    sys_cat = math.pi * sys_lower
    vol_geo = geometric_volume(p)
    vol_cat = math.pi**2 * vol
    return CorrespondenceReport(
        n=p.n,
        general_position=p.general_position,
        systole_geometric=sys_geo,
        systole_categorical=sys_cat,
        volume_geometric=vol_geo,
        volume_categorical=vol_cat,
        systole_rel_error=abs(sys_geo - sys_cat) / max(sys_geo, sys_cat),
        volume_rel_error=abs(vol_geo - vol_cat) / max(vol_geo, vol_cat),
        inequality_slack=(p.n + 1) / p.n * vol_geo - sys_geo**2,
    )


def points_from_coefficients(coeffs) -> list[complex]:
    """Roots of z^{n+1} + a_1 z^{n-1} + ... + a_n from its coefficients.

    The z^n coefficient is identically zero (centered polynomials), so the
    roots have centroid zero.  As in np.roots, they are the eigenvalues of
    the companion matrix without the zero trailing coefficients, then as
    many roots at 0.  Two Newton steps, p and p' from one Horner loop,
    polish them where both are finite and p' is nonzero, so a root whose p
    overflows keeps its eigenvalue.  Up to n = 8 the polish costs more than
    eigvals (15-80 us of a 90-200 us call on a 2-core Xeon VM, numpy 2.4).
    More than MAX_POINTS - 1 coefficients are rejected before any of it.
    """
    a = [complex(c) for c in coeffs]
    if not a:
        raise ValueError("need at least one coefficient")
    if len(a) >= MAX_POINTS:
        raise ValueError(
            f"at most {MAX_POINTS - 1} coefficients ({MAX_POINTS} points) are supported, got {len(a)}"
        )
    for k, c in enumerate(a, 1):
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient {k} is not finite: {c}")
    size = max(k for k, c in enumerate([1.0, 0.0] + a, 1) if c)  # up to the last nonzero
    poly = np.array([1.0 + 0j, 0.0 + 0j] + a)
    roots = np.zeros(len(poly) - size, dtype=np.complex128)
    if size > 1:
        companion = np.eye(size - 1, k=-1, dtype=np.complex128)
        companion[0] = -poly[1:size] / poly[0]
        roots = np.concatenate((np.linalg.eigvals(companion), roots))
    # p, and p' after a 0, with a column per root: a broadcast operand
    # would cost numpy's elementwise calls about twice as much.
    horner = np.zeros((len(poly), 2, len(roots)), dtype=np.complex128)
    horner[:, 0] = poly[:, None]
    horner[1:, 1] = (poly[:-1] * np.arange(len(poly) - 1, 0, -1))[:, None]  # as np.polyder forms it
    with np.errstate(all="ignore"):
        for _ in range(2):
            at = roots[None].repeat(2, axis=0)
            values = horner[0]  # p = 1 and p' = 0, as after a step from 0
            for c in horner[1:]:
                values = values * at + c
            safe = np.logical_and.reduce(np.isfinite(values)) & (values[1] != 0)
            roots = np.where(safe, roots - values[0] / values[1], roots)
    return roots.tolist()

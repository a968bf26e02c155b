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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from adesystole.roots import AdeType, build_root_system
from adesystole.stability import _NORMAL_MIN, systole_lower, volume_roots

CENTROID_REL_TOL = 1e-9
DISTINCT_REL_TOL = 1e-12
AREA_REL_TOL = 1e-9


@dataclass(frozen=True)
class PointConfiguration:
    """n+1 distinct points with centroid zero, plus a labeling order.

    `points` keeps the construction-time (centered) input order; the k-th
    labeled point is points[ordering[k]].  `general_position` records
    whether every triple spans a genuinely nonzero triangle.
    """

    points: tuple[complex, ...]
    ordering: tuple[int, ...]
    general_position: bool

    @property
    def n(self) -> int:
        return len(self.points) - 1

    @cached_property
    def labeled(self) -> tuple[complex, ...]:
        return tuple(self.points[k] for k in self.ordering)

    @cached_property
    def segments(self) -> SegmentLengths:
        """All pairwise distances, indexed so that l_ij joins points i and j+1;
        built once and shared by the geometric systole and volume."""
        zeta = self.labeled
        n = self.n
        entries = tuple(
            (i, j, abs(zeta[j] - zeta[i - 1])) for i in range(1, n + 1) for j in range(i, n + 1)
        )
        return SegmentLengths(n=n, entries=entries)


def _triangle_area(a: complex, b: complex, c: complex) -> float:
    return abs(((b - a) * (c - a).conjugate()).imag) / 2.0


def validate_configuration(raw_points, ordering=None) -> PointConfiguration:
    """Center, deduplicate-check, and label a raw list of points.

    Every point must be finite; the centroid is subtracted on construction.
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
    for k in range(len(pts)):
        for l in range(k + 1, len(pts)):
            if abs(pts[k] - pts[l]) <= DISTINCT_REL_TOL * scale:
                raise ValueError(f"points must be pairwise distinct (pair {k + 1}, {l + 1})")
    if ordering is None:
        order = tuple(sorted(range(len(pts)), key=lambda k: (pts[k].real, pts[k].imag)))
    else:
        order = tuple(int(k) for k in ordering)
        if sorted(order) != list(range(len(pts))):
            raise ValueError(f"ordering must be a permutation of 0..{len(pts) - 1}")
    general = all(
        _triangle_area(pts[a], pts[b], pts[c]) > AREA_REL_TOL * scale**2
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
        for c in range(b + 1, len(pts))
    )
    return PointConfiguration(points=tuple(pts), ordering=order, general_position=general)


@dataclass(frozen=True)
class SegmentLengths:
    """Distances l_ij between labeled points i and j+1, for 1 <= i <= j <= n."""

    n: int
    entries: tuple[tuple[int, int, float], ...]

    @cached_property
    def _table(self) -> dict:
        return {(i, j): value for i, j, value in self.entries}

    def get(self, i: int, j: int) -> float:
        return self._table[(i, j)]

    def min(self) -> float:
        return min(value for _, _, value in self.entries)

    def sum_squares(self) -> float:
        return sum(value**2 for _, _, value in self.entries)


def segment_lengths(p: PointConfiguration) -> SegmentLengths:
    """All pairwise distances, indexed so that l_ij joins points i and j+1."""
    return p.segments


def geometric_systole(p: PointConfiguration) -> float:
    """pi times the shortest segment between two of the points."""
    return math.pi * p.segments.min()


def geometric_volume(p: PointConfiguration) -> float:
    """pi^2 / (n+1) times the sum of all squared segment lengths."""
    return math.pi**2 / (p.n + 1) * p.segments.sum_squares()


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
    rel_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.systole_rel_error <= self.rel_tol
            and self.volume_rel_error <= self.rel_tol
            and self.inequality_slack >= -self.rel_tol * self.volume_geometric
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "general_position": self.general_position,
            "systole_geometric": self.systole_geometric,
            "systole_categorical": self.systole_categorical,
            "volume_geometric": self.volume_geometric,
            "volume_categorical": self.volume_categorical,
            "systole_rel_error": self.systole_rel_error,
            "volume_rel_error": self.volume_rel_error,
            "inequality_slack": self.inequality_slack,
            "passed": self.passed,
        }


def verify_correspondence(p: PointConfiguration, rel_tol: float = 1e-9) -> CorrespondenceReport:
    """Check the geometric quantities against the induced type-A charge.

    The geometric systole must be pi times the lower systole bound of the
    induced charge (for this charge the bound is attained: the stable
    classes are exactly the segment classes), the geometric volume pi^2
    times the root-sum volume, and the squared systole must stay below
    (n+1)/n times the volume.
    """
    rs = build_root_system(AdeType("A", p.n))
    z = induced_charge(p)
    sys_geo = geometric_systole(p)
    sys_cat = math.pi * systole_lower(rs, z)
    vol_geo = geometric_volume(p)
    vol_cat = math.pi**2 * volume_roots(rs, z)
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
        rel_tol=rel_tol,
    )


def points_from_coefficients(coeffs) -> list[complex]:
    """Roots of z^{n+1} + a_1 z^{n-1} + ... + a_n from its coefficients.

    The z^n coefficient is identically zero (centered polynomials), so the
    roots automatically have centroid zero.  Roots come from the companion
    matrix, then are polished by a couple of Newton steps.
    """
    a = [complex(c) for c in coeffs]
    if not a:
        raise ValueError("need at least one coefficient")
    poly = np.array([1.0 + 0j, 0.0 + 0j] + a)
    roots = np.roots(poly)
    deriv = np.polyder(poly)
    for _ in range(2):
        values = np.polyval(poly, roots)
        slopes = np.polyval(deriv, roots)
        safe = slopes != 0
        roots[safe] = roots[safe] - values[safe] / slopes[safe]
    return [complex(r) for r in roots]

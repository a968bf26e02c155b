"""Point-configuration tests: validation, lengths, systole/volume, matching."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from adesystole import milnor
from adesystole.milnor import (
    AREA_REL_TOL,
    MAX_POINTS,
    CorrespondenceReport,
    geometric_systole,
    geometric_volume,
    induced_charge,
    points_from_coefficients,
    validate_configuration,
    verify_correspondence,
)
from adesystole.roots import AdeType, _positive_roots, build_root_system
from adesystole.search import VIOLATION_REL_TOL
from adesystole.stability import evaluate_charge
from test_stability import outcome, reference_systole_lower, reference_volume_roots

CUBE_ROOTS = [1, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)]


def random_configuration(rng, n):
    pts = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return validate_configuration(pts)


# == Validation ==============================================================

def test_two_point_configuration():
    config = validate_configuration([1, -1])
    assert config.n == 1
    assert sum(config.points) == 0
    assert config.general_position  # no triples at all


def test_recentering():
    config = validate_configuration([0, 1, 2])
    assert config.points == (-1 + 0j, 0j, 1 + 0j)
    assert not config.general_position  # collinear triple


def test_cube_roots_are_general_position():
    config = validate_configuration(CUBE_ROOTS)
    assert config.general_position
    assert abs(sum(config.points)) < 1e-12


def reference_general_position(pts):
    """`validate_configuration`'s triangle test as it was written per
    triple, on a configuration's centred points."""
    scale = max(abs(p) for p in pts)
    return all(
        abs(((pts[b] - pts[a]) * (pts[c] - pts[a]).conjugate()).imag) / 2.0 > AREA_REL_TOL * scale**2
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
        for c in range(b + 1, len(pts))
    )


def general_position_cases(rng, n):
    """n + 1 points: random, on a line, and on a parabola bent off that
    line by 1e-3 to 1e-12 of the scale, so that the smallest triangle
    crosses AREA_REL_TOL."""
    yield rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    t = rng.permutation(n + 1) + rng.uniform(0.0, 0.5, n + 1)
    direction = cmath.exp(2j * math.pi * rng.uniform())
    shift = complex(*rng.standard_normal(2))
    yield t * direction + shift
    for exponent in range(3, 13):
        for mantissa in (1.0, 3.0):
            bend = mantissa * 10.0**-exponent * (t / (n + 1)) ** 2
            yield (t + 1j * bend * (n + 1)) * direction + shift


@pytest.mark.parametrize("n", range(1, 13))
def test_general_position_matches_reference(n):
    rng = np.random.default_rng(70_000 + n)
    decisions = set()
    for points in general_position_cases(rng, n):
        config = validate_configuration(points)
        assert config.general_position == reference_general_position(config.points), points
        decisions.add(config.general_position)
    assert decisions == ({True} if n == 1 else {True, False})


def test_duplicate_points_rejected_with_pair():
    with pytest.raises(ValueError, match=r"pair 1, 3"):
        validate_configuration([2, 5, 2, 7])
    with pytest.raises(ValueError):
        validate_configuration([1, 1])


@pytest.mark.parametrize("bad", [math.nan, complex(0, math.inf), complex(-math.inf, 1)])
def test_non_finite_point_rejected_by_position(bad):
    with pytest.raises(ValueError, match="point 2 is not finite"):
        validate_configuration([1, bad, 1j])


@pytest.mark.parametrize("scale", [1e200, 1.2e154, 1e-200, 1e-160])
def test_points_out_of_float_range_rejected(scale):
    # Squared distances that overflow (an OverflowError from a float power)
    # or underflow (a volume of 0 for distinct points) are bad input.
    with pytest.raises(ValueError, match="points are out of float range"):
        validate_configuration([scale, -scale, 1j * scale])


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_points_at_extreme_in_range_scales_are_checked(scale):
    report = verify_correspondence(validate_configuration([scale, -scale, 1j * scale]))
    assert report.passed
    assert math.isfinite(report.volume_geometric) and report.volume_geometric > 0


def test_too_many_points_rejected_before_quadratic_work():
    # A million points would take hours in the pairwise and triangle checks.
    with pytest.raises(ValueError, match=f"at most {MAX_POINTS} points are supported, got 1000000"):
        validate_configuration(np.arange(1_000_000) * (1 + 1j))
    with pytest.raises(ValueError, match=f"at most {MAX_POINTS} points are supported, got {MAX_POINTS + 1}"):
        validate_configuration(np.exp(2j * np.pi * np.arange(MAX_POINTS + 1) / (MAX_POINTS + 1)))


def test_point_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(milnor, "MAX_POINTS", 5)
    assert validate_configuration(np.exp(2j * np.pi * np.arange(5) / 5)).n == 4
    assert len(points_from_coefficients([0, 0, 0, 1])) == 5
    with pytest.raises(ValueError, match="at most 5 points"):
        validate_configuration(np.exp(2j * np.pi * np.arange(6) / 6))
    with pytest.raises(ValueError, match=r"at most 4 coefficients \(5 points\) are supported, got 5"):
        points_from_coefficients([0, 0, 0, 0, 1])


def test_too_many_coefficients_rejected_before_the_companion_matrix():
    # 10^5 coefficients would make a 10^5 x 10^5 companion matrix (160 GB).
    with pytest.raises(ValueError, match=f"at most {MAX_POINTS - 1} coefficients"):
        points_from_coefficients([1.0] * 100_000)
    assert len(points_from_coefficients([0.0] * (MAX_POINTS - 2) + [1.0])) == MAX_POINTS


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        validate_configuration([1])
    with pytest.raises(ValueError):
        validate_configuration([])


def test_default_ordering_is_lexicographic():
    config = validate_configuration([1, -1, 1j])
    labeled = config.labeled
    keys = [(z.real, z.imag) for z in labeled]
    assert keys == sorted(keys)


def test_explicit_ordering_override():
    config = validate_configuration([1, -1], ordering=[0, 1])
    assert config.labeled == (1 + 0j, -1 + 0j)
    assert induced_charge(config)[0] == -2
    with pytest.raises(ValueError):
        validate_configuration([1, -1], ordering=[0, 0])
    config = validate_configuration([1, -1, 1j], ordering=np.array([2, 0, 1]))
    assert config.ordering == (2, 0, 1)
    assert all(type(k) is int for k in config.ordering)


@pytest.mark.parametrize(
    "ordering, entry",
    [
        ([0.9, 1.2], "1 must be an integer, got 0.9"),
        ([0, 1.0], "2 must be an integer, got 1.0"),
        ([True, False], "1 must be an integer, got True"),
        (["1", "0"], "1 must be an integer, got '1'"),
    ],
)
def test_ordering_entries_must_be_integers(ordering, entry):
    with pytest.raises(ValueError, match=f"ordering entry {entry}"):
        validate_configuration([1, -1], ordering=ordering)


# == Segment lengths =========================================================

def test_segment_lengths_two_points():
    config = validate_configuration([1, -1])
    assert config.segments == ((1, 1, 2.0),)


def test_segment_lengths_cube_roots():
    segments = validate_configuration(CUBE_ROOTS).segments
    for i, j, value in segments:
        assert value == pytest.approx(math.sqrt(3))
    assert len(segments) == 3


def test_segment_lengths_built_once_per_configuration():
    config = validate_configuration([1, -1, 1j, -2j])
    assert type(config.segments) is tuple and config.segments is config.segments
    assert geometric_systole(config) == math.pi * min(value for _, _, value in config.segments)
    assert geometric_volume(config) == math.pi**2 / 4 * sum(value**2 for _, _, value in config.segments)
    # The stored lengths and labeled points stay out of repr and equality.
    assert repr(config) == (
        f"PointConfiguration(points={config.points!r}, ordering={config.ordering!r}, general_position=True)"
    )
    assert config == milnor.PointConfiguration(config.points, config.ordering, True, labeled=(), segments=())


def test_segment_lengths_collinear():
    config = validate_configuration([0, 1, 2])
    assert config.segments == ((1, 1, 1.0), (1, 2, 2.0), (2, 2, 1.0))


def test_lengths_are_all_pairwise_distances():
    rng = np.random.default_rng(3)
    config = random_configuration(rng, 5)
    pts = config.labeled
    expected = sorted(
        abs(pts[b] - pts[a]) for a in range(len(pts)) for b in range(a + 1, len(pts))
    )
    assert sorted(v for _, _, v in config.segments) == pytest.approx(expected)


# == Reference segments ======================================================
# The segment lengths as the configuration's cached property computed them,
# from the labeled points, and the systole and volume formulas over them:
# the lengths read from the distinct-pair check must match them by repr.

def reference_segments(config):
    zeta = config.labeled
    entries = tuple((i, j, abs(b - a)) for i, a in enumerate(zeta, 1) for j, b in enumerate(zeta[i:], i))
    systole = math.pi * min(value for _, _, value in entries)
    volume = math.pi**2 / (config.n + 1) * sum(value**2 for _, _, value in entries)
    return entries, systole, volume


def assert_segments_match_reference(config):
    assert repr(config.labeled) == repr(tuple(config.points[k] for k in config.ordering))
    entries, systole, volume = reference_segments(config)
    assert repr(config.segments) == repr(entries)
    assert repr(geometric_systole(config)) == repr(systole)
    assert repr(geometric_volume(config)) == repr(volume)


@pytest.mark.parametrize("n", range(1, 33))
def test_segments_match_reference(n):
    rng = np.random.default_rng(18_000 + n)
    for scale in (1e-150, 1.0, 1e150):
        pts = scale * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        default = validate_configuration(pts)
        for ordering in (None, default.ordering[::-1], rng.permutation(n + 1)):
            assert_segments_match_reference(validate_configuration(pts, ordering=ordering))
    for points in general_position_cases(rng, n):
        assert_segments_match_reference(validate_configuration(points))


# == Systole and volume ======================================================

def test_geometry_two_points():
    config = validate_configuration([1, -1])
    assert geometric_systole(config) == pytest.approx(2 * math.pi)
    assert geometric_volume(config) == pytest.approx(2 * math.pi**2)


def test_geometry_cube_roots():
    config = validate_configuration(CUBE_ROOTS)
    assert geometric_systole(config) == pytest.approx(math.pi * math.sqrt(3))
    assert geometric_volume(config) == pytest.approx(3 * math.pi**2)


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(11)
    base = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    config = validate_configuration(base)
    sys0, vol0 = geometric_systole(config), geometric_volume(config)
    rotated = validate_configuration(base * cmath.exp(0.37j))
    assert geometric_systole(rotated) == pytest.approx(sys0)
    assert geometric_volume(rotated) == pytest.approx(vol0)
    scaled = validate_configuration(base * 2.5)
    assert geometric_systole(scaled) == pytest.approx(2.5 * sys0)
    assert geometric_volume(scaled) == pytest.approx(2.5**2 * vol0)


def test_squared_systole_bounded_by_volume():
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        for _ in range(50):
            config = random_configuration(rng, n)
            sys2 = geometric_systole(config) ** 2
            bound = (n + 1) / n * geometric_volume(config)
            assert sys2 <= bound * (1 + 1e-12)


def test_two_point_equality_case():
    config = validate_configuration([1, -1])
    assert geometric_systole(config) ** 2 == pytest.approx(2 * geometric_volume(config))


# == Induced charge and matching =============================================

def test_induced_charge_examples():
    config = validate_configuration([1, -1])
    assert induced_charge(config) == pytest.approx(np.array([2 + 0j]))
    config = validate_configuration([0, 1, 2])
    assert induced_charge(config) == pytest.approx(np.array([1 + 0j, 1 + 0j]))


def test_charge_telescopes_to_lengths():
    rng = np.random.default_rng(40)
    for n in (2, 4, 6):
        config = random_configuration(rng, n)
        rs = build_root_system(AdeType("A", n))
        z = induced_charge(config)
        for i, j, value in config.segments:
            segment = tuple(int(i <= k + 1 <= j) for k in range(n))
            assert abs(evaluate_charge(rs, z, segment)) == pytest.approx(value)


def test_correspondence_two_points_exact():
    report = verify_correspondence(validate_configuration([1, -1]))
    assert report.passed
    assert report.systole_geometric == report.systole_categorical
    assert report.volume_geometric == pytest.approx(report.volume_categorical)
    assert report.inequality_slack == pytest.approx(0.0, abs=1e-12)


def test_correspondence_cube_roots():
    report = verify_correspondence(validate_configuration(CUBE_ROOTS))
    assert report.passed
    assert report.systole_rel_error < 1e-12
    assert report.volume_rel_error < 1e-12


def test_correspondence_random_configurations():
    rng = np.random.default_rng(52)
    for n in range(1, 6):
        for _ in range(40):
            report = verify_correspondence(random_configuration(rng, n))
            assert report.passed
            assert report.systole_rel_error <= 1e-9
            assert report.volume_rel_error <= 1e-9


@pytest.mark.parametrize("n", [*range(1, 9), 32, 33, 60])
def test_correspondence_sys_lower_is_within_its_proved_bound(n):
    # The n(n+1)/2 segment classes each have length >= the systole, so
    # vol >= (n/2) sys_lower^2, past A32 too.
    rng = np.random.default_rng(n)
    for _ in range(20):
        report = verify_correspondence(random_configuration(rng, n))
        ratio = report.systole_categorical**2 / report.volume_categorical
        assert ratio <= 2 / n * (1 + VIOLATION_REL_TOL)


def test_correspondence_collinear_configuration_still_checked():
    report = verify_correspondence(validate_configuration([0, 1, 2]))
    assert not report.general_position
    assert report.passed


# == Polynomial input ========================================================

def test_poly_two_points():
    pts = points_from_coefficients([-1])  # z^2 - 1
    config = validate_configuration(pts)
    assert sorted((z.real, z.imag) for z in config.points) == pytest.approx([(-1, 0), (1, 0)])


def test_poly_cube_roots_of_unity():
    pts = points_from_coefficients([0, -1])  # z^3 - 1
    config = validate_configuration(pts)
    expected = np.array(sorted((z.real, z.imag) for z in validate_configuration(CUBE_ROOTS).points))
    obtained = np.array(sorted((z.real, z.imag) for z in config.points))
    assert np.abs(obtained - expected).max() < 1e-12


def test_poly_roots_satisfy_polynomial():
    rng = np.random.default_rng(60)
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    pts = points_from_coefficients(coeffs)
    poly = np.array([1, 0, *coeffs])
    assert np.abs(np.polyval(poly, np.array(pts))).max() < 1e-9
    assert abs(sum(pts)) < 1e-9  # no z^n term means centroid zero


def test_poly_with_repeated_roots_rejected_downstream():
    pts = points_from_coefficients([0, 0])  # z^3: triple root at 0
    with pytest.raises(ValueError):
        validate_configuration(pts)


def test_poly_requires_coefficients():
    with pytest.raises(ValueError):
        points_from_coefficients([])


@pytest.mark.parametrize(
    "coeffs, k",
    [([math.nan], 1), ([1, math.inf], 2), ([0, 1, complex(0, math.nan)], 3), ([complex(-math.inf, 0)], 1)],
)
def test_poly_non_finite_coefficient_rejected_by_position(coeffs, k):
    with pytest.raises(ValueError, match=f"coefficient {k} is not finite"):
        points_from_coefficients(coeffs)


def test_poly_polish_keeps_roots_whose_value_overflows():
    # z^3 + 1e300 z + 1 has roots +-1e150 i and about -1e-300: p overflows at
    # the first two, so the polish leaves their eigenvalues as they are.
    pts = points_from_coefficients([1e300, 1])
    assert all(cmath.isfinite(p) for p in pts)
    assert sorted(abs(p) for p in pts) == pytest.approx([1e-300, 1e150, 1e150])
    report = verify_correspondence(validate_configuration(pts))
    assert report.passed


@pytest.mark.parametrize("count", [34, 40])
def test_correspondence_past_the_public_type_a_rank_cap(count):
    # The regular count-gon on the unit circle: its shortest segment is
    # 2 sin(pi / count), and its squared distances sum to count^2.
    points = np.exp(2j * np.pi * np.arange(count) / count)
    report = verify_correspondence(validate_configuration(points))
    assert report.n == count - 1 and report.passed
    assert report.systole_categorical == pytest.approx(2 * math.pi * math.sin(math.pi / count), rel=1e-12)
    assert report.volume_categorical == pytest.approx(math.pi**2 * count, rel=1e-12)


@pytest.mark.parametrize("n", range(1, 33))
def test_segment_classes_are_the_type_a_roots(n):
    expected = build_root_system(AdeType("A", n)).complex_root_matrix
    obtained = milnor._segment_classes(n)
    assert obtained.dtype == expected.dtype and np.array_equal(obtained, expected)


@pytest.mark.parametrize("n", [33, 40, 64])
def test_segment_classes_past_the_rank_cap_are_raised_roots(n):
    cartan = 2 * np.eye(n, dtype=int) - np.eye(n, k=1, dtype=int) - np.eye(n, k=-1, dtype=int)
    expected = np.array(_positive_roots(cartan), dtype=np.complex128)
    assert np.array_equal(milnor._segment_classes(n), expected)


def test_correspondence_keeps_no_segment_matrix():
    # Each call lays out 200 * 201 / 2 rows of 200 complex entries (64 MB);
    # none of it may outlive the call.  The segment lengths are stored on the
    # configuration when it is validated.
    config = validate_configuration(np.exp(2j * np.pi * np.arange(201) / 201))
    assert len(config.segments) == 200 * 201 // 2
    assert_segments_match_reference(config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert verify_correspondence(config).passed and verify_correspondence(config).passed
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1e6, kept


# == Reference polynomial roots and correspondence ===========================
# points_from_coefficients and verify_correspondence as they were when the
# roots came from np.roots, the polish from four np.polyval calls, and the
# categorical side from systole_lower and volume_roots: results must match
# them byte for byte wherever the old polish stayed finite.

def reference_points_from_coefficients(coeffs):
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


def reference_verify_correspondence(p):
    rs = build_root_system(AdeType("A", p.n))
    z = induced_charge(p)
    sys_geo = geometric_systole(p)
    sys_cat = math.pi * reference_systole_lower(rs, z)
    vol_geo = geometric_volume(p)
    vol_cat = math.pi**2 * reference_volume_roots(rs, z)
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


def reference_correspondence_dict(r):
    return {
        "n": r.n,
        "general_position": r.general_position,
        "systole_geometric": r.systole_geometric,
        "systole_categorical": r.systole_categorical,
        "volume_geometric": r.volume_geometric,
        "volume_categorical": r.volume_categorical,
        "systole_rel_error": r.systole_rel_error,
        "volume_rel_error": r.volume_rel_error,
        "inequality_slack": r.inequality_slack,
        "passed": r.passed,
    }


def assert_poly_matches_reference(coeffs):
    """Same roots bit for bit (repr tells -0.0 from 0.0); when they form a
    valid configuration, the same correspondence report and dict, and the
    configuration is returned."""
    found = outcome(points_from_coefficients, coeffs)
    expected = outcome(reference_points_from_coefficients, coeffs)
    assert expected[1] == [], f"the reference polish overflowed on {coeffs}"
    assert found == expected, coeffs
    try:
        config = validate_configuration(points_from_coefficients(coeffs))
    except ValueError:
        return None
    report = verify_correspondence(config)
    assert repr(report) == repr(reference_verify_correspondence(config))
    assert repr(report.as_dict()) == repr(reference_correspondence_dict(report))
    return config


def polynomial_cases(rng, n):
    """Coefficients a_1..a_n of monic centered polynomials of degree n+1:
    from random centered roots, raw random values at spread scales, with
    zero trailing coefficients of either sign, and with repeated roots."""
    pts = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    from_roots = list(np.poly(pts - pts.mean())[2:])
    yield from_roots
    for scale in (1e-6, 1.0, 1e6):
        yield list(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    yield list(rng.standard_normal(n))
    for k in sorted({1, n // 2, n}):
        yield from_roots[: n - k] + [0.0] * k
        yield from_roots[: n - k] + [complex(-0.0, -0.0)] * k
    half = rng.standard_normal((n + 2) // 2) + 1j * rng.standard_normal((n + 2) // 2)
    doubled = np.concatenate([half, half])[: n + 1]
    yield list(np.poly(doubled - doubled.mean())[2:])


@pytest.mark.parametrize("n", range(1, 33))
def test_poly_roots_and_correspondence_match_reference(n):
    rng = np.random.default_rng(40_000 + n)
    for coeffs in polynomial_cases(rng, n):
        config = assert_poly_matches_reference(coeffs)
        if config is not None:
            assert_segments_match_reference(config)

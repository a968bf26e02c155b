"""Stability-layer tests: charge evaluation, both volume routes, systole
bounds, the inequality report, and heart membership."""

import cmath
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from adesystole.roots import AdeType, build_root_system
from adesystole.stability import (
    _NORMAL_MIN,
    REL_TOL,
    SystolicReport,
    as_charge,
    check_inequality,
    evaluate_charge,
    heart_membership,
    systole_lower,
    systole_upper,
    volume_basis,
    volume_roots,
)

ALL_TYPES = (
    [AdeType("A", n) for n in range(1, 33)]
    + [AdeType("D", n) for n in range(4, 33)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)

ALL_SMALL_TYPES = (
    [AdeType("A", n) for n in range(1, 9)]
    + [AdeType("D", n) for n in range(4, 9)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)

A1 = build_root_system(AdeType("A", 1))
A2 = build_root_system(AdeType("A", 2))
A3 = build_root_system(AdeType("A", 3))


def random_charges(rng, count, rank, spread=True):
    z = rng.standard_normal((count, rank)) + 1j * rng.standard_normal((count, rank))
    if spread:
        z *= 10.0 ** rng.uniform(-3, 3, size=(count, 1))
    return z


# == Charge plumbing =========================================================

def test_as_charge_shape_checks():
    assert as_charge([1j, 2j]).shape == (2,)
    with pytest.raises(ValueError):
        as_charge([[1j], [2j]])
    with pytest.raises(ValueError):
        as_charge([1j, 2j], rank=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_as_charge_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        as_charge([bad, 1j])
    with pytest.raises(ValueError):
        check_inequality(A2, [bad, 1j])


def test_evaluate_charge_basis_vector():
    assert evaluate_charge(A3, [3j, 1j, 2j], (1, 0, 0)) == 3j


def test_evaluate_charge_sums():
    assert evaluate_charge(A2, [1j, 1j], (1, 1)) == 2j
    assert evaluate_charge(A3, [1 + 1j, 2j, -1 + 1j], (1, 1, 1)) == pytest.approx(4j)


def test_evaluate_charge_out_of_float_range_is_bad_input():
    # The sum overflows: a ValueError, where numpy would return inf and warn.
    with pytest.raises(ValueError, match=re.escape("charge is out of float range: its value on (1, 1) evaluates to (inf+0j)")):
        evaluate_charge(A2, [1e308, 1e308], (1, 1))
    assert evaluate_charge(A2, [1e308, -1e308], (1, 1)) == 0
    # A product overflows, but the value does not: 2 * 1e308 - 1e308, and 3 * -1e308j + 2 * 1.5e308j.
    assert evaluate_charge(A2, [1e308, -1e308], (2, 1)) == 1e308
    assert evaluate_charge(A2, [-1e308j, 1.5e308j], (3, 2)) == 0


def test_evaluate_charge_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate_charge(A2, [1j, 1j], (1, 0, 0))
    with pytest.raises(ValueError):
        evaluate_charge(A2, [1j, 1j, 1j], (1, 0))


# == Volume routes ===========================================================

def test_volume_examples():
    assert volume_basis(A1, [1j]) == pytest.approx(0.5)
    assert volume_roots(A1, [1j]) == pytest.approx(0.5)
    assert volume_basis(A2, [1j, 1j]) == pytest.approx(2.0)
    assert volume_roots(A2, [1j, 1j]) == pytest.approx(2.0)


def test_volume_zero_charge():
    assert volume_basis(A3, [0, 0, 0]) == 0.0
    assert volume_roots(A3, [0, 0, 0]) == 0.0


@pytest.mark.parametrize(
    "rs,charge,overflows",
    [
        (A2, [1e300 + 1e300j, 1 + 1j], True),
        (A2, [1e160 + 1e160j, 1e160j], True),
        (A2, [1e-170 + 1e-170j, 1e-170j], False),
        # At A1 the inequality is an equality: a subnormal volume rounds the
        # ratio above h/n, which would read as a broken inequality.
        (A1, [1.1e-160j], False),
    ],
)
def test_volume_out_of_float_range_is_bad_input(rs, charge, overflows):
    for fn in (volume_roots, volume_basis, check_inequality):
        with pytest.raises(ValueError, match="out of float range"):
            if overflows:
                with pytest.warns(RuntimeWarning):
                    fn(rs, charge)
            else:
                fn(rs, charge)


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES, ids=str)
def test_volume_routes_agree(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(20240000 + ade.rank)
    for z in random_charges(rng, 200, rs.rank):
        vr = volume_roots(rs, z)
        vb = volume_basis(rs, z)
        assert abs(vb - vr) <= 1e-9 * max(1.0, vr)


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES[:6], ids=str)
def test_volume_positive_iff_nonzero(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(7)
    for z in random_charges(rng, 50, rs.rank):
        assert volume_roots(rs, z) > 0.0


def test_volume_scaling_degree():
    rng = np.random.default_rng(12)
    for z in random_charges(rng, 25, 3):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        if lam == 0:
            continue
        assert volume_roots(A3, lam * z) == pytest.approx(abs(lam) ** 2 * volume_roots(A3, z))
        assert systole_upper(A3, lam * z) == pytest.approx(abs(lam) * systole_upper(A3, z))


# == Systole bounds ==========================================================

def test_systole_upper_examples():
    assert systole_upper(A2, [1j, 2j]) == 1.0
    assert systole_upper(A3, [3j, 1j, 2j]) == 1.0
    assert systole_upper(A1, [1j]) == 1.0


def test_systole_lower_examples():
    assert systole_lower(A2, [1j, 1j]) == pytest.approx(1.0)
    z = [cmath.exp(3j * math.pi / 4), cmath.exp(1j * math.pi / 4)]
    assert abs(z[0] + z[1]) == pytest.approx(math.sqrt(2))
    assert systole_lower(A2, z) == pytest.approx(1.0)
    assert systole_lower(A1, [1j]) == 1.0


@pytest.mark.parametrize(
    "ade",
    [AdeType("A", 3), AdeType("D", 5), AdeType("E", 8), AdeType("A", 1), AdeType("A", 32), AdeType("D", 32)],
)
def test_report_fields_equal_public_functions(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        report = check_inequality(rs, z)
        assert report.volume == volume_roots(rs, z)
        assert report.sys_lower == systole_lower(rs, z)
        assert report.sys_upper == systole_upper(rs, z)


def test_zero_charge_rejected():
    for fn in (systole_upper, systole_lower, check_inequality):
        with pytest.raises(ValueError):
            fn(A2, [0, 0])
        with pytest.raises(ValueError, match="vertex 1"):
            fn(A2, [0, 1j])


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES[:8], ids=str)
def test_lower_bound_below_upper_bound(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(99)
    for z in random_charges(rng, 50, rs.rank):
        assert systole_lower(rs, z) <= systole_upper(rs, z) + 1e-15


# == Inequality report =======================================================

def test_inequality_a1_equality():
    report = check_inequality(A1, [1j])
    assert report.sys_upper == 1.0
    assert report.volume == 0.5
    assert report.bound == Fraction(2)
    assert report.slack == 0.0
    assert report.satisfied()


def test_inequality_a2_interior():
    report = check_inequality(A2, [1j, 1j])
    assert report.sys_upper == 1.0
    assert report.volume == pytest.approx(2.0)
    assert report.bound == Fraction(3, 2)
    assert report.slack == pytest.approx(2.0)
    assert report.ratio_upper == pytest.approx(0.5)


def test_inequality_near_boundary_slack_shrinks():
    eps = 1e-6
    z = [cmath.exp(1j * math.pi * (1 - eps)), cmath.exp(1j * math.pi * eps)]
    report = check_inequality(A2, z)
    assert report.volume == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert report.sys_upper == pytest.approx(1.0)
    assert 0.0 <= report.slack < 1e-9
    assert report.satisfied()


@pytest.mark.parametrize("ade", ALL_SMALL_TYPES, ids=str)
def test_inequality_on_random_charges(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(5150 + ade.rank)
    for z in random_charges(rng, 200, rs.rank):
        report = check_inequality(rs, z)
        assert report.slack >= -1e-12 * report.volume
        assert report.satisfied()


def test_report_dict_round_trip():
    d = check_inequality(A2, [1j, 1j]).as_dict()
    assert d["bound_exact"] == "3/2"
    assert d["satisfied"] is True


# == Heart membership ========================================================

def test_heart_membership_examples():
    assert heart_membership([1j, 1j]) is True
    assert heart_membership([-1, 1j]) is True  # phase 1 belongs to the heart
    assert heart_membership([1, 1j]) is False  # phase 0 does not
    assert heart_membership([1j, -1j]) is False
    assert heart_membership([0, 1j]) is False


# == Reference kernels =======================================================
# The five kernels as they were when each validated its charge with numpy's
# isfinite/all and check_inequality took sys_upper from |z|: every result,
# error and warning of the kernels must match them byte for byte.

def _ref_as_charge(values, rank):
    z = np.asarray(values, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError(f"charge must be a flat vector, got shape {z.shape}")
    if z.shape[0] != rank:
        raise ValueError(f"charge has length {z.shape[0]}, expected {rank}")
    if not np.isfinite(z).all():
        raise ValueError("charge has a non-finite entry")
    return z


def _ref_nonzero_charge(rs, Z):
    z = _ref_as_charge(Z, rs.rank)
    if not z.all():
        vertex = int(np.flatnonzero(z == 0)[0]) + 1
        raise ValueError(f"charge is zero at vertex {vertex}; a zero entry has no systole")
    return z


def _ref_in_range(vol, z):
    if not vol < np.inf or (vol < _NORMAL_MIN and z.any()):
        raise ValueError(f"charge is out of float range: its volume evaluates to {vol!r}")
    return vol


def _ref_volume(rs, moduli):
    return float(moduli @ moduli) / rs.coxeter


def reference_volume_basis(rs, Z):
    z = _ref_as_charge(Z, rs.rank)
    s = complex(np.conjugate(z) @ (rs.inverse_array @ z))
    vol = _ref_in_range(abs(s), z)
    scale = max(1.0, vol)
    if abs(s.imag) > REL_TOL * scale:
        raise ArithmeticError(f"volume form is not real: {s!r}")
    if s.real < -REL_TOL * scale:
        raise ArithmeticError(f"volume form is negative: {s!r}")
    return vol


def reference_volume_roots(rs, Z):
    z = _ref_as_charge(Z, rs.rank)
    return _ref_in_range(_ref_volume(rs, np.abs(rs.complex_root_matrix @ z)), z)


def reference_systole_upper(rs, Z):
    return float(np.abs(_ref_nonzero_charge(rs, Z)).min())


def reference_systole_lower(rs, Z):
    return float(np.abs(rs.complex_root_matrix @ _ref_nonzero_charge(rs, Z)).min())


def reference_check_inequality(rs, Z):
    z = _ref_nonzero_charge(rs, Z)
    moduli = np.abs(rs.complex_root_matrix @ z)
    vol = _ref_in_range(_ref_volume(rs, moduli), z)
    sys_up = float(np.abs(z).min())
    bound = rs.bound
    return SystolicReport(
        sys_lower=float(moduli.min()),
        sys_upper=sys_up,
        volume=vol,
        ratio_upper=sys_up**2 / vol,
        bound=bound,
        slack=float(bound) * vol - sys_up**2,
    )


KERNEL_PAIRS = (
    (volume_basis, reference_volume_basis),
    (volume_roots, reference_volume_roots),
    (systole_upper, reference_systole_upper),
    (systole_lower, reference_systole_lower),
    (check_inequality, reference_check_inequality),
)


def outcome(fn, *args):
    """repr of the result, or the error's type and text, plus every warning;
    repr tells -0.0 from 0.0 and gives every float's exact digits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", repr(fn(*args)))
        except (ValueError, ArithmeticError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def assert_kernels_match_reference(rs, z):
    for kernel, reference in KERNEL_PAIRS:
        assert outcome(kernel, rs, z) == outcome(reference, rs, z), (kernel.__name__, z)


def adversarial_charges(rng, rank):
    """Random charges at spread scales, and the same with zero entries of
    either sign, signed-zero parts, non-finite entries, and volumes that
    are subnormal or overflow."""
    base = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    yield from random_charges(rng, 4, rank)
    for scale in (1e-170, 1e-160, 1e-150, 1e150, 1e160, 1e300):
        yield base * scale
    for k in sorted({0, rank // 2, rank - 1}):
        for zero in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            z = base.copy()
            z[k] = zero
            yield z
        for bad in (math.nan, complex(0.0, math.inf), complex(-math.inf, 1.0)):
            z = base.copy()
            z[k] = bad
            yield z
    yield np.array([complex(-0.0, x.imag) for x in base])
    yield np.array([complex(x.real, -0.0) for x in base])
    yield np.zeros(rank, dtype=np.complex128)
    yield -np.zeros(rank, dtype=np.complex128)


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_kernels_match_reference_byte_for_byte(ade):
    rs = build_root_system(ade)
    rng = np.random.default_rng(30_000 + 100 * "ADE".index(ade.family) + ade.rank)
    for z in adversarial_charges(rng, rs.rank):
        assert_kernels_match_reference(rs, z)
        assert_kernels_match_reference(rs, list(z))


def test_signed_zero_entry_is_a_zero_entry():
    for zero in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        for fn in (systole_upper, systole_lower, check_inequality):
            with pytest.raises(ValueError, match="zero at vertex 2"):
                fn(A2, [1j, zero])

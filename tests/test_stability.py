"""Stability-layer tests: charge evaluation, both volume routes, systole
bounds, the inequality report, and heart membership."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from adesystole.roots import AdeType, build_root_system
from adesystole.stability import (
    as_charge,
    check_inequality,
    evaluate_charge,
    heart_membership,
    systole_lower,
    systole_upper,
    volume_basis,
    volume_roots,
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

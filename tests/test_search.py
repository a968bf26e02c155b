"""Sampling and optimizer tests: determinism, bound safety, sharpness."""

import numpy as np
import pytest

from adesystole.roots import AdeType, build_root_system
from adesystole.search import SearchConfig, optimize_ratio, sample_ratios, _draw_charges
from adesystole.stability import heart_membership, systole_upper, volume_roots

A1 = build_root_system(AdeType("A", 1))
A2 = build_root_system(AdeType("A", 2))
D4 = build_root_system(AdeType("D", 4))


# == Config validation =======================================================

@pytest.mark.parametrize(
    "kwargs",
    [
        {"sample_count": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"restarts": 0},
        {"max_iters": 0},
        {"step_init": 0.1, "step_min": 0.2},
        {"step_min": 0.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


@pytest.mark.parametrize("name", ["sample_count", "seed", "restarts", "max_iters"])
def test_config_rejects_bool_integers(name):
    with pytest.raises(ValueError):
        SearchConfig(**{name: True})


# == Sampling ================================================================

def test_a1_all_ratios_equal_two():
    result = sample_ratios(A1, SearchConfig(sample_count=500, seed=3))
    assert np.all(result.ratios == 2.0)
    assert result.best_ratio == 2.0
    assert result.samples_violating == 0


def test_sampling_is_deterministic():
    cfg = SearchConfig(sample_count=400, seed=42)
    first = sample_ratios(D4, cfg)
    second = sample_ratios(D4, cfg)
    assert np.array_equal(first.ratios, second.ratios)
    assert np.array_equal(first.best_charge, second.best_charge)
    assert first.best_ratio == second.best_ratio
    assert first.histogram == second.histogram


def test_a2_no_violations_and_bound_respected():
    result = sample_ratios(A2, SearchConfig(sample_count=10_000, seed=9))
    assert result.samples_violating == 0
    assert result.best_ratio <= 1.5 + 1e-9
    assert float(result.bound) == 1.5


def test_sampled_charges_live_in_heart():
    rng = np.random.default_rng(6)
    charges = _draw_charges(rng, 200, 3)
    for z in charges:
        assert heart_membership(z)


def test_histogram_counts_sum_to_samples():
    result = sample_ratios(D4, SearchConfig(sample_count=1234, seed=0))
    assert sum(count for _, _, count in result.histogram) == 1234
    assert result.histogram[0][0] == 0.0
    assert result.histogram[-1][1] == pytest.approx(float(result.bound))


def test_per_sample_arrays_are_consistent():
    result = sample_ratios(A2, SearchConfig(sample_count=50, seed=5))
    assert result.ratios == pytest.approx(result.sys_upper**2 / result.volumes)
    assert np.all(result.sys_lower <= result.sys_upper + 1e-15)


# == Optimizer ===============================================================

def test_optimize_a1_attains_bound_everywhere():
    result = optimize_ratio(A1, SearchConfig(seed=1, restarts=3))
    assert result.best_ratio == pytest.approx(2.0, rel=1e-12)
    assert result.samples_violating == 0


def test_optimize_a2_reaches_near_supremum():
    result = optimize_ratio(A2, SearchConfig(seed=7, restarts=8))
    assert 1.45 <= result.best_ratio <= 1.5 + 1e-9
    phases = np.angle(result.best_charge) / np.pi
    phases = np.sort(np.mod(phases, 2.0))
    assert phases[0] <= 1e-3          # one phase pushed to the bottom wall
    assert phases[-1] >= 1.0 - 1e-3   # one pushed to the top wall
    # Gauge: the reported representative has volume 1.
    assert volume_roots(A2, result.best_charge) == pytest.approx(1.0, rel=1e-9)


def test_optimize_is_deterministic():
    cfg = SearchConfig(seed=21, restarts=4)
    first = optimize_ratio(D4, cfg)
    second = optimize_ratio(D4, cfg)
    assert first.best_ratio == second.best_ratio
    assert np.array_equal(first.ratios, second.ratios)
    assert np.array_equal(first.best_charge, second.best_charge)


def test_optimize_never_violates_bound():
    for rs in (A2, D4):
        result = optimize_ratio(rs, SearchConfig(seed=13, restarts=5))
        assert result.samples_violating == 0
        assert result.best_ratio <= float(result.bound) * (1 + 1e-12)


def test_ratio_gauge_invariance():
    rng = np.random.default_rng(100)
    for _ in range(20):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        if lam == 0:
            continue
        ratio = systole_upper(D4, z) ** 2 / volume_roots(D4, z)
        scaled = systole_upper(D4, lam * z) ** 2 / volume_roots(D4, lam * z)
        assert abs(scaled - ratio) <= 1e-12 * max(1.0, ratio)

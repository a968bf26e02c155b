"""Acceptance suite: the eleven headline checks at full size.

Each test prints one `criterion NN PASS/FAIL` line (run with -s to see
them as they happen; pytest shows captured output on failure anyway).
Sizes, tolerances and runtime ceilings are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np

from adesystole.actions import (
    BACKWARD,
    FORWARD,
    canonical_heart,
    exchange_graph,
    reflect_class,
    simple_tilt,
    verify_action_equivariance,
)
from adesystole.milnor import (
    geometric_systole,
    geometric_volume,
    induced_charge,
    validate_configuration,
    verify_correspondence,
)
from adesystole.roots import AdeType, build_root_system, count_positive_roots, verify_volume_identity
from adesystole.search import SearchConfig, optimize_ratio, sample_ratios
from adesystole.stability import systole_lower, systole_upper, volume_basis, volume_roots

ALL_TYPES = tuple(
    [AdeType("A", n) for n in range(1, 9)]
    + [AdeType("D", n) for n in range(4, 9)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)


def _report(num, ok, text):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _random_complex(rng, count, rank, spread=True):
    z = rng.standard_normal((count, rank)) + 1j * rng.standard_normal((count, rank))
    if spread:
        z *= 10.0 ** rng.uniform(-3, 3, size=(count, 1))
    return z


def test_criterion_01_exact_identity():
    start = time.perf_counter()
    ok = True
    pairs = 0
    for ade in ALL_TYPES:
        report = verify_volume_identity(build_root_system(ade))
        ok = ok and report.passed and report.pairs_checked == ade.rank * (ade.rank + 1) // 2
        pairs += report.pairs_checked
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"exact coefficient identity, {len(ALL_TYPES)} types, "
                   f"{pairs} pairs, {elapsed:.3f}s (< 1s)")


def test_criterion_02_volume_routes_agree():
    start = time.perf_counter()
    worst = 0.0
    for idx, ade in enumerate(ALL_TYPES):
        rs = build_root_system(ade)
        rng = np.random.default_rng(21_000 + idx)
        for z in _random_complex(rng, 10_000, rs.rank):
            vr = volume_roots(rs, z)
            gap = abs(volume_basis(rs, z) - vr) / max(1.0, vr)
            if gap > worst:
                worst = gap
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"volume routes agree on 10^4 charges/type, worst rel gap "
                   f"{worst:.2e} (<= 1e-9), {elapsed:.1f}s (< 10s)")


def test_criterion_03_inequality_fuzz():
    ok = True
    details = []
    for idx, ade in enumerate(ALL_TYPES):
        rs = build_root_system(ade)
        start = time.perf_counter()
        result = sample_ratios(rs, SearchConfig(sample_count=100_000, seed=31_000 + idx))
        elapsed = time.perf_counter() - start
        ok = ok and result.samples_violating == 0 and elapsed < 60.0
        details.append(f"{ade}:{result.samples_violating}")
    _report(3, ok, "10^5 heart charges/type, violations " + ",".join(details))


def test_criterion_04_a1_sharpness():
    rs = build_root_system(AdeType("A", 1))
    rng = np.random.default_rng(41)
    worst = 0.0
    for z in _random_complex(rng, 10_000, 1):
        sys2 = systole_upper(rs, z) ** 2
        doubled_vol = 2.0 * volume_roots(rs, z)
        rel = abs(sys2 - doubled_vol) / max(sys2, doubled_vol)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    _report(4, ok, f"A1 equality sys^2 = 2 vol, worst rel dev {worst:.2e} (<= 1e-12)")


def _a2_grid_oracle():
    """Dense grid over (phi1, phi2, log10 r2/r1) with r1 = 1."""
    phis = np.linspace(1e-4, 1.0 - 1e-4, 241)
    best = 0.0
    p1 = np.exp(1j * np.pi * phis)[:, None]
    p2 = np.exp(1j * np.pi * phis)[None, :]
    for log_t in np.linspace(-1.0, 1.0, 41):
        r2 = 10.0**log_t
        sys_up = min(1.0, r2)
        vol = (1.0 + r2**2 + np.abs(p1 + r2 * p2) ** 2) / 3.0
        best = max(best, float((sys_up**2 / vol).max()))
    return best


def test_criterion_05_a2_sharpness_probe():
    start = time.perf_counter()
    rs = build_root_system(AdeType("A", 2))
    result = optimize_ratio(rs, SearchConfig(seed=51, restarts=20))
    grid_best = _a2_grid_oracle()
    elapsed = time.perf_counter() - start
    phases = np.sort(np.mod(np.angle(result.best_charge) / np.pi, 2.0))
    ok = (
        1.45 <= result.best_ratio <= 1.5 + 1e-9
        and result.best_ratio >= grid_best - 1e-6
        and 1.45 <= grid_best <= 1.5
        and phases[0] <= 1e-3
        and phases[-1] >= 1.0 - 1e-3
        and elapsed < 30.0
    )
    _report(5, ok, f"A2 sharpness: optimizer {result.best_ratio:.10f}, grid oracle "
                   f"{grid_best:.10f}, phases {phases[0]:.2e}/{1 - phases[-1]:.2e} "
                   f"from walls, {elapsed:.1f}s (< 30s)")


def test_criterion_06_action_equivariance():
    ok = True
    worst = {"sys": 0.0, "vol": 0.0, "reflect": 0.0, "ratio": 0.0}
    for idx, ade in enumerate(ALL_TYPES):
        rs = build_root_system(ade)
        rng = np.random.default_rng(61_000 + idx)
        z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        report = verify_action_equivariance(rs, z, 0.4 - 0.6j, trials=1000, seed=61_500 + idx)
        ok = ok and report.passed
        worst["sys"] = max(worst["sys"], report.sys_scaling_error)
        worst["vol"] = max(worst["vol"], report.vol_scaling_error)
        worst["reflect"] = max(worst["reflect"], report.reflect_error)
        worst["ratio"] = max(worst["ratio"], report.ratio_error)
    ok = ok and worst["sys"] <= 1e-9 and worst["vol"] <= 1e-9
    ok = ok and worst["reflect"] <= 1e-9 and worst["ratio"] <= 1e-12
    _report(6, ok, "10^3 (Z, zeta) pairs/type: sys {sys:.1e}, vol {vol:.1e}, "
                   "reflect {reflect:.1e} (<= 1e-9), ratio {ratio:.1e} (<= 1e-12)".format(**worst))


def test_criterion_07_reflection_and_tilt_properties():
    ok = True
    # Involution on 10^3 random positive roots per type.
    for idx, ade in enumerate(ALL_TYPES):
        rs = build_root_system(ade)
        rng = np.random.default_rng(71_000 + idx)
        roots = rs.positive_roots
        for _ in range(1000):
            alpha = roots[rng.integers(len(roots))]
            i = int(rng.integers(1, rs.rank + 1))
            ok = ok and reflect_class(rs, i, reflect_class(rs, i, alpha)) == alpha
        # Reflection permutes the other positive roots.
        root_set = set(roots)
        for i in range(1, rs.rank + 1):
            e_i = tuple(int(k == i - 1) for k in range(rs.rank))
            others = root_set - {e_i}
            ok = ok and {reflect_class(rs, i, a) for a in others} == others

    # 10^3 random tilt sequences of length <= 10, spread over the types.
    rng = np.random.default_rng(71_999)
    for trial in range(1000):
        rs = build_root_system(ALL_TYPES[trial % len(ALL_TYPES)])
        heart = canonical_heart(rs)
        for _ in range(int(rng.integers(1, 11))):
            k = int(rng.integers(1, rs.rank + 1))
            direction = FORWARD if rng.integers(2) else BACKWARD
            heart = simple_tilt(rs, heart, k, direction)
            det = round(np.linalg.det(np.array(heart.simples, dtype=np.float64)))
            ok = ok and abs(det) == 1
        k = int(rng.integers(1, rs.rank + 1))
        round_trip = simple_tilt(rs, simple_tilt(rs, heart, k, FORWARD), k, BACKWARD)
        ok = ok and round_trip.simples == heart.simples
        ok = ok and len(round_trip.word) == len(heart.word) + 2
    _report(7, ok, "reflection involution + root permutation per type, "
                   "10^3 tilt sequences with unit determinant and round trips")


def test_criterion_08_exchange_graph_sanity():
    ok = True
    a1 = build_root_system(AdeType("A", 1))
    graph = exchange_graph(a1, 4)
    ok = ok and len(graph.nodes) == 2 and graph.complete
    sizes = []
    for ade, depth, expected in [
        (AdeType("A", 1), 4, 2),
        (AdeType("A", 2), 4, 6),
        (AdeType("A", 3), 8, 24),
        (AdeType("D", 4), 14, 192),
    ]:
        rs = build_root_system(ade)
        g = exchange_graph(rs, depth)
        again = exchange_graph(rs, depth)
        ok = ok and g.complete and len(g.nodes) == expected
        ok = ok and g.targets.shape == (expected, rs.rank)  # 2n labelled edges a node
        ok = ok and g.nodes == again.nodes and g.edges == again.edges
        sizes.append(f"{ade}:{len(g.nodes)}")
    _report(8, ok, "A1 depth-4 graph has 2 nodes; closed graphs "
                   + ",".join(sizes) + " all out-degree 2n, deterministic")


def _seeded_configurations(n, count=1000):
    rng = np.random.default_rng(91_000 + n)
    configs = []
    while len(configs) < count:
        pts = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        config = validate_configuration(pts)
        if config.general_position:
            configs.append(config)
    return configs


def test_criterion_09_correspondence():
    start = time.perf_counter()
    worst_sys = worst_vol = 0.0
    ok = True
    for n in range(1, 9):
        for config in _seeded_configurations(n):
            report = verify_correspondence(config)
            ok = ok and report.passed
            worst_sys = max(worst_sys, report.systole_rel_error)
            worst_vol = max(worst_vol, report.volume_rel_error)
    elapsed = time.perf_counter() - start
    ok = ok and worst_sys <= 1e-9 and worst_vol <= 1e-9 and elapsed < 20.0
    _report(9, ok, f"10^3 configurations for each n <= 8: systole rel err "
                   f"{worst_sys:.1e}, volume rel err {worst_vol:.1e} (<= 1e-9), "
                   f"{elapsed:.1f}s (< 20s)")


def test_criterion_10_geometric_inequality():
    ok = True
    for n in range(1, 9):
        for config in _seeded_configurations(n):
            sys2 = geometric_systole(config) ** 2
            bound = (n + 1) / n * geometric_volume(config)
            ok = ok and sys2 <= bound * (1 + 1e-12)

    antipodal = validate_configuration([1, -1])
    sys2 = geometric_systole(antipodal) ** 2
    vol2 = 2.0 * geometric_volume(antipodal)
    ok = ok and abs(sys2 - 4 * math.pi**2) <= 1e-12 * sys2
    ok = ok and abs(sys2 - vol2) <= 1e-12 * sys2

    cube = validate_configuration([1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    sys2 = geometric_systole(cube) ** 2
    bound = 1.5 * geometric_volume(cube)
    ok = ok and abs(sys2 - 3 * math.pi**2) <= 1e-9 * sys2
    ok = ok and abs(bound - 4.5 * math.pi**2) <= 1e-9 * bound
    _report(10, ok, "squared geometric systole within (n+1)/n of the volume on all "
                    "sampled configurations; antipodal n=1 equality and "
                    "three-roots-of-unity case match closed forms")


def test_criterion_11_root_counts():
    ok = True
    details = []
    for ade in ALL_TYPES:
        if ade.family == "A":
            expected = ade.rank * (ade.rank + 1) // 2
        elif ade.family == "D":
            expected = ade.rank * (ade.rank - 1)
        else:
            expected = {6: 36, 7: 63, 8: 120}[ade.rank]
        enumerated = len(build_root_system(ade).positive_roots)
        closed = count_positive_roots(ade)
        ok = ok and enumerated == expected == closed
        details.append(f"{ade}:{enumerated}")
    _report(11, ok, "positive-root counts " + ",".join(details))

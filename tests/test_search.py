"""Sampling and optimizer tests: determinism, bound safety, sharpness."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from adesystole import cli, search
from adesystole.milnor import validate_configuration, verify_correspondence
from adesystole.roots import AdeType, build_root_system
from adesystole.search import SearchConfig, optimize_ratio, sample_ratios, _draw, _streams
from adesystole.stability import check_inequality, heart_membership, systole_upper, volume_roots

A1 = build_root_system(AdeType("A", 1))
A2 = build_root_system(AdeType("A", 2))
D4 = build_root_system(AdeType("D", 4))

ALL_TYPES = (
    [AdeType("A", n) for n in range(1, 33)]
    + [AdeType("D", n) for n in range(4, 33)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)


# == Config validation =======================================================

@pytest.mark.parametrize(
    "kwargs",
    [
        {"sample_count": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"restarts": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


@pytest.mark.parametrize("name", ["sample_count", "seed", "restarts"])
def test_config_rejects_bool_integers(name):
    with pytest.raises(ValueError):
        SearchConfig(**{name: True})


def test_the_search_schedule_and_the_verdict_tolerances_are_not_settable():
    # They are the constants search.STEP_INIT / STEP_MIN / MAX_ITERS,
    # milnor.CORRESPONDENCE_REL_TOL and stability.SLACK_REL_TOL.
    for name, value in (("max_iters", 50), ("step_init", 0.5), ("step_min", 1e-6)):
        with pytest.raises(TypeError):
            SearchConfig(**{name: value})
    with pytest.raises(TypeError):
        verify_correspondence(validate_configuration([1, -1]), rel_tol=1e-6)
    with pytest.raises(TypeError):
        check_inequality(A2, [1j, 1j]).satisfied(1e-6)


def test_config_rejects_sample_count_over_memory_limit(capsys):
    # Checked before the sampler allocates: 10**15 samples would need 40 PB.
    assert SearchConfig(sample_count=search.MAX_SAMPLE_COUNT).sample_count == 10**8
    for count in (search.MAX_SAMPLE_COUNT + 1, 10**15):
        with pytest.raises(ValueError, match="100,000,000"):
            SearchConfig(sample_count=count)
    code = cli.main(["sample", "--family", "E", "--rank", "8", "--count", str(10**15)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: sample_count must be between 1 and 100,000,000")



def test_config_rejects_restarts_over_time_limit(capsys):
    # A restart takes milliseconds to a tenth of a second, so the cap is
    # set by time: 10**5 restarts of D32 run for about 4 h.
    assert SearchConfig(restarts=search.MAX_RESTARTS).restarts == 10**5
    for restarts in (search.MAX_RESTARTS + 1, 10**8, 10**15):
        with pytest.raises(ValueError, match="restarts must be between 1 and 100,000, got"):
            SearchConfig(restarts=restarts)
    code = cli.main(["optimize", "--family", "A", "--rank", "2", "--restarts", str(10**8)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: restarts must be between 1 and 100,000, got {10**8}\n"

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
    charges = _draw(_streams(6, 200, 3), 200, 3)
    for z in charges:
        assert heart_membership(z)


def test_histogram_counts_sum_to_samples():
    result = sample_ratios(D4, SearchConfig(sample_count=1234, seed=0))
    assert sum(count for _, _, count in result.histogram) == 1234
    assert result.histogram[0][0] == 0.0
    assert result.histogram[-1][1] == pytest.approx(float(result.bound))


def test_per_sample_arrays_are_consistent():
    result = sample_ratios(A2, SearchConfig(sample_count=50, seed=5))
    assert result.ratios.tobytes() == (result.sys_upper**2 / result.volumes).tobytes()
    assert np.all(result.sys_lower <= result.sys_upper + 1e-15)


def reference_sample(rs, cfg):
    """The sampler's formulas on the whole draw in one block, with
    sys_upper as |charges|.min(axis=1): the oracle for sample_ratios'
    streamed blocks."""
    rng = np.random.default_rng(cfg.seed)
    count, n = cfg.sample_count, rs.rank
    phase = rng.uniform(0.0, 1.0, size=(count, n))
    phase[phase == 0.0] = 0.5
    log_r = rng.uniform(-3.0, 3.0, size=(count, n))
    charges = 10.0**log_r * np.exp(1j * np.pi * phase)
    moduli = np.abs(charges @ rs.complex_root_matrix.T)
    sys_lo = moduli.min(axis=1)
    vol = (moduli**2).sum(axis=1) / rs.coxeter
    sys_up = np.abs(charges).min(axis=1)
    ratios = sys_up**2 / vol
    bound = float(Fraction(rs.coxeter, n))
    edges = np.linspace(0.0, bound, 33)
    counts, _ = np.histogram(np.minimum(ratios, bound), bins=edges)
    best = int(np.argmax(ratios))
    return {
        "ratios": ratios,
        "sys_upper": sys_up,
        "sys_lower": sys_lo,
        "volumes": vol,
        "best_charge": charges[best],
        "best_ratio": float(ratios[best]),
        "samples_violating": int((ratios > bound * (1.0 + 1e-12)).sum()),
        "histogram": tuple(
            (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(32)
        ),
    }


def block_rows(rs) -> int:
    return search._BLOCK_BYTES // (16 * len(rs.positive_roots))


def assert_sample_matches_reference(rs, cfg):
    result = sample_ratios(rs, cfg)
    for name, value in reference_sample(rs, cfg).items():
        got = getattr(result, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
        else:
            assert got == value, name


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_sample_blocks_match_one_block_reference(ade):
    rs = build_root_system(ade)
    rows = block_rows(rs)
    for count in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 1):
        for seed in (0, 11):
            assert_sample_matches_reference(rs, SearchConfig(sample_count=count, seed=seed))


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("A", 8), ("D", 4), ("D", 16), ("E", 8)])
def test_sample_many_blocks_match_one_block_reference(family, rank):
    rs = build_root_system(AdeType(family, rank))
    for seed in (3, 2**64 - 1):
        assert_sample_matches_reference(rs, SearchConfig(sample_count=20_001, seed=seed))


def full_array_tail(rs, cfg, sys_up, vol):
    """The end of sample_ratios as it was when it took the whole ratio
    column at once: the oracle for its chunked summary."""
    ratios = sys_up**2
    ratios /= vol
    bound = float(rs.bound)
    edges = np.linspace(0.0, bound, 33)
    counts, _ = np.histogram(np.minimum(ratios, bound), edges)
    best = int(np.argmax(ratios))
    return {
        "ratios": ratios,
        "best_ratio": float(ratios.max()),
        "best_charge": _draw(_streams(cfg.seed, cfg.sample_count, rs.rank, best), 1, rs.rank)[0],
        "samples_violating": int((ratios > bound * (1.0 + 1e-12)).sum()),
        "histogram": tuple(
            (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(32)
        ),
    }


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("D", 4), ("E", 8)])
def test_chunked_summary_matches_full_array_summary(family, rank):
    rs = build_root_system(AdeType(family, rank))
    chunk = search._BLOCK_BYTES // 8
    for count in (1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        for seed in (3, 2**64 - 1):
            cfg = SearchConfig(sample_count=count, seed=seed)
            result = sample_ratios(rs, cfg)
            # Copies, so that reading `ratios` must leave the columns as they were.
            columns = {name: getattr(result, name).copy() for name in ("sys_upper", "sys_lower", "volumes")}
            want = full_array_tail(rs, cfg, columns["sys_upper"], columns["volumes"]) | columns
            for name, value in want.items():
                got = getattr(result, name)
                if isinstance(value, np.ndarray):
                    assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), (count, name)
                else:
                    assert got == value, (count, name)
            if rank == 1:  # every ratio is 2.0, so the first sample is the best
                first = _draw(_streams(seed, count, 1), 1, 1)[0]
                assert result.best_charge.tobytes() == first.tobytes()


def test_sample_result_holds_24_bytes_per_sample():
    # sys_upper, sys_lower and volumes; the ratios are derived on each
    # access and not kept.
    count = 10**6
    sample_ratios(A2, SearchConfig(sample_count=10, seed=1))
    tracemalloc.start()
    try:
        result = sample_ratios(A2, SearchConfig(sample_count=count, seed=1))
        held = tracemalloc.get_traced_memory()[0]
        assert result.ratios.shape == (count,)
        held_after_read = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(held, held_after_read) <= 24 * count + 64 * 2**10


def assert_ratios_of_slices_ratios(result, parts):
    ratios = result.ratios
    for part in parts:
        got = result.ratios_of(part)
        assert got.dtype == ratios.dtype and got.tobytes() == ratios[part].tobytes(), part


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("E", 8)])
def test_sample_ratios_of_a_slice_match_the_column(family, rank):
    # The CSV report reads the ratios a chunk at a time: empty, the first
    # row, across the chunk edge, the tail and the whole column.
    rows = cli._CSV_ROWS
    count = 2 * rows + 5
    result = sample_ratios(build_root_system(AdeType(family, rank)), SearchConfig(sample_count=count, seed=8))
    parts = (slice(0, 0), slice(0, 1), slice(rows - 3, rows + 3), slice(2 * rows, 3 * rows), slice(None))
    assert_ratios_of_slices_ratios(result, parts)


def test_optimize_ratios_of_a_slice_match_the_column():
    result = optimize_ratio(A2, SearchConfig(seed=7, restarts=20))
    assert_ratios_of_slices_ratios(result, (slice(0, 0), slice(0, 1), slice(5, 12), slice(15, 40), slice(None)))


@pytest.mark.parametrize("family, rank, count", [("D", 32, 20_000), ("A", 2, 200_000), ("A", 2, 10**6)])
def test_sample_memory_stays_per_block(family, rank, count):
    # The three result arrays take 24 B per sample; the charges, the root
    # products and the ratios exist only a block at a time.
    rs = build_root_system(AdeType(family, rank))
    tracemalloc.start()
    try:
        sample_ratios(rs, SearchConfig(sample_count=count, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * count + 4 * 2**20


@pytest.mark.parametrize("columns", range(1, 8))
def test_narrow_row_sums_have_the_bits_of_sum(columns):
    # numpy's pairwise sum adds fewer than 8 elements one by one, so the
    # column-by-column volume sum of A1, A2 and A3 blocks changes no bit.
    rng = np.random.default_rng(columns)
    values = (10.0 ** rng.uniform(-6, 6, (200_000, columns))) ** 2
    out = np.empty(len(values))
    search._row_reduce(np.add, values, out, search._NARROW_SUM)
    assert out.tobytes() == values.sum(axis=1).tobytes()


@pytest.mark.parametrize("columns", range(1, 10))
def test_row_minima_match_min(columns):
    values = np.random.default_rng(columns).random((10_000, columns))
    out = np.empty(len(values))
    search._row_reduce(np.minimum, values, out, search._NARROW_MIN)
    assert out.tobytes() == values.min(axis=1).tobytes()


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


@pytest.mark.parametrize("rank", range(1, 6))
def test_optimize_reaches_the_alternating_sign_ratio(rank):
    # At the walls a sign vector e gives the ratio 1 / (e C^-1 e), a lower
    # bound on the supremum; for A_n the alternating one gives h / floor(h^2 / 4).
    # With 4 restarts every seed reaches it up to A5; from A6 on some seeds
    # stall 33-49% short, so the ranks stop there.
    rs = build_root_system(AdeType("A", rank))
    signs = [(-1) ** i for i in range(rank)]
    ratio = 1 / sum(signs[i] * rs.cartan_inv[i][j] * signs[j] for i in range(rank) for j in range(rank))
    h = rs.coxeter
    assert ratio == Fraction(h, h * h // 4)
    for seed in range(10):
        best = optimize_ratio(rs, SearchConfig(seed=seed, restarts=4)).best_ratio
        assert best == pytest.approx(float(ratio), abs=1e-8), seed


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


def _reference_optimize(rs, cfg):
    """The pattern search with whole-vector clamps and a full evaluation
    (ratio and both systole bounds) of every trial, as the oracle for
    optimize_ratio's one-coordinate trials."""
    rng = np.random.default_rng(cfg.seed)
    n = rs.rank
    limit = float(Fraction(rs.coxeter, n)) * (1.0 + search.VIOLATION_REL_TOL)

    def params_to_charge(x):
        return 10.0 ** x[n:] * np.exp(1j * np.pi * x[:n])

    roots = np.array(rs.positive_roots, dtype=float)

    def evaluate(x):
        z = params_to_charge(x)
        moduli = np.abs(roots @ z)
        vol = float(moduli @ moduli) / rs.coxeter
        sys_up = float(np.abs(z).min())
        return sys_up**2 / vol, sys_up, float(moduli.min()), vol

    rows, violating, best_ratio, best_x = [], 0, -np.inf, None
    for _ in range(cfg.restarts):
        x = np.empty(2 * n)
        x[:n] = rng.uniform(search.PHASE_MARGIN, 1.0 - search.PHASE_MARGIN, size=n)
        x[n:] = rng.uniform(-3.0, 3.0, size=n)
        ratio = evaluate(x)[0]
        violating += ratio > limit
        step = search.STEP_INIT
        for _ in range(search.MAX_ITERS):
            improved = False
            for dim in range(2 * n):
                for sign in (1.0, -1.0):
                    trial = x.copy()
                    trial[dim] += sign * step
                    trial[:n] = np.clip(trial[:n], search.PHASE_MARGIN, 1.0 - search.PHASE_MARGIN)
                    trial[n:] = np.clip(trial[n:], -3.0, 3.0)
                    trial_ratio = evaluate(trial)[0]
                    violating += trial_ratio > limit
                    if trial_ratio > ratio:
                        x, ratio, improved = trial, trial_ratio, True
            if not improved:
                step /= 2.0
                if step < search.STEP_MIN:
                    break
        rows.append(evaluate(x))
        if rows[-1][0] > best_ratio:
            best_ratio, best_x = rows[-1][0], x.copy()
    ratios, sys_up, sys_lo, vols = (np.array(col) for col in zip(*rows))
    best_charge = params_to_charge(best_x) / np.sqrt(evaluate(best_x)[3])
    return ratios, sys_up, sys_lo, vols, best_charge, violating


def assert_optimize_matches_reference(rs, cfg):
    result = optimize_ratio(rs, cfg)
    ratios, sys_up, sys_lo, vols, best_charge, violating = _reference_optimize(rs, cfg)
    for got, want in [
        (result.ratios, ratios),
        (result.sys_upper, sys_up),
        (result.sys_lower, sys_lo),
        (result.volumes, vols),
        (result.best_charge, best_charge),
    ]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert result.samples_violating == violating
    assert result.best_ratio == float(ratios.max())


@pytest.mark.parametrize(
    "family, rank, seed, restarts",
    [
        ("A", 1, 1, 3),
        ("A", 2, 7, 8),
        ("A", 2, 51, 4),
        ("A", 8, 0, 2),
        ("A", 8, 5, 1),
        ("D", 4, 21, 4),
        ("D", 16, 3, 1),
        ("E", 6, 2, 3),
        ("A", 32, 0, 1),
        ("D", 32, 0, 1),
        ("E", 8, 0, 1),
        ("E", 7, 5, 2),
    ],
)
def test_optimize_matches_reference_search(family, rank, seed, restarts):
    rs = build_root_system(AdeType(family, rank))
    assert_optimize_matches_reference(rs, SearchConfig(seed=seed, restarts=restarts))


@pytest.mark.parametrize("family, rank, seed, restarts", [("A", 2, 7, 3), ("D", 4, 21, 2), ("E", 6, 2, 1)])
def test_optimize_counts_every_violating_trial(monkeypatch, family, rank, seed, restarts):
    # With the limit far below the bound nearly every ratio is over it:
    # no-op trials and trials the screen would drop must still be counted.
    monkeypatch.setattr(search, "VIOLATION_REL_TOL", -0.99)
    rs = build_root_system(AdeType(family, rank))
    cfg = SearchConfig(seed=seed, restarts=restarts)
    assert optimize_ratio(rs, cfg).samples_violating > 0
    assert_optimize_matches_reference(rs, cfg)


@pytest.mark.parametrize("family, rank", [("A", 2), ("D", 4), ("E", 6)])
def test_optimize_charges_one_entry_at_a_time(monkeypatch, family, rank):
    # Start and trial entries alike are one-entry `_charge` calls, so each
    # entry of the search's charge is `_charge` of its own parameters and a
    # trial clamped onto the current point is that point on any platform.
    sizes = []

    def recorded(phase, log_r):
        sizes.append((np.size(phase), np.size(log_r)))
        return charge(phase, log_r)

    charge = search._charge
    monkeypatch.setattr(search, "_charge", recorded)
    optimize_ratio(build_root_system(AdeType(family, rank)), SearchConfig(seed=3, restarts=2))
    assert len(sizes) >= 2 * rank
    assert set(sizes) == {(1, 1)}


# == Trial screen ============================================================

@pytest.mark.parametrize(
    "family, rank, seed, restarts, screened",
    [("A", 2, 7, 8, 2271), ("A", 8, 0, 2, 4038), ("D", 16, 3, 1, 10161), ("E", 8, 0, 1, 4428)],
)
def test_the_screen_drops_most_trials(monkeypatch, family, rank, seed, restarts, screened):
    # The results cannot tell a search that screens from one that evaluates
    # every trial, about 5x slower.  The screen sees every trial that is not
    # a no-op, a count fixed by the search path and by float compares; each
    # start and each trial the screen lets through is one `_score`.
    # Exact evaluations are bounded, not pinned: `_screen`'s BLAS product can
    # move a near-tie trial across the screen on another numpy.
    calls = {"screen": 0, "exact": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    screen = search._screen
    monkeypatch.setattr(search, "_screen", lambda *args: counted("screen", screen(*args)))
    monkeypatch.setattr(search, "_score", counted("exact", search._score))
    rs = build_root_system(AdeType(family, rank))
    optimize_ratio(rs, SearchConfig(seed=seed, restarts=restarts))
    assert calls["screen"] == screened
    assert 0 < calls["exact"] - restarts <= screened / 3


def _score(rs, z):
    return search._score(rs.complex_root_matrix, z, rs.rank, rs.coxeter)


def _start(rs, rng, log_r=(-3.0, 3.0)):
    """Parameters, charge and root-route volume of a point like the search's."""
    n = rs.rank
    x = np.empty(2 * n)
    x[:n] = rng.uniform(search.PHASE_MARGIN, 1.0 - search.PHASE_MARGIN, size=n)
    x[n:] = rng.uniform(*log_r, size=n)
    z = search._charge(x[:n], x[n:])
    return x, z, _score(rs, z)[3]


def _assert_bound_holds(rs, x, z, vol, k, phase, log_r):
    """The screen's bound against the exact ratio of the trial, built as
    the search builds it."""
    n = rs.rank
    trial = x.copy()
    trial[k], trial[n + k] = phase, log_r
    trial_z = z.copy()
    trial_z[k : k + 1] = search._charge(trial[k : k + 1], trial[n + k : n + k + 1])
    exact = _score(rs, trial_z)[0]
    bound = search._screen(rs, z, vol)(k, phase, log_r)
    assert bound >= exact, (str(rs.ade), k, phase, log_r, bound, exact)
    return bound, exact


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_trial_ratio_bound_covers_random_trials(ade):
    rs = build_root_system(ade)
    n = rs.rank
    rng = np.random.default_rng(n)
    for _ in range(40):
        x, z, vol = _start(rs, rng)
        k = int(rng.integers(n))
        phase, log_r = x[k], x[n + k]
        # A search move: one coordinate, at a step from 0.25 down to below 1e-9.
        step = 10.0 ** rng.uniform(-12, np.log10(0.25))
        if rng.random() < 0.5:
            phase = min(max(phase + rng.choice((-1, 1)) * step, 1e-7), 1 - 1e-7)
        else:
            log_r = min(max(log_r + rng.choice((-1, 1)) * step, -3.0), 3.0)
        _assert_bound_holds(rs, x, z, vol, k, phase, log_r)
        # An unrelated trial entry anywhere in the box.
        _assert_bound_holds(rs, x, z, vol, k, rng.uniform(1e-7, 1 - 1e-7), rng.uniform(-3, 3))


def _params_of(entry: complex) -> tuple[float, float]:
    return float(np.angle(entry) / np.pi), float(np.log10(abs(entry)))


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_trial_ratio_bound_covers_adversarial_trials(ade):
    rs = build_root_system(ade)
    n = rs.rank
    inv = rs.inverse_array
    rng = np.random.default_rng(1000 + n)
    walls = (search.PHASE_MARGIN, 1.0 - search.PHASE_MARGIN)
    near_ties = 0
    for scale in ((-3.0, 3.0), (-3.0, -3.0), (3.0, 3.0), (-3.0, -2.9), (2.9, 3.0)):
        x, z, vol = _start(rs, rng, scale)
        for k in {0, n - 1, int(rng.integers(n)), int(np.abs(z).argmin())}:
            phase, log_r = x[k], x[n + k]
            # The move along entry k that cancels the most volume, and
            # moves part and all the way toward it.
            w = complex(inv[k] @ z)
            for t in (0.5, 0.99, 1.0 - 1e-9, 1.0):
                target = z[k] - t * w / inv[k, k]
                if target != 0:
                    _assert_bound_holds(rs, x, z, vol, k, *_params_of(target))
            # Entries at the phase and log-radius walls.
            for wall_phase in walls:
                for wall_r in (-3.0, 3.0):
                    _assert_bound_holds(rs, x, z, vol, k, wall_phase, wall_r)
                _assert_bound_holds(rs, x, z, vol, k, wall_phase, log_r)
            for wall_r in (-3.0, 3.0):
                _assert_bound_holds(rs, x, z, vol, k, phase, wall_r)
            # Moves below the rounding of the volume: the exact ratio is
            # the current one give or take an ulp, so a bound without its
            # rounding margins fails here.
            for ulps in (1, 2, 5, 40):
                for sign in (1, -1):
                    for kind in (0, 1):
                        trial_phase = phase + sign * ulps * np.spacing(phase) * (kind == 0)
                        trial_log_r = log_r + sign * ulps * np.spacing(abs(log_r)) * (kind == 1)
                        bound, exact = _assert_bound_holds(
                            rs, x, z, vol, k, trial_phase, trial_log_r
                        )
                        near_ties += bound <= exact * (1 + 1e-9)
    assert near_ties > 0  # the trials above do probe the rounding margin


# == Spectral bound ==========================================================
# vol = z* C^-1 z >= |z|^2 / lambda_max(C) >= n min|z_i|^2 / lambda_max(C), so
# every ratio sys_upper^2 / vol is at most lambda_max(C) / n.  As h - 1 is an
# exponent, lambda_max(C) = 2 + 2 cos(pi / h) (Bourbaki, Lie Groups and Lie
# Algebras, Ch. V, §6).  The bound is h / n at A1 and A2, where A1 attains
# it, and up to 15 times below h / n past them.

def largest_cartan_eigenvalue(rs):
    return 2 + 2 * math.cos(math.pi / rs.coxeter)


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_largest_cartan_eigenvalue_closed_form(ade):
    rs = build_root_system(ade)
    eigenvalue = np.linalg.eigvalsh(rs.cartan_array.astype(float))[-1]
    assert abs(eigenvalue - largest_cartan_eigenvalue(rs)) <= 1e-12


@pytest.mark.parametrize("ade", ALL_TYPES, ids=str)
def test_every_ratio_within_the_spectral_bound(ade, monkeypatch):
    rs = build_root_system(ade)
    bound = largest_cartan_eigenvalue(rs) / rs.rank
    limit = bound * (1 + 1e-12)
    rng = np.random.default_rng(rs.rank)
    for _ in range(20):
        z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        assert check_inequality(rs, z).ratio_upper <= limit
    assert sample_ratios(rs, SearchConfig(sample_count=1000, seed=0)).ratios.max() <= limit
    monkeypatch.setattr(search, "MAX_ITERS", 50)
    optimized = optimize_ratio(rs, SearchConfig(restarts=1, seed=0))
    assert optimized.best_ratio <= limit
    if str(ade) == "A1":
        assert optimized.best_ratio == pytest.approx(bound, rel=1e-12)

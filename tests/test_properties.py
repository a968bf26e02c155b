"""Property tests (hypothesis) at ranks past the acceptance suite's <= 8."""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adesystole import search
from adesystole.actions import (
    BACKWARD,
    FORWARD,
    canonical_heart,
    reflect_charge,
    simple_tilt,
)
from adesystole.roots import AdeType, build_root_system, count_positive_roots
from adesystole.search import SearchConfig
from adesystole.stability import (
    REL_TOL,
    check_inequality,
    systole_lower,
    systole_upper,
    volume_basis,
    volume_roots,
)
from test_actions import assert_graph_matches_reference, validate_heart
from test_milnor import assert_poly_matches_reference
from test_roots import _bareiss
from test_search import (
    assert_optimize_matches_reference,
    assert_sample_matches_reference,
    block_rows,
)
from test_stability import assert_kernels_match_reference

ALL_TYPES = (
    [AdeType("A", n) for n in range(1, 33)]
    + [AdeType("D", n) for n in range(4, 33)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)

PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)


def draw_heart_charge(data, rank: int, decades: float) -> np.ndarray:
    """Entries r e^{i pi phi} with phi in [0.01, 0.99] and log10 r in
    [-decades, decades]: every positive root then has a value in the upper
    half plane, so no root sum cancels to (near) zero."""
    entries = st.tuples(st.floats(0.01, 0.99), st.floats(-decades, decades))
    drawn = data.draw(st.lists(entries, min_size=rank, max_size=rank), label="charge")
    phase, log_r = np.array(drawn).T
    return 10.0**log_r * np.exp(1j * np.pi * phase)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_tilt_words_preserve_the_cartan_form(data):
    # Each tilt is the reflection in the tilted simple, so M C M^T stays C.
    ade = data.draw(st.sampled_from(ALL_TYPES), label="type")
    rs = build_root_system(ade)
    moves = st.tuples(st.integers(1, ade.rank), st.sampled_from((FORWARD, BACKWARD)))
    word = data.draw(st.lists(moves, min_size=1, max_size=40), label="word")
    heart = canonical_heart(rs)
    for k, direction in word:
        heart = simple_tilt(rs, heart, k, direction)
    m = np.array(heart.simples, dtype=np.int64)
    assert np.array_equal(m @ rs.cartan_array @ m.T, rs.cartan_array)
    validate_heart(rs, heart)
    assert heart.word == tuple(word)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_volume_and_lower_systole_invariant_under_simple_reflection(data):
    # s_i permutes the positive roots other than e_i and negates e_i, so the
    # root moduli are permuted.  Moduli within two decades keep the
    # round-off of the reflected root sums far below REL_TOL.
    rs = build_root_system(data.draw(st.sampled_from(ALL_TYPES), label="type"))
    z = draw_heart_charge(data, rs.rank, decades=1.0)
    i = data.draw(st.integers(1, rs.rank), label="vertex")
    reflected = reflect_charge(rs, i, z)
    assert close(volume_roots(rs, reflected), volume_roots(rs, z))
    assert close(systole_lower(rs, reflected), systole_lower(rs, z))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_volume_and_systole_scale_with_the_charge(data):
    rs = build_root_system(data.draw(st.sampled_from(ALL_TYPES), label="type"))
    z = draw_heart_charge(data, rs.rank, decades=3.0)
    log_t = data.draw(st.floats(-3.0, 3.0), label="log10 |t|")
    arg_t = data.draw(st.floats(0.0, 2.0), label="arg t / pi")
    t = 10.0**log_t * np.exp(1j * np.pi * arg_t)
    vol, scaled_vol = volume_roots(rs, z), volume_roots(rs, t * z)
    assert close(scaled_vol, abs(t) ** 2 * vol)
    assert close(systole_upper(rs, t * z), abs(t) * systole_upper(rs, z))
    assert close(systole_lower(rs, t * z), abs(t) * systole_lower(rs, z))
    assert close(systole_upper(rs, t * z) ** 2 / scaled_vol, systole_upper(rs, z) ** 2 / vol)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_basis_and_root_volumes_agree(data):
    rs = build_root_system(data.draw(st.sampled_from(ALL_TYPES), label="type"))
    z = draw_heart_charge(data, rs.rank, decades=3.0)
    assert close(volume_basis(rs, z), volume_roots(rs, z))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_every_ratio_within_the_spectral_bound(data):
    # sys_upper^2 / vol <= lambda_max(C) / n with lambda_max(C) = 2 + 2 cos(pi / h);
    # see the spectral-bound section of test_search.py.
    rs = build_root_system(data.draw(st.sampled_from(ALL_TYPES), label="type"))
    z = draw_heart_charge(data, rs.rank, decades=3.0)
    bound = (2 + 2 * math.cos(math.pi / rs.coxeter)) / rs.rank
    assert check_inequality(rs, z).ratio_upper <= bound * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_bareiss_determinant_and_adjugate(data):
    # Small entries keep float det within 0.5 of the integer; duplicated
    # rows make singular matrices common.
    n = data.draw(st.integers(1, 6), label="size")
    rows = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
        label="rows",
    )
    if n > 1 and data.draw(st.booleans(), label="singular"):
        rows[-1] = list(rows[0])
    det, adj = _bareiss(rows)
    m = np.array(rows, dtype=np.int64)
    assert det == round(np.linalg.det(m))
    if det:
        assert np.array_equal(m @ np.array(adj, dtype=np.int64), det * np.eye(n, dtype=np.int64))
    else:
        assert adj is None


@PROPERTY_SETTINGS
@given(data=st.data())
def test_sample_blocks_match_one_block_reference_anywhere(data):
    rs = build_root_system(data.draw(st.sampled_from(ALL_TYPES), label="type"))
    count = data.draw(st.integers(1, 3 * block_rows(rs)), label="count")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    assert_sample_matches_reference(rs, SearchConfig(sample_count=count, seed=seed))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_optimize_matches_reference_search_anywhere(data):
    # Short searches, so that the reference's full evaluation of every
    # trial stays cheap up to rank 32.
    rs = build_root_system(data.draw(st.sampled_from(ALL_TYPES), label="type"))
    cfg = SearchConfig(
        seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        restarts=data.draw(st.integers(1, 2), label="restarts"),
    )
    with patch.object(search, "MAX_ITERS", data.draw(st.integers(1, 12), label="max_iters")):
        assert_optimize_matches_reference(rs, cfg)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_exchange_graph_matches_reference_search(data):
    # Up to rank 5 the graph may close; past rank 16 depth 4 is slow.
    ade = data.draw(st.sampled_from(ALL_TYPES), label="type")
    deepest = count_positive_roots(ade) + 1 if ade.rank <= 5 else 4 if ade.rank <= 16 else 3
    depth = data.draw(st.integers(1, deepest), label="depth")
    assert_graph_matches_reference(build_root_system(ade), depth)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_kernels_match_reference_anywhere(data):
    # Entries over the whole float range, zeros of either sign included, so
    # that volumes also underflow or overflow and zero entries are hit.
    rs = build_root_system(data.draw(st.sampled_from(ALL_TYPES), label="type"))
    parts = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((0.0, -0.0))
    drawn = data.draw(st.lists(st.tuples(parts, parts), min_size=rs.rank, max_size=rs.rank), label="charge")
    assert_kernels_match_reference(rs, np.array([complex(re, im) for re, im in drawn]))
    assert_kernels_match_reference(rs, draw_heart_charge(data, rs.rank, decades=3.0))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_poly_roots_and_correspondence_match_reference_anywhere(data):
    # Coefficients within 1e3 keep the reference's polish finite up to
    # degree 33; zero trailing coefficients and repeated roots are drawn too.
    n = data.draw(st.integers(1, 32), label="n")
    part = st.floats(-1e3, 1e3) | st.sampled_from((0.0, -0.0, 1.0))
    coeffs = data.draw(st.lists(st.tuples(part, part), min_size=n, max_size=n), label="coefficients")
    coeffs = [complex(re, im) for re, im in coeffs]
    zeros = data.draw(st.integers(0, n), label="zero trailing coefficients")
    coeffs[n - zeros :] = [0j] * zeros
    if data.draw(st.booleans(), label="repeated roots"):
        half = np.array(coeffs[: (n + 2) // 2] or [1.0])
        doubled = np.concatenate([half, half])[: n + 1]
        coeffs = list(np.poly(doubled - doubled.mean())[2:])
    assert_poly_matches_reference(coeffs)

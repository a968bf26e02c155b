"""Property tests (hypothesis) at ranks past the acceptance suite's <= 8."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adesystole.actions import (
    BACKWARD,
    FORWARD,
    canonical_heart,
    reflect_charge,
    simple_tilt,
    validate_heart,
)
from adesystole.roots import AdeType, _bareiss, build_root_system
from adesystole.stability import (
    REL_TOL,
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

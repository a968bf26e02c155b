"""Property tests (hypothesis) at ranks past the acceptance suite's <= 8."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adesystole.actions import BACKWARD, FORWARD, canonical_heart, simple_tilt, validate_heart
from adesystole.roots import AdeType, build_root_system

ALL_TYPES = (
    [AdeType("A", n) for n in range(1, 33)]
    + [AdeType("D", n) for n in range(4, 33)]
    + [AdeType("E", n) for n in (6, 7, 8)]
)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
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

"""The Python PCG64 stream draws what numpy's `Generator(PCG64(seed))` draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlcalib._pcg64 import PCG64

# successive calls on one stream: a permutation leaves half of a 64-bit draw
# buffered for the next, and `random` draws whole 64-bit words in between
calls = st.lists(st.tuples(st.sampled_from(["permutation", "random"]), st.integers(0, 300)),
                 min_size=1, max_size=6)


@given(seed=st.integers(0, 2**130), calls=calls)
@settings(max_examples=200, deadline=None)
def test_stream_is_numpys(seed, calls):
    ours, numpys = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
    for method, n in calls:
        assert getattr(ours, method)(n) == getattr(numpys, method)(n).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 1])
def test_word_boundary_seeds(seed):
    ours, numpys = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
    assert ours.permutation(300) == numpys.permutation(300).tolist()
    assert ours.random(3) == numpys.random(3).tolist()


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_raises_numpys_text(seed):
    with pytest.raises(ValueError) as expected:
        np.random.PCG64(seed)
    with pytest.raises(ValueError) as err:
        PCG64(seed)
    assert str(err.value) == str(expected.value) == "expected non-negative integer"

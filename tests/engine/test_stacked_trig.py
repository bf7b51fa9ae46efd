"""Stacked yaw trig equals per-row yaw trig, bit for bit.

The fused motion stage refreshes the cos/sin shadows of every triggered
row with one ``np.cos``/``np.sin`` call over the gathered ``(R', N)``
block instead of one call per row, or, when the rows fill one block of
the stack, with one call over that slice of the stack written in place
(``out=``).  That is only legal if numpy's (possibly SIMD) float64 trig
gives each element the same bits whatever its position in the call:
inside a vector lane or in the remainder tail, at any alignment.  Row
lengths around the vector widths (7, 8, 9, 63, 64, 65, 257) put every
lane position in play.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

F32_PI = float(np.float32(math.pi))  # a float32-stored yaw can round up to it

SPECIALS = [
    0.0,
    -0.0,
    math.pi,
    -math.pi,
    F32_PI,
    -F32_PI,
    5e-324,  # float64 subnormals
    -5e-324,
    2.2250738585072009e-308,
    float(np.float32(1e-45)),  # a float32 subnormal, widened
    float(np.float32(-1.17e-38)),
    1e4,
    -1e4,
    9999.999999999998,
]

values = st.one_of(
    st.floats(-F32_PI, F32_PI, width=32),
    st.sampled_from(SPECIALS),
    st.floats(-1e4, 1e4),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gathered=st.integers(1, 40),
    extra=st.integers(0, 8),
    n=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 257]),
    data=st.data(),
)
def test_gathered_block_trig_equals_per_row_trig(seed, gathered, extra, n, data):
    rng = np.random.default_rng(seed)
    stack_rows = gathered + extra
    # float32-stored yaws, a tenth of them replaced by unwrapped angles
    theta = rng.uniform(-math.pi, math.pi, (stack_rows, n))
    theta = theta.astype(np.float32).astype(np.float64)
    wide = rng.random(theta.shape) < 0.1
    theta[wide] = rng.uniform(-1e4, 1e4, int(wide.sum()))
    cells = st.tuples(st.integers(0, theta.size - 1), values)
    for flat, value in data.draw(st.lists(cells, max_size=24)):
        theta.flat[flat] = value
    rows = np.array(data.draw(st.permutations(range(stack_rows)))[:gathered])

    block = theta[rows]
    for trig in (np.cos, np.sin):
        stacked = trig(block)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                stacked[i].view(np.uint64), trig(theta[row]).view(np.uint64)
            )

    # A contiguous block of rows, evaluated into the same rows of a
    # stack-shaped array; the rows around it stay as they were.
    low = data.draw(st.integers(0, stack_rows - 1))
    high = data.draw(st.integers(low + 1, stack_rows))
    for trig in (np.cos, np.sin):
        shadow = np.full_like(theta, np.nan)
        trig(theta[low:high], out=shadow[low:high])
        for row in range(low, high):
            np.testing.assert_array_equal(
                shadow[row].view(np.uint64), trig(theta[row]).view(np.uint64)
            )
        assert np.isnan(shadow[:low]).all() and np.isnan(shadow[high:]).all()

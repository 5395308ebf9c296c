"""Property test of the simplex's vertex order against np.argsort, scipy's sort."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from adjfactor import models  # noqa: E402

# few values, so that lists repeat them: ties (-0.0 and 0.0 among them), NaN
# and both infinities, where np.argsort's unstable order must be kept
POOL = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, math.inf, -math.inf, math.nan]
VALUES = st.lists(st.sampled_from(POOL), min_size=3, max_size=4)


@settings(max_examples=1000, deadline=None, database=None)
@given(VALUES)
def test_order_is_argsort(fsim):
    sim = [[float(i)] for i in range(len(fsim))]
    ordered, values = models._order(sim, fsim)
    expected = np.argsort(np.array(fsim))
    assert [int(row[0]) for row in ordered] == expected.tolist()
    assert np.array(values).tobytes() == np.array(fsim)[expected].tobytes()

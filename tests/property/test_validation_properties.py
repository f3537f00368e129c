"""Property-based tests for the numpy Spearman statistic."""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validation import spearman

_TIED = st.integers(min_value=-3, max_value=3)
_WIDE = st.floats(min_value=-1e9, max_value=1e9)


@st.composite
def _paired_samples(draw):
    """Two equal-length samples: tied, distinct, constant, NaN or short."""
    kind = draw(st.sampled_from(["tied", "distinct", "constant", "nan", "short"]))
    n = draw(st.integers(0, 2) if kind == "short" else st.integers(3, 69))
    element = _WIDE if kind in ("distinct", "nan") else _TIED
    x = draw(st.lists(element, min_size=n, max_size=n))
    y = draw(st.lists(element, min_size=n, max_size=n))
    if kind == "constant" and n:
        x = [x[0]] * n
    if kind == "nan" and n:
        x[draw(st.integers(0, n - 1))] = math.nan
    if draw(st.booleans()):
        x, y = y, x
    if kind == "tied" and draw(st.booleans()):
        x = np.array(x)  # integer input, as topology inference passes hops
    return x, y


@given(_paired_samples())
@settings(max_examples=500, deadline=None)
def test_spearman_matches_scipy_bit_for_bit(pair):
    from scipy import stats

    x, y = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        expected = float(stats.spearmanr(x, y).statistic)
    got = spearman(x, y)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got.hex() == expected.hex()

"""Every function that takes points reads them through `kernels._as_points`:
malformed arrays are a ValueError at the boundary, never an IndexError,
ZeroDivisionError or TypeError from deeper down, and never a NaN result."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kthin import kernels as kn
from kthin.discrepancy import DiscreteMeasure, SwapCache, kernel_row_means, mmd_points
from kthin.targets import median_heuristic_bandwidth, moment1, write_binary
from kthin.thinning import (ThinningConfig, generalized_kt, kt_plus, kt_split, kt_swap,
                            power_kt, target_kt)

K = kn.gauss(1.0)
CFG = ThinningConfig(m=1, seed=0)

ENTRY_POINTS = {
    "gram": lambda x: kn.gram(K, x),
    "DiscreteMeasure": DiscreteMeasure,
    "mmd_points": lambda x: mmd_points(K, x, x),
    "kernel_row_means": lambda x: kernel_row_means(K, x),
    "SwapCache": lambda x: SwapCache(K, x, [0]),
    "kt_split": lambda x: kt_split(K, x, CFG),
    "kt_swap": lambda x: kt_swap(K, x, [np.array([0])], CFG),
    "target_kt": lambda x: target_kt(K, x, CFG),
    "power_kt": lambda x: power_kt(K, x, CFG, alpha=0.5),
    "kt_plus": lambda x: kt_plus(K, x, CFG, alpha=0.5),
    "generalized_kt": lambda x: generalized_kt(K, K, x, CFG),
    "TestFunction": lambda x: moment1()(x),
    "median_heuristic_bandwidth": median_heuristic_bandwidth,
    # rejected before the file is opened
    "write_binary": lambda x: write_binary(os.devnull, x),
}


@st.composite
def malformed_arrays(draw):
    """A 1-D or 2-D array with a NaN or +-inf entry, an array with a 0 in its
    shape, or a 3-D array."""
    kind = draw(st.sampled_from(["non-finite", "empty", "3-D"]))
    if kind == "non-finite":
        x = draw(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, max_side=5),
                            elements=st.floats(-10, 10)))
        x.reshape(-1)[draw(st.integers(0, x.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        return x
    if kind == "empty":
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
                     .filter(lambda s: 0 in s))
        return np.zeros(shape)
    return draw(hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3, max_side=3),
                           elements=st.floats(-10, 10)))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=25, deadline=None)
@given(x=malformed_arrays())
def test_malformed_arrays_are_value_errors(entry, x):
    with pytest.raises(ValueError, match=r"\(n, d\) array|non-finite input value at row"):
        ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("x", [[[0.0, 1.0], [2.0]], [["a", "b"]], {"x": 1.0}, None],
                         ids=["ragged", "text", "dict", "none"])
def test_malformed_inputs_are_value_errors(entry, x):
    with pytest.raises(ValueError, match=r"\(n, d\) array"):
        ENTRY_POINTS[entry](x)


def test_non_finite_entry_is_named_by_row_and_column():
    x = np.zeros((5, 3))
    x[3, 2] = -np.inf
    for entry, call in ENTRY_POINTS.items():
        with pytest.raises(ValueError, match="non-finite input value at row 3, column 2"):
            call(x)

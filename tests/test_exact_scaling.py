"""`kernels._divide`, the scaling step of gauss, laplace and imq: bitwise
`out /= c` for every divisor and entry, and the three families' `evaluate`
bitwise their arithmetic before the rule, kept here as the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kthin import kernels as kn

SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 2.0 ** -1070, np.inf, -np.inf,
                    np.nan, 1.7e308, -1.7e308, 1e300, 1.0, -3.5])

entries = hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(
    allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64))
powers_of_two = st.builds(lambda k, sign: sign * 2.0 ** k, st.integers(-40, 40),
                          st.sampled_from([1.0, -1.0]))
divisors = st.one_of(powers_of_two, st.floats(allow_nan=False, allow_infinity=False).filter(bool))


def _divided(a: np.ndarray, c: float) -> np.ndarray:
    out = a.copy()
    with np.errstate(all="ignore"):
        kn._divide(out, c)
    return out


def _quotient(a: np.ndarray, c: float) -> np.ndarray:
    with np.errstate(all="ignore"):
        return a / c


@settings(max_examples=300, deadline=None)
@given(entries, divisors)
def test_divide_is_the_division_bitwise(a, c):
    a = np.concatenate([a, SPECIAL])
    assert _divided(a, c).tobytes() == _quotient(a, c).tobytes()


@pytest.mark.parametrize("c", [1.0, -1.0, 2.0 ** -1022, 2.0 ** 1022, 2.0 ** 1023, -2.0 ** 1023,
                               2.0 ** -1023, 2.0 ** -1024, 2.0 ** -1074, 3.0 * 2.0 ** -1074,
                               0.75, -0.1, math.nextafter(2.0, 3.0), math.nextafter(0.5, 0.0)])
def test_divide_at_the_edges_of_the_reciprocal_rule(c):
    # the largest and smallest powers of two whose reciprocal is normal, the
    # first ones past them (a subnormal or infinite reciprocal), subnormal
    # divisors, and the neighbours of powers of two
    a = np.concatenate([SPECIAL, np.random.default_rng(0).normal(size=64) * 1e10])
    assert _divided(a, c).tobytes() == _quotient(a, c).tobytes()


def _parent_evaluate(k: kn.KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """gauss, laplace and imq as they were computed by division."""
    out = np.subtract(x[..., 0], y[..., 0])
    out *= out
    for j in range(1, x.shape[-1]):
        diff = np.subtract(x[..., j], y[..., j])
        diff *= diff
        out += diff
    if k.family == "gauss":
        out /= -2.0 * k.sigma**2
        np.exp(out, out=out)
    elif k.family == "laplace":
        np.sqrt(out, out=out)
        np.negative(out, out=out)
        out /= k.sigma
        np.exp(out, out=out)
    else:
        out /= k.gamma**2
        out += 1.0
        out **= -k.nu
    if k.scale != 1.0:
        out *= k.scale
    return out


widths = st.one_of(st.builds(lambda k: 2.0 ** k, st.integers(-20, 20)),
                   st.floats(1e-3, 1e3))
coordinates = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e154,
                                                               -1e154, 1e200, 1.7e308]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["gauss", "laplace", "imq"]), widths, st.sampled_from([1.0, 0.5, 3.0]),
       st.integers(1, 3), st.data())
def test_evaluate_is_the_divided_arithmetic_bitwise(family, width, scale, d, data):
    k = {"gauss": kn.gauss(width, scale), "laplace": kn.laplace(width, scale),
         "imq": kn.imq(0.7, width, scale)}[family]
    x = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6)), d), elements=coordinates))
    y = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6)), d), elements=coordinates))
    with np.errstate(all="ignore"):
        want = _parent_evaluate(k, x[:, None], y[None])
        got = kn.evaluate(k, x[:, None], y[None])
    assert got.tobytes() == want.tobytes()

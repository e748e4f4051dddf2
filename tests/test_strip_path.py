"""The strip loop of `discrepancy._kernel_sums` against its `@` form, and the
caller's numpy error settings on every task that `kernels._in_order` runs.

The oracle below is the loop as it was before three changes that are meant
to leave every bit alone: `np.dot` in place of `@` (np.dot releases the GIL
during BLAS), the points read once per sum instead of once per strip, and a
ufunc buffer of one row.  Its kernel values come from `gram`, whose own
arithmetic `test_exact_scaling.py` checks.  The sums must match it bitwise,
on one CPU and pooled.
"""

import threading

import numpy as np
import pytest

from kthin import discrepancy
from kthin import kernels as kn
from kthin import thinning
from kthin.discrepancy import _COLS, _ROWS
from kthin.thinning import ThinningConfig
from conftest import sums_at

SIZES = (1, 2, 31, 32, 33, 64, 65, 2049, 4097, 8193)


def _oracle_sums(k, x, w, y=None):
    symmetric = y is None
    flip = not symmetric and len(y) < len(x)
    rows, cols = (y, x) if flip else (x, x if symmetric else y)
    cols = np.asfortranarray(cols)
    out = np.zeros(len(x))
    for i0 in range(0, len(rows), _ROWS):
        i1 = min(i0 + _ROWS, len(rows))
        for j0 in range(i0 if symmetric else 0, len(cols), _COLS):
            j1 = min(j0 + _COLS, len(cols))
            g = kn.gram(k, rows[i0:i1], cols[j0:j1])
            if flip:
                out[j0:j1] += w[i0:i1] @ g
                continue
            out[i0:i1] += g @ w[j0:j1]
            if symmetric and j1 > i1:
                past = max(j0, i1)
                out[past:j1] += w[i0:i1] @ g[:, past - j0:]
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", SIZES)
def test_strip_sums_are_the_matmul_loop_bitwise(monkeypatch, n, d):
    # the long side ends in a strip 37 columns past the short side's last,
    # so every size also has a narrow last column run
    k = kn.gauss(1.3)
    rng = np.random.default_rng(100 * n + d)
    x, y = rng.normal(size=(n, d)), rng.normal(size=(n + 37, d))
    w, v = rng.random(n), rng.random(n + 37)
    cases = {"symmetric": (k, x, w), "plain": (k, x, v, y), "flipped": (k, y, w, x)}
    for name, args in cases.items():
        one = sums_at(monkeypatch, 1, *args)
        assert one.tobytes() == _oracle_sums(*args).tobytes(), name
        if n in (2049, 4097):  # enough strips for the pool, and each ends narrow
            assert sums_at(monkeypatch, 3, *args).tobytes() == one.tobytes(), name


@pytest.mark.parametrize("k", [kn.laplace(0.5), kn.imq(0.7, 2.0),
                               kn.kernel_sum(kn.laplace(1.0), kn.gauss(4.0))],
                         ids=["laplace", "imq", "sum"])
def test_strip_sums_of_other_families_are_the_matmul_loop_bitwise(monkeypatch, k):
    # power-of-two widths, which take the reciprocal scaling; the weights
    # are strided views, which the products take as they are
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(4097, 2)), rng.normal(size=(65, 2))
    w, v = rng.random(2 * 4097)[::2], rng.random(2 * 65)[::2]
    for args in ((k, x, w), (k, y, v), (k, x, v, y), (k, y, w, x)):
        assert sums_at(monkeypatch, 2, *args).tobytes() == _oracle_sums(*args).tobytes()


def test_gram_and_kernel_sums_read_their_points():
    # both check through `kernels._read_pair`, a sum once before its strips'
    # unchecked `_gram` calls
    x = np.zeros((4, 2))
    x[2, 1] = np.nan
    with pytest.raises(ValueError, match="row 2, column 1"):
        kn.gram(kn.gauss(1.0), x)
    with pytest.raises(ValueError, match="row 2, column 1"):
        discrepancy._kernel_sums(kn.gauss(1.0), x, np.ones(4))
    with pytest.raises(kn.KernelError, match="dimension mismatch: 2 vs 3"):
        kn.gram(kn.gauss(1.0), np.zeros((4, 2)), np.zeros((5, 3)))
    with pytest.raises(kn.KernelError, match="dimension mismatch: 2 vs 3"):
        discrepancy._kernel_sums(kn.gauss(1.0), np.zeros((4, 2)), np.ones(5), np.zeros((5, 3)))


def _on_error(kind, flag):
    """A numpy error callback, which the tests set and never trigger."""


def _recording(monkeypatch, module, name):
    """Wrap module.name to record (thread, numpy's overflow setting and error
    callback) per call; the calling thread's first call waits until a helper
    has made one, so that both kinds of thread are seen."""
    real, caller = getattr(module, name), threading.current_thread()
    seen, helper_ran = [], threading.Event()

    def wrapped(*args, **kwargs):
        on_helper = threading.current_thread() is not caller
        seen.append((on_helper, (np.geterr()["over"], np.geterrcall())))
        if on_helper:
            helper_ran.set()
        else:
            assert helper_ran.wait(30)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return seen


def test_pooled_strips_run_under_the_callers_error_settings(monkeypatch):
    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    seen = _recording(monkeypatch, discrepancy, "gram")
    n = 4096
    x = np.random.default_rng(3).normal(size=(n, 2))
    with np.errstate(over="raise", call=_on_error):
        discrepancy._kernel_sums(kn.gauss(1.0), x, np.full(n, 1.0 / n))
    assert {on_helper for on_helper, _ in seen} == {False, True}
    assert {state for _, state in seen} == {("raise", _on_error)}


def test_pipelined_split_blocks_run_under_the_callers_error_settings(monkeypatch):
    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    seen = _recording(monkeypatch, thinning, "evaluate")
    points = np.random.default_rng(4).normal(size=(256, 2))
    k = kn.matern(1.125 + 1.0, 1.1)  # a Bessel order in d = 2: the split pipelines
    assert kn._evaluates_kv(k, 2)
    with np.errstate(over="raise", call=_on_error):
        thinning.kt_split(k, points, ThinningConfig(m=3, seed=1))
    assert {on_helper for on_helper, _ in seen} == {False, True}
    assert {state for _, state in seen} == {("raise", _on_error)}
    assert (np.geterr()["over"], np.geterrcall()) == ("warn", None)

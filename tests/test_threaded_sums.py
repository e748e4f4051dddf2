"""Kernel sums and Bessel chunks on several threads: bitwise the one-CPU
results, taken in order, with every helper thread gone when the call returns."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from kthin import discrepancy
from kthin import kernels as kn
from kthin.discrepancy import _COLS, _POOL_STRIPS, _ROWS
from kthin.harness import ExperimentPlan, Variant, run_experiment
from kthin.targets import MogTarget


def _bessel_matern(d):
    # order nu - d/2 = 1.125 is neither an integer nor a half-integer: scipy's kv
    return kn.matern(1.125 + d / 2, 1.1)


FAMILIES = {
    "gauss": lambda d: kn.gauss(1.3),
    "laplace": lambda d: kn.laplace(0.8),
    "matern": lambda d: kn.matern(1.5 + d / 2, 1.1),  # half-integer order: closed form
    "matern-bessel": _bessel_matern,
    "imq": lambda d: kn.imq(0.7, 1.2),
    "sinc": lambda d: kn.sinc(2.0),
    "bspline": lambda d: kn.bspline(1, 1.0),
    "sum": lambda d: kn.kernel_sum(kn.laplace(1.0), _bessel_matern(d)),
}


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    out = []
    inner = threading.Thread.start

    def counting(self):
        out.append(self)
        inner(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return out


def _sums_at(monkeypatch, cpus, *args):
    monkeypatch.setattr(kn, "_cpu_count", lambda: cpus)
    return discrepancy._kernel_sums(*args)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_threaded_sums_are_the_one_cpu_sums_bitwise(monkeypatch, started, family, d):
    # the pool starts from 2 strips here, so small inputs take it.  Partial
    # strips and column runs: the symmetric sum ends in a strip of 5 rows, and
    # the cross sums have 2 * _ROWS + 7 points against _COLS + 9
    monkeypatch.setattr(discrepancy, "_POOL_STRIPS", 2)
    k = FAMILIES[family](d)
    rng = np.random.default_rng(d)
    x = rng.normal(size=(3 * _ROWS + 5, d))
    short, long = rng.normal(size=(2 * _ROWS + 7, d)), rng.normal(size=(_COLS + 9, d))
    w = rng.random(_COLS + 9) + 0.05
    cases = {
        "symmetric": (k, x, w[:len(x)] / w[:len(x)].sum()),
        "plain": (k, short, w / w.sum(), long),
        "flipped": (k, long, w[:len(short)] / w[:len(short)].sum(), short),
    }
    for name, args in cases.items():
        one = _sums_at(monkeypatch, 1, *args)
        started.clear()
        threaded = _sums_at(monkeypatch, 3, *args)
        assert threaded.tobytes() == one.tobytes(), name
        # two helpers and no more: a Bessel strip of 32 x 4096 entries, more
        # than one kv chunk, computes its kv on the thread that runs the strip
        assert len(started) == 2, name


def test_sums_below_the_pool_size_stay_on_the_calling_thread(monkeypatch, started):
    # a symmetric sum of n <= _COLS points has one strip per _ROWS points
    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    k = kn.gauss(1.0)
    rng = np.random.default_rng(5)
    for strips, helpers in ((_POOL_STRIPS - 1, 0), (_POOL_STRIPS, 1)):
        n = strips * _ROWS
        discrepancy._kernel_sums(k, rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
        assert len(started) == helpers
        started.clear()
    # split-mog's swap cache: 64 coreset points against 4096 inputs, 2 strips
    discrepancy._kernel_sums(k, rng.normal(size=(4096, 2)), np.ones(64), rng.normal(size=(64, 2)))
    assert not started


def test_run_experiment_writes_the_one_cpu_bytes(monkeypatch, started, tmp_path):
    # a surrogate of 4096 points: a self-term of 128 strips, which takes the pool
    plan = ExperimentPlan(
        target=MogTarget(4), kernel=kn.gauss(2.0),
        variants=(Variant("standard"), Variant("targetkt")), sizes=(16, 64), replicates=1,
        seed=3, metrics=("mmd_input", "mmd_surrogate"), surrogate_size=4096,
    )
    written = {}
    for cpus in (1, 2):
        monkeypatch.setattr(kn, "_cpu_count", lambda: cpus)
        started.clear()
        out = tmp_path / str(cpus)
        run_experiment(plan, out_dir=str(out))
        written[cpus] = {name: (out / name).read_bytes() for name in ("raw.csv", "report.json")}
        assert bool(started) == (cpus > 1)
    assert written[1] == written[2]


def test_a_strip_failing_on_a_helper_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    real_gram = discrepancy.gram
    caller = threading.current_thread()
    helper_failed = threading.Event()
    after = []

    def failing_on_a_helper(k, x, y=None, *, out=None, _scratch=None):
        if threading.current_thread() is not caller:
            if not helper_failed.is_set():
                helper_failed.set()
                raise ArithmeticError("strip failed on a helper")
        else:
            # hold the caller's first strip until the helper has failed
            assert helper_failed.wait(30)
        after.append(threading.current_thread())
        return real_gram(k, x, y, out=out, _scratch=_scratch)

    monkeypatch.setattr(discrepancy, "gram", failing_on_a_helper)
    before = threading.active_count()
    n = 4 * _POOL_STRIPS * _ROWS
    x = np.random.default_rng(6).normal(size=(n, 2))
    with pytest.raises(ArithmeticError, match="on a helper"):
        discrepancy._kernel_sums(kn.gauss(1.0), x, np.full(n, 1.0 / n))
    # the helper has exited before the exception reached the caller, and no
    # strip began after the failure but the one the caller may have held
    assert threading.active_count() == before
    assert after in ([], [caller])


def test_in_order_takes_every_result_in_order_within_its_window():
    # more threads than CPUs, and a short switch interval, so that a lost
    # claim or take would show as a missing, repeated or reordered index
    states = ["caller", "helper 1", "helper 2"]
    window = 2 * len(states)
    taken, lags, runs = [], [], {}

    def task(i, state):
        # how far the claimed index runs ahead of the results taken so far
        lags.append(i - len(taken))
        runs.setdefault(state, set()).add(threading.get_ident())
        if i % 7 == 0:
            time.sleep(0.0005)
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        kn._in_order(task, 2000, states, taken.append)
    finally:
        sys.setswitchinterval(interval)
    assert taken == list(range(2000))
    assert max(lags) < window
    # each thread runs its tasks with its own state, the caller with the first
    assert runs["caller"] == {threading.get_ident()}
    assert all(len(threads) == 1 for threads in runs.values())
    assert len({t for threads in runs.values() for t in threads}) == len(runs)


def test_pool_size_is_one_per_cpu_and_task_and_one_inside_a_task(monkeypatch):
    monkeypatch.setattr(kn, "_cpu_count", lambda: 4)
    assert [kn._pool_size(t) for t in (0, 1, 3, 4, 9)] == [1, 1, 3, 4, 4]
    inside = []
    kn._in_order(lambda i, _: inside.append(kn._pool_size(9)), 8, [None, None], lambda _: None)
    assert inside == [1] * 8
    assert kn._pool_size(9) == 4


def test_no_thread_count_option():
    # the thread count follows the CPU affinity alone: no environment variable
    # or parameter of the package names threads or workers
    import inspect

    import kthin

    for name in kthin.__all__:
        obj = getattr(kthin, name)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            assert not any(p in params for p in ("threads", "workers", "n_jobs")), name
    src = os.path.dirname(kthin.__file__)
    for fname in os.listdir(src):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                text = fh.read()
            assert "os.environ" not in text and "getenv" not in text, fname

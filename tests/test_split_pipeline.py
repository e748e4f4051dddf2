"""KT-SPLIT with a Bessel-order kernel: its blocks are evaluated on the
helper threads of `kernels._in_order` while the calling thread decides them
in block order.  Candidates and row means are bitwise those of the split on
the calling thread alone, the threads are one per CPU and block, a block's
`kv` chunks start no threads of their own, and the block buffers stay
within `thinning._PIPELINE_BYTES`."""

import threading
import tracemalloc

import numpy as np
import pytest

import kthin.thinning
from kthin import kernels as kn
from kthin.thinning import ThinningConfig, Variant, _split


def _bessel_matern(d):
    # order nu - d/2 = 1.125: scipy's kv
    return kn.matern(1.125 + d / 2, 1.1)


# (split kernel, target kernel) for each variant that splits with a Bessel order
CASES = {
    "targetkt-bessel-matern": lambda d: (_bessel_matern(d), _bessel_matern(d)),
    "ktplus-laplace": lambda d: (
        Variant("ktplus", alpha=0.75).split_kernel_for(kn.laplace(1.0), d), kn.laplace(1.0)),
    "powerkt-explicit-matern": lambda d: (
        Variant("powerkt", split_kernel=kn.matern(0.9 + d / 2, 0.8)).split_kernel_for(
            kn.gauss(1.0), d), kn.gauss(1.0)),
    "perturbed-matern": lambda d: (
        kn.IdentityPerturbedKernel(_bessel_matern(d), 0.5), _bessel_matern(d).scaled(3)),
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


def _evaluating_threads(monkeypatch):
    """The threads that evaluate the split's blocks."""
    seen = set()
    inner = kthin.thinning.evaluate

    def recording(*args, **kwargs):
        seen.add(threading.get_ident())
        return inner(*args, **kwargs)

    monkeypatch.setattr(kthin.thinning, "evaluate", recording)
    return seen


def _per_thread_bytes(k_split, n, m):
    """Two result buffers and the scratch buffers of one thread."""
    base = k_split.base if isinstance(k_split, kn.IdentityPerturbedKernel) else k_split
    return 8 * 2 ** m * 2 * (n // 2) * (2 + (2 if base.family == "sum" else 1))


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("case", CASES)
def test_pipelined_split_is_the_calling_thread_split_bitwise(monkeypatch, started, case, cpus):
    # m = 3: one block, one block and an odd point, odd n with a partial
    # last block, an even partial last block; d = 1 and 2
    budget = kthin.thinning._PIPELINE_BYTES
    for d in (1, 2):
        k_split, k_target = CASES[case](d)
        for n in (8, 9, 8 * 7 + 5, 8 * 9 + 4):
            x = np.random.default_rng([n, d]).normal(size=(n, d))
            cfg = ThinningConfig(m=3, seed=n)
            monkeypatch.setattr(kn, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(kthin.thinning, "_PIPELINE_BYTES", budget)
            started.clear()
            got, got_mean = _split(k_split, x, cfg, k_target)
            assert len(started) == min(cpus, -(-(n - n % 2) // 8)) - 1, (n, d)
            monkeypatch.setattr(kthin.thinning, "_PIPELINE_BYTES", 0)
            want, want_mean = _split(k_split, x, cfg, k_target)
            assert np.array_equal(got, want), (n, d)
            if case in ("targetkt-bessel-matern", "perturbed-matern"):
                assert got_mean.row_mean.tobytes() == want_mean.row_mean.tobytes(), (n, d)
            else:
                assert got_mean is want_mean is None


@pytest.mark.parametrize("cpus, n", [(2, 1024), (4, 1024), (4, 96)])
def test_one_thread_per_cpu_and_block_and_no_kv_pool(monkeypatch, started, cpus, n):
    # n = 1024, m = 5: 32 blocks, the last of 32 x 1024 entries, four kv
    # chunks, which run on the thread that evaluates the block; n = 96: 3 blocks
    monkeypatch.setattr(kn, "_cpu_count", lambda: cpus)
    evaluating = _evaluating_threads(monkeypatch)
    x = np.random.default_rng(n).normal(size=(n, 2))
    _split(_bessel_matern(2), x, ThinningConfig(m=5, seed=1))
    assert len(started) == min(cpus, n // 32) - 1
    assert len(evaluating) <= min(cpus, n // 32)


def test_a_block_failing_on_a_helper_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    inner = kthin.thinning.evaluate
    caller = threading.current_thread()
    helper_failed = threading.Event()

    def failing_on_a_helper(*args, **kwargs):
        if threading.current_thread() is not caller:
            helper_failed.set()
            raise ArithmeticError("block failed on a helper")
        # hold the caller's first block until the helper has failed
        assert helper_failed.wait(30)
        return inner(*args, **kwargs)

    monkeypatch.setattr(kthin.thinning, "evaluate", failing_on_a_helper)
    before = threading.active_count()
    x = np.random.default_rng(3).normal(size=(256, 2))
    with pytest.raises(ArithmeticError, match="on a helper"):
        _split(_bessel_matern(2), x, ThinningConfig(m=3, seed=3))
    assert threading.active_count() == before


@pytest.mark.parametrize("case", ["targetkt-bessel-matern", "ktplus-laplace"])
def test_pipelined_split_memory_stays_within_its_buffers(monkeypatch, case):
    # n = 2048, m = 5 on 2 CPUs: per thread two result buffers and the
    # scratch buffers, each a block of 8 2^m n bytes (512 KB); then the
    # gather buffer, numpy's ufunc buffers (8192 entries an operand, while a
    # block subtracts coordinates) and the split's index arrays, under 1.5
    # blocks.  A block evaluation that allocated block-sized arrays of its
    # own would pass this
    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    n, m = 2048, 5
    k_split, k_target = CASES[case](2)
    x = np.random.default_rng(5).normal(size=(n, 2))
    _split(k_split, x[:64], ThinningConfig(m=m, seed=5), k_target)  # warm the caches
    tracemalloc.start()
    try:
        _split(k_split, x, ThinningConfig(m=m, seed=5), k_target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 8 * 2 ** m * n
    assert peak <= 2 * _per_thread_bytes(k_split, n, m) + 2.5 * block, peak / block


@pytest.mark.parametrize("case", ["targetkt-gauss", "ktplus-gauss", "ktplus-laplace"])
def test_calling_thread_split_evaluates_into_its_buffers(monkeypatch, case):
    # n = 2048, m = 5 on the calling thread, where a byte budget of 0 keeps
    # the Bessel split too: each block is evaluated into the split's result
    # and scratch buffers, so an `evaluate` call allocates only numpy's ufunc
    # buffers (8192 entries an operand), under half a block of 8 2^m n
    # bytes.  A sum given only the gather buffer as scratch allocated a
    # block for its second component in every block
    gauss, laplace = kn.gauss(1.0), kn.laplace(1.0)
    k_split, k_target = {
        "targetkt-gauss": (gauss, gauss),
        "ktplus-gauss": (Variant("ktplus", alpha=0.5).split_kernel_for(gauss, 2), gauss),
        "ktplus-laplace": CASES["ktplus-laplace"](2),
    }[case]
    monkeypatch.setattr(kthin.thinning, "_PIPELINE_BYTES", 0)
    n, m = 2048, 5
    x = np.random.default_rng(5).normal(size=(n, 2))
    _split(k_split, x[:64], ThinningConfig(m=m, seed=5), k_target)  # warm the caches
    inner, rises = kthin.thinning.evaluate, []

    def measuring(*args, **kwargs):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = inner(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(kthin.thinning, "evaluate", measuring)
    tracemalloc.start()
    try:
        _split(k_split, x, ThinningConfig(m=m, seed=5), k_target)
    finally:
        tracemalloc.stop()
    assert len(rises) == n >> m
    assert max(rises) <= 0.5 * 8 * 2 ** m * n, max(rises) / (8 * 2 ** m * n)


@pytest.mark.parametrize("case", ["targetkt-bessel-matern", "ktplus-laplace"])
def test_a_lower_byte_budget_keeps_the_blocks_on_the_calling_thread(monkeypatch, started, case):
    monkeypatch.setattr(kn, "_cpu_count", lambda: 4)
    evaluating = _evaluating_threads(monkeypatch)
    n, m = 256, 3
    k_split, k_target = CASES[case](2)
    x = np.random.default_rng(7).normal(size=(n, 2))
    per_thread = _per_thread_bytes(k_split, n, m)
    results = []
    # room for 3 threads, for 2, and for fewer than 2: the calling thread
    for budget, threads in ((3 * per_thread, 3), (2 * per_thread, 2), (2 * per_thread - 1, 1)):
        monkeypatch.setattr(kthin.thinning, "_PIPELINE_BYTES", budget)
        started.clear()
        evaluating.clear()
        results.append(_split(k_split, x, ThinningConfig(m=m, seed=7), k_target))
        assert len(started) == threads - 1, budget
        assert len(evaluating) <= threads
    assert evaluating == {threading.get_ident()}
    for cands, _ in results[1:]:
        assert np.array_equal(cands, results[0][0])


@pytest.mark.parametrize("case", ["calling-thread", "pipelined", "failing-block"])
def test_split_leaves_numpy_state_as_it_found_it(monkeypatch, started, case):
    # each block is evaluated with a ufunc buffer of its width, a multiple
    # of 16 entries up to numpy's default 8192; the caller's buffer size and
    # error settings are as before once the split returns or raises
    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    seen, inner = [], kthin.thinning.evaluate
    caller = threading.get_ident()

    def recording(kernel, x, y, **kwargs):
        seen.append((np.getbufsize(), np.geterr(), x.shape[-2], threading.get_ident()))
        if case == "failing-block" and len(seen) == 3:
            raise ArithmeticError("block failed")
        return inner(kernel, x, y, **kwargs)

    monkeypatch.setattr(kthin.thinning, "evaluate", recording)
    k = _bessel_matern(2) if case == "pipelined" else kn.gauss(1.0)
    # 375 blocks of 8 points, the last ones wider than 2.7k columns
    x = np.random.default_rng(7).normal(size=(3000, 2))
    with np.errstate(divide="ignore", over="ignore"):
        np.setbufsize(4096)
        before = np.getbufsize(), np.geterr()
        if case == "failing-block":
            with pytest.raises(ArithmeticError, match="block failed"):
                _split(k, x, ThinningConfig(m=3, seed=1), k)
        else:
            _split(k, x, ThinningConfig(m=3, seed=1), k)
        assert (np.getbufsize(), np.geterr()) == before
    assert len(started) == (1 if case == "pipelined" else 0)
    assert len(seen) == (3 if case == "failing-block" else 375)
    for bufsize, errors, width, thread in seen:
        assert bufsize == min(-(-width // 16) * 16, 8192)
        if thread == caller:
            assert errors == before[1]

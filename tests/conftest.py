"""Fixtures and helpers that several test modules share."""

import threading

import pytest

from kthin import discrepancy
from kthin import kernels as kn


def bessel_matern(d):
    """A Matern whose order nu - d/2 = 1.125 is neither an integer nor a
    half-integer, so it evaluates through scipy's `kv`."""
    return kn.matern(1.125 + d / 2, 1.1)


def sums_at(monkeypatch, cpus, *args):
    """`discrepancy._kernel_sums(*args)` with the CPU count set to cpus."""
    monkeypatch.setattr(kn, "_cpu_count", lambda: cpus)
    return discrepancy._kernel_sums(*args)


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

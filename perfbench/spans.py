"""Outside-in layer trace of kthin, recorded from the benchmark's side.

kthin has no spans of its own.  The tracer records one by replacing, for the
duration of a traced operation, each name a module imports from the layer
below it (for example `kthin.thinning.gram_rows` or `kthin.rng.swap_uniform`)
with a wrapper that times the call.  Module attributes are looked up at call
time, so the library calls the wrapper without any change to its code.
Methods called on objects (a target's `sample`, `SwapCache.best_swap`) are
wrapped on their class.

Spans are kept in memory as (layer, name, start, end, parent) and reduced per
operation to self times per layer, kernel-evaluation counts and call counts.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("kernels", "rng", "thinning", "discrepancy", "targets", "harness", "cli")

# (owner, attribute, layer): owner is "module" or "module:Class".  Each entry
# is a call that crosses into `layer` from the layer above it.
BOUNDARIES = (
    # thinning, discrepancy, harness and targets evaluate kernels
    ("kthin.thinning", "gram", "kernels"),
    ("kthin.thinning", "gram_rows", "kernels"),
    ("kthin.discrepancy", "gram", "kernels"),
    ("kthin.harness", "gram", "kernels"),
    ("kthin.targets", "gram", "kernels"),
    # every module reaches randomness through the rng module's attributes
    ("kthin.rng", "swap_uniform", "rng"),
    ("kthin.rng", "substream", "rng"),
    ("kthin.rng", "derive_seed", "rng"),
    # thinning and the harness call into discrepancy
    ("kthin.thinning", "kernel_row_means", "discrepancy"),
    ("kthin.discrepancy:SwapCache", "__init__", "discrepancy"),
    ("kthin.discrepancy:SwapCache", "best_swap", "discrepancy"),
    ("kthin.discrepancy:SwapCache", "apply_swap", "discrepancy"),
    ("kthin.harness", "_quadratic_form", "discrepancy"),
    # the harness and the CLI call into targets
    ("kthin.targets:GaussTarget", "sample", "targets"),
    ("kthin.targets:MogTarget", "sample", "targets"),
    ("kthin.targets:TestFunction", "__call__", "targets"),
    ("kthin.harness", "make_rkhs_witness", "targets"),
    ("kthin.harness", "make_cif", "targets"),
    ("kthin.cli", "ingest", "targets"),
    # the harness and the CLI call into thinning
    ("kthin.harness", "target_kt", "thinning"),
    ("kthin.harness", "power_kt", "thinning"),
    ("kthin.harness", "kt_plus", "thinning"),
    ("kthin.harness", "baseline_thin", "thinning"),
    ("kthin.cli", "target_kt", "thinning"),
    ("kthin.cli", "power_kt", "thinning"),
    ("kthin.cli", "kt_plus", "thinning"),
    ("kthin.cli", "generalized_kt", "thinning"),
    # the CLI calls into the harness
    ("kthin.cli", "run_experiment", "harness"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans at every boundary in BOUNDARIES while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Wrap every boundary in BOUNDARIES for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer in BOUNDARIES:
                target = _resolve(owner)
                original = getattr(target, attr)
                saved.append((target, attr, original))
                setattr(target, attr, self._wrap(original, layer, f"{owner}.{attr}"))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        is_kernel = layer == "kernels"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent)
            counts[name] += 1
            if is_kernel:
                counts["kernels.evals"] += out.size
            return out

        return traced

    @contextmanager
    def span(self, layer: str, name: str):
        """A span around a call the benchmark itself makes into `layer`."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (layer, name, t0, t1, parent)

    def take(self, wall_s: float) -> dict:
        """Reduce the spans recorded since the last take() for one operation
        of wall time wall_s, then clear them."""
        child = [0.0] * len(self.spans)
        for layer, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        busy = Counter()
        top = 0.0
        for i, (layer, _, t0, t1, parent) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]
            busy[layer] += t1 - t0
            if parent < 0:
                top += t1 - t0
        counts = self.counts
        kernel_calls = sum(v for k, v in counts.items()
                           if k.endswith((".gram", ".gram_rows")))
        out = {
            "wall_s": wall_s,
            "self_s": self_s,
            "unattributed_s": wall_s - top,
            "kernels.calls": kernel_calls,
            "kernels.split_calls": counts["kthin.thinning.gram_rows"],
            "kernels.evals": counts["kernels.evals"],
            # kernel spans are leaves (no boundary lies below them), so
            # their busy time is their self time
            "kernels.s": busy["kernels"],
            "rng.draws": counts["kthin.rng.swap_uniform"],
            "rng.s": busy["rng"],
            "calls": dict(sorted(counts.items())),
        }
        self.reset()
        return out

    def reset(self) -> None:
        """Drop every recorded span and count."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

"""Deterministic counter-based randomness.

All randomness in this package flows through two primitives built on
numpy's Philox counter-based bit generator: a single uniform draw addressed
by a (round, level, slot) counter, and a substream generator derived from a
root seed plus integer key parts.  Because streams are addressed rather than
consumed sequentially, results are identical no matter how the surrounding
loops are ordered or parallelized.  `swap_uniforms` reads a whole level of
the split's addressed draws from one Philox stream per slot instead of
building one generator per draw.
"""

import numbers

import numpy as np


def _as_u64(value) -> int:
    """An integer seed or key wrapped into the uint64 ring; anything else,
    a bool, a float or a string included, is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"seeds and stream keys must be integers, got {value!r}")
    return int(value) & 0xFFFFFFFFFFFFFFFF


def swap_uniform(seed: int, round_i: int, level_j: int, slot_l: int) -> float:
    """One uniform [0, 1) draw from the stream keyed by (round, level, slot).

    The same (seed, i, j, l) always yields the same value, independent of
    any other draws made elsewhere.
    """
    bg = np.random.Philox(
        key=_as_u64(seed),
        counter=[_as_u64(round_i), _as_u64(level_j), _as_u64(slot_l), 0],
    )
    return float(np.random.Generator(bg).random())


def swap_uniforms(seed: int, level: int, count: int) -> np.ndarray:
    """The (count, 2^(level-1)) grid of level `level`'s split draws: entry
    [t - 1, l - 1] is swap_uniform(seed, t 2^(level-1), level, l), bit for bit.

    numpy's Philox advances its counter before each block, so that draw is
    word 0 of the block at counter (t 2^(level-1) + 1, level, l, 0).  Slot l
    reads its draws from one stream started at counter (2^(level-1), level,
    l, 0), as every (4 2^(level-1))-th raw word mapped to [0, 1) as
    `Generator.random` maps it, (word >> 11) 2^-53.  Keeping one block in
    2^(level-1), the level generates 4 count 4^(level-1) words.
    """
    stride = 2 ** (level - 1)
    bg = np.random.Philox(key=_as_u64(seed))
    state = bg.state
    raw = np.empty((stride, count), np.uint64)
    for l in range(stride):
        state["state"]["counter"] = np.array([stride, level, l + 1, 0], np.uint64)
        bg.state = state
        raw[l] = bg.random_raw(4 * stride * count)[::4 * stride]
    return (raw.T >> 11) * (1.0 / 9007199254740992.0)


def substream(seed: int, *key_parts: int) -> np.random.Generator:
    """A Generator derived deterministically from seed and integer key parts.

    Used for samplers and for the per-(size, replicate, variant) experiment
    cells; distinct key tuples give statistically independent streams.
    """
    entropy = [_as_u64(seed)] + [_as_u64(p) for p in key_parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *key_parts: int) -> int:
    """Collapse (seed, key parts) into a single 64-bit seed."""
    entropy = [_as_u64(seed)] + [_as_u64(p) for p in key_parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])

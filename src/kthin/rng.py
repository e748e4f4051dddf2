"""Deterministic counter-based randomness.

All randomness in this package flows through two primitives built on the
Philox counter-based bit generator: a single uniform draw addressed by a
(round, level, slot) counter, and a substream generator derived from a root
seed plus integer key parts.  Because streams are addressed rather than
consumed sequentially, results are identical no matter how the surrounding
loops are ordered or parallelized.  `swap_uniforms` evaluates the
Philox4x64-10 block function itself, so a whole array of addressed draws
costs one vectorized pass instead of one generator per draw.
"""

import numbers

import numpy as np

# Philox4x64-10 (Salmon et al., SC 2011).  The multipliers, split into 32-bit
# halves, form a (1, 2, 2, 1) block [M_lo, M_hi] x [M0, M1], so one broadcast
# multiply forms all four partial products of both multiplied words.  The key
# schedule is kept as offsets from the seeded key, one column per round.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_HALVES = np.array([[_PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32]])
_PHILOX_KEY_STEPS = np.array(
    [[[r * 0x9E3779B97F4A7C15 % 2**64], [r * 0xBB67AE8584CAA73B % 2**64]] for r in range(10)],
    dtype=np.uint64,
)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


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


def swap_uniforms(seed: int, round_i, level_j, slot_l) -> np.ndarray:
    """swap_uniform(seed, i, j, l) over broadcast integer arrays, bit for bit.

    numpy's Philox advances its counter before the first block, so the draw
    is the first word of Philox4x64-10 at counter (i + 1, j, l, 0) under key
    (seed, 0), all taken modulo 2^64, mapped to [0, 1) as (word >> 11) * 2^-53.
    Counters must be non-negative, and i + 1 must not carry into the level
    word (i < 2^64 - 1).  The pass costs about 130 numpy calls on
    preallocated buffers, whatever the number of draws.
    """
    shape = np.broadcast(round_i, level_j, slot_l).shape
    # counter words (c0, c2) enter the products, (c1, c3) pass through
    even = np.empty((2, *shape), np.uint64)
    even[0] = round_i
    even[1] = slot_l
    even = even.reshape(2, -1)
    even[0] += np.uint64(1)
    odd = np.zeros_like(even)
    odd[0] = np.broadcast_to(level_j, shape).reshape(-1)
    n = even.shape[1]
    halves = np.empty((2, 1, 2, n), np.uint64)  # [low, high] halves of (c0, c2)
    prods = np.empty((4, 2, n), np.uint64)  # low*M_lo, low*M_hi, high*M_lo, high*M_hi
    ll, mid, cross, hi = prods
    carried = prods[1:3]
    tmp = np.empty((2, n), np.uint64)
    keys = _PHILOX_KEY_STEPS + np.array([[_as_u64(seed)], [0]], dtype=np.uint64)
    for key in keys:
        # high words of the 128-bit products (c0, c2) * (M0, M1); no partial
        # sum below overflows 64 bits
        np.bitwise_and(even, _LOW32, out=halves[0, 0])
        np.right_shift(even, _SHIFT32, out=halves[1, 0])
        np.multiply(halves, _PHILOX_M_HALVES, out=prods.reshape(2, 2, 2, n))
        np.right_shift(ll, _SHIFT32, out=ll)
        np.add(mid, ll, out=mid)
        np.bitwise_and(mid, _LOW32, out=tmp)
        np.add(cross, tmp, out=cross)
        np.right_shift(carried, _SHIFT32, out=carried)
        np.add(hi, mid, out=hi)
        np.add(hi, cross, out=hi)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        lo = even * _PHILOX_M
        even = hi[::-1] ^ odd ^ key
        odd = lo[::-1]
    return ((even[0] >> 11).astype(float) * (1.0 / 9007199254740992.0)).reshape(shape)


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

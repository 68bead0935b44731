"""Deterministic random-stream plumbing.

Every sampler in the package is a pure function of (parameters, seed).
All randomness flows from one integer seed through named substreams, so
independent grid points, repetitions, and workers own disjoint streams.

The two-type tree sampler keys each node's draws by the node's path from
the root instead of by a stream: the root key is derive_seed(seed,
label), child i of the node with key k has key child_key(k, i), and the
node's j-th draw is node_uniform(k, j). Both are the SplitMix64
finalizer applied to the key plus a multiple of the golden-ratio
increment, odd multiples for child keys and even ones for draws, so the
two domains never share an input (a counter-based generator in the sense
of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011). A node's draws thus depend on its path alone, which makes a
sampled tree invariant under deepening: sampling the same seed with a
larger horizon reproduces the shallower tree exactly on the shared
levels.

child_keys and node_uniforms are the same two functions on numpy uint64
key arrays, bit for bit: numpy's uint64 arithmetic wraps mod 2^64, which is
exactly SplitMix64's.  node_bits gives the same draws as the integers x in
[0, 2^53) with uniform x 2^-53.  The walk engine grows its trees with them:
a type-I node draws its two child counts from its draw 0 alone, through the
joint table of the trees module, as _grow_star does.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK63 = (1 << 63) - 1
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(seed: int, *labels) -> int:
    """Collapse (seed, labels...) into a fresh 63-bit seed, stably across runs.

    Labels are keyed by repr, a numpy scalar as the Python number it equals,
    so np.float64(2.0) and 2.0 name the same substream."""
    for x in labels:
        if isinstance(x, np.generic):
            labels = tuple([y.item() if isinstance(y, np.generic) else y
                            for y in labels])
            break
    h = hashlib.blake2b(repr((seed,) + labels).encode(), digest_size=16)
    return int.from_bytes(h.digest(), "little") & _MASK63


def substream(seed: int, *labels) -> np.random.Generator:
    """PCG64 generator for the named substream (seed, labels...)."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *labels)))


def _mix(z: int) -> int:
    """SplitMix64 finalizer of z mod 2^64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_key(key: int, i: int) -> int:
    """Key of child i >= 0 of the node with the given key."""
    return _mix(key + (2 * i + 1) * _GAMMA)


def node_uniform(key: int, j: int) -> float:
    """The j-th uniform draw in [0, 1) of the node with the given key."""
    return (_mix(key + (2 * j + 2) * _GAMMA) >> 11) * 2.0 ** -53


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of each element of a uint64 array, in place."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _offsets(n, odd: int) -> np.ndarray | int:
    """(2 n + odd) * _GAMMA mod 2^64: for an int n as a Python int, so no
    numpy scalar product overflows, and elementwise for an array."""
    if isinstance(n, (int, np.integer)):
        return (2 * int(n) + odd) * _GAMMA & _MASK64
    z = np.asarray(n).astype(np.uint64) * (2 * _GAMMA & _MASK64)
    z += odd * _GAMMA & _MASK64
    return z


def child_keys(keys, i) -> np.ndarray:
    """child_key of each uint64 key, child i (an int or an array)."""
    return _mix_array(_offsets(i, 1) + np.asarray(keys, np.uint64))


def node_bits(keys, j) -> np.ndarray:
    """Draw j of each uint64 key as the int64 x in [0, 2^53) whose x 2^-53
    is its node_uniform."""
    z = _mix_array(_offsets(j, 2) + np.asarray(keys, np.uint64))
    z >>= 11
    return z.view(np.int64)


def node_uniforms(keys, j) -> np.ndarray:
    """node_uniform of each uint64 key, draw j (an int or an array)."""
    return node_bits(keys, j) * 2.0 ** -53

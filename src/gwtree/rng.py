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

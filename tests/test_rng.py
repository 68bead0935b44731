"""Substream naming: labels key streams by the values they hold; the
vector path-keyed kernel against the scalar one."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwtree.rng import (child_key, child_keys, derive_seed, node_bits,
                        node_uniform)


class TestDeriveSeed:
    @pytest.mark.parametrize("label, scalar", [
        (2.0, np.float64(2.0)), (1.5, np.float32(1.5)), (3, np.int64(3)),
        (7, np.uint8(7)), (True, np.bool_(True))])
    def test_numpy_scalar_is_its_python_number(self, label, scalar):
        assert derive_seed(5, "x", scalar) == derive_seed(5, "x", label)
        assert derive_seed(5, scalar, "x") == derive_seed(5, label, "x")

    def test_python_labels_keep_their_streams(self):
        # pinned before numpy scalars were read as Python numbers
        assert derive_seed(5, "x", 2.0) == 5458408377385643158
        assert derive_seed(2024, "acc10", 17) == 6844146644559870612

    def test_distinct_labels_stay_distinct(self):
        assert derive_seed(5, "x", np.float64(2.5)) != derive_seed(5, "x", 2.0)


class TestVectorKernel:
    """child_keys and node_bits are child_key and node_uniform on uint64
    arrays, bit for bit (node_bits times 2^-53), with no overflow warning
    from numpy."""

    EDGES = [0, 2**63 - 1, 2**64 - 1]
    KEYS = st.lists(st.integers(0, 2**64 - 1), max_size=40)

    @staticmethod
    def vector(keys, i):
        arr = np.array(keys, np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return (child_keys(arr, i).tolist(),
                    (node_bits(arr, i) * 2.0 ** -53).tolist())

    @given(KEYS, st.integers(0, 2**20))
    @example([], 2**20)
    @settings(max_examples=200, deadline=None)
    def test_scalar_index(self, keys, i):
        keys = self.EDGES + keys
        assert self.vector(keys, i) == ([child_key(k, i) for k in keys],
                                        [node_uniform(k, i) for k in keys])

    @given(st.data(), KEYS)
    @settings(max_examples=200, deadline=None)
    def test_index_array(self, data, keys):
        keys = self.EDGES + keys
        idx = data.draw(st.lists(st.integers(0, 2**20), min_size=len(keys),
                                 max_size=len(keys)))
        idx[0] = 2**20
        assert self.vector(keys, np.array(idx)) == (
            [child_key(k, i) for k, i in zip(keys, idx)],
            [node_uniform(k, j) for k, j in zip(keys, idx)])

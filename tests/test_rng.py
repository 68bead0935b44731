"""Substream naming: labels key streams by the values they hold."""

import numpy as np
import pytest

from gwtree.rng import derive_seed


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

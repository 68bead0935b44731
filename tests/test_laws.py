"""Laws: log-pmfs, cdf tables and their closing rule, quantile lookup."""

import math
import pathlib
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwtree
from gwtree.laws import (_GUIDE_MIN, cdf_table, log_borel, poisson_cdf,
                         positive_poisson_cdf, quantile)


def table_mean(tab):
    pmf = np.diff(np.concatenate(([0.0], tab)))
    return float(np.dot(np.arange(1, len(tab) + 1), pmf))


class TestPositivePoissonTable:
    @given(st.floats(min_value=1e-6, max_value=1e3))
    @example(0.0)  # the c = 1 spine limit: the constant 1
    @settings(max_examples=200, deadline=None)
    def test_mean_and_shape(self, rate):
        tab = positive_poisson_cdf(rate)
        want = rate / -math.expm1(-rate) if rate else 1.0
        assert table_mean(tab) == pytest.approx(want, rel=1e-9)
        assert all(a <= b for a, b in zip(tab, tab[1:]))
        assert tab[-1] == 1.0


class TestPoissonTable:
    @given(st.floats(min_value=1e-6, max_value=1.0))
    @example(0.0)  # the c -> infinity limit of the bush rate c q
    @settings(max_examples=100, deadline=None)
    def test_mean_and_shape(self, rate):
        tab = poisson_cdf(rate)  # of 1 + Q_rate
        assert table_mean(tab) == pytest.approx(1.0 + rate, rel=1e-9)
        assert tab[0] == pytest.approx(math.exp(-rate), rel=1e-12)
        assert tab[-1] == 1.0


class TestCdfTable:
    def test_cached_by_parameter(self):
        assert cdf_table(log_borel, 0.4) is cdf_table(log_borel, 0.4)

    def test_raises_when_the_tail_cannot_close(self):
        # Borel near criticality decays like k^{-3/2} (1 - 5e-5)^k
        with pytest.raises(ArithmeticError, match="did not close"):
            cdf_table(log_borel, 0.99)


class TestQuantile:
    def test_scalar_and_vector_agree(self):
        tab = positive_poisson_cdf(2.5)
        u = np.random.default_rng(0).random(10_000)
        vec = quantile(np.asarray(tab), u)
        assert vec.tolist() == [bisect_left(tab, x) + 1 for x in u.tolist()]


class TestGuideQuantile:
    """The array quantile through a table's guide is np.searchsorted on the
    table, on either side of the size below which it is searchsorted."""

    @given(st.sampled_from([poisson_cdf, positive_poisson_cdf]),
           st.floats(-3.0, 5.0), st.integers(0, 2**32 - 1))
    @example(poisson_cdf, 5.0, 0)
    @example(positive_poisson_cdf, -3.0, 0)
    @settings(max_examples=40, deadline=None)
    def test_equals_searchsorted(self, law, log_rate, seed):
        table = law(10.0 ** log_rate)
        arr = np.asarray(table)
        u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], arr,
                            np.nextafter(arr, 0.0),
                            np.random.default_rng(seed).random(2 * _GUIDE_MIN)])
        np.random.default_rng(seed).shuffle(u)
        want = np.searchsorted(arr, u, side="left") + 1
        assert np.array_equal(quantile(table, u), want)
        for s in range(0, len(u), _GUIDE_MIN - 1):  # below the cut
            part = u[s:s + _GUIDE_MIN - 1]
            assert np.array_equal(quantile(table, part), want[s:s + len(part)])


def test_laws_is_the_one_poisson_source():
    # every offspring count inverts a laws table; no numpy Poisson sampler
    src = pathlib.Path(gwtree.__file__).parent
    calls = [f"{f.name}:{i}" for f in sorted(src.glob("*.py"))
             for i, line in enumerate(f.read_text().splitlines(), 1)
             if ".poisson(" in line]
    assert calls == []

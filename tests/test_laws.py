"""Laws: log-pmfs, cdf tables and their closing rule, quantile lookup."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwtree import extinction_prob
from gwtree.laws import (cdf_table, log_borel, log_bush_excess, log_split,
                         poisson_cdf, positive_poisson_cdf, quantile)


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

    def test_split_law_stays_in_range(self):
        for s in (1, 2, 5, 30):
            tab = cdf_table(log_split, 1.3, 0.4, s)
            assert tab[-1] == 1.0
            assert quantile(tab, 1.0 - 2.0 ** -53) <= s

    @pytest.mark.parametrize("lam, mu", [(1.2, 1.5), (1.5, 2.0)])
    def test_bush_excess_mass(self, lam, mu):
        # the excess of expected bush counts sums to lam q(lam) - mu q(mu)
        tab = cdf_table(log_bush_excess, lam, mu)
        total = sum(math.exp(log_bush_excess(lam, mu, k))
                    for k in range(1, len(tab) + 1))
        g = extinction_prob(lam).cq - extinction_prob(mu).cq
        assert total == pytest.approx(g, rel=1e-12)


class TestQuantile:
    def test_scalar_and_vector_agree(self):
        tab = positive_poisson_cdf(2.5)
        u = np.random.default_rng(0).random(10_000)
        vec = quantile(np.asarray(tab), u)
        assert vec.tolist() == [quantile(tab, float(x)) for x in u]

"""Laws: log-pmfs, cdf tables and their closing rule, quantile lookup."""

import ast
import math
import pathlib
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwtree
from gwtree import trees
from gwtree.laws import (_GUIDE_MIN, cdf_table, log_borel, poisson_cdf,
                         positive_poisson_cdf, quantile, stack_index,
                         stack_thresholds)


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


class TestStackIndex:
    """The one-pass integer lookup of the walk engine: a type-I draw x in
    [0, 2^53) against the joint table's segment, and a type-F draw x + 2^53
    against the type-F table's, equal bisect_left on the float tables at
    u = x 2^-53, on either side of the size below which it is searchsorted.
    Unclipped, the joint table's trailing 1.0 entries would read 2^53 and
    take a type-F draw of 0."""

    @pytest.mark.parametrize("c", [1.0001, 1.05, 2.0, 4.0, 50.0, 1e5])
    def test_equals_bisect_left(self, c):
        joint, fcdf = trees._star_tables(c)
        assert joint[-2] == 1.0  # trailing 1.0 entries
        stack = stack_thresholds(joint, fcdf)
        assert stack.dtype == np.int64 and np.all(np.diff(stack) >= 0)
        top = 2 ** 53
        edges = np.concatenate([np.floor(np.asarray(t) * top) + d
                                for t in (joint, fcdf) for d in (0, 1)])
        x = np.concatenate([[0, top - 1], edges[edges < top],
                            np.random.default_rng(7).integers(0, top, 4096)])
        x = x.astype(np.int64)
        u = (x * 2.0 ** -53).tolist()
        want_i = [bisect_left(joint, v) for v in u]
        want_f = [len(joint) + bisect_left(fcdf, v) for v in u]
        for draws, want in ((x, want_i), (x + top, want_f)):
            assert stack_index(stack, draws).tolist() == want
            for s in range(0, len(x), _GUIDE_MIN - 1):  # below the cut
                part = draws[s:s + _GUIDE_MIN - 1]
                assert stack_index(stack, part).tolist() == want[
                    s:s + len(part)]


def test_laws_is_the_one_poisson_source():
    # every offspring count inverts a laws table; no numpy Poisson sampler
    src = pathlib.Path(gwtree.__file__).parent
    calls = [f"{f.name}:{i}" for f in sorted(src.glob("*.py"))
             for i, line in enumerate(f.read_text().splitlines(), 1)
             if ".poisson(" in line]
    assert calls == []


def test_one_positive_poisson_table_per_use():
    # a type-I count is drawn only through trees' two-type tables; the only
    # other positive-Poisson table is the coupling's hi side
    src = pathlib.Path(gwtree.__file__).parent
    callers = set()
    for f in sorted(src.glob("*.py")):
        if f.name == "laws.py":
            continue
        tree = ast.parse(f.read_text())
        defs = [d for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and "positive_poisson_cdf" in (
                    getattr(call.func, "id", None),
                    getattr(call.func, "attr", None)):
                inner = max((d for d in defs if d.lineno <= call.lineno
                             <= d.end_lineno), key=lambda d: d.lineno,
                            default=None)
                callers.add(f"{f.stem}.{getattr(inner, 'name', '<module>')}")
    assert callers == {"trees._star_tables",
                       "domination._dominated_cdf_pair"}

"""Scalar functions: fixed point, duality, domination constants, bounds."""

import hashlib
import math
import struct

import mpmath
import pytest

from gwtree import (alpha, beta_slope, borel_pmf, degree_pmf, degree_tail,
                    expected_log_degree, extinction_prob, f_bounds, g_gap,
                    g_gap_via_alpha, pgw1_log_degree_constant)

C_GRID = [round(1.1 + 0.1 * i, 1) for i in range(50)]  # 1.1 .. 6.0


def bisect_q_oracle(c, iters=60):
    """Independent bisection oracle for the smallest root of q = e^{-c(1-q)}."""
    with mpmath.workdps(40):
        cm = mpmath.mpf(c)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1) - mpmath.mpf("1e-20")
        for _ in range(iters):
            mid = (lo + hi) / 2
            if mid - mpmath.exp(-cm * (1 - mid)) < 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


class TestExtinctionProb:
    def test_frozen_values(self):
        # bisection oracle values, refined to 1e-12
        assert extinction_prob(2.0).q == pytest.approx(0.20318786997998, abs=1e-11)
        assert extinction_prob(1.5).q == pytest.approx(0.417188356134189, abs=1e-11)

    @pytest.mark.parametrize("c", C_GRID)
    def test_matches_bisection_oracle(self, c):
        assert extinction_prob(c).q == pytest.approx(bisect_q_oracle(c), abs=1e-11)

    @pytest.mark.parametrize("c", C_GRID)
    def test_fixed_point_and_duality(self, c):
        p = extinction_prob(c)
        assert p.fixed_point_residual() <= 1e-12
        assert p.duality_residual() <= 1e-11  # forced by the fixed point
        assert 0.0 < p.q < 1.0
        assert p.cq < 1.0

    def test_near_critical_uses_bisection(self):
        p = extinction_prob(1.01)
        assert p.fixed_point_residual() <= 1e-12
        assert 0.9 < p.q < 1.0

    # c - 1 on a log grid from 1e-14 up to the largest grid value below 0.05,
    # where the Aitken iteration takes over (c = 1.05 itself is past it)
    NEAR_CRITICAL = [10.0 ** (k / 2) for k in range(-28, -2)] + [0.0499]

    def test_near_critical_theta_against_mpmath(self):
        # theta = 1 - q is the positive root of 1 - t = e^{-ct}, bracketed by
        # [eps, 3 eps] near c = 1 and solved in 60 digits
        for e in self.NEAR_CRITICAL:
            c = 1.0 + e
            eps = c - 1.0
            with mpmath.workdps(60):
                cm = mpmath.mpf(c)
                want = float(mpmath.findroot(
                    lambda t: 1 - t - mpmath.exp(-cm * t),
                    (mpmath.mpf(eps), 3 * mpmath.mpf(eps)), solver="anderson"))
            p = extinction_prob(c)
            assert p.theta == pytest.approx(want, rel=1e-14, abs=0), c
            assert p.q == 1.0 - p.theta and p.fixed_point_residual() <= 1e-12
            # theta = 2 eps (1 - 4 eps / 3 + O(eps^2)) as c -> 1
            assert abs(p.theta / (2.0 * eps) - 1.0) <= 2.0 * eps, c

    def test_cq_strictly_decreasing(self):
        cqs = [extinction_prob(c).cq for c in C_GRID]
        assert all(a > b for a, b in zip(cqs, cqs[1:]))
        assert extinction_prob(6.0).cq < extinction_prob(2.0).cq < 1.0

    @pytest.mark.parametrize("bad", [1.0, 0.5, -3.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            extinction_prob(bad)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            extinction_prob(2.0, tol=1e-3)
        with pytest.raises(ValueError):
            extinction_prob(2.0, tol=0.0)

    @pytest.mark.parametrize("c", [360.0, 365.0, 371.0, 372.0, 372.5, 400.0,
                                   700.0])
    def test_large_c(self, c):
        # past c of about 354.2 the first Aitken step squares q1 - q = e^{-c}
        # below the least normal double; q must still be e^{-c}(1 + c e^{-c})
        want = math.exp(-c) * (1.0 + c * math.exp(-c))
        assert extinction_prob(c).q == pytest.approx(want, rel=1e-12, abs=0)

    def test_positive_below_745(self):
        # e^{-c} is a double (subnormal past about 708.4) up to c of 745
        for c in [372.6, 372.7, 500.0, 708.0, 709.0, 744.0, 744.9]:
            assert extinction_prob(c).q > 0.0, c

    def test_unchanged_where_the_square_is_normal(self):
        # q over c = 1.05, 1.06, ... 353.99, where no Aitken square
        # underflows, pinned bit for bit from before the underflow guard
        h = hashlib.sha256()
        for i in range(35295):
            h.update(struct.pack("<d", extinction_prob(1.05 + 0.01 * i).q))
        assert h.hexdigest()[:16] == "b7ad91e108d4dbab"


class TestAlpha:
    def test_frozen_values(self):
        # extended-precision direct evaluation
        assert alpha(1.5, 2.0) == pytest.approx(0.319386928604814, abs=1e-12)
        assert alpha(1.0, 2.0) == pytest.approx(0.620114506958278, abs=1e-12)

    def test_against_mpmath(self):
        for lam, mu in [(0.3, 0.9), (1.2, 4.7), (5.0, 40.0)]:
            with mpmath.workdps(40):
                want = float(mpmath.log((mpmath.e**mu - 1) / mu)
                             - mpmath.log((mpmath.e**lam - 1) / lam))
            assert alpha(lam, mu) == pytest.approx(want, rel=1e-13)

    def test_positive_and_less_than_gap(self):
        # first derivative-lemma inequality, on supercritical pairs
        grid = [1.1, 1.5, 2.0, 3.0, 4.5, 6.0]
        for i, lam in enumerate(grid):
            for mu in grid[i + 1:]:
                a = alpha(lam, mu)
                assert 0.0 < a < mu - lam

    def test_survival_scaled_inequality(self):
        # second derivative-lemma inequality: alpha at the survival-scaled
        # rates exceeds the drop in cq
        for lam, mu in [(1.1, 1.2), (1.5, 2.0), (2.0, 5.9), (3.3, 3.4)]:
            pl, pm = extinction_prob(lam), extinction_prob(mu)
            assert alpha(pl.ctheta, pm.ctheta) > pl.cq - pm.cq

    @pytest.mark.parametrize("c_grid_pair",
                             [(1.1, 1.3), (1.5, 2.0), (2.0, 4.0), (5.0, 6.0)])
    def test_log_cq_identity(self, c_grid_pair):
        # alpha at survival-scaled rates equals log(lam q) - log(mu q)
        lam, mu = c_grid_pair
        pl, pm = extinction_prob(lam), extinction_prob(mu)
        want = math.log(pl.cq) - math.log(pm.cq)
        assert abs(alpha(pl.ctheta, pm.ctheta) - want) <= 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            alpha(2.0, 2.0)
        with pytest.raises(ValueError):
            alpha(2.0, 1.0)
        with pytest.raises(ValueError):
            alpha(0.0, 1.0)


class TestBorelPmf:
    def test_k1_is_exp_neg_lambda(self):
        for lam in [0.2, 0.5, 1.0]:
            assert borel_pmf(lam, 1) == pytest.approx(math.exp(-lam), rel=1e-14)

    def test_frozen_value(self):
        assert borel_pmf(0.5, 2) == pytest.approx(0.183939720585721, abs=1e-13)

    def test_subcritical_sums_to_one(self):
        total = sum(borel_pmf(0.5, k) for k in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_critical_sums_to_one_with_heavy_tail(self):
        # Borel(1) is proper but its tail is ~ 2/sqrt(2 pi K): at K = 1e4
        # about 8e-3 of mass is beyond the partial sum, so the propriety
        # check must add the Stirling tail estimate back.
        K = 10_000
        total = sum(borel_pmf(1.0, k) for k in range(1, K + 1))
        tail = 2.0 / math.sqrt(2.0 * math.pi * K)
        assert total + tail == pytest.approx(1.0, abs=1e-4)

    def test_supercritical_sums_to_extinction_prob(self):
        total = sum(borel_pmf(2.0, k) for k in range(1, 400))
        assert total == pytest.approx(extinction_prob(2.0).q, abs=1e-12)

    def test_large_k_no_overflow(self):
        assert 0.0 <= borel_pmf(0.9, 5000) < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            borel_pmf(0.5, 0)
        with pytest.raises(ValueError):
            borel_pmf(0.0, 1)


class TestDegreeLaw:
    def test_frozen_k1(self):
        p = extinction_prob(2.0)
        assert degree_pmf(p, 1) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    # q is about e^{-400} = 1.9e-174 at c = 400
    @pytest.mark.parametrize("c", [1.2, 2.0, 3.7, 6.0, 400.0])
    def test_normalization(self, c):
        p = extinction_prob(c)
        total = sum(degree_pmf(p, k) for k in range(1, max(250, 2 * int(c))))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_tail_accessor_consistency(self):
        p = extinction_prob(2.0)
        assert degree_tail(p, 0) == pytest.approx(1.0, abs=1e-9)
        direct = sum(degree_pmf(p, j) for j in range(6, 300))
        assert degree_tail(p, 5) == pytest.approx(direct, rel=1e-10)

    def test_tails_increase_with_c(self):
        # degree-law monotonicity: s_k(3) >= s_k(2) for all k <= 50
        p2, p3 = extinction_prob(2.0), extinction_prob(3.0)
        for k in range(51):
            assert degree_tail(p3, k) >= degree_tail(p2, k)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            degree_pmf(extinction_prob(2.0), 0)


class TestFBounds:
    def test_limit_constant(self):
        # independent series oracle in extended precision
        with mpmath.workdps(40):
            want = float(sum(mpmath.exp(-1) * mpmath.log(1 + k) / mpmath.factorial(k)
                             for k in range(60)))
        assert pgw1_log_degree_constant() == pytest.approx(want, abs=1e-12)
        assert pgw1_log_degree_constant() == pytest.approx(0.573402809122567, abs=1e-12)

    def test_frozen_bounds_at_2(self):
        b = f_bounds(extinction_prob(2.0))
        assert b.f_upper == pytest.approx(0.740361980794, abs=1e-9)
        assert b.f_lower == pytest.approx(0.166959171671, abs=1e-9)
        assert b.fprime_lower == pytest.approx(0.166514963775, abs=1e-9)

    def test_upper_is_expected_log_degree(self):
        p = extinction_prob(3.0)
        assert f_bounds(p).f_upper == expected_log_degree(p)

    @pytest.mark.parametrize("c", C_GRID + [400.0])
    def test_invariants(self, c):
        b = f_bounds(extinction_prob(c))
        assert 0.0 <= b.f_lower <= b.f_upper
        assert b.fprime_lower > 0.0

    def test_derivative_bound_asymptotic(self):
        # c * fprime_lower -> 1 as c grows
        b = f_bounds(extinction_prob(50.0))
        assert abs(50.0 * b.fprime_lower - 1.0) < 0.1

    def test_lower_bound_vanishes_at_criticality(self):
        # E[log deg] decreases to the limit constant as c -> 1, so the lower
        # bound stays nonnegative and tends to 0
        vals = [f_bounds(extinction_prob(c)).f_lower for c in (1.2, 1.1, 1.01)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 0.0 < vals[-1] < 1e-4


class TestGapAndSlope:
    def test_frozen_gap(self):
        assert g_gap(2.0, 0.5) == pytest.approx(0.276856448685790, abs=1e-13)

    def test_slope_value(self):
        assert beta_slope(2.0) == 0.5  # 1 - 1/c

    def test_dual_route_agreement(self):
        for c in [1.3, 2.0, 4.0]:
            for delta in [0.01, 0.25, 1.0]:
                assert abs(g_gap(c, delta) - g_gap_via_alpha(c, delta)) <= 1e-9

    @pytest.mark.parametrize("c", [1.2, 2.0, 3.5, 6.0])
    def test_slope_is_small_delta_limit(self, c):
        for delta in [0.01, 0.003, 0.001]:
            assert abs(g_gap(c, delta) / delta - beta_slope(c)) < delta

    def test_gap_positive(self):
        assert g_gap(1.5, 2.0) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_gap(1.0, 0.5)
        with pytest.raises(ValueError):
            g_gap(2.0, 0.0)
        with pytest.raises(ValueError):
            beta_slope(1.0)

"""Closed-form scalar functions of the supercritical Poisson branching process.

The branching parameter is c > 1 throughout.  The extinction probability
q = q(c) is the smallest positive root of

    q = exp(-c (1 - q)),

and theta(c) = 1 - q(c) is the survival probability.  The fixed point
forces the duality c e^{-c} = cq e^{-cq}, which is used both as a solver
diagnostic and inside several identities below.

Other quantities implemented here:

  alpha(lam, mu)   = log((e^mu - 1)/mu) - log((e^lam - 1)/lam), the largest
                     Poisson mass that can be added to a positive-Poisson(lam)
                     variable while staying dominated by positive-Poisson(mu).
  borel_pmf        size law of a Poisson(lam) branching tree,
                     (lam e^{-lam})^k k^{k-1} / (lam k!).
  degree_pmf       root-degree law of the survival-conditioned tree,
                     r_k = e^{-c} c^k (1 - q^k) / (theta k!), plus its tail s_k.
  f_bounds         lower/upper bounds for the spanning-tree entropy f(c):
                     upper = E[log deg], lower = upper minus the c -> 1 limit
                     constant sum_{k>=0} e^{-1} log(1+k)/k!, and the derivative
                     bound f'(c) > (c-1) e^{-cq} / c^2.
  g_gap, beta_slope  the perturbation gap g(c, delta) = delta - log(1 + delta/c)
                     and its slope beta(c) = 1 - 1/c as delta -> 0.

Pmfs are exponentiated once from the log-domain laws module (k! overflows
doubles near k = 171).  Series are extended until the current term drops
below 1e-12 and at least three consecutive terms decrease.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .laws import log_borel, log_expm1, log_poisson

__all__ = [
    "GWParams",
    "BoundsRecord",
    "extinction_prob",
    "alpha",
    "borel_pmf",
    "degree_pmf",
    "degree_tail",
    "expected_log_degree",
    "pgw1_log_degree_constant",
    "f_bounds",
    "g_gap",
    "g_gap_via_alpha",
    "beta_slope",
]


@dataclass(frozen=True)
class GWParams:
    """Branching parameter c > 1 with its extinction/survival probabilities."""

    c: float
    q: float
    theta: float

    @property
    def cq(self) -> float:
        return self.c * self.q

    @property
    def ctheta(self) -> float:
        return self.c * self.theta

    def fixed_point_residual(self) -> float:
        return abs(self.q - math.exp(-self.c * (1.0 - self.q)))

    def duality_residual(self) -> float:
        c, q = self.c, self.q
        return abs(c * math.exp(-c) - c * q * math.exp(-c * q))


@dataclass(frozen=True)
class BoundsRecord:
    """Entropy bounds at one parameter value: f_lower <= f(c) <= f_upper."""

    c: float
    f_lower: float
    f_upper: float
    fprime_lower: float


def _require_finite(name, x):
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


_TINY = sys.float_info.min


def _near_critical_theta(c: float) -> float:
    """theta by Newton on h(theta) = phi(c theta) - eps theta, where eps =
    c - 1 (exact for c in [1, 2]) and phi(x) = e^{-x} - 1 + x.  Unlike q -
    e^{-c(1-q)}, h has no cancelling terms.  h is convex and positive at
    2 eps, so Newton descends from there onto the root."""
    eps, theta = c - 1.0, 2.0 * (c - 1.0)
    for _ in range(8):  # from under 10% off, the error squares each step
        x = c * theta  # phi as its series below 0.1, where expm1 cancels
        phi = (math.expm1(-x) + x if x >= 0.1 else
               math.fsum((-x) ** k / math.factorial(k) for k in range(2, 20)))
        theta -= (phi - eps * theta) / (-c * math.expm1(-x) - eps)
    return theta


def extinction_prob(c: float, tol: float = 1e-12) -> GWParams:
    """Solve q = exp(-c(1-q)) for the smallest root, c > 1.

    Monotone fixed-point iteration from 0 with Aitken acceleration; near
    criticality (c < 1.05), where the iteration's contraction factor cq
    approaches 1, Newton on the survival probability theta itself.
    """
    _require_finite("c", c)
    if c <= 1.0:
        raise ValueError(f"extinction_prob requires c > 1, got {c}; "
                         "the c = 1 limit (q = 1) is handled by callers")
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol}")

    if c - 1.0 < 0.05:
        theta = _near_critical_theta(c)
        q = 1.0 - theta
    else:
        q = 0.0
        for _ in range(200):
            q1 = math.exp(-c * (1.0 - q))
            q2 = math.exp(-c * (1.0 - q1))
            denom = q2 - 2.0 * q1 + q
            sq = (q1 - q) ** 2
            # Aitken step; guard the degenerate denominator at convergence,
            # and a square that underflows (a subnormal keeps too few
            # digits): from q = 0 that happens for c past about 354.2, where
            # q1 = e^{-c} and q2 already equals q to working precision.
            q_next = (q2 if denom == 0.0 or sq < _TINY and q1 != q
                      else q - sq / denom)
            if not (0.0 <= q_next < 1.0):
                q_next = q2
            if abs(q_next - q) < 0.25 * tol:
                q = q_next
                break
            q = q_next
        theta = 1.0 - q

    params = GWParams(c=float(c), q=q, theta=theta)
    if params.fixed_point_residual() > tol:
        raise ArithmeticError(
            f"fixed-point residual {params.fixed_point_residual():.3e} "
            f"exceeds tol {tol:.1e} at c = {c}")
    return params


def alpha(lam: float, mu: float) -> float:
    """log((e^mu - 1)/mu) - log((e^lam - 1)/lam) for mu > lam > 0."""
    _require_finite("lam", lam)
    _require_finite("mu", mu)
    if not (mu > lam > 0.0):
        raise ValueError(f"alpha requires mu > lam > 0, got lam={lam}, mu={mu}")
    return (log_expm1(mu) - math.log(mu)) - (log_expm1(lam) - math.log(lam))


def borel_pmf(lam: float, k: int) -> float:
    """P(branching-tree size = k) = (lam e^{-lam})^k k^{k-1} / (lam k!).

    Proper for 0 < lam <= 1.  Values lam > 1 are allowed; the masses then
    sum to the extinction probability q(lam) (the finite-size part of the
    tree law), which callers must account for.
    """
    if k < 1:
        raise ValueError(f"borel_pmf requires k >= 1, got {k}")
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"borel_pmf requires finite lam > 0, got {lam}")
    return math.exp(log_borel(lam, k))


def degree_pmf(params: GWParams, k: int) -> float:
    """Root-degree law r_k = e^{-c} c^k (1 - q^k) / (theta k!) for k >= 1;
    1 - q^k is 1 once q underflows to 0.0, past c of about 372.6."""
    if k < 1:
        raise ValueError(f"degree_pmf requires k >= 1, got {k}")
    survive = -math.expm1(k * math.log(params.q)) if params.q else 1.0
    return math.exp(log_poisson(params.c, k)) * survive / params.theta


def degree_tail(params: GWParams, k: int) -> float:
    """s_k = sum_{j > k} r_j, accumulated back to front to keep tiny tails exact."""
    if k < 0:
        raise ValueError(f"degree_tail requires k >= 0, got {k}")
    c = params.c
    # find a cutoff where the summand has underflowed
    hi = max(k + 10, int(4 * c) + 20)
    while log_poisson(c, hi) > -745.0:
        hi += 20
    return sum(degree_pmf(params, j) for j in range(hi, k, -1))


def _sum_until_settled(term, start: int = 1, tol: float = 1e-12) -> float:
    """Sum term(k) from start, stopping once terms are < tol and have
    decreased three times in a row (Poisson-type tails are eventually
    monotone)."""
    total = 0.0
    decreasing = 0
    prev = math.inf
    k = start
    while True:
        t = term(k)
        total += t
        decreasing = decreasing + 1 if t < prev else 0
        if t < tol and decreasing >= 3:
            return total
        prev = t
        k += 1
        if k > 100_000:
            raise ArithmeticError("series failed to settle after 1e5 terms")


@lru_cache(maxsize=1)
def pgw1_log_degree_constant() -> float:
    """E[log deg] in the critical c -> 1 limit: sum_{k>=0} e^{-1} log(1+k)/k!.

    In that limit the root degree is 1 + Poisson(1) (one spine child plus
    the finite bushes), hence this fixed series rather than degree_pmf.
    """
    return _sum_until_settled(
        lambda k: math.exp(log_poisson(1.0, k)) * math.log1p(k), start=0)


def expected_log_degree(params: GWParams) -> float:
    """E[log deg] under the survival-conditioned tree: sum_k r_k log k."""
    return _sum_until_settled(lambda k: degree_pmf(params, k) * math.log(k),
                              start=2)


def f_bounds(params: GWParams) -> BoundsRecord:
    """Sandwich bounds for the spanning-tree entropy plus the derivative bound.

    The E[log deg] series is summed until its terms fall below 1e-12 (see
    _sum_until_settled).
    """
    f_upper = expected_log_degree(params)
    f_lower = max(0.0, f_upper - pgw1_log_degree_constant())
    c, q = params.c, params.q
    fprime_lower = (c - 1.0) * math.exp(-c * q) / (c * c)
    return BoundsRecord(c=c, f_lower=f_lower, f_upper=f_upper,
                        fprime_lower=fprime_lower)


def g_gap(c: float, delta: float) -> float:
    """Perturbation gap g(c, delta) = delta - log(1 + delta/c), c > 1, delta > 0."""
    if not (c > 1.0):
        raise ValueError(f"g_gap requires c > 1, got {c}")
    if not (delta > 0.0):
        raise ValueError(f"g_gap requires delta > 0, got {delta}")
    return delta - math.log1p(delta / c)


def g_gap_via_alpha(c: float, delta: float, tol: float = 1e-12) -> float:
    """The same gap evaluated through the coupling route,
    alpha(c theta(c), c' theta(c')) - [c q(c) - c' q(c')] with c' = c + delta.

    Equal to g_gap(c, delta) analytically; kept as an independent route for
    verification.
    """
    p0 = extinction_prob(c, tol)
    p1 = extinction_prob(c + delta, tol)
    return alpha(p0.ctheta, p1.ctheta) - (p0.cq - p1.cq)


def beta_slope(c: float) -> float:
    """lim_{delta -> 0} g_gap(c, delta)/delta = 1 - 1/c."""
    if not (c > 1.0):
        raise ValueError(f"beta_slope requires c > 1, got {c}")
    return 1.0 - 1.0 / c

"""Monte Carlo result container shared by the walk and spanning estimators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its standard error and full reproducibility data.

    stderr is sample std / sqrt(n_samples) (NaN when n_samples < 2).
    Reports are plain values, bit-exact functions of (parameters, seed).
    """

    value: float
    stderr: float
    n_samples: int
    truncation: dict
    seed: int

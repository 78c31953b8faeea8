"""Error-rate estimators: BER/QBER counts with Wilson confidence intervals."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_Z95 = 1.959963984540054

# Critical chi-square values at the 0.001 significance level, by degrees of
# freedom (used by the independence/uniformity checks; avoids a scipy dep).
CHI2_CRIT_P001 = {1: 10.8276, 2: 13.8155, 3: 16.2662, 7: 24.3219, 9: 27.8772}


def wilson_interval(n_error: int, n_total: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if n_total == 0:
        return (0.0, 1.0)
    phat = n_error / n_total
    denom = 1.0 + z * z / n_total
    center = (phat + z * z / (2.0 * n_total)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / n_total + z * z / (4.0 * n_total * n_total))
        / denom
    )
    lo = 0.0 if n_error == 0 else max(0.0, center - half)
    hi = 1.0 if n_error == n_total else min(1.0, center + half)
    return (lo, hi)


@dataclass
class MetricAccumulator:
    """Running error count; rates and intervals are derived on demand."""

    n_total: int = 0
    n_error: int = 0

    def __post_init__(self):
        if self.n_error < 0 or self.n_total < 0 or self.n_error > self.n_total:
            raise ValueError(
                f"invalid counts: {self.n_error} errors of {self.n_total}"
            )

    @property
    def rate(self) -> float:
        return self.n_error / self.n_total if self.n_total else 0.0

    @property
    def wilson_ci95(self) -> tuple[float, float]:
        return wilson_interval(self.n_error, self.n_total)

    def add(self, n_error: int, n_total: int) -> None:
        self.n_error += int(n_error)
        self.n_total += int(n_total)


def chi2_statistic(table) -> float:
    """Pearson chi-square statistic for an observed contingency table."""
    observed = np.asarray(table, dtype=float)
    total = observed.sum()
    if total == 0:
        return 0.0
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / total
    mask = expected > 0
    return float(((observed - expected) ** 2 / np.where(mask, expected, 1.0))[mask].sum())


def chi2_uniform_statistic(counts) -> float:
    """Pearson chi-square statistic against a uniform distribution."""
    observed = np.asarray(counts, dtype=float)
    expected = observed.sum() / observed.size
    if expected == 0:
        return 0.0
    return float(((observed - expected) ** 2 / expected).sum())

"""Nonparametric two-sided tests and multiple-comparison correction.

Both tests share one exact null distribution and one normal approximation.
Midranks are doubled so every achievable rank sum is an integer even under
ties. Under the null, the Wilcoxon W+ is the sum of a uniformly random
subset of any size of the doubled ranks of |differences|, and the
Mann-Whitney rank sum of the first sample is the sum of a uniformly random
n_a-subset of the doubled pooled ranks; ``_exact_p`` counts both with one
subset-sum pass and sums the two-sided tail of deviations from the mean at
least as large as the observed one. Exact p-values are used for small
samples (Wilcoxon: n <= 25 after dropping zero differences; Mann-Whitney:
n_a + n_b <= 12); otherwise ``_normal_p`` applies tie-corrected variances
and a continuity correction of 0.5 that is clamped at zero, so a statistic
within 0.5 of its mean gets p = 1. Paired samples with no nonzero
difference take the exact path with n = 0: statistic 0 and p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import midranks

WILCOXON_EXACT_MAX = 25
MWU_EXACT_MAX = 12


@dataclass(frozen=True)
class StatTestResult:
    statistic: float
    p_value: float
    method: str  # WilcoxonExact | WilcoxonNormal | MannWhitneyExact | MannWhitneyNormal
    n: tuple[int, ...]


def _exact_p(ranks: np.ndarray, size: int | None, observed: float) -> float:
    """P(|S - E S| >= |observed - E S|) for S the sum of a random subset of ``ranks``.

    The subset is of any size when ``size`` is None, else of ``size``
    elements. Adding ``total + 1`` to every doubled rank makes a subset's
    sum encode its size, so one 1-D subset-sum pass counts both cases.
    """
    weights = np.rint(2.0 * ranks).astype(np.int64)
    total = int(weights.sum())
    step = 0 if size is None else total + 1
    counts = np.zeros(total + weights.size * step + 1, dtype=np.float64)
    counts[0] = 1.0
    for wt in weights + step:
        counts[wt:] += counts[:-wt].copy()
    start = size * step if size else 0
    counts = counts[start : start + total + 1]  # counts[s]: subsets whose doubled sum is s
    # Twice the mean of the doubled sum, integral: doubled midranks of n values sum to n(n + 1).
    mean2 = total if size is None else 2 * size * total // weights.size
    dev = np.abs(2 * np.arange(total + 1) - mean2)
    hits = counts[dev >= abs(2 * int(round(2.0 * observed)) - mean2)].sum()
    return min(float(hits) / counts.sum(), 1.0)


def _normal_p(statistic: float, mean: float, var: float) -> float:
    """Two-sided normal-approximation p-value, continuity correction clamped at zero."""
    if var <= 0:
        return 1.0
    z = max(abs(statistic - mean) - 0.5, 0.0) / math.sqrt(var)
    return min(math.erfc(z / math.sqrt(2.0)), 1.0)


def wilcoxon_signed_rank(x, y) -> StatTestResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped. The statistic is min(W+, W-). For n <= 25
    the p-value counts all 2^n sign patterns exactly; otherwise the normal
    approximation is used. With no nonzero difference (n = 0) the one empty
    pattern gives statistic 0 and p = 1.
    """
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.shape != yv.shape:
        raise ValueError("paired samples must have equal length")
    d = xv - yv
    d = d[d != 0.0]
    n = d.size
    ranks = midranks(np.abs(d))
    w = min(float(ranks[d > 0].sum()), float(ranks[d < 0].sum()))
    if n <= WILCOXON_EXACT_MAX:
        return StatTestResult(w, _exact_p(ranks, None, w), "WilcoxonExact", (n,))
    var = n * (n + 1) * (2 * n + 1) / 24.0
    t = np.unique(np.abs(d), return_counts=True)[1]
    var -= float((t**3 - t).sum()) / 48.0
    return StatTestResult(w, _normal_p(w, n * (n + 1) / 4.0, var), "WilcoxonNormal", (n,))


def mann_whitney_u(a, b) -> StatTestResult:
    """Two-sided Mann-Whitney U test on independent samples.

    The statistic is U of the first sample. For n_a + n_b <= 12 the p-value
    counts all C(n_a+n_b, n_a) group assignments exactly; otherwise the
    normal approximation is used.
    """
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    n_a, n_b = av.size, bv.size
    if n_a == 0 or n_b == 0:
        raise ValueError("both groups must be nonempty")
    pooled = np.concatenate([av, bv])
    ranks = midranks(pooled)
    rank_sum = float(ranks[:n_a].sum())
    u_a = rank_sum - n_a * (n_a + 1) / 2.0
    if n_a + n_b <= MWU_EXACT_MAX:
        return StatTestResult(u_a, _exact_p(ranks, n_a, rank_sum), "MannWhitneyExact", (n_a, n_b))
    n = n_a + n_b
    var = n_a * n_b * (n + 1) / 12.0
    t = np.unique(pooled, return_counts=True)[1]
    var -= n_a * n_b * float((t**3 - t).sum()) / (12.0 * n * (n - 1))
    return StatTestResult(u_a, _normal_p(u_a, n_a * n_b / 2.0, var), "MannWhitneyNormal", (n_a, n_b))


def bonferroni(p_values) -> np.ndarray:
    """Multiply each p-value by the family size and clip at 1."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    return np.minimum(p * p.size, 1.0)

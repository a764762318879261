"""Nonparametric two-sided tests and multiple-comparison correction.

Both tests take exact p-values from one null distribution at every sample
size. Midranks are doubled so every achievable rank sum is an integer even
under ties. Under the null, the Wilcoxon W+ is the sum of a uniformly random
subset of any size of the doubled ranks of |differences|, and the
Mann-Whitney rank sum of the first sample is the sum of a uniformly random
n_a-subset of the doubled pooled ranks; ``_exact_p`` counts both with one
subset-sum pass and sums the two-sided tail of deviations from the mean at
least as large as the observed one (Hollander, Wolfe & Chicken,
*Nonparametric Statistical Methods*, 3rd ed.). The pass over N values costs
O(N^2) memory and O(N^3) time for Wilcoxon, O(N^3) and O(N^4) for
Mann-Whitney. The largest comparisons the default grid
(``config.expand_grid({})``) forms are Mann-Whitney at 48 vs 48, ~0.2 s with
a ~14 MB peak, and Wilcoxon at 75 pairs, ~1 ms. The float64 counts reach
2^N and overflow, making p NaN, only past about 1,000 values. Paired
samples with no nonzero difference give n = 0: statistic 0 and p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import midranks


@dataclass(frozen=True)
class StatTestResult:
    statistic: float
    p_value: float
    method: str  # WilcoxonExact | MannWhitneyExact
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
    return min(float(hits / counts.sum()), 1.0)


def wilcoxon_signed_rank(x, y) -> StatTestResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped, so ``n`` counts the nonzero ones. The
    statistic is min(W+, W-), and the p-value counts all 2^n sign patterns
    exactly. With no nonzero difference (n = 0) the one empty pattern gives
    statistic 0 and p = 1.
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
    return StatTestResult(w, _exact_p(ranks, None, w), "WilcoxonExact", (n,))


def mann_whitney_u(a, b) -> StatTestResult:
    """Two-sided Mann-Whitney U test on independent samples.

    The statistic is U of the first sample, and the p-value counts all
    C(n_a+n_b, n_a) group assignments exactly.
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
    return StatTestResult(u_a, _exact_p(ranks, n_a, rank_sum), "MannWhitneyExact", (n_a, n_b))


def bonferroni(p_values) -> np.ndarray:
    """Multiply each p-value by the family size and clip at 1."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    return np.minimum(p * p.size, 1.0)

"""Exactness and calibration checks for the nonparametric test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

import hqnnbench.stats as stats
from hqnnbench.stats import StatTestResult, bonferroni, mann_whitney_u, wilcoxon_signed_rank

from oracles import mwu_bruteforce, wilcoxon_bruteforce


class TestWilcoxonExamples:
    def test_all_positive_differences(self):
        x = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        res = wilcoxon_signed_rank(x, y)
        assert res.statistic == 0.0  # W- = 0 and min(W+, W-) = W-
        assert abs(res.p_value - 0.0625) < 1e-15  # 2 / 2^5
        assert res.method == "WilcoxonExact"
        assert res.n == (5,)

    def test_identical_samples_give_statistic_zero_and_p_one(self):
        # no nonzero difference: the exact null over the one empty sign pattern
        x = np.arange(6.0)
        res = wilcoxon_signed_rank(x, x.copy())
        assert res == StatTestResult(0.0, 1.0, "WilcoxonExact", (0,))

    def test_zero_differences_dropped(self):
        x = np.array([1.0, 5.0, 2.0, 9.0])
        y = np.array([1.0, 4.0, 2.0, 7.0])  # two zeros drop, two positives remain
        res = wilcoxon_signed_rank(x, y)
        assert res.n == (2,)
        assert res.p_value == 0.5  # both-positive pattern and its mirror, out of 2^2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(np.zeros(3), np.zeros(4))

    def test_symmetry_in_sign(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        a = wilcoxon_signed_rank(x, y)
        b = wilcoxon_signed_rank(y, x)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value


class TestWilcoxonExactness:
    def test_bruteforce_agreement(self):
        rng = np.random.default_rng(8)
        for trial in range(150):
            n = int(rng.integers(2, 11))
            x = rng.normal(size=n)
            # half the trials use rounded values so ties and zeros appear
            y = x - rng.integers(-2, 3, size=n) if trial % 2 else x - rng.normal(size=n)
            if np.all(x - y == 0):
                continue
            res = wilcoxon_signed_rank(x, y)
            assert res.method == "WilcoxonExact"
            assert abs(res.p_value - wilcoxon_bruteforce(x, y)) < 1e-12

    def test_p_times_two_pow_n_is_integral(self):
        # exact p-values are counts over 2^n equally likely sign patterns
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(3, 15))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            res = wilcoxon_signed_rank(x, y)
            scaled = res.p_value * 2.0 ** res.n[0]
            assert abs(scaled - round(scaled)) < 1e-6

    def test_exact_vs_normal_close_at_boundary(self, monkeypatch):
        rng = np.random.default_rng(10)
        agree = []
        for _ in range(30):
            x = rng.normal(size=25)
            y = rng.normal(size=25)
            exact = wilcoxon_signed_rank(x, y)
            assert exact.method == "WilcoxonExact"
            monkeypatch.setattr(stats, "WILCOXON_EXACT_MAX", 0)
            approx = wilcoxon_signed_rank(x, y)
            monkeypatch.setattr(stats, "WILCOXON_EXACT_MAX", 25)
            assert approx.method == "WilcoxonNormal"
            agree.append(abs(exact.p_value - approx.p_value))
        assert max(agree) < 0.01


class TestNormalContinuityCorrection:
    def test_wilcoxon_at_its_mean_gives_p_one(self):
        # 26 differences +-1..+-13 put W+ = W- = n(n+1)/4 = 175.5 on the normal path;
        # a correction that pushes the deviation past zero would give p = 0.98986.
        d = np.concatenate([np.arange(1.0, 14.0), -np.arange(1.0, 14.0)])
        res = wilcoxon_signed_rank(d, np.zeros(26))
        assert res.method == "WilcoxonNormal"
        assert res.statistic == 175.5
        assert res.p_value == 1.0

    def test_mann_whitney_at_its_mean_gives_p_one(self):
        a = np.arange(0.0, 14.0, 2.0)
        res = mann_whitney_u(np.r_[a, a + 1], np.r_[a + 1, a])  # U = n_a * n_b / 2
        assert res.method == "MannWhitneyNormal"
        assert res.p_value == 1.0


class TestMannWhitneyExamples:
    def test_fully_separated_groups(self):
        res = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert res.statistic == 0.0
        assert abs(res.p_value - 0.1) < 1e-15  # 2 / C(6,3)
        assert res.method == "MannWhitneyExact"
        assert res.n == (3, 3)

    def test_identical_multisets_give_p_one(self):
        a = np.array([1.0, 2.0, 2.0, 5.0])
        res = mann_whitney_u(a, a.copy())
        assert res.p_value == 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u(np.zeros(0), np.ones(3))
        with pytest.raises(ValueError):
            mann_whitney_u(np.ones(3), np.zeros(0))

    def test_statistic_is_u_of_first_argument(self):
        a = np.array([10.0, 11.0])
        b = np.array([1.0, 2.0, 3.0])
        res = mann_whitney_u(a, b)
        assert res.statistic == 6.0  # every a beats every b
        swapped = mann_whitney_u(b, a)
        assert swapped.statistic == 0.0
        assert res.p_value == swapped.p_value


class TestMannWhitneyExactness:
    def test_bruteforce_agreement(self):
        rng = np.random.default_rng(11)
        for trial in range(150):
            n_a = int(rng.integers(2, 6))
            n_b = int(rng.integers(2, 7 - max(0, n_a - 5)))
            if trial % 2:
                a = rng.integers(0, 4, size=n_a).astype(float)
                b = rng.integers(0, 4, size=n_b).astype(float)
            else:
                a = rng.normal(size=n_a)
                b = rng.normal(size=n_b)
            res = mann_whitney_u(a, b)
            assert res.method == "MannWhitneyExact"
            assert abs(res.p_value - mwu_bruteforce(a, b)) < 1e-12

    def test_p_times_combinations_is_integral(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n_a = int(rng.integers(2, 7))
            n_b = int(rng.integers(2, 7))
            if n_a + n_b > 12:
                continue
            a = rng.normal(size=n_a)
            b = rng.normal(size=n_b)
            res = mann_whitney_u(a, b)
            scaled = res.p_value * math.comb(n_a + n_b, n_a)
            assert abs(scaled - round(scaled)) < 1e-6

    def test_exact_vs_normal_close_at_boundary(self, monkeypatch):
        rng = np.random.default_rng(13)
        gaps = []
        for _ in range(30):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            exact = mann_whitney_u(a, b)
            assert exact.method == "MannWhitneyExact"
            monkeypatch.setattr(stats, "MWU_EXACT_MAX", 0)
            approx = mann_whitney_u(a, b)
            monkeypatch.setattr(stats, "MWU_EXACT_MAX", 12)
            assert approx.method == "MannWhitneyNormal"
            gaps.append(abs(exact.p_value - approx.p_value))
        # n=12 is small for the CLT; the two paths still track each other
        assert max(gaps) < 0.06

    def test_normal_path_handles_all_ties(self):
        res = mann_whitney_u(np.zeros(20), np.zeros(20))
        assert res.method == "MannWhitneyNormal"
        assert res.p_value == 1.0


class TestNullCalibration:
    def test_wilcoxon_rejection_rate_near_alpha(self):
        rng = np.random.default_rng(14)
        n_trials = 1500
        rejections = 0
        for _ in range(n_trials):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            if wilcoxon_signed_rank(x, y).p_value <= 0.05:
                rejections += 1
        rate = rejections / n_trials
        assert 0.02 <= rate <= 0.08  # wider band than acceptance: fewer trials here

    def test_mwu_rejection_rate_near_alpha(self):
        rng = np.random.default_rng(15)
        n_trials = 1500
        rejections = 0
        for _ in range(n_trials):
            a = rng.normal(size=15)
            b = rng.normal(size=15)
            if mann_whitney_u(a, b).p_value <= 0.05:
                rejections += 1
        rate = rejections / n_trials
        assert 0.02 <= rate <= 0.08


class TestBonferroni:
    def test_worked_example(self):
        out = bonferroni([0.01, 0.02, 0.5])
        assert np.allclose(out, [0.03, 0.06, 1.0])

    def test_single_p_unchanged(self):
        assert np.allclose(bonferroni([0.25]), [0.25])

    def test_empty_family(self):
        assert bonferroni([]).size == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bonferroni([0.5, 1.5])
        with pytest.raises(ValueError):
            bonferroni([-0.1])

    def test_clipping_at_one(self):
        out = bonferroni([0.9, 0.9, 0.9, 0.9])
        assert np.all(out == 1.0)


class TestResultDataclass:
    def test_frozen_and_typed(self):
        res = StatTestResult(1.0, 0.5, "WilcoxonExact", (4,))
        with pytest.raises(AttributeError):
            res.p_value = 0.1

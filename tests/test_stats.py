import math

import numpy as np
import pytest

from adjfactor import one_sample_t_test, student_t_cdf
from adjfactor.stats import _two_sided_tail


def scipy_two_sided_tail(t: float, df: int) -> float:
    """I_x(df/2, 1/2) at x = df/(df + t^2) from scipy, through whichever of
    x and 1 - x carries full precision."""
    special = pytest.importorskip("scipy.special")
    x, y = df / (df + t * t), t * t / (df + t * t)
    return float(special.betainc(df / 2, 0.5, x) if x < 0.5 else special.betaincc(0.5, df / 2, y))


def bisect_critical_t(df: int, upper_tail: float, low=0.0, high=50.0) -> float:
    """Invert the CDF by bisection; independent of any table."""
    target = 1.0 - upper_tail
    for _ in range(200):
        mid = (low + high) / 2
        if student_t_cdf(mid, df) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2


class TestStudentTCdf:
    def test_symmetry_point(self):
        for df in (1, 5, 30):
            assert student_t_cdf(0.0, df) == 0.5

    def test_cauchy_closed_form(self):
        for t in (-3.0, -1.0, 0.5, 1.0, 4.0):
            expected = 0.5 + math.atan(t) / math.pi
            assert student_t_cdf(t, 1) == pytest.approx(expected, abs=1e-12)
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_reflection(self):
        for df in (2, 9, 40):
            for t in (0.3, 1.7, 5.0):
                assert student_t_cdf(-t, df) + student_t_cdf(t, df) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_t(self):
        grid = np.linspace(-6, 6, 61)
        values = [student_t_cdf(float(t), 7) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_df9_critical_region(self):
        assert student_t_cdf(3.2498, 9) == pytest.approx(0.995, abs=1e-4)

    def test_large_df_approaches_normal(self):
        for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
            normal = 0.5 * (1.0 + math.erf(t / math.sqrt(2)))
            assert student_t_cdf(t, 250) == pytest.approx(normal, abs=1e-3)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def reference(t, df):
            x = df / (df + t * t)
            tail = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
            return float(1 - tail) if t > 0 else float(tail)

        for df in (1, 3, 9, 60, 1000):
            for t in (0.2, 1.0, 2.7, 8.0):
                assert student_t_cdf(t, df) == pytest.approx(reference(t, df), abs=1e-10)

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 2.5)


class TestTwoSidedTail:
    def test_against_scipy_betainc(self):
        worst = 0.0
        for df in range(1, 61):
            for t in np.geomspace(1e-3, 1e4, 121):
                expected = scipy_two_sided_tail(float(t), df)
                worst = max(worst, abs(_two_sided_tail(float(t), df) / expected - 1.0))
                assert _two_sided_tail(float(-t), df) == _two_sided_tail(float(t), df)
        assert worst <= 1e-12

    def test_zero_t(self):
        for df in (1, 2, 9, 60):
            assert _two_sided_tail(0.0, df) == 1.0


class TestOneSampleTTest:
    def test_samples_equal_to_mean(self):
        result = one_sample_t_test([2.0, 2.0, 2.0], 2.0)
        assert result.t_stat == 0.0
        assert result.p_value == 1.0
        assert not result.significant_at_99

    def test_one_through_ten_vs_zero(self):
        result = one_sample_t_test(list(range(1, 11)), 0.0)
        assert result.t_stat == pytest.approx(5.745, abs=1e-3)
        assert result.sample_sd == pytest.approx(3.02765, abs=1e-5)
        assert result.p_value < 0.001
        assert result.significant_at_99
        assert result.df == 9

    def test_zero_variance_away_from_mean(self):
        result = one_sample_t_test([1.0, 1.0], 0.0)
        assert result.p_value == 0.0
        assert result.significant_at_99
        assert math.isinf(result.t_stat) and result.t_stat > 0
        assert one_sample_t_test([-1.0, -1.0], 0.0).t_stat < 0

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            one_sample_t_test([1.0], 0.0)

    def test_shift_invariance_of_p(self):
        samples = [0.3, 0.7, 0.45, 0.9, 0.2]
        base = one_sample_t_test(samples, 0.1)
        shifted = one_sample_t_test([s + 5.0 for s in samples], 5.1)
        assert shifted.p_value == pytest.approx(base.p_value, abs=1e-12)

    def test_reflection_flips_t(self):
        samples = [0.3, 0.7, 0.45, 0.9, 0.2]
        base = one_sample_t_test(samples, 0.1)
        mirrored = one_sample_t_test([-s for s in samples], -0.1)
        assert mirrored.t_stat == pytest.approx(-base.t_stat, abs=1e-12)
        assert mirrored.p_value == pytest.approx(base.p_value, abs=1e-12)

    def test_significance_flag_matches_p(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            samples = rng.normal(0.5, 0.2, size=10)
            result = one_sample_t_test(samples, 0.5)
            assert result.significant_at_99 == (result.p_value < 0.01)

    def test_critical_value_consistency(self):
        critical = bisect_critical_t(9, upper_tail=0.005)
        assert critical == pytest.approx(3.2498, abs=5e-4)
        # samples engineered to land just inside/outside the critical region
        n = 10
        sd = 1.0

        def synth(t_target):
            half = math.sqrt(sd * sd * (n - 1) / n)
            mean = t_target * sd / math.sqrt(n)
            base = np.array([mean - half if i < n // 2 else mean + half for i in range(n)])
            return base

        barely_in = one_sample_t_test(synth(critical * 1.02), 0.0)
        barely_out = one_sample_t_test(synth(critical * 0.98), 0.0)
        assert barely_in.significant_at_99
        assert not barely_out.significant_at_99

    @pytest.mark.parametrize("t, n", [(50.0, 10), (400.0, 4), (1e3, 30)])
    def test_tiny_p_value_is_a_direct_tail(self, t, n):
        # p is not 2*(1 - cdf), which cancels once the tail is this small
        half = math.sqrt((n - 1) / n)  # sample sd 1
        mean = t / math.sqrt(n)
        result = one_sample_t_test([mean - half] * (n // 2) + [mean + half] * (n - n // 2), 0.0)
        expected = scipy_two_sided_tail(result.t_stat, result.df)
        assert result.t_stat == pytest.approx(t, rel=1e-9)
        assert result.p_value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_result_dict_serializes_inf(self):
        payload = one_sample_t_test([1.0, 1.0], 0.0).to_dict()
        assert payload["t_stat"] == "inf"

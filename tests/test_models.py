import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adjfactor
from adjfactor import models
from adjfactor import (
    FitError,
    emg_model,
    erfc,
    fit,
    mnd,
    s_complex_model,
)
from adjfactor.census import DistributionSeries
from adjfactor.models import model_function, reference_constant
from helpers import BAD_LOG_BASES, least_squares_oracle, reference_emg, reference_erfcx, series_erfc

TABLE_S_PARAMS = [
    (0.25, 0.75, 0.19),
    (0.07, 0.50, 0.18),
    (0.06, 0.33, 0.33),
    (0.16, 0.15, 0.67),
    (0.65, 0.44, 0.55),
]
TABLE_EMG_PARAMS = [
    (0.02, 6.82, 5.08),
    (0.07, 10.86, 5.06),
    (0.05, 13.81, 7.58),
    (0.03, 0.37, 0.57),
    (0.43, 0.00, 0.00),
]


def series_from(x, freq):
    x = np.asarray(x)
    freq = np.asarray(freq, dtype=float)
    return DistributionSeries(support=x, counts=np.ones_like(x, dtype=np.int64), freq=freq)


class TestErfc:
    def test_zero(self):
        assert erfc(0.0) == 1.0

    def test_against_series_oracle(self):
        assert abs(erfc(1.0) - series_erfc(1.0)) <= 1e-14
        assert abs(erfc(1.0) - 0.157299207050285) <= 1e-12

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_reflection_identity(self, x):
        assert abs(erfc(-x) - (2.0 - erfc(x))) <= 1e-12

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.linspace(-10, 10, 41):
            assert abs(erfc(float(x)) - float(mpmath.erfc(float(x)))) <= 1e-12


class TestEdgeModel:
    def test_value_at_one_is_c(self):
        assert s_complex_model(1.0, 0.7, 1.3, 0.42) == pytest.approx(0.42, abs=0)

    def test_value_at_log_base(self):
        assert s_complex_model(10.0, 0.3, 0.8, 0.5) == pytest.approx(0.5 * 0.8 * 10 ** -0.3)

    def test_enron_parameters_at_ten(self):
        a, b, c = 0.25, 0.75, 0.19
        assert s_complex_model(10.0, a, b, c) == pytest.approx(c * b * 10 ** -a)
        assert s_complex_model(10.0, a, b, c) == pytest.approx(0.0801, abs=5e-5)

    def test_natural_log_base(self):
        assert s_complex_model(math.e, 0.3, 0.8, 0.5, log_base=math.e) == pytest.approx(
            0.5 * 0.8 * math.e ** -0.3
        )

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ValueError):
            s_complex_model(0.0, 0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            s_complex_model([-1.0, 2.0], 0.1, 0.5, 0.5)

    def test_vectorized(self):
        values = s_complex_model([1, 10, 100], 0.2, 0.9, 0.3)
        assert values.shape == (3,)
        assert values[0] == pytest.approx(0.3)


class TestEmgModel:
    def test_sigma_zero_is_exponential(self):
        assert emg_model(2.0, 1.0, 0.0, 0.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
        assert emg_model(-0.5, 1.0, 0.0, 0.0) == 0.0
        assert emg_model(0.0, 0.43, 0.0, 0.0) == pytest.approx(0.43, abs=0)

    def test_standard_value(self):
        expected = 0.5 * math.exp(0.5) * math.erfc(1 / math.sqrt(2))
        assert emg_model(0.0, 1.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-13)
        assert emg_model(0.0, 1.0, 0.0, 1.0) == pytest.approx(0.26157, abs=1e-5)

    def test_normalizes_to_one(self):
        lam, mu, sigma = 0.02, 6.82, 5.08
        lo = mu - 10 * sigma - 20 / lam
        hi = mu + 10 * sigma + 20 / lam
        quad = pytest.importorskip("scipy.integrate").quad
        integral, _ = quad(lambda x: float(emg_model(x, lam, mu, sigma)), lo, hi, limit=400)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative_and_finite_in_deep_tails(self):
        x = np.array([-1e6, -1e3, -50.0, 0.0, 50.0, 1e3, 1e6])
        values = emg_model(x, 0.5, 3.0, 2.0)
        assert np.isfinite(values).all()
        assert (values >= 0.0).all()

    def test_branches_agree_at_crossover(self):
        lam, mu, sigma = 0.7, 4.0, 1.5
        crossover = mu + lam * sigma * sigma
        left = emg_model(crossover - 1e-9, lam, mu, sigma)
        right = emg_model(crossover + 1e-9, lam, mu, sigma)
        assert left == pytest.approx(right, rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            emg_model(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            emg_model(1.0, 1.0, 0.0, -0.5)


class TestFit:
    def test_recovers_edge_model_exactly(self):
        x = np.arange(1, 51)
        a, b, c = 0.25, 0.75, 0.19
        series = series_from(x, s_complex_model(x, a, b, c))
        result = fit("s_complex", series)
        assert result.sse < 1e-12
        for name, true in zip(("a", "b", "c"), (a, b, c)):
            assert abs(result.params[name] - true) / true < 0.01

    def test_recovers_edge_model_exactly_at_natural_log_base(self):
        x = np.arange(1, 51)
        a, b, c = 0.16, 0.15, 0.67
        series = series_from(x, s_complex_model(x, a, b, c, log_base=math.e))
        result = fit("s_complex", series, log_base=math.e)
        assert result.sse < 1e-12
        for name, true in zip(("a", "b", "c"), (a, b, c)):
            assert abs(result.params[name] - true) / true < 0.01

    def test_recovers_emg(self):
        x = np.arange(0, 61)
        lam, mu, sigma = 0.07, 10.86, 5.06
        series = series_from(x, emg_model(x, lam, mu, sigma))
        result = fit("emg", series)
        assert result.sse < 1e-8
        for name, true in zip(("lam", "mu", "sigma"), (lam, mu, sigma)):
            assert abs(result.params[name] - true) / true < 0.05

    def test_constant_series_fits_exactly(self):
        x = np.arange(1, 21)
        series = series_from(x, np.full(20, 0.05))
        result = fit("s_complex", series)
        assert result.sse < 1e-12

    def test_zero_bin_excluded_from_edge_model_support(self):
        x = np.arange(0, 30)
        freq = np.concatenate([[0.5], s_complex_model(x[1:], 0.2, 0.8, 0.3)])
        result = fit("s_complex", series_from(x, freq))
        assert result.support_min == 1.0
        assert result.sse < 1e-12

    def test_deterministic_bit_for_bit(self):
        x = np.arange(0, 40)
        rng = np.random.default_rng(1)
        freq = emg_model(x, 0.1, 8.0, 4.0) + rng.normal(0, 0.002, size=len(x)) ** 2
        series = series_from(x, freq)
        first = fit("emg", series)
        second = fit("emg", series)
        assert first == second

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit("s_complex", series_from([1, 2, 3], [0.5, 0.3, 0.2]))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit("cubic", series_from([1, 2, 3, 4], [0.4, 0.3, 0.2, 0.1]))

    @pytest.mark.parametrize("model", ["s_complex", "emg"])
    @pytest.mark.parametrize("log_base", BAD_LOG_BASES)
    def test_bad_log_base_rejected(self, model, log_base):
        error = TypeError if isinstance(log_base, str) else ValueError
        with pytest.raises(error, match="log_base"):
            fit(model, series_from([1, 2, 3, 4], [0.4, 0.3, 0.2, 0.1]), log_base=log_base)

    def test_mnd_consistent_with_params(self):
        x = np.arange(1, 30)
        series = series_from(x, s_complex_model(x, 0.3, 0.6, 0.25))
        result = fit("s_complex", series)
        recomputed = mnd(x, series.freq, model_function(result.model, result.params)(x))
        assert abs(recomputed - result.mnd) <= 1e-9


class TestMnd:
    def test_zero_for_identical(self):
        x = [1, 2, 3]
        f = [0.2, 0.5, 0.3]
        assert mnd(x, f, np.asarray(f)) == 0.0

    def test_hand_example(self):
        assert mnd([1, 2], [1.0, 2.0], np.array([2.0, 1.0])) == pytest.approx(0.75, abs=0)

    def test_exact_model_parameters(self):
        x = np.arange(0, 50)
        freq = emg_model(x, 0.07, 10.86, 5.06)
        assert mnd(x, freq, emg_model(x, 0.07, 10.86, 5.06)) <= 1e-9

    def test_constant_model(self):
        assert mnd([1, 2], [0.1, 0.1], 0.1) == 0.0

    def test_zero_observed_points_excluded(self):
        value = mnd([1, 2, 3], [0.5, 0.0, 0.5], 0.5)
        assert value == 0.0

    def test_all_zero_observed_rejected(self):
        with pytest.raises(ValueError):
            mnd([1, 2], [0.0, 0.0], 1.0)


class TestReferenceConstant:
    def test_constant_series(self):
        c, deviation = reference_constant([1, 2, 3, 4], [0.2, 0.2, 0.2, 0.2])
        assert c == pytest.approx(0.2)
        assert deviation == pytest.approx(0.0, abs=1e-15)

    def test_upper_half_geometric_mean(self):
        c, deviation = reference_constant([1, 2, 3], [0.8, 0.1, 0.1])
        assert c == pytest.approx(0.1)
        assert deviation == pytest.approx((0.7 / 0.8) / 3)

    def test_whole_support_rule(self):
        c, _ = reference_constant([1, 2], [0.4, 0.1], rule="all")
        assert c == pytest.approx(math.sqrt(0.04))

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            reference_constant([1, 2], [0.5, 0.5], rule="median")

    def test_empty_series(self):
        with pytest.raises(ValueError):
            reference_constant([], [])


# (a, b) rows of the edge-level search, both bounds of each included
S_PROJECTION_ROWS = np.array([
    [0.0, 1e-8], [3.0, 1e-8], [0.0, 2.0], [3.0, 2.0],
    *np.random.default_rng(12).uniform([0.0, 1e-8], [3.0, 2.0], (12, 2)),
])
S_PROJECTION_X = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 15.0, 40.0])


class TestSComplexProjection:
    """The edge-level score: c solved in closed form for each (a, b) row."""

    @pytest.mark.parametrize("log_base", [10.0, math.e])
    def test_equals_three_parameter_score_at_its_c(self, log_base):
        rng = np.random.default_rng(5)
        rows = S_PROJECTION_ROWS
        grid = np.linspace(1e-8, 1.0, 2001)
        solved = []
        # with x = 1 (g = 1 there) and without it, at unit and at tiny mass:
        # c meets both of its bounds and lies strictly inside them
        for x, mass in [(S_PROJECTION_X, 1.0), (S_PROJECTION_X[1:] + 1.0, 1.0), (S_PROJECTION_X[1:] + 1.0, 1e-9)]:
            observed = mass * rng.dirichlet(np.ones(len(x)))
            c, sse = models._s_complex_projection(x, observed, log_base)(rows)
            three = models._sse(s_complex_model(x, rows[:, 0:1], rows[:, 1:2], c, log_base=log_base), observed)
            assert sse.tobytes() == three.tobytes()
            # no c on a grid over its bounds scores lower
            for (a, b), value in zip(rows, sse):
                assert value <= models._sse(s_complex_model(x, a, b, grid[:, None], log_base=log_base), observed).min()
            solved.append(c)
        c = np.concatenate(solved)
        assert c.shape == (3 * len(rows), 1)
        assert (c == 1e-8).any() and (c == 1.0).any() and ((1e-8 < c) & (c < 1.0)).any()
        assert ((1e-8 <= c) & (c <= 1.0)).all()

    @pytest.mark.parametrize("x", [[1e4, 2e4, 5e4, 1e5], [1e60, 1e61, 1e62, 1e63]], ids=["g-squared", "g"])
    def test_underflow_takes_lower_bound(self, x):
        # without x = 1 every g (or at least every g*g) underflows at a=3,
        # b=1e-8; c then takes its lower bound and the SSE is sum(y^2)
        x = np.array(x)
        observed = np.array([0.4, 0.3, 0.2, 0.1])
        rows = np.array([[3.0, 1e-8], [2.9, 1e-7]])
        c, sse = models._s_complex_projection(x, observed, math.e)(rows)
        g = s_complex_model(x, rows[:, 0:1], rows[:, 1:2], 1.0, log_base=math.e)
        assert (g * g == 0.0).all() and (g < 1e-150).all()
        assert c.tolist() == [[1e-8], [1e-8]]
        assert sse.tolist() == [(observed**2).sum()] * 2


class TestSComplexAgainstThreeParameterSearch:
    """The (a, b, c) search ends where c is solved: no c does better at its (a, b)."""

    @pytest.mark.parametrize("grown", [None, (800, 2, 0.3, 1), (1500, 3, 0.6, 2), (1000, 5, 0.85, 3)])
    def test_sse_no_worse(self, synthetic_input, grown):
        if grown is None:
            graph, _ = adjfactor.load_edge_list(synthetic_input)
        else:
            n, m, p_t, seed = grown
            graph = adjfactor.generate_pa_tf(adjfactor.GrowthConfig(n=n, n0=m + 1, m=m, p_t=p_t, seed=seed))
        series = adjfactor.to_distribution(adjfactor.census(graph, "s"))
        result = fit("s_complex", series)
        x, observed = series.restrict(1.0)
        a, b, c = result.params.values()
        solved_c, solved = models._s_complex_projection(x, observed, 10.0)(np.array([[a, b]]))
        assert result.sse <= solved[0] * (1 + 1e-9)
        assert c == pytest.approx(solved_c[0, 0], rel=1e-6)
        assert result.converged and result.restarts == 3


def _bowl_residuals(p):
    """Residuals of a bowl least at (0.9, 0.9); NaN where p[0] < 0.6 and p[1] < 0.5."""
    r = p - 0.9
    r[(p[:, 0] < 0.6) & (p[:, 1] < 0.5)] = np.nan
    return r


UNIT_BOX = np.array([0.0, 0.0]), np.array([1.0, 1.0])


class TestNanNeverWins:
    """A NaN objective value loses to any number, also when it comes first."""

    def test_multistart_replaces_nan_first_start(self):
        starts = np.array([[0.5, 1 / 3], [0.25, 0.75]])
        first = models._levenberg_marquardt(_bowl_residuals, starts[0], *UNIT_BOX)
        assert math.isnan(first[1])  # the first start lies in the NaN region
        point, sse, converged, _ = models._best_run(_bowl_residuals, starts, *UNIT_BOX)
        assert sse < 1e-12 and converged
        assert point == pytest.approx([0.9, 0.9], abs=1e-6)

    def test_fit_takes_pinned_family_over_nan(self, monkeypatch):
        original = models._best_run

        def nan_unless_pinned(residuals, starts, low, high, sticky=()):
            point, sse, converged, iterations = original(residuals, starts, low, high, sticky)
            return point, sse if len(low) == 2 else math.nan, converged, iterations

        monkeypatch.setattr(models, "_best_run", nan_unless_pinned)
        # the second is the phone-calls network of Table 2 on test_fit_recovery's support
        for x, lam in [(np.arange(0, 30), 0.3), (np.arange(0, 61), 0.43)]:
            result = fit("emg", series_from(x, emg_model(x, lam, 0.0, 0.0)))
            assert result.params["sigma"] == 0.0
            assert result.sse < 1e-12

    def test_pinned_family_wins_on_a_pure_exponential(self):
        x = np.arange(0, 30)
        result = fit("emg", series_from(x, emg_model(x, 0.43, 0.0, 0.0)))
        assert result.params["sigma"] == 0.0
        assert result.params["lam"] == pytest.approx(0.43, rel=1e-9)
        assert result.sse < 1e-20
        assert result.at_bound == ["mu", "sigma"]


class TestLevenbergMarquardt:
    """The bounded solver on small least-squares problems."""

    def test_optimum_outside_the_box_ends_on_its_bounds(self):
        # the bowl's least point (1.4, -0.2) lies outside; the box's nearest corner is the optimum
        def residuals(p):
            return p - np.array([1.4, -0.2])

        point, sse, converged, _ = models._levenberg_marquardt(residuals, np.array([0.3, 0.6]), *UNIT_BOX)
        assert point.tolist() == [1.0, 0.0]
        assert sse == pytest.approx(0.2, rel=1e-12)
        assert converged

    def test_every_scored_row_lies_in_the_box(self):
        # starting on the upper bound: its difference steps go backward
        low, high = np.array([0.0, 1e-8]), np.array([3.0, 2.0])
        scored = []

        def residuals(p):
            scored.append(p.copy())
            return np.hstack([p[:, :1] - 2.0, 10.0 * (p[:, 1:] - p[:, :1] ** 2 / 4.0), p[:, 1:] ** 3])

        point, _, converged, _ = models._levenberg_marquardt(residuals, high.copy(), low, high)
        rows = np.vstack(scored)
        assert ((rows >= low) & (rows <= high)).all()
        assert converged

    def test_cap_ends_unconverged(self, monkeypatch):
        monkeypatch.setattr(models, "_MAX_ITERATIONS", 2)
        _, _, converged, iterations = models._levenberg_marquardt(_rosenbrock, *ROSENBROCK_START_AND_BOX)
        assert not converged and iterations == 2

    def test_cap_is_not_reached_on_rosenbrock(self):
        point, sse, converged, iterations = models._levenberg_marquardt(_rosenbrock, *ROSENBROCK_START_AND_BOX)
        assert converged and iterations < models._MAX_ITERATIONS
        assert sse < 1e-20
        assert point == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_each_try_costs_one_call(self, monkeypatch):
        # one call scores the start, and one each damping try with its difference
        # rows, so no point is scored twice; each try solves the damped system
        # once, and this run ends on a solve whose step is too small to score
        solves, scored = [], []
        solve = np.linalg.solve

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        def residuals(p):
            scored.append(p[0].tobytes())
            return _rosenbrock(p)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        _, _, converged, _ = models._levenberg_marquardt(residuals, *ROSENBROCK_START_AND_BOX)
        assert converged
        tries = len(solves) - 1
        assert len(scored) == 1 + tries
        assert len(set(scored)) == len(scored)

    def test_a_capped_run_loses_to_a_converged_one(self, monkeypatch):
        # on these counts the run from the moment start slides toward sigma -> 0
        # with mu/sigma fixed, an SSE infimum no point attains, until the cap
        series = _counts_series(CORNER_COUNTS)
        runs = []
        original = models._levenberg_marquardt

        def record(*args):
            runs.append(original(*args))
            return runs[-1]

        monkeypatch.setattr(models, "_levenberg_marquardt", record)
        result = fit("emg", series)
        moment_run = runs[0]
        assert not moment_run[2] and moment_run[1] < result.sse
        assert result.converged and result.params["sigma"] > 0.5

    def test_the_cap_leaves_room_for_slow_winners(self, monkeypatch):
        # the winning run on these counts converges at iteration 138; a cap of
        # 100 cuts it, and the sigma=0 family wins at 30 times its SSE
        series = _counts_series(SLOW_WINNER_COUNTS)
        result = fit("emg", series)
        assert (result.converged, result.iterations) == (True, 138)
        assert result.sse == 0.0031349578036726352
        monkeypatch.setattr(models, "_MAX_ITERATIONS", 100)
        cut = fit("emg", series)
        assert cut.sse > 30 * result.sse


def _rosenbrock(p):
    return np.hstack([1.0 - p[:, :1], 10.0 * (p[:, 1:] - p[:, :1] ** 2)])


ROSENBROCK_START_AND_BOX = np.array([-1.2, 1.0]), np.array([-2.0, -1.0]), np.array([2.0, 3.0])

# a grown replica's triangle-level counts (n=1866, m=2)
CORNER_COUNTS = {0: 212, 1: 194, 2: 88, 3: 36, 4: 13, 5: 7, 6: 2, 7: 2, 9: 1, 11: 2}
# contrived counts whose winning EMG run is the slowest measured to converge
SLOW_WINNER_COUNTS = {0: 100, 1: 10, 2: 1, 1000: 1}


def _counts_series(counts):
    """The frequency series of {support point: count}."""
    support = np.array(list(counts), dtype=float)
    values = np.array(list(counts.values()), dtype=np.int64)
    return DistributionSeries(support=support, counts=values, freq=values / values.sum())


def _bowl(p):
    return p - np.array([0.3, 1.7, 0.05])[: p.shape[1]]


def _flat_below_one(p):
    # zero wherever p[0] <= 1, and the lower bound of p[0] keeps the search there
    return np.sqrt(np.maximum(p[:, :1], 1.0) - 1.0)


def _constant(p):
    # a zero Jacobian frees no coordinate: the run ends where it starts
    return np.ones((len(p), 1))


def _two_level(p):
    # 0 past 0.51 and 1 below it: no difference step from 0.5 sees the drop
    return np.where(np.maximum(p[:, 1:2], p[:, 2:3]) > 0.51, 0.0, 1.0)


def _staircase(p):
    # plateaus: every difference step lands on the start's step
    return np.sqrt(np.floor(3.0 * p))


def _nan_right_of_half(p):
    r = p - np.array([0.2, 0.4])
    r[p[:, 0] > 0.5] = np.nan
    return r


def _nan_left_of_half(p):
    r = p - np.array([0.7, 0.4])
    r[p[:, 0] < 0.5] = np.nan
    return r


def _kinked(p):
    return np.abs(p - np.array([0.25, 0.5]))


S_BOUNDS = [(0.0, 3.0), (1e-8, 2.0), (1e-8, 1.0)]

# (name, residuals, start, bounds, iteration cap or None for the solver's own)
ORACLE_CASES = [
    ("rosenbrock-2d", _rosenbrock, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)], None),
    ("bowl-3d", _bowl, [1.0, 0.5, 0.5], S_BOUNDS, None),
    ("bowl-3d-polish", _bowl, [0.3, 1.7, 0.05], S_BOUNDS, None),
    ("upper-bound-start", _bowl, [3.0, 2.0, 1.0], S_BOUNDS, None),
    ("zero-start", _bowl, [0.0, 1e-8, 0.5], S_BOUNDS, None),
    ("flat-at-bound", _flat_below_one, [0.5, 0.5], [(0.0, 3.0), (0.0, 1.0)], None),
    ("tied-pairs", _two_level, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3, None),
    ("tied-expansion", _staircase, [0.25, 0.667], [(0.0, 1.0), (0.0, 1.0)], None),
    ("constant-shrinks", _constant, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3, None),
    ("nan-region", _nan_right_of_half, [0.45, 0.9], [(0.0, 1.0), (0.0, 1.0)], None),
    ("nan-start", _nan_right_of_half, [0.9, 0.9], [(0.0, 1.0), (0.0, 1.0)], None),
    ("nan-first-vertex", _nan_left_of_half, [0.49, 0.5], [(0.0, 1.0), (0.0, 1.0)], None),
    ("kinked", _kinked, [0.9, 0.1], [(0.0, 1.0), (0.0, 1.0)], None),
] + [
    (f"maxfev-{cap}{residuals.__name__}", residuals, start, bounds, cap)
    for cap in (0, 1, 2, 3, 5, 7, 11, 30)
    for residuals, start, bounds in (
        (_rosenbrock, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)]),
        (_constant, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3),
        (_two_level, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3),
        (_nan_left_of_half, [0.49, 0.5], [(0.0, 1.0), (0.0, 1.0)]),
    )
]


def _run(residuals, start, low, high, cap=None, sticky=()):
    """One Levenberg-Marquardt run, cut after `cap` iterations if given, and the iterates it scored.

    Every call scores a point in its first row: the start, then one damping
    try each. The iterates are the start and each try whose SSE is strictly
    below the last iterate's, the solver's own acceptance rule.
    """
    iterates, last = [], math.nan

    def scored(p):
        nonlocal last
        rows = residuals(p)
        sse = float(rows[0] @ rows[0])
        if not iterates or sse < last:
            iterates.append(p[0].copy())
            last = sse
        return rows

    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(models, "_MAX_ITERATIONS", cap)
        return models._levenberg_marquardt(scored, start, low, high, sticky), iterates


def _same_run(run, expected):
    point, sse, converged, iterations = run
    assert point.tobytes() == expected[0].tobytes()
    assert np.float64(sse).tobytes() == np.float64(expected[1]).tobytes()
    assert (converged, iterations) == expected[2:]


def _assert_matches_scipy(run, residuals, start, low, high):
    """The run ends in the box no worse than scipy's least squares from its start.

    scipy refuses a start with a non-finite residual; the run scores it once
    and ends there, unconverged, with its NaN SSE.
    """
    point, sse, converged, iterations = run
    if not np.isfinite(residuals(start[None, :])).all():
        _same_run(run, (start, math.nan, False, 1))
        return
    oracle, _ = least_squares_oracle(residuals, start, low, high)
    assert converged and ((low <= point) & (point <= high)).all()
    # where scipy ends on a zero SSE this run may end a residual of 1e-10 short
    # of it, as where its difference steps straddle the kink of `_kinked`
    assert sse <= oracle * (1 + 1e-9) + 1e-20


def _assert_cut(cut, full, iterates, start, cap):
    """A run cut after `cap` iterations ends where the uncut run stood then."""
    if cap == 0:  # nothing is scored
        _same_run(cut, (start, math.nan, False, 0))
    elif full[3] <= cap:
        _same_run(cut, full)
    else:
        point, sse, converged, iterations = cut
        assert point.tobytes() == iterates[cap].tobytes()
        assert (converged, iterations) == (False, cap)
        assert full[1] <= sse


class TestSimplexOracle:
    """The bounded solver on the small problems that once checked the simplex search, against scipy.

    Each problem's residuals give as their SSE the objective the simplex
    search minimised; scipy.optimize.least_squares from the same start is
    the oracle. A `maxfev-` case also cuts the run after that many iterations.
    """

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_scipy(self, case):
        _, residuals, start, bounds, cap = case
        start, (low, high) = np.array(start), np.array(bounds).T
        full, iterates = _run(residuals, start, low, high)
        _assert_matches_scipy(full, residuals, start, low, high)
        if cap is not None:
            _assert_cut(_run(residuals, start, low, high, cap)[0], full, iterates, start, cap)

    @pytest.mark.parametrize("case", [c for c in ORACLE_CASES if c[4] is None], ids=lambda c: c[0])
    def test_every_maxfev_cut_matches_scipy(self, case):
        # every cap, through the run's last iteration and past it, ends the run
        # where it stood; the SSE never rises from one cap to the next
        _, residuals, start, bounds, _ = case
        start, (low, high) = np.array(start), np.array(bounds).T
        full, iterates = _run(residuals, start, low, high)
        _assert_matches_scipy(full, residuals, start, low, high)
        assert full[3] < 40
        previous = float((residuals(start[None, :]) ** 2).sum())
        for cap in range(41):
            cut, _ = _run(residuals, start, low, high, cap)
            _assert_cut(cut, full, iterates, start, cap)
            if cap > 0:
                assert not cut[1] > previous
                previous = cut[1]


@pytest.fixture(scope="module")
def fixture_objectives(synthetic_input):
    """Each search of both fits on the determinism fixture's input.

    Family name -> (residuals, starts, low, high, sticky), recorded from
    each `_best_run` call of `fit`.
    """
    graph, _ = adjfactor.load_edge_list(synthetic_input)
    recorded = []
    original = models._best_run

    def record(residuals, starts, low, high, sticky=()):
        recorded.append((residuals, starts, low, high, sticky))
        return original(residuals, starts, low, high, sticky)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_best_run", record)
        fit("s_complex", adjfactor.to_distribution(adjfactor.census(graph, "s")))
        fit("emg", adjfactor.to_distribution(adjfactor.census(graph, "t")))
    return dict(zip(("s_complex", "emg", "emg-sigma0"), recorded, strict=True))


class TestRealObjectiveOracle:
    """Every start of fit's own searches against scipy's least squares from that start."""

    @pytest.mark.parametrize("family", ["s_complex", "emg", "emg-sigma0"])
    def test_each_start_matches_scipy(self, fixture_objectives, family):
        residuals, starts, low, high, sticky = fixture_objectives[family]
        # the sigma=0 family searches (lam, mu) from the moment start alone, its
        # mu held on its lower bound once there
        assert starts.shape == ((1, 2) if family == "emg-sigma0" else (3, 3))
        assert sticky == ((1,) if family == "emg-sigma0" else ())
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for start in starts:
                run, _ = _run(residuals, start, low, high, sticky=sticky)
                _assert_matches_scipy(run, residuals, start, low, high)


EMG_GRID_X = np.array([0.0, 1.0, 2.0, 3.0, 3.5, 4.0, 6.0, 9.0, 20.0, 60.0, 400.0])
EMG_GRID_ROWS = np.array([
    [0.5, 3.0, 2.0],
    [0.43, 0.0, 0.0],
    [1.2, 3.0, 0.0],
    [0.07, 10.86, 5.06],
    [2.0, 3.0, 1e-170],  # sigma**2 underflows
    [0.3, 3.0, 5e-324],
    [4.9, 1.0, 0.4],  # crossover mu + lam*sigma**2 between support points
    [1e-6, 60.0, 60.0],
])


class TestBatchedModels:
    """Parameter columns give the rows of separate scalar-parameter calls."""

    def test_emg_columns_equal_rows(self):
        x, rows = EMG_GRID_X, EMG_GRID_ROWS
        batched = emg_model(x, rows[:, 0:1], rows[:, 1:2], rows[:, 2:3])
        separate = np.stack([emg_model(x, *row) for row in rows])
        assert batched.shape == (len(rows), len(x))
        assert not np.isnan(batched).any()
        # the pointwise sigma -> 0 limit lam/2 at x == mu == x[3]
        assert separate[4, 3] == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert separate[5, 3] == pytest.approx(0.15, rel=1e-14, abs=0.0)
        lam, mu_6, sigma = rows[6]
        arg = (mu_6 + lam * sigma * sigma - x) / (math.sqrt(2.0) * sigma)
        assert (arg >= 0).any() and (arg < 0).any()
        assert np.array_equal(batched, separate, equal_nan=True)
        pinned = emg_model(x, rows[:, 0:1], rows[:, 1:2], 0.0)
        assert np.array_equal(pinned, np.stack([emg_model(x, lam, m, 0.0) for lam, m, _ in rows]))

    def test_emg_equals_masked_branch_reference(self):
        # each branch evaluated only on its own points with scipy's erfcx and
        # erfc; the Gaussian factor is taken from z = (x - mu)/sigma
        special = pytest.importorskip("scipy.special")
        x = np.array([0.0, 1.0, 2.0, 3.0, 3.5, 4.0, 6.0, 9.0, 20.0, 60.0, 400.0])
        for lam, mu, sigma in [(0.5, 3.0, 2.0), (0.07, 10.86, 5.06), (4.9, 1.0, 0.4), (2.0, 3.0, 1e-170)]:
            arg = (mu + lam * sigma * sigma - x) / (math.sqrt(2.0) * sigma)
            left = arg >= 0.0
            expected = np.empty_like(x)
            with np.errstate(all="ignore"):
                gauss = np.exp(-0.5 * ((x[left] - mu) / sigma) ** 2)
                expected[left] = 0.5 * lam * gauss * special.erfcx(arg[left])
                tail = np.exp(lam * (mu - x[~left]) + 0.5 * lam * lam * sigma * sigma)
                expected[~left] = 0.5 * lam * tail * special.erfc(arg[~left])
            actual = emg_model(x, lam, mu, sigma)
            assert not np.isnan(expected).any()
            assert np.allclose(actual, expected, rtol=1e-12, atol=1e-250)

    def test_emg_bits_equal_row_gather_reference(self):
        x, rows = EMG_GRID_X, EMG_GRID_ROWS
        columns = rows[:, 0:1], rows[:, 1:2], rows[:, 2:3]
        assert emg_model(x, *columns).tobytes() == reference_emg(x, *columns).tobytes()
        for row in rows:
            expected = reference_emg(x, *(np.array([[v]]) for v in row))[0]
            assert emg_model(x, *row).tobytes() == expected.tobytes()

    def test_s_complex_columns_equal_rows(self):
        x = np.array([1.0, 2.0, 3.0, 10.0, 57.0, 1000.0])
        rows = np.array([[0.25, 0.75, 0.19], [0.0, 1e-8, 1e-8], [3.0, 2.0, 1.0], [0.65, 0.44, 0.55]])
        batched = s_complex_model(x, rows[:, 0:1], rows[:, 1:2], rows[:, 2:3])
        separate = np.stack([s_complex_model(x, *row) for row in rows])
        assert np.array_equal(batched, separate, equal_nan=True)


# a replica's triangle-level counts on which the 3-parameter EMG search drives
# sigma so low that sigma**2 underflows
UNDERFLOW_COUNTS = {0: 217, 1: 156, 2: 83, 3: 40, 4: 12, 5: 5, 6: 4, 7: 7, 8: 1, 9: 6, 10: 4, 11: 1, 15: 1, 16: 1}


class TestQuietFits:
    def test_sigma_underflow_emits_no_warning(self):
        support = np.array(list(UNDERFLOW_COUNTS), dtype=float)
        counts = np.array(list(UNDERFLOW_COUNTS.values()), dtype=np.int64)
        series = DistributionSeries(support=support, counts=counts, freq=counts / counts.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit("emg", series)
        assert np.isfinite(list(result.params.values())).all()
        assert result.sse < 0.01

    @pytest.mark.parametrize("freq", [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.5, 0.5, 0.0]])
    def test_degenerate_moments_fit_without_warning(self, freq):
        # one or two masses: zero or tiny variance, so the EMG's moment start divides by zero
        x = np.arange(4)
        for model, support in (("emg", x), ("s_complex", x + 1)):
            result = fit(model, series_from(support, freq))
            assert result.converged and np.isfinite(result.sse)

    @pytest.mark.parametrize("sigma", [1e-170, 5e-324])
    def test_underflowing_sigma_is_half_lam_at_mu_without_warning(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = emg_model(np.array([1.0, 2.0, 3.0]), 2.0, 2.0, sigma)
        assert values[0] == 0.0
        assert values[1:] == pytest.approx([1.0, 2.0 * math.exp(-2.0)], rel=1e-14, abs=0.0)


def test_import_leaves_scipy_optimize_unloaded():
    # no scipy module at all after both fits and a t-test
    code = """
import sys
import numpy as np
import adjfactor, adjfactor.cli
from adjfactor.census import DistributionSeries
x = np.arange(1, 30)
series = DistributionSeries(support=x, counts=np.ones_like(x), freq=adjfactor.emg_model(x, 0.3, 4.0, 2.0))
adjfactor.fit("s_complex", series)
adjfactor.fit("emg", series)
adjfactor.one_sample_t_test([1.0, 2.0, 4.0], 0.0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(adjfactor.__file__).resolve().parent.parent))
    output = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert output.stdout.strip() == "[]"


def _fit_erfcx_series(degree: int = 24, points: int = 4000) -> np.ndarray:
    """The fit behind models._ERFCX_SERIES: least squares at Chebyshev points of the first kind."""
    special = pytest.importorskip("scipy.special")
    t = np.cos((np.arange(points) + 0.5) * math.pi / points)
    y = 3.0 * (1.0 + t) / (1.0 - t)
    return np.polynomial.chebyshev.chebfit(t, (y + 3.0) * special.erfcx(y), degree)


def _erfcx_grid() -> np.ndarray:
    tiny = np.finfo(float).tiny
    # the t-interval's ends are y = 0 and y = inf, and its 2048 pieces
    # meet where 2048*(t + 1)/2 is an integer
    t_knots = np.arange(1, models._ERFCX_PIECES) * (2.0 / models._ERFCX_PIECES) - 1.0
    knots = 3.0 * (1.0 + t_knots) / (1.0 - t_knots)
    return np.concatenate([
        [0.0, 5e-324, 1e-320, tiny / 2, tiny, 1e-300, 1e-17, 1e-8],  # 0 and subnormals
        np.nextafter(knots, 0.0), knots, np.nextafter(knots, np.inf),
        np.linspace(0.0, 1e-6, 1001),  # the EMG switches branch where the argument is 0
        np.linspace(0.0, 60.0, 200_001),
        np.geomspace(1e-300, 1e300, 200_001),
        [1e300, np.finfo(float).max],
    ])


class TestErfcx:
    """The in-house erfcx against scipy.special.erfcx, its reference."""

    def test_bits_equal_row_gather_reference(self):
        y = _erfcx_grid()
        assert models._erfcx(y).tobytes() == reference_erfcx(y).tobytes()
        y = np.array([[np.inf, np.nan, 0.0], [1.0, 2.0, 3.0]])
        assert models._erfcx(y).tobytes() == reference_erfcx(y).tobytes()

    def test_series_refits_from_scipy(self):
        assert np.allclose(_fit_erfcx_series(), models._ERFCX_SERIES, rtol=0.0, atol=1e-15)

    def test_matches_scipy_on_dense_grid(self):
        special = pytest.importorskip("scipy.special")
        y = _erfcx_grid()
        expected = special.erfcx(y)
        assert (expected > 0).all()
        assert np.abs(models._erfcx(y) / expected - 1.0).max() <= 1e-13

    def test_infinity_and_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = models._erfcx(np.array([np.inf, np.nan, 0.0]))
        assert values[0] == 0.0
        assert np.isnan(values[1])
        assert values[2] == pytest.approx(1.0, rel=1e-15, abs=0.0)

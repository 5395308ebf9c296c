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
from helpers import BAD_LOG_BASES, reference_emg, reference_erfcx, series_erfc

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


def _rosenbrock(p):
    return float((1.0 - p[0]) ** 2 + 100.0 * (p[1] - p[0] ** 2) ** 2)


def _bowl(p):
    return float(np.sum((p - np.array([0.3, 1.7, 0.05])[: len(p)]) ** 2))


def _flat_below_one(p):
    # flat wherever p[0] <= 1, and the lower bound of p[0] keeps the search there
    return float(max(p[0], 1.0) - 1.0 + 0.0 * p[1])


def _constant(p):
    # rejects every reflection and contraction, so each step shrinks
    return 1.0


def _two_level(p):
    # the start's first two vertices tie at 1 and its last two at 0: the order
    # np.argsort gives such ties is not the stable one
    return 0.0 if max(p[1], p[2]) > 0.51 else 1.0


def _staircase(p):
    # plateaus: an expansion can tie the reflection it extends
    return float(math.floor(3 * p[0]) + math.floor(3 * p[1]))


def _nan_right_of_half(p):
    return float("nan") if p[0] > 0.5 else float((p[0] - 0.2) ** 2 + (p[1] - 0.4) ** 2)


def _nan_left_of_half(p):
    return float("nan") if p[0] < 0.5 else float((p[0] - 0.7) ** 2 + (p[1] - 0.4) ** 2)


def _kinked(p):
    return float(abs(p[0] - 0.25) + abs(p[1] - 0.5))


S_BOUNDS = [(0.0, 3.0), (1e-8, 2.0), (1e-8, 1.0)]

# (name, objective, start, bounds, xatol, fatol, maxfev)
ORACLE_CASES = [
    ("rosenbrock-2d", _rosenbrock, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)], 1e-10, 1e-14, 4000),
    ("bowl-3d", _bowl, [1.0, 0.5, 0.5], S_BOUNDS, 1e-10, 1e-14, 4000),
    ("bowl-3d-polish", _bowl, [0.3, 1.7, 0.05], S_BOUNDS, 1e-13, 1e-16, 4000),
    ("upper-bound-start", _bowl, [3.0, 2.0, 1.0], S_BOUNDS, 1e-10, 1e-14, 4000),
    ("zero-start", _bowl, [0.0, 1e-8, 0.5], S_BOUNDS, 1e-10, 1e-14, 4000),
    ("flat-at-bound", _flat_below_one, [0.5, 0.5], [(0.0, 3.0), (0.0, 1.0)], 1e-10, 1e-14, 4000),
    ("tied-pairs", _two_level, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3, 1e-10, 1e-14, 4000),
    ("tied-expansion", _staircase, [0.25, 0.667], [(0.0, 1.0), (0.0, 1.0)], 1e-10, 1e-14, 4000),
    ("constant-shrinks", _constant, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3, 1e-10, 1e-14, 4000),
    ("nan-region", _nan_right_of_half, [0.45, 0.9], [(0.0, 1.0), (0.0, 1.0)], 1e-10, 1e-14, 4000),
    ("nan-start", _nan_right_of_half, [0.9, 0.9], [(0.0, 1.0), (0.0, 1.0)], 1e-10, 1e-14, 4000),
    ("nan-first-vertex", _nan_left_of_half, [0.49, 0.5], [(0.0, 1.0), (0.0, 1.0)], 1e-10, 1e-14, 4000),
    ("kinked", _kinked, [0.9, 0.1], [(0.0, 1.0), (0.0, 1.0)], 1e-10, 1e-14, 4000),
] + [
    (f"maxfev-{maxfev}{objective.__name__}", objective, start, bounds, 1e-10, 1e-14, maxfev)
    for maxfev in (0, 1, 2, 3, 5, 7, 11, 30)
    for objective, start, bounds in (
        (_rosenbrock, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)]),
        (_constant, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3),
        (_two_level, [0.5, 0.5, 0.5], [(0.0, 1.0)] * 3),
        (_nan_left_of_half, [0.49, 0.5], [(0.0, 1.0), (0.0, 1.0)]),
    )
]


def _batched(objective):
    return lambda points: np.array([objective(row) for row in points])


def _scipy_simplex(objective, start, bounds, xatol, fatol, maxfev):
    """scipy's bounded Nelder-Mead from `start`: the oracle, skipped where scipy is absent."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    return minimize(
        objective, np.array(start), method="Nelder-Mead", bounds=bounds,
        options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev},
    )


def _assert_same_as_scipy(result, expected):
    assert np.array(result.x).tobytes() == expected.x.tobytes()
    assert np.float64(result.fun).tobytes() == np.float64(expected.fun).tobytes()
    assert result.nfev == expected.nfev
    assert result.success == expected.success
    simplex, values = result.final_simplex
    assert np.array(simplex).tobytes() == expected.final_simplex[0].tobytes()
    assert np.array(values).tobytes() == expected.final_simplex[1].tobytes()


class TestSimplexOracle:
    """The in-house Nelder-Mead against scipy.optimize.minimize, bit for bit."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_scipy(self, case):
        _, objective, start, bounds, xatol, fatol, maxfev = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = _scipy_simplex(objective, start, bounds, xatol, fatol, maxfev)
        (result,) = models._lockstep(_batched(objective), [start], bounds, xatol, fatol, maxfev)
        _assert_same_as_scipy(result, expected)

    @pytest.mark.parametrize("case", [c for c in ORACLE_CASES if c[6] == 4000], ids=lambda c: c[0])
    def test_every_maxfev_cut_matches_scipy(self, case):
        # a budget that runs out in the initial simplex, at an expansion, a
        # contraction or inside a shrink ends the search where scipy ends it
        _, objective, start, bounds, xatol, fatol, _ = case
        for maxfev in range(41):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = _scipy_simplex(objective, start, bounds, xatol, fatol, maxfev)
            (result,) = models._lockstep(_batched(objective), [start], bounds, xatol, fatol, maxfev)
            _assert_same_as_scipy(result, expected)

    def test_lockstep_runs_match_separate_runs(self):
        bounds = [(-2.0, 2.0), (-1.0, 3.0)]
        starts = [[-1.2, 1.0], [2.0, 3.0], [0.0, 0.0], [1.5, -1.0]]
        results = models._lockstep(_batched(_rosenbrock), starts, bounds, 1e-10, 1e-14, 4000)
        for start, result in zip(starts, results):
            expected = _scipy_simplex(_rosenbrock, start, bounds, 1e-10, 1e-14, 4000)
            _assert_same_as_scipy(result, expected)


class TestCentroid:
    def test_adds_left_to_right_like_numpy(self):
        # compensated summation (the builtin sum from Python 3.12) gives 1/3
        rows = [[1e16, 2.0], [1.0, 3.0], [-1e16, 4.0]]
        expected = np.add.reduce(np.array(rows), 0) / 3
        assert np.array(models._centroid(rows)).tobytes() == expected.tobytes()
        assert models._centroid(rows)[0] == 0.0

    def test_random_rows_match_numpy(self):
        rng = np.random.default_rng(3)
        for count in (2, 3):
            for rows in rng.standard_normal((2000, count, 3)) * 10.0 ** rng.integers(-3, 17, (2000, count, 1)):
                expected = np.add.reduce(rows, 0) / count
                assert np.array(models._centroid(rows.tolist())).tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def fixture_objectives(synthetic_input):
    """Each multistart search of both fits on the determinism fixture's input.

    Family name -> (score, starts, bounds, results), recorded from the first
    `_lockstep` call of each `_multistart_simplex`.
    """
    graph, _ = adjfactor.load_edge_list(synthetic_input)
    recorded = []
    original = models._lockstep

    def record(score, starts, bounds, xatol, fatol, maxfev=4000):
        results = original(score, starts, bounds, xatol, fatol, maxfev)
        if len(starts) > 1:
            recorded.append((score, starts, bounds, results))
        return results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_lockstep", record)
        fit("s_complex", adjfactor.to_distribution(adjfactor.census(graph, "s")))
        fit("emg", adjfactor.to_distribution(adjfactor.census(graph, "t")))
    return dict(zip(("s_complex", "emg", "emg-sigma0"), recorded))


class TestRealObjectiveOracle:
    """Every Halton start of fit's own searches against scipy, bit for bit."""

    @pytest.mark.parametrize("family", ["s_complex", "emg", "emg-sigma0"])
    def test_each_start_matches_scipy(self, fixture_objectives, family):
        score, starts, bounds, results = fixture_objectives[family]
        # the edge-level search runs over (a, b) alone, c solved in closed form
        assert len(starts) == 16 and len(bounds) == (3 if family == "emg" else 2)
        for start, result in zip(starts, results):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = _scipy_simplex(lambda p: score(p[None, :])[0], start, bounds, 1e-10, 1e-14, 4000)
            _assert_same_as_scipy(result, expected)


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


def _three_parameter_search(series):
    """The edge-level least squares searched over (a, b, c) with the public model: the reference."""
    x, observed = series.restrict(1.0)

    def score(p):
        return models._sse(s_complex_model(x, p[:, 0:1], p[:, 1:2], p[:, 2:3]), observed)

    return models._multistart_simplex(score, [(0.0, 3.0), (1e-8, 2.0), (1e-8, 1.0)])


class TestSComplexAgainstThreeParameterSearch:
    """Solving c never ends worse than searching it."""

    @pytest.mark.parametrize("grown", [None, (800, 2, 0.3, 1), (1500, 3, 0.6, 2), (1000, 5, 0.85, 3)])
    def test_sse_no_worse(self, synthetic_input, grown):
        if grown is None:
            graph, _ = adjfactor.load_edge_list(synthetic_input)
        else:
            n, m, p_t, seed = grown
            graph = adjfactor.generate_pa_tf(adjfactor.GrowthConfig(n=n, n0=m + 1, m=m, p_t=p_t, seed=seed))
        series = adjfactor.to_distribution(adjfactor.census(graph, "s"))
        old = _three_parameter_search(series)
        result = fit("s_complex", series)
        assert result.sse <= old.fun * (1 + 1e-12)
        assert result.converged and result.restarts == 16


def _bowl_nan_lower_left(p):
    if p[0] < 0.6 and p[1] < 0.5:
        return float("nan")
    return float((p[0] - 0.9) ** 2 + (p[1] - 0.9) ** 2)


class TestNanNeverWins:
    """A NaN objective value loses to any number, also when it comes first."""

    def test_multistart_replaces_nan_first_start(self):
        bounds = [(0.0, 1.0), (0.0, 1.0)]
        (first,) = models._lockstep(
            _batched(_bowl_nan_lower_left), [[0.5, 1 / 3]], bounds, 1e-10, 1e-14
        )
        assert math.isnan(first.fun)  # Halton start 0 lies in the NaN region
        best = models._multistart_simplex(_batched(_bowl_nan_lower_left), bounds)
        assert best.fun < 1e-12
        assert best.x == pytest.approx([0.9, 0.9], abs=1e-6)

    def test_fit_takes_pinned_family_over_nan(self, monkeypatch):
        original = models._multistart_simplex

        def nan_unless_pinned(score, bounds):
            result = original(score, bounds)
            return result if len(bounds) == 2 else result._replace(fun=float("nan"))

        monkeypatch.setattr(models, "_multistart_simplex", nan_unless_pinned)
        x = np.arange(0, 30)
        result = fit("emg", series_from(x, emg_model(x, 0.3, 0.0, 0.0)))
        assert result.params["sigma"] == 0.0
        assert result.sse < 1e-12


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

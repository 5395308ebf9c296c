"""Distribution models, least-squares fitting, and goodness-of-fit metrics.

Two parametric families are fitted to adjacency-factor frequency series: a
log-quadratic decay c*(b*x^-a)^log(x) for edge-level distributions, and the
exponentially modified Gaussian for triangle-level ones. Both fits share one
bounded Levenberg-Marquardt solver with a forward-difference Jacobian, each
tried point scored with its difference rows in one batched model call, and
an active set that holds a parameter on a bound whose gradient points out of
the box. The starts are the best few points of a deterministic Halton grid,
scored once, and for the EMG its moment estimates; the edge-level start takes
its c in closed form, as the model is linear in c. Identical input always
yields an identical result.

The EMG needs the scaled complementary error function erfcx(y) =
exp(y^2)*erfc(y), which numpy lacks. It is computed here from a Chebyshev
series in t = (y - 3)/(y + 3), fitted once to scipy.special.erfcx and kept
below as constants; at import the series is cut into 2048 cubic pieces,
kept as four contiguous coefficient rows and chosen per point by index. Its
relative error is below 3e-15 on [0, 1e300] and it gives exactly 0 at +inf.
The module needs numpy alone, as the t-test's tail in `stats` needs only
`math`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import erfc  # re-exported as adjfactor.erfc
from typing import Callable, Sequence

import numpy as np

from .census import DistributionSeries

S_COMPLEX = "s_complex"
EMG = "emg"
PARAM_NAMES = {S_COMPLEX: ("a", "b", "c"), EMG: ("lam", "mu", "sigma")}

_SQRT2 = math.sqrt(2.0)
_N_HALTON = 16  # Halton points scored for the starts of each fit
_MAX_ITERATIONS = 150  # of one Levenberg-Marquardt run
_MAX_TRIES = 30  # damping tries of one iteration
_SQRT_EPS = 2.0**-26  # the square root of the float64 machine epsilon

# Chebyshev coefficients, in t = (y - 3)/(y + 3), of (y + 3)*erfcx(y) for
# y >= 0; t maps [0, inf] onto [-1, 1], where the product runs from 3 to
# 1/sqrt(pi). A least-squares fit of degree 24 to scipy.special.erfcx at the
# 4000 Chebyshev points of the first kind (tests/test_models.py refits it).
_ERFCX_SERIES = (
    1.4134382239808716,
    -1.1314768490746971,
    0.35410810034248663,
    -0.0850870400990853,
    0.01461527327281667,
    -0.001379557163629622,
    -6.429066714309525e-05,
    3.9043421097917006e-05,
    -2.642785074950067e-06,
    -8.239440142908823e-07,
    1.3247975694647532e-07,
    1.9195225295538014e-08,
    -5.0305070568260356e-09,
    -5.842006768551512e-10,
    1.8742328417206855e-10,
    2.437380878426553e-11,
    -6.990878088559005e-12,
    -1.2573712874088343e-12,
    2.456454754173449e-13,
    6.992011371250027e-14,
    -6.833908877849895e-15,
    -3.900521868460638e-15,
    -9.238049401767631e-17,
    -4.2141365351659893e-17,
    -3.3156981233724986e-17,
)
_ERFCX_PIECES = 2048


def _erfcx_table() -> np.ndarray:
    """Cubic pieces of the erfcx series, one per t-interval of width 2/2048.

    Column j of rows 0-3 holds the coefficients of 1, u, u^2, u^3 of the
    cubic through the series at 4 Chebyshev points of interval j, u running
    from 0 to 1 across it. One extra column continues past t = 1, where
    y = inf lands at u = 0. Rows are contiguous, so one `take` gathers
    each point's four coefficients into four contiguous arrays.
    """
    nodes = 0.5 - 0.5 * np.cos((np.arange(4) + 0.5) * (math.pi / 4))
    t = 2.0 * (np.arange(_ERFCX_PIECES + 1)[:, None] + nodes) / _ERFCX_PIECES - 1.0
    high = low = np.zeros_like(t)
    for c in _ERFCX_SERIES[:0:-1]:  # Clenshaw's recurrence
        high, low = c + 2.0 * t * high - low, high
    values = _ERFCX_SERIES[0] + t * high - low
    return np.ascontiguousarray(np.linalg.solve(np.vander(nodes, 4, increasing=True), values.T))


_ERFCX_TABLE = _erfcx_table()


def _erfcx(y: np.ndarray) -> np.ndarray:
    """exp(y^2)*erfc(y) for y >= 0, within 3e-15 relative; 0 at +inf, NaN at NaN."""
    r = 1.0 / (y + 3.0)
    # 2048*(t + 1)/2: the piece index plus u; fmin sends NaN onto the last column
    k = np.fmin(_ERFCX_PIECES - 3 * _ERFCX_PIECES * r, _ERFCX_PIECES)
    u, whole = np.modf(k)
    c0, c1, c2, c3 = _ERFCX_TABLE.take(whole.astype(np.intp), axis=1)
    return (((c3 * u + c2) * u + c1) * u + c0) * r


class FitError(RuntimeError):
    """Fitting could not be carried out on the given series."""


def s_complex_model(x, a, b, c, log_base: float = 10.0):
    """Edge-level distribution model c * (b * x^-a)^log(x).

    The exponent log is taken in `log_base` (10 unless configured otherwise),
    so the value at x=1 is exactly c. Defined for x > 0. The parameters may be
    (k, 1) columns, giving one row of values per parameter set.
    """
    arr = np.asarray(x, dtype=float)
    if (arr <= 0.0).any():
        raise ValueError("model defined for x > 0 only")
    out = c * _s_complex_terms(arr, np.log(arr) / math.log(log_base), a, b)
    return float(out) if np.ndim(out) == 0 else out


def _s_complex_terms(x, exponent, a, b):
    """(b * x^-a)^exponent, the edge-level model without its factor c; exponent is log(x)."""
    return np.power(b * np.power(x, -a), exponent)


def emg_model(x, lam, mu, sigma):
    """Exponentially modified Gaussian density.

    sigma=0 means the exponential limit lam*exp(-lam*(x-mu)) for x >= mu and
    0 below. For sigma > 0 the value is the pointwise one down to the
    smallest sigma: at x == mu it tends to lam/2 as sigma tends to 0, with no
    NaN or warning where sigma**2 underflows. The parameters may be (k, 1)
    columns, giving one row of values per parameter set.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if (lam <= 0.0).any():
        raise ValueError("lam must be positive")
    if (sigma < 0.0).any():
        raise ValueError("sigma must be nonnegative")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    # every branch is evaluated everywhere and np.where keeps the valid one,
    # so the discarded ones may overflow or divide by zero
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _emg(arr, lam, mu, sigma)
    return float(out[0]) if np.ndim(x) == 0 and out.shape == (1,) else out


def _emg(x, lam, mu, sigma):
    """`emg_model` without its checks or its silencing of numpy warnings."""
    if sigma.all():
        return _emg_gaussian(x, lam, mu, sigma)
    limit = _emg_exponential(x, lam, mu)
    if not sigma.any():
        return limit
    return np.where(sigma == 0.0, limit, _emg_gaussian(x, lam, mu, sigma))


def _emg_exponential(x, lam, mu):
    """The sigma=0 member: lam*exp(-lam*(x-mu)) for x >= mu and 0 below."""
    d = x - mu
    return np.where(d >= 0.0, lam * np.exp(-lam * d), 0.0)


def _emg_gaussian(x, lam, mu, sigma):
    """The members with sigma > 0, through one erfcx call.

    With z = (x-mu)/sigma and arg = (lam*sigma - z)/sqrt(2), the density is
    h = lam/2*exp(-z^2/2)*erfcx(arg) for arg >= 0. For arg < 0, where erfcx
    could overflow, erfc(arg) = 2 - exp(-arg^2)*erfcx(-arg) turns it into
    lam*exp(lam^2 sigma^2/2 - lam*(x-mu)) - h, h now taken at |arg|. There
    that exponential is at most 1 and h at most half the first term, so
    nothing overflows or cancels. The Gaussian factor comes from z, so it is
    1 at x == mu however small sigma is.
    """
    d = x - mu
    half_z = d / (sigma * _SQRT2)
    arg = lam * sigma / _SQRT2 - half_z
    h = 0.5 * lam * np.exp(-(half_z * half_z)) * _erfcx(np.abs(arg))
    return np.where(arg < 0.0, lam * np.exp(0.5 * (lam * sigma) ** 2 - lam * d) - h, h)


@dataclass
class FitResult:
    """A least-squares fit and how its winning Levenberg-Marquardt run ended.

    `converged` is whether that run met the stop test rather than the
    iteration cap, `restarts` the number of starts run (3 for the edge-level
    model; 4 for the EMG, 3 with sigma > 0 and the moment start of its
    sigma=0 family), `iterations` the winning run's iterations, and
    `at_bound` the names of the parameters that end on a bound of their box.
    """

    model: str
    params: dict[str, float]
    sse: float
    mnd: float
    support_min: float
    support_max: float
    converged: bool
    restarts: int
    iterations: int
    at_bound: list[str]


def model_function(model: str, params: Sequence[float] | dict, log_base: float = 10.0) -> Callable:
    """Evaluator x -> f(x) for a named model and parameter vector."""
    values = list(params.values()) if isinstance(params, dict) else list(params)
    if model == S_COMPLEX:
        a, b, c = values
        return lambda x: s_complex_model(x, a, b, c, log_base=log_base)
    if model == EMG:
        lam, mu, sigma = values
        return lambda x: emg_model(x, lam, mu, sigma)
    raise ValueError(f"unknown model {model!r}")


def _halton(count: int, dims: int) -> np.ndarray:
    primes = (2, 3, 5, 7, 11, 13)[:dims]
    points = np.empty((count, dims))
    for j, p in enumerate(primes):
        for i in range(1, count + 1):
            factor, value, k = 1.0, 0.0, i
            while k > 0:
                factor /= p
                value += factor * (k % p)
                k //= p
            points[i - 1, j] = value
    return points


def _levenberg_marquardt(
    residuals: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    sticky: tuple[int, ...] = (),
) -> tuple[np.ndarray, float, bool, int]:
    """Bounded Levenberg-Marquardt from one start: (point, SSE, converged, iterations).

    `residuals` maps (k, d) parameter rows to their (k, n) residuals. Each
    point, the start and every damping try, is scored in one call together
    with its d forward-difference rows, stepping backward where the forward
    step would pass the upper bound, so an accepted try brings its own
    Jacobian. A coordinate on a bound whose gradient points outward is held
    for the step, as is a `sticky` coordinate on its lower bound; the others
    solve the damped normal equations, and the trial is clipped into the box.
    Only a strictly lower SSE is accepted (never NaN). The run has converged
    when the SSE drops by less than 1e-15 relative, the step is below 1e-12
    relative or 30 damping tries fail; it stops unconverged after 150
    iterations.
    """

    def scored(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        h = _SQRT_EPS * np.maximum(np.abs(p), 1.0)
        h = np.where(p + h > high, -h, h)
        rows = residuals(p + np.diag(h, -1)[:, :-1])  # the point, then p + h_j e_j
        return rows, h, float(rows[0] @ rows[0])

    p, damping, sse = start, 1e-3, math.nan
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if iteration == 1:
            rows, h, sse = scored(p)
            if not math.isfinite(sse):
                return p, sse, False, iteration
        r = rows[0]
        jac = (rows[1:] - r) / h[:, None]  # row j: the derivatives by coordinate j
        jac[~np.isfinite(jac).all(axis=1)] = 0.0  # such a coordinate is held
        grad = jac @ r
        normal = jac @ jac.T
        scale = np.diag(normal)
        held = ((p <= low) & (grad > 0.0)) | ((p >= high) & (grad < 0.0))
        held[[j for j in sticky if p[j] <= low[j]]] = True
        free = (scale > 0.0) & ~held
        system, damped, descent = normal[free][:, free], np.diag(scale[free]), -grad[free]
        for _ in range(_MAX_TRIES):
            trial = p.copy()
            trial[free] += np.linalg.solve(system + damping * damped, descent)
            np.clip(trial, low, high, out=trial)
            moved = trial - p
            if moved @ moved <= 1e-24 * (p @ p):
                return p, sse, True, iteration
            trial_rows, trial_h, trial_sse = scored(trial)
            if trial_sse < sse:
                break
            damping *= 4.0
        else:
            return p, sse, True, iteration
        damping /= 3.0
        p, rows, h, sse, drop = trial, trial_rows, trial_h, trial_sse, sse - trial_sse
        if drop <= 1e-15 * (sse + drop):
            return p, sse, True, iteration
    return p, sse, False, _MAX_ITERATIONS


def _beats(run: tuple, incumbent: tuple) -> bool:
    """Whether a run beats the incumbent: a converged run beats a capped one, then the lower SSE.

    A run that hit the cap was still descending, as where the EMG slides
    toward sigma = 0 with mu/sigma fixed, a limit it never reaches. NaN is
    worse than any number.
    """
    if run[2] != incumbent[2]:
        return run[2]
    return run[1] < incumbent[1] or (math.isnan(incumbent[1]) and not math.isnan(run[1]))


def _best_run(residuals: Callable, starts: np.ndarray, low: np.ndarray, high: np.ndarray, sticky=()):
    """The best of the Levenberg-Marquardt runs from each start; a tie goes to the earlier start."""
    best = None
    for start in starts:
        run = _levenberg_marquardt(residuals, start, low, high, sticky)
        if best is None or _beats(run, best):
            best = run
    return best


def _best_halton(score: Callable, low: np.ndarray, high: np.ndarray, count: int) -> np.ndarray:
    """The `count` lowest-scoring of `_N_HALTON` Halton points of the box, scored in one call."""
    points = low + _halton(_N_HALTON, len(low)) * (high - low)
    return points[np.argsort(score(points), kind="stable")[:count]]


def _emg_moment_start(x: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Ex-Gaussian moment estimates of (lam, mu, sigma), the frequencies taken as weights.

    tau = sd*(skew/2)^(1/3), with the skewness clipped into (0, 2), then
    lam = 1/tau, mu = mean - tau and sigma^2 = var - tau^2.
    """
    weights = observed / observed.sum()
    mean = weights @ x
    var = weights @ (x - mean) ** 2
    skew = weights @ (x - mean) ** 3 / var**1.5
    tau = math.sqrt(var) * (np.clip(skew, 0.01, 1.99) / 2.0) ** (1.0 / 3.0)
    return np.array([1.0 / tau, mean - tau, np.sqrt(var - tau * tau)])


def _sse(predicted: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Sum of squared residuals of each row of model values."""
    return ((predicted - observed) ** 2).sum(axis=1)


def _s_complex_projection(x: np.ndarray, observed: np.ndarray, log_base: float) -> Callable:
    """Score of (k, 2) rows (a, b): the (k, 1) column of their best c, and the SSE there.

    The model is c*g, so the SSE is a convex quadratic in c, least on [1e-8, 1]
    at sum(g*y)/sum(g*g) clipped into it (1e-8 where every g*g underflows). The
    SSE is summed from the residuals as `_sse` sums them; expanding it cancels.
    """
    exponent = np.log(x) / math.log(log_base)

    def project(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = _s_complex_terms(x, exponent, p[:, 0:1], p[:, 1:2])
        gg = (g * g).sum(axis=1)
        c = ((g * observed).sum(axis=1) / np.where(gg > 0.0, gg, np.inf)).clip(1e-8, 1.0)[:, None]
        return c, _sse(c * g, observed)

    return project


def _valid_log_base(value) -> bool:
    """Whether value can be the base of a logarithm: a finite real number > 0 other than 1."""
    try:
        return math.isfinite(value) and value > 0 and value != 1
    except (TypeError, OverflowError):  # not a real number, or beyond float range
        return False


def fit(model: str, series: DistributionSeries, log_base: float = 10.0) -> FitResult:
    """Least-squares fit of a model to a frequency series.

    The edge-level model is fitted on support >= 1 (its log is undefined at
    0), the EMG on the whole support. Each start runs the bounded
    Levenberg-Marquardt solver. A run that met the stop test beats one cut
    by the iteration cap, then the least SSE wins and a tie goes to the
    earlier start, so the result is deterministic.
    """
    if model not in PARAM_NAMES:
        raise ValueError(f"unknown model {model!r}")
    if not _valid_log_base(log_base):
        error = ValueError if isinstance(log_base, numbers.Real) else TypeError
        raise error(f"log_base must be a finite number > 0 and != 1, got {log_base!r}")
    min_support = 1.0 if model == S_COMPLEX else 0.0
    x, observed = series.restrict(min_support)
    if len(x) < 4:
        raise FitError(
            f"need at least 4 support points to fit {model}, have {len(x)}"
        )
    if not (observed > 0.0).any():
        raise FitError(f"no positive frequency on the support to fit {model}")

    # trial points may sit where the EMG's discarded branches overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if model == S_COMPLEX:
            low, high = np.array([0.0, 1e-8, 1e-8]), np.array([3.0, 2.0, 1.0])
            project = _s_complex_projection(x, observed, log_base)
            plane = _best_halton(lambda p: project(p)[1], low[:2], high[:2], 3)
            starts = np.hstack([plane, project(plane)[0]])
            exponent = np.log(x) / math.log(log_base)

            def residuals(p: np.ndarray) -> np.ndarray:
                return p[:, 2:3] * _s_complex_terms(x, exponent, p[:, 0:1], p[:, 1:2]) - observed

            values, sse, converged, iterations = _best_run(residuals, starts, low, high)
        else:
            low, high = np.array([1e-6, 0.0, 0.0]), np.array([5.0, x.max(), x.max()])

            def residuals(p: np.ndarray) -> np.ndarray:
                return _emg(x, p[:, 0:1], p[:, 1:2], p[:, 2:3]) - observed

            # degenerate sigma=0 family, probed on its own, or exponential-shaped
            # series cannot be fitted exactly; its value at a support point drops
            # to 0 as mu passes it, so mu stays on its lower bound once there.
            # It runs from the moment start alone: a Halton start puts mu inside
            # the support, where this model is 0 below mu
            def residuals_exp(p: np.ndarray) -> np.ndarray:
                return _emg_exponential(x, p[:, 0:1], p[:, 1:2]) - observed

            moments = np.clip(_emg_moment_start(x, observed), low, high)
            plane = _best_halton(lambda p: (residuals(p) ** 2).sum(axis=1), low, high, 2)
            starts = np.vstack([moments, plane])
            values, sse, converged, iterations = full = _best_run(residuals, starts, low, high)
            pinned = _best_run(residuals_exp, starts[:1, :2], low[:2], high[:2], sticky=(1,))
            if _beats(pinned, full):
                (lam, mu), sse, converged, iterations = pinned
                values = np.array([lam, mu, 0.0])

    values = values.tolist()
    params = dict(zip(PARAM_NAMES[model], values))
    predicted = model_function(model, values, log_base=log_base)(x)
    return FitResult(
        model=model,
        params=params,
        sse=sse,
        mnd=mnd(x, observed, predicted),
        support_min=float(x.min()),
        support_max=float(x.max()),
        converged=converged,
        restarts=len(starts) + (0 if model == S_COMPLEX else 1),
        iterations=iterations,
        at_bound=[name for name, v, lo, hi in zip(params, values, low, high) if not lo < v < hi],
    )


def mnd(x, observed, model) -> float:
    """Mean normalized deviation: mean over support of |model - observed| / observed.

    Points where the observed value is 0 are excluded (the metric divides by
    it). `model` may be a constant or the model's values on x.
    """
    observed = np.asarray(observed, dtype=float)
    predicted = np.broadcast_to(np.asarray(model, dtype=float), observed.shape)
    mask = observed > 0.0
    if not mask.any():
        raise ValueError("no support points with positive observed value")
    return float(np.mean(np.abs(predicted[mask] - observed[mask]) / observed[mask]))


REFERENCE_RULES = ("upper-half", "all")


def reference_constant(x, observed, rule: str = "upper-half") -> tuple[float, float]:
    """Constant baseline y=c placed on the distribution's tail, and its MND.

    c is the geometric mean of the observed values over the upper half of the
    support (the whole support under rule "all", or as a fallback when the
    upper half has no positive values).
    """
    if rule not in REFERENCE_RULES:
        raise ValueError(f"rule must be one of {REFERENCE_RULES}, got {rule!r}")
    x = np.asarray(x, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if len(x) == 0:
        raise ValueError("empty series")
    order = np.argsort(x)
    tail = observed[order][len(x) // 2 :] if rule == "upper-half" else observed[order]
    tail = tail[tail > 0.0]
    if len(tail) == 0:
        tail = observed[observed > 0.0]
        if len(tail) == 0:
            raise ValueError("no positive observed values")
    constant = float(np.exp(np.mean(np.log(tail))))
    return constant, mnd(x, observed, constant)

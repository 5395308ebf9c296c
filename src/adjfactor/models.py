"""Distribution models, least-squares fitting, and goodness-of-fit metrics.

Two parametric families are fitted to adjacency-factor frequency series: a
log-quadratic decay c*(b*x^-a)^log(x) for edge-level distributions, and the
exponentially modified Gaussian for triangle-level ones. Fitting is
derivative-free: an in-house bounded Nelder-Mead simplex runs from every start
of a deterministic quasi-random grid at once, the starts advancing in lockstep
so that each round scores all their trial points with one batched model call.
Each run is still scipy's Nelder-Mead step for step; ordering its vertices
takes a `sorted()` path only for distinct values without NaN, whose ascending
order is unique, and leaves ties and NaN to np.argsort as scipy does.
The edge-level model is linear in c, so it searches (a, b) alone and solves
each point's c in closed form. Identical input always yields an identical result.

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
from operator import add
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from .census import DistributionSeries

S_COMPLEX = "s_complex"
EMG = "emg"
PARAM_NAMES = {S_COMPLEX: ("a", "b", "c"), EMG: ("lam", "mu", "sigma")}

_SQRT2 = math.sqrt(2.0)
_N_STARTS = 16  # Halton starts of each multistart search

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


def erfc(x: float) -> float:
    """Complementary error function."""
    return math.erfc(x)


def s_complex_model(x, a, b, c, log_base: float = 10.0):
    """Edge-level distribution model c * (b * x^-a)^log(x).

    The exponent log is taken in `log_base` (10 unless configured otherwise),
    so the value at x=1 is exactly c. Defined for x > 0. The parameters may be
    (k, 1) columns, giving one row of values per parameter set.
    """
    arr = np.asarray(x, dtype=float)
    if (arr <= 0.0).any():
        raise ValueError("model defined for x > 0 only")
    exponent = np.log(arr) / math.log(log_base)
    out = c * np.power(b * np.power(arr, -a), exponent)
    return float(out) if np.ndim(out) == 0 else out


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
    model: str
    params: dict[str, float]
    sse: float
    mnd: float
    support_min: float
    support_max: float
    converged: bool
    restarts: int


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


class SimplexResult(NamedTuple):
    x: list[float]
    fun: float
    nfev: int
    success: bool
    final_simplex: tuple[list[list[float]], list[float]]  # vertices and values, best first


def _clip(point, low, high) -> list[float]:
    """np.clip of a finite point, signed zeros included."""
    return [min(hi, max(lo, v)) for v, lo, hi in zip(point, low, high)]


def _along(xbar, worst, a: float, b: float, low, high) -> list[float]:
    """The point a*xbar - b*worst on the line through the centroid and the worst vertex, clipped.

    A coordinate strictly inside its bounds is kept as it is, which is what
    `_clip` gives it; any other goes through `_clip`'s min/max.
    """
    return [
        v if lo < (v := a * c - b * w) < hi else min(hi, max(lo, v))
        for c, w, lo, hi in zip(xbar, worst, low, high)
    ]


def _centroid(rows: list) -> list[float]:
    """Mean of the rows, each column added left to right from its first element.

    That is np.add.reduce's order on these few rows. The builtin sum is not
    used: from Python 3.12 on it compensates its rounding.
    """
    total = rows[0]
    for row in rows[1:]:
        total = map(add, total, row)
    return [t / len(rows) for t in total]


def _order(sim: list, fsim: list[float]) -> tuple[list, list[float]]:
    """Vertices sorted by value exactly as scipy orders them with np.argsort.

    Distinct values without NaN have exactly one ascending order, so `sorted`
    finds it. np.argsort's sort is not stable on ties (-0.0 and 0.0 tie) and
    places NaN last, so such values go to np.argsort itself.
    """
    values = sorted(fsim)
    for low, high in zip(values, values[1:]):
        if not low < high:
            order = np.argsort(np.array(fsim)).tolist()
            return [sim[i] for i in order], [fsim[i] for i in order]
    return [sim[fsim.index(v)] for v in values], values


def _nelder_mead(
    x0: Sequence[float],
    low: Sequence[float],
    high: Sequence[float],
    xatol: float,
    fatol: float,
    maxfev: int,
) -> Generator[list[list[float]], list[float], SimplexResult]:
    """Bounded Nelder-Mead simplex that yields trial points and is sent their values.

    A step-for-step port of scipy 1.17's non-adaptive `_minimize_neldermead`
    with finite bounds: the same initial simplex (reflected into the bounds),
    the same clipped reflect/expand/contract/shrink points, the same
    arithmetic and vertex order and the same stopping tests, so it returns
    bit for bit the x, fun, nfev, success and final simplex that
    scipy.optimize.minimize returns for method="Nelder-Mead". Points that
    scipy evaluates one after another without a decision in between (the
    initial simplex, a shrink) are yielded together; a list is cut short
    where scipy would hit maxfev, and a point it cannot score ends the search.
    """
    n = len(x0)
    x0 = _clip(x0, low, high)
    sim = [x0]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = (1 + 0.05) * vertex[k] if vertex[k] != 0 else 0.00025
        sim.append(vertex)
    # a vertex pushed past an upper bound is reflected inside, not flattened onto it
    sim = [_clip([2 * hi - v if v > hi else v for v, hi in zip(row, high)], low, high) for row in sim]
    fsim = (yield sim[:maxfev]) if maxfev > 0 else []
    nfev = len(fsim)
    # scipy starts from all-inf values: a vertex it could not score keeps inf
    sim, fsim = _order(*_order(sim, fsim + [math.inf] * (n + 1 - nfev)))

    while nfev < maxfev:
        best, f_best = sim[0], fsim[0]
        for f in fsim[1:]:
            if not abs(f_best - f) <= fatol:
                break
        else:
            if all(abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best)):
                break
        xbar = _centroid(sim[:-1])
        worst = sim[-1]
        # reflect, expand and contract with scipy's rho=1, chi=2, psi=0.5; a
        # point past maxfev is not scored and ends the search, simplex as it was
        xr = _along(xbar, worst, 2, 1, low, high)
        (fxr,) = yield [xr]
        nfev += 1
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = _along(xbar, worst, 3, 2, low, high)
                (fxe,) = yield [xe]
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:
                xc = _along(xbar, worst, 1.5, 0.5, low, high)
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
                candidate = (xc, fxc)
            else:
                xcc = _along(xbar, worst, 0.5, -0.5, low, high)
                (fxcc,) = yield [xcc]
                shrink = not fxcc < fsim[-1]
                candidate = (xcc, fxcc)
            nfev += 1
            if not shrink:
                sim[-1], fsim[-1] = candidate
            else:
                shrunk = [_clip([b + 0.5 * (v - b) for b, v in zip(best, row)], low, high) for row in sim[1:]]
                values = (yield shrunk[: maxfev - nfev]) if nfev < maxfev else []
                nfev += len(values)
                # scipy moves a vertex before scoring it: the one it could not
                # score has moved but keeps its old value
                sim[1 : len(values) + 2] = shrunk[: len(values) + 1]
                fsim[1 : len(values) + 1] = values
        sim, fsim = _order(sim, fsim)
    return SimplexResult(sim[0], float(np.min(fsim)), nfev, nfev < maxfev, (sim, fsim))


def _lockstep(
    score: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[Sequence[float]],
    bounds: Sequence[tuple[float, float]],
    xatol: float,
    fatol: float,
    maxfev: int = 4000,
) -> list[SimplexResult]:
    """One bounded Nelder-Mead run per start, all advanced together.

    Every round stacks the pending trial points of all live runs into one
    (k, d) array and scores them with a single call of `score`, which returns
    the k objective values; each run reads its own by offset.
    """
    low = [float(b[0]) for b in bounds]
    high = [float(b[1]) for b in bounds]
    results: list[SimplexResult | None] = [None] * len(starts)
    live = []  # (index, run, pending points) of each run not yet finished
    for i, x0 in enumerate(starts):
        run = _nelder_mead(x0, low, high, xatol, fatol, maxfev)
        try:
            live.append((i, run, next(run)))
        except StopIteration as stop:
            results[i] = stop.value
    while live:
        values = score(np.array([point for _, _, pending in live for point in pending])).tolist()
        still = []
        end = 0
        for i, run, pending in live:
            start, end = end, end + len(pending)
            try:
                still.append((i, run, run.send(values[start:end])))
            except StopIteration as stop:
                results[i] = stop.value
        live = still
    return results


def _beats(fun: float, incumbent: float) -> bool:
    """Whether an objective value improves on the incumbent; NaN is worse than any number."""
    return fun < incumbent or (math.isnan(incumbent) and not math.isnan(fun))


def _multistart_simplex(
    score: Callable[[np.ndarray], np.ndarray],
    bounds: list[tuple[float, float]],
) -> SimplexResult:
    """Best of the Nelder-Mead runs from `_N_STARTS` Halton starts, then re-polished.

    Restart polishing also unsticks runs that stalled on a clipped bound.
    """
    low = np.array([b[0] for b in bounds])
    high = np.array([b[1] for b in bounds])
    starts = [(low + h * (high - low)).tolist() for h in _halton(_N_STARTS, len(bounds))]
    best = None
    for result in _lockstep(score, starts, bounds, xatol=1e-10, fatol=1e-14):
        if best is None or _beats(result.fun, best.fun):
            best = result
    for _ in range(6):
        (result,) = _lockstep(score, [best.x], bounds, xatol=1e-13, fatol=1e-16)
        if _beats(result.fun, best.fun):
            best = result
        else:
            break
    return best


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
        g = np.power(p[:, 1:2] * np.power(x, -p[:, 0:1]), exponent)
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
    0), by a 2-D search over (a, b) with c solved in closed form at each
    point; the EMG uses the whole support. Multi-start keeps the result
    deterministic: ties break toward the earlier start.
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

    if model == S_COMPLEX:
        project = _s_complex_projection(x, observed, log_base)
        best = _multistart_simplex(lambda p: project(p)[1], [(0.0, 3.0), (1e-8, 2.0)])
        values = [*best.x, float(project(np.array([best.x]))[0][0, 0])]
        restarts = _N_STARTS
    else:
        x_max = float(x.max())

        def score(p: np.ndarray) -> np.ndarray:
            return _sse(_emg(x, p[:, 0:1], p[:, 1:2], p[:, 2:3]), observed)

        # degenerate sigma=0 family: the pointwise sigma->0 limit differs from
        # the sigma=0 convention at x=mu, so the boundary must be probed
        # explicitly or exponential-shaped series cannot be fitted exactly
        def score_exp(p: np.ndarray) -> np.ndarray:
            return _sse(_emg_exponential(x, p[:, 0:1], p[:, 1:2]), observed)

        # trial points may sit where the model's discarded branches overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            best = _multistart_simplex(score, [(1e-6, 5.0), (0.0, x_max), (0.0, x_max)])
            pinned = _multistart_simplex(score_exp, [(1e-6, 5.0), (0.0, x_max)])
        if _beats(pinned.fun, best.fun):
            values = [*pinned.x, 0.0]
            best = pinned
        else:
            values = list(best.x)
        restarts = 2 * _N_STARTS

    params = dict(zip(PARAM_NAMES[model], values))
    predicted = model_function(model, values, log_base=log_base)(x)
    return FitResult(
        model=model,
        params=params,
        sse=float(best.fun),
        mnd=mnd(x, observed, predicted),
        support_min=float(x.min()),
        support_max=float(x.max()),
        converged=bool(best.success),
        restarts=restarts,
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

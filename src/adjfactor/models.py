"""Distribution models, least-squares fitting, and goodness-of-fit metrics.

Two parametric families are fitted to adjacency-factor frequency series: a
log-quadratic decay c*(b*x^-a)^log(x) for edge-level distributions, and the
exponentially modified Gaussian for triangle-level ones. Fitting is
derivative-free simplex descent from a deterministic quasi-random grid of
starts, so identical input always yields an identical result.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special
from scipy.optimize import minimize

from .census import DistributionSeries

S_COMPLEX = "s_complex"
EMG = "emg"
PARAM_NAMES = {S_COMPLEX: ("a", "b", "c"), EMG: ("lam", "mu", "sigma")}

_SQRT2 = math.sqrt(2.0)


class FitError(RuntimeError):
    """Fitting could not be carried out on the given series."""


def erfc(x: float) -> float:
    """Complementary error function."""
    return math.erfc(x)


def s_complex_model(x, a: float, b: float, c: float, log_base: float = 10.0):
    """Edge-level distribution model c * (b * x^-a)^log(x).

    The exponent log is taken in `log_base` (10 unless configured otherwise),
    so the value at x=1 is exactly c. Defined for x > 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("model defined for x > 0 only")
    exponent = np.log(arr) / math.log(log_base)
    out = c * np.power(b * np.power(arr, -a), exponent)
    return float(out) if arr.ndim == 0 else out


def emg_model(x, lam: float, mu: float, sigma: float):
    """Exponentially modified Gaussian density.

    sigma=0 means the exponential limit lam*exp(-lam*(x-mu)) for x >= mu and
    0 below. For sigma > 0 the left tail is evaluated through the scaled
    complementary error function so the exponential factor cannot overflow.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    arr = np.asarray(x, dtype=float)
    if sigma == 0.0:
        shifted = arr - mu
        out = np.where(shifted >= 0.0, lam * np.exp(-lam * np.maximum(shifted, 0.0)), 0.0)
        return float(out) if arr.ndim == 0 else out
    arg = np.atleast_1d((mu + lam * sigma * sigma - arr) / (_SQRT2 * sigma))
    flat = np.atleast_1d(arr)
    out = np.empty_like(arg)
    left = arg >= 0.0
    out[left] = (
        0.5
        * lam
        * np.exp(-((flat[left] - mu) ** 2) / (2.0 * sigma * sigma))
        * special.erfcx(arg[left])
    )
    out[~left] = (
        0.5
        * lam
        * np.exp(lam * (mu - flat[~left]) + 0.5 * lam * lam * sigma * sigma)
        * special.erfc(arg[~left])
    )
    return float(out[0]) if arr.ndim == 0 else out


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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(asdict(self), indent=indent, sort_keys=True)

    def param_vector(self) -> list[float]:
        return list(self.params.values())


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


def _multistart_simplex(
    objective: Callable[[np.ndarray], float],
    bounds: list[tuple[float, float]],
    n_starts: int,
):
    """Best of n_starts Nelder-Mead runs from a Halton grid, then re-polished.

    Restart polishing also unsticks runs that stalled on a clipped bound.
    """
    low = np.array([b[0] for b in bounds])
    high = np.array([b[1] for b in bounds])
    starts = [low + h * (high - low) for h in _halton(n_starts, len(bounds))]
    best = None
    for x0 in starts:
        result = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 4000},
        )
        if best is None or result.fun < best.fun:
            best = result
    for _ in range(6):
        result = minimize(
            objective,
            best.x,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-13, "fatol": 1e-16, "maxfev": 4000},
        )
        if result.fun < best.fun:
            best = result
        else:
            break
    return best


def fit(
    model: str,
    series: DistributionSeries,
    log_base: float = 10.0,
    n_starts: int = 16,
) -> FitResult:
    """Least-squares fit of a model to a frequency series.

    The edge-level model is fitted on support >= 1 (its log is undefined at
    0); the EMG uses the whole support. Multi-start keeps the result
    deterministic: ties break toward the earlier start.
    """
    if model not in PARAM_NAMES:
        raise ValueError(f"unknown model {model!r}")
    min_support = 1.0 if model == S_COMPLEX else 0.0
    x, observed = series.restrict(min_support)
    if len(x) < 4:
        raise FitError(
            f"need at least 4 support points to fit {model}, have {len(x)}"
        )

    if model == S_COMPLEX:
        bounds = [(0.0, 3.0), (1e-8, 2.0), (1e-8, 1.0)]

        def objective(p: np.ndarray) -> float:
            return float(np.sum((s_complex_model(x, p[0], p[1], p[2], log_base=log_base) - observed) ** 2))

        best = _multistart_simplex(objective, bounds, n_starts)
        values = [float(v) for v in best.x]
        restarts = n_starts
    else:
        x_max = float(x.max())

        def objective(p: np.ndarray) -> float:
            return float(np.sum((emg_model(x, p[0], p[1], p[2]) - observed) ** 2))

        best = _multistart_simplex(objective, [(1e-6, 5.0), (0.0, x_max), (0.0, x_max)], n_starts)
        # degenerate sigma=0 family: the pointwise sigma->0 limit differs from
        # the sigma=0 convention at x=mu, so the boundary must be probed
        # explicitly or exponential-shaped series cannot be fitted exactly
        def objective_exp(p: np.ndarray) -> float:
            return float(np.sum((emg_model(x, p[0], p[1], 0.0) - observed) ** 2))

        pinned = _multistart_simplex(objective_exp, [(1e-6, 5.0), (0.0, x_max)], n_starts)
        if pinned.fun < best.fun:
            values = [float(pinned.x[0]), float(pinned.x[1]), 0.0]
            best = pinned
        else:
            values = [float(v) for v in best.x]
        restarts = 2 * n_starts

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
    it). `model` may be a callable, a constant, or precomputed values.
    """
    x = np.asarray(x, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if callable(model):
        predicted = np.asarray(model(x), dtype=float)
    elif np.isscalar(model):
        predicted = np.full_like(observed, float(model))
    else:
        predicted = np.asarray(model, dtype=float)
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

"""One-sample two-tailed Student's t-test at the 99% level.

The p-value is the Student t tail from the finite sums of Abramowitz &
Stegun 26.7, with only `math`; it is within 1e-12 relative of
scipy.special.betainc for df 1-60 and |t| from 1e-3 to 1e4.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    df: int
    p_value: float
    significant_at_99: bool
    sample_mean: float
    sample_sd: float

    def to_dict(self) -> dict:
        # inf t-statistics (zero-variance samples) are not valid JSON numbers
        t = self.t_stat if math.isfinite(self.t_stat) else repr(self.t_stat)
        return {**asdict(self), "t_stat": t}


def _two_sided_tail(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom: I_x(df/2, 1/2), x = df/(df + t^2).

    Abramowitz & Stegun 26.7.3 (df odd) and 26.7.4 (df even) give 1 - I_x
    through the first df//2 terms of a series in x = cos^2(theta), theta =
    atan(|t|/sqrt(df)); summed to infinity, the series would give 1, so its
    remaining terms add up to I_x. From x = (df + 2)/(df + 5) up, where I_x
    is large, it is taken as 1 minus the finite sum; below, where it may be
    tiny and that difference would cancel, the remaining terms are summed.
    """
    root = math.sqrt(df)
    r = math.hypot(t, root)
    sin, cos = abs(t) / r, root / r
    x = cos * cos
    odd = df % 2
    # df even: 1 - I_x = sin * sum(c_k x^k), c_k = (2k-1)!!/(2k)!!, summing to 1/sin;
    # df odd: 1 - I_x = (2/pi)*(theta + sin*cos * sum(d_k x^k)), d_k = (2k)!!/(2k+1)!!
    lead = sin * cos / (math.pi / 2) if odd else sin
    whole = math.atan2(root, abs(t)) / (math.pi / 2) if odd else 1.0
    term, head = 1.0, 0.0
    for k in range(df // 2):
        head += term
        term *= x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if x >= (df + 2) / (df + 5):
        return whole - lead * head
    tail, k = 0.0, df // 2
    while term > 1e-17 * tail:
        tail += term
        term *= x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
        k += 1
    return lead * tail


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t with a positive integer number of degrees of freedom."""
    if df < 1 or df != int(df):
        raise ValueError(f"df must be a positive integer, got {df}")
    tail = 0.5 * _two_sided_tail(t, int(df))
    return 1.0 - tail if t > 0 else tail


def one_sample_t_test(samples: Sequence[float], hypothesized_mean: float) -> TTestResult:
    """Two-tailed test of the sample mean against a hypothesized value.

    Zero-variance samples are decided directly: p=1 when the common value
    equals the hypothesized mean, p=0 otherwise.
    """
    values = np.asarray(samples, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == hypothesized_mean:
            return TTestResult(0.0, df, 1.0, False, mean, 0.0)
        t = math.inf if mean > hypothesized_mean else -math.inf
        return TTestResult(t, df, 0.0, True, mean, 0.0)
    t = (mean - hypothesized_mean) / (sd / math.sqrt(n))
    p = _two_sided_tail(t, df)
    return TTestResult(t, df, p, p < 0.01, mean, sd)

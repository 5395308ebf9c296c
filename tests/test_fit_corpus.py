"""Both fits on a committed corpus of grown networks' S and T series.

Each series comes from a fixed-seed `generate_pa_tf` graph (the seeds were
fixed before any fit was run on them). `HEAD_SSE` holds the SSE that the
multistart Nelder-Mead search, which the bounded Levenberg-Marquardt solver
replaced, reached on each series; the solver must do at least as well. The
support size and unit count of each series pin it to the growth stream that
`STREAM_DIGESTS` in test_growth.py pins: if that stream changes, the corpus
changes and its SSEs must be measured again.
"""

import pytest

from adjfactor import GrowthConfig, census, fit, generate_pa_tf, models, to_distribution
from helpers import least_squares_oracle

MODELS = {"s": "s_complex", "t": "emg"}

# ((n, m, p_t, seed), kind, support points, units, SSE of the Nelder-Mead search)
HEAD_SSE = [
    ((600, 2, 0.45, 11), "s", 6, 1197, 9.291117903198435e-06),
    ((600, 2, 0.45, 11), "t", 11, 311, 0.0017702322223795107),
    ((3000, 8, 0.2, 1), "s", 33, 23944, 4.979283476165465e-06),
    ((3000, 8, 0.2, 1), "t", 61, 9342, 0.0014001431525184596),
    ((3000, 8, 0.2, 2), "s", 31, 23944, 6.004478632878709e-06),
    ((3000, 8, 0.2, 2), "t", 60, 8991, 0.001306363612309956),
    ((3000, 8, 0.2, 3), "s", 34, 23944, 1.1378187541598432e-05),
    ((3000, 8, 0.2, 3), "t", 60, 9116, 0.001376370842851364),
    ((1005, 16, 0.9, 1), "s", 63, 15840, 0.003947389605044407),
    ((1005, 16, 0.9, 1), "t", 102, 35202, 6.51941300296361e-05),
    ((1866, 2, 0.7, 1), "s", 7, 3729, 4.307771026169329e-05),
    ((1866, 2, 0.7, 1), "t", 12, 1318, 0.00019950976747678886),
    ((800, 2, 0.3, 1), "s", 7, 1597, 7.3689620649894e-06),
    ((800, 2, 0.3, 1), "t", 11, 283, 0.0030222141583402104),
    ((1500, 3, 0.6, 2), "s", 14, 4494, 0.0006646722644447638),
    ((1500, 3, 0.6, 2), "t", 23, 2078, 0.00023766442546394493),
    ((1000, 5, 0.85, 3), "s", 24, 4980, 0.004037702603861332),
    ((1000, 5, 0.85, 3), "t", 40, 4913, 0.00022553407458074842),
]
IDS = ["{}-{}-{}-{}-{}".format(*shape, kind) for shape, kind, *_ in HEAD_SSE]

# Series on which scipy's solver, whose iterates stay strictly inside the box,
# ends lower in the EMG's sigma -> 0+ corner: with mu on a support point the
# pointwise limit there is lam/2, where sigma = 0 itself gives lam, so no
# point of the box attains that infimum and the fit, like the Nelder-Mead
# search before it, stays out of it.
SIGMA_CORNER = {"800-2-0.3-1-t"}


@pytest.fixture(scope="module")
def corpus():
    """(n, m, p_t, seed) -> {kind: series} for every graph of the corpus."""
    series = {}
    for (n, m, p_t, seed), kind, *_ in HEAD_SSE:
        if (n, m, p_t, seed) not in series:
            graph = generate_pa_tf(GrowthConfig(n=n, m=m, p_t=p_t, seed=seed))
            series[n, m, p_t, seed] = {k: to_distribution(census(graph, k)) for k in MODELS}
    return series


@pytest.mark.parametrize("case", HEAD_SSE, ids=IDS)
def test_sse_no_worse_than_nelder_mead(corpus, case):
    shape, kind, points, units, head_sse = case
    series = corpus[shape][kind]
    assert (len(series.support), int(series.counts.sum())) == (points, units)
    result = fit(MODELS[kind], series)
    assert result.sse <= head_sse * (1 + 1e-9)
    assert result.converged
    assert result.restarts == (3 if kind == "s" else 4)
    assert 0 < result.iterations < models._MAX_ITERATIONS


def _least_squares_oracle(model, series):
    """The fit, and the least SSE and its point that scipy's bounded trust-region solver reaches from its starts."""
    searches = []
    original = models._best_run

    def record(residuals, starts, low, high, sticky=()):
        searches.append((residuals, starts, low, high))
        return original(residuals, starts, low, high, sticky)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_best_run", record)
        result = fit(model, series)
    ends = [
        least_squares_oracle(residuals, start, low, high)
        for residuals, starts, low, high in searches
        for start in starts
    ]
    return result, *min(ends, key=lambda end: end[0])


@pytest.mark.parametrize("case", HEAD_SSE, ids=IDS)
def test_no_worse_than_least_squares_from_the_same_starts(corpus, case, request):
    shape, kind, *_ = case
    result, oracle, point = _least_squares_oracle(MODELS[kind], corpus[shape][kind])
    if request.node.callspec.id in SIGMA_CORNER:
        assert result.sse > oracle and 0.0 < point[2] < 1e-12
    else:
        assert result.sse <= oracle * (1 + 1e-9)

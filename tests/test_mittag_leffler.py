"""A second infinite family, built here only, against oracles that share no code with series.py.

lambda_n = n and log||a_n|| = -(n log n)/rho give an entire series of Ritt
order rho (Ritt, Amer. J. Math. 50, 1928: limsup lambda_n log lambda_n /
log(1/||a_n||) = rho), of Mittag-Leffler type.  Its central index solves
(log n + 1)/rho = sigma, n* = e^(rho sigma - 1), and the local deviation of
its terms is sqrt(rho n*), against sqrt(n*) for expexp, so rho changes the
shape of the upper walk.  Its step sigma - ((n+1)log(n+1) - n log n)/rho is
convex in n, as the infinite-series contract requires.
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from rittgrowth.growth import GridSpec, SeriesLowerSource, SeriesUpperSource, SourceBundle
from rittgrowth.indicators import order_pair, profile_samples, type_pair
from rittgrowth.levelindex import to_real
from rittgrowth.series import _EXACT_TERMS, SeriesSpec, log_sum_upper, max_term_log


def ml_spec(rho: float) -> SeriesSpec:
    def log_norm(n):
        return -n * math.log(n) / rho

    def log_norm_array(ns):
        return -ns * np.log(ns) / rho

    return SeriesSpec("mittag-leffler", float, log_norm, {"rho": rho},
                      lam_array=lambda ns: ns, log_norm_array=log_norm_array,
                      peak=lambda sigma: math.exp(rho * sigma - 1.0))


def oracle_log_sum(rho, sigma, n_star):
    """log of the sum over n* -+ 45 deviations sqrt(rho n*), in 30-digit mpmath.

    The terms past 45 deviations are below e^-1000 of the largest, so the
    truncation is far below the 30 digits carried.
    """
    dev = math.sqrt(rho * n_star)
    lo, hi = max(1, int(n_star - 45 * dev)), int(n_star + 45 * dev) + 1
    with mpmath.workdps(30):
        r, s = mpmath.mpf(rho), mpmath.mpf(sigma)

        def t(n):
            n = mpmath.mpf(n)
            return s * n - n * mpmath.log(n) / r

        top = t(round(n_star))
        total = mpmath.fsum(mpmath.exp(t(n) - top) for n in range(lo, hi + 1))
        return top + mpmath.log(total)


# n* = 3e3 is summed term by term for both rho; 3e5 and 1e6 are blocked
CASES = [(rho, n_star) for rho in (0.5, 2.0) for n_star in (3e3, 3e4, 3e5, 1e6)]


@pytest.mark.parametrize("rho,n_star", CASES)
def test_upper_sum_against_mpmath(rho, n_star):
    sigma = (1.0 + math.log(n_star)) / rho
    spec = ml_spec(rho)
    upper = to_real(log_sum_upper(spec, sigma))
    _, lower = max_term_log(spec, sigma)
    ref = oracle_log_sum(rho, sigma, n_star)
    with mpmath.workdps(30):
        gap = mpmath.mpf(upper) - ref
        # each term log carries 8 ulps of |log||a_n||| + |sigma lambda_n|,
        # about 2 sigma n* here; 64 ulps of that cover the walk's margins
        margin = 64 * sys.float_info.epsilon * 2 * sigma * n_star
        assert gap >= 0
        assert gap <= 5e-5 + margin
        assert mpmath.mpf(to_real(lower)) <= ref


def test_cases_cover_blocked_windows():
    # the local Gaussian model needs about 15 deviations of terms, so the two
    # largest n* of each rho are summed in blocks
    for rho in (0.5, 2.0):
        assert 15 * math.sqrt(rho * 3e3) < _EXACT_TERMS < 15 * math.sqrt(rho * 3e5)


@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_order_and_type_at_2_0(rho):
    # log M ~ e^(rho sigma - 1)/rho: order rho and type 1/(e rho) at (2, 0)
    spec = ml_spec(rho)
    bundle = SourceBundle(SeriesUpperSource(spec), SeriesLowerSource(spec))
    samples = profile_samples(bundle, GridSpec(5.0 / rho, 30.0 / rho, 200))
    order, lower_order = order_pair(samples, 2, 0)
    assert order.value == pytest.approx(rho, rel=1e-6)
    assert lower_order.value == pytest.approx(rho, rel=1e-6)
    typ, lower_type = type_pair(samples, 2, 0, order.value)
    assert typ.value == pytest.approx(1.0 / (math.e * rho), rel=1e-6)
    assert lower_type.value == pytest.approx(1.0 / (math.e * rho), rel=1e-6)


def brute_log_sum(rho, sigma, n_star):
    """float64 log of the sum from n = 1 to n* + 60 deviations, past which the terms are below e^-1800."""
    ns = np.arange(1.0, n_star + 60 * math.sqrt(rho * n_star) + 100)
    t = sigma * ns - ns * np.log(ns) / rho
    top = t.max()
    return top + math.log(np.exp(t - top).sum())


N_STARS = np.geomspace(20, 2e4, 25)
# blocked windows that reach n = 1, where the curvature of the first blocks
# is many times that of the wide blocks after them
REACH_ONE = ([(100.0, 3000.0), (100.0, N_STARS[21]), (500.0, N_STARS[23]), (75.0, N_STARS[20]),
              (200.0, N_STARS[20])]
             + [(rho, n_star) for rho in (10.0, 50.0, 150.0, 300.0, 1000.0) for n_star in N_STARS[::4]])


@pytest.mark.parametrize("rho,n_star", REACH_ONE)
def test_upper_sum_down_to_the_first_term(rho, n_star):
    sigma = (1.0 + math.log(n_star)) / rho
    gap = to_real(log_sum_upper(ml_spec(rho), sigma)) - brute_log_sum(rho, sigma, n_star)
    margin = 64 * sys.float_info.epsilon * 2 * sigma * n_star  # as in test_upper_sum_against_mpmath
    assert -margin <= gap <= 2e-3

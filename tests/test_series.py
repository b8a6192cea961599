"""Series validation, maximum term, and the certified sum surrogate."""

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rittgrowth.corpus import series_spec
from rittgrowth.errors import DomainError, NumericError, SpecFormatError
from rittgrowth.growth import GridSpec, SeriesLowerSource, SeriesUpperSource, invert_modulus
from rittgrowth.levelindex import compare, to_real
from rittgrowth.series import (_ROUND_ULPS, SeriesSpec, _log_block, expexp_spec, log_sum_upper,
                               max_term_log, table_spec, term_log, validate)


def brute_max_term(a, c, sigma, n_hi=5000):
    """Independent oracle: full enumeration of the term logs."""
    best_n, best = 1, -math.inf
    for n in range(1, n_hi + 1):
        t = n * math.log(c) - math.lgamma(n + 1) + sigma * a * n
        if t > best:
            best_n, best = n, t
    return best_n, best


def brute_log_sum(a, c, sigma, n_hi=5000):
    ts = [n * math.log(c) - math.lgamma(n + 1) + sigma * a * n for n in range(1, n_hi + 1)]
    m = max(ts)
    return m + math.log(sum(math.exp(t - m) for t in ts))


class TestValidate:
    # validate reads lam and log_norm up to n_max only, so finite specs do
    def test_expexp_passes(self):
        report = validate(expexp_spec(1, 1), 100)
        assert report.verdict == "pass"
        assert report.monotone_ok
        # sup of log n / n over n <= 100 sits at n = 3
        assert report.d_estimate == pytest.approx(math.log(3) / 3, rel=1e-12)
        assert report.coeff_decay_trend < 0

    def test_decreasing_exponents_fail(self):
        bad = SeriesSpec("bad", lambda n: 1.0 / n, lambda n: -float(n), n_limit=32)
        assert validate(bad, 32).verdict == "fail"

    def test_no_decay_fails(self):
        bad = SeriesSpec("flat", lambda n: float(n), lambda n: float(n), n_limit=32)
        report = validate(bad, 32)
        assert report.verdict == "fail"
        assert report.coeff_decay_trend >= 0

    @given(st.lists(st.floats(0.01, 10.0), min_size=16, max_size=200), st.floats(-3.0, 1.0),
           st.floats(0.0, 1e3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_trend_is_the_polyfit_slope(self, steps, power, noise, seed):
        # a table whose log-norm falls like -n**(1 + power), plus noise and vanishing terms:
        # the closed-form slope matches np.polyfit's within 1e-9 of the ratios' scale, and
        # the verdict is the one polyfit's slope gives wherever that slope clears the
        # thresholds by more
        rng = np.random.default_rng(seed)
        n = np.arange(1, len(steps) + 1)
        lam = np.cumsum(steps)
        ln = -n ** (1.0 + power) + noise * rng.standard_normal(n.size)
        ln[rng.random(n.size) < 0.1] = -math.inf
        report = validate(table_spec("t", lam.tolist(), ln.tolist()), 256)
        keep = (n >= n.size // 2) & np.isfinite(ln)
        if keep.sum() < 2:
            return
        xs, ys = n[keep].astype(float), ln[keep] / lam[keep]
        want = float(np.polyfit(xs, ys, 1)[0])
        tol = 1e-9 * float(np.abs(ys).max()) / n.size
        assert abs(report.coeff_decay_trend - want) <= tol
        if all(abs(want - edge) > tol for edge in (0.0, -1e-4)):
            assert report.verdict == ("fail" if want >= 0 else "warn" if want > -1e-4 else "pass")

    def test_generator_failure_is_fail_verdict(self):
        def boom(n):
            raise RuntimeError("broken generator")
        report = validate(SeriesSpec("boom", boom, boom, n_limit=32), 32)
        assert report.verdict == "fail"
        assert "generator failure" in report.cause


class TestTermLog:
    def test_sigma_zero_first_term(self):
        assert term_log(expexp_spec(1, 1), 1, 0.0) == 0.0

    def test_third_term(self):
        # 3*2 - log 3! = 4.208240530771945
        assert term_log(expexp_spec(1, 1), 3, 2.0) == pytest.approx(4.208240530771945, rel=1e-14)

    def test_c_three(self):
        # 2 log 3 - log 2 = 1.5040773967762746
        assert term_log(expexp_spec(1, 3), 2, 0.0) == pytest.approx(1.5040773967762746, rel=1e-14)


class TestMaxTerm:
    def test_sigma_zero(self):
        n, v = max_term_log(expexp_spec(1, 1), 0.0)
        assert n == 1
        assert to_real(v) == 0.0

    def test_sigma_three_matches_enumeration(self):
        n, v = max_term_log(expexp_spec(1, 1), 3.0)
        bn, bt = brute_max_term(1, 1, 3.0)
        assert n == bn == 20
        assert to_real(v) == pytest.approx(bt, rel=1e-12)
        assert bt == pytest.approx(17.664383539246515, rel=1e-12)

    def test_lambda_scaling_inert_at_zero(self):
        n, v = max_term_log(expexp_spec(2, 1), 0.0)
        assert n == 1 and to_real(v) == 0.0

    @pytest.mark.parametrize("a,c,sigma", [(1, 1, 1.0), (1, 3, 2.5), (2, 1, 3.0), (3, 2, 1.5)])
    def test_against_enumeration(self, a, c, sigma):
        n, v = max_term_log(expexp_spec(a, c), sigma)
        bn, bt = brute_max_term(a, c, sigma)
        assert n == bn
        assert to_real(v) == pytest.approx(bt, rel=1e-12)


class TestPeakGenerator:
    """max_term_log through expexp's central index against an mpmath oracle."""

    @staticmethod
    def oracle(a, c, sigma):
        # the term ratio is c e^(a sigma) / n, so the argmax is its floor (at least 1)
        with mpmath.workdps(50):
            x = mpmath.mpf(c) * mpmath.exp(mpmath.mpf(a) * mpmath.mpf(sigma))
            n = max(1, int(mpmath.floor(x)))
            value = n * mpmath.log(c) - mpmath.loggamma(n + 1) + mpmath.mpf(sigma) * a * n
            return n, float(value)

    @pytest.mark.parametrize("a,c", [(0.5, 0.5), (0.5, 2.9), (1.3, 1.1), (1.3, 0.7),
                                     (3.0, 2.3), (3.0, 0.5)])
    def test_index_and_value_against_oracle(self, a, c):
        spec = expexp_spec(a, c)
        for step in range(1, 200):
            sigma = 0.37 * step / a
            ref_n, ref_t = self.oracle(a, c, sigma)
            if ref_n > 2 ** 53:
                break
            n, v = max_term_log(spec, sigma)
            assert isinstance(n, int)
            if ref_n <= 10 ** 6:
                assert n == ref_n
            else:
                # rounding of the term values (about 1e-16 * n log n) reaches
                # the one-step differences (about 1/n) near n ~ 1e7, so
                # neighbouring indices tie; the index lands within that flat top
                assert abs(n - ref_n) <= 1e-6 * ref_n
            assert to_real(v) == pytest.approx(ref_t, rel=1e-13, abs=1e-13)

    def test_beyond_exact_indices_is_float(self):
        n, v = max_term_log(expexp_spec(1, 1), 50.0)
        assert isinstance(n, float)
        assert n == pytest.approx(math.exp(50.0), rel=1e-12)
        with mpmath.workdps(50):
            ref_n = mpmath.floor(mpmath.exp(50))
            log_norm, s_lam = -mpmath.loggamma(ref_n + 1), 50 * ref_n
            # log||a_n|| and sigma*lambda_n (each ~50 n) nearly cancel to ~n,
            # so a computed term log is only good to the rounding margin the
            # upper walk gives each term: _ROUND_ULPS ulps of their sizes
            # (about 2e-13 of the value here).  The float index sits a few
            # ulps (2**20 each at n ~ 5e21) off the argmax, which lowers the
            # flat peak by ~1e-9, far inside that.
            tol = _ROUND_ULPS * sys.float_info.epsilon * float(abs(log_norm) + abs(s_lam))
            assert abs(mpmath.mpf(to_real(v)) - (log_norm + s_lam)) <= tol

    def test_unsettled_climb_on_rounding_noise(self):
        # near n ~ 5e10 rounding of the term logs (~1e-4) drowns the one-step
        # differences (~2e-11), and the climb from this central index does not
        # settle within its steps; it ends within the rounding margin instead
        a, c, sigma = 1.1676, 2.7797, 20.198727720129796
        n, v = max_term_log(expexp_spec(a, c), sigma)
        ref_n, ref_t = self.oracle(a, c, sigma)
        assert abs(n - ref_n) <= 1e-6 * ref_n
        assert to_real(v) == pytest.approx(ref_t, rel=1e-13)

    @staticmethod
    def peak_grid():
        # sigmas where x = c e^(a sigma) runs from 1 to 1e8, with x in 50 digits
        for a, c in [(2.0, 3.0), (1.0, 0.5), (0.7, 2.3)]:
            for x in np.geomspace(1.0, 1e8, 80):
                sigma = (math.log(x) - math.log(c)) / a
                with mpmath.workdps(50):
                    yield expexp_spec(a, c), a, c, sigma, mpmath.mpf(c) * mpmath.exp(a * mpmath.mpf(sigma))

    def test_peak_rounds_to_the_maximum_term(self):
        # the step t(n+1) - t(n) = log(x/(n+1)) changes sign at n + 1 = x, so
        # the maximum term's index is floor(x) wherever x is not an integer;
        # x carries the rounding of log c + a*sigma, about 1e-15 x (|T| + 1)
        checked = 0
        for spec, a, c, sigma, x in self.peak_grid():
            frac = float(x - mpmath.floor(x))
            if min(frac, 1.0 - frac) > 1e-12 * float(x) * (abs(math.log(c)) + a * abs(sigma) + 1.0):
                assert math.floor(spec.peak(sigma) + 0.5) == int(mpmath.floor(x))
                checked += 1
        assert checked >= 200

    def test_peak_is_near_the_continuous_root(self):
        # digamma(y) = log(y - 1/2) + 1/(24 (y - 1/2)**2) + O(y**-4) puts the root
        # of digamma(n+1) = T within 1/(24 e^T) of e^T - 1/2
        for spec, a, c, sigma, x in self.peak_grid():
            with mpmath.workdps(50):
                t = mpmath.log(x)
                root = mpmath.findroot(lambda y: mpmath.digamma(y) - t, x + 0.5) - 1
                rounding = 4 * sys.float_info.epsilon * float(x) * (abs(math.log(c)) + a * abs(sigma) + 1.0)
                assert abs(spec.peak(sigma) - root) <= 1 / (24 * x) + rounding

    def test_first_term_leads_below_the_first_index(self):
        assert max_term_log(expexp_spec(1, 0.1), 0.0)[0] == 1


class TestLogFactorial:
    """expexp's array generator takes log n! from a table below 256 and Stirling's series above."""

    NS = np.concatenate([np.arange(0.0, 301.0), np.floor(np.geomspace(256.0, 1e17, 400))])

    def test_against_mpmath_loggamma(self):
        # c = 1: log_norm_array is -log n! exactly
        got = expexp_spec(1.0, 1.0).log_norm_array(self.NS)
        with mpmath.workdps(40):
            for n, v in zip(self.NS, got):
                ref = -mpmath.loggamma(mpmath.mpf(n) + 1)
                assert abs(v - ref) <= 2 * math.ulp(float(ref)), n

    @pytest.mark.parametrize("a,c", [(1.0, 1.0), (0.5, 2.9), (3.0, 0.7)])
    def test_agrees_with_the_scalar_generator(self, a, c):
        # in ulps of |n log c| + log n!, at least 1, as n log c - log n! may cancel;
        # math.lgamma is itself 3 ulps off log 2 at n = 2
        spec = expexp_spec(a, c)
        for n, v in zip(self.NS, spec.log_norm_array(self.NS)):
            size = abs(n * math.log(c)) + math.lgamma(n + 1.0)
            assert abs(v - spec.log_norm(n)) <= 2 * math.ulp(max(size, 1.0)), n


class TestMachineRange:
    """Overflow past a*sigma ~ 700 is a NumericError that names the limit."""

    def test_peak_overflow(self):
        with pytest.raises(NumericError, match=r"a\*sigma < 700"):
            max_term_log(expexp_spec(30, 1), 24.0)

    def test_term_overflow(self):
        with pytest.raises(NumericError, match=r"a\*sigma < 700"):
            term_log(expexp_spec(1, 1), 1e306, 0.0)


class TestVanishingTerms:
    # expexp a=c=1 cut off past n = 5: an infinite series' terms may not
    # vanish, only tables may end
    SPEC = SeriesSpec("fin", lambda n: float(n),
                      lambda n: -math.lgamma(n + 1) if n <= 5 else -math.inf,
                      lam_array=lambda ns: ns,
                      log_norm_array=lambda ns: np.array([-math.lgamma(n + 1) if n <= 5 else -math.inf
                                                           for n in ns]),
                      peak=math.exp)

    def test_walk_stops_at_a_vanishing_term(self):
        with pytest.raises(DomainError, match=r"term n=6\.0 of series 'fin' vanishes; only tables may end"):
            log_sum_upper(self.SPEC, 1.0)

    @pytest.mark.parametrize("sigma,n", [(2.0, 7), (3.0, 20)])
    def test_peak_on_a_vanishing_term(self, sigma, n):
        # the central index e^sigma rounds past the cut-off, where the -inf
        # term ties its -inf neighbours
        with pytest.raises(DomainError, match=rf"term n={n} of series 'fin' vanishes; only tables may end"):
            max_term_log(self.SPEC, sigma)


class TestSpecContract:
    """An infinite series supplies its central index and array generators."""

    @pytest.mark.parametrize("missing", ["peak", "lam_array", "log_norm_array"])
    def test_infinite_spec_needs_every_generator(self, missing):
        with pytest.raises(SpecFormatError, match="infinite series 'expexp' needs peak"):
            dataclasses.replace(expexp_spec(1, 1), **{missing: None})

    def test_bare_infinite_spec_is_refused(self):
        with pytest.raises(SpecFormatError, match="infinite series 'bare'"):
            SeriesSpec("bare", lambda n: float(n), lambda n: -math.lgamma(n + 1))

    def test_wrong_peak_is_numeric_error(self):
        # the central index at sigma=5 is ~148; 50 indices off is past the climb
        spec = dataclasses.replace(expexp_spec(1, 1), peak=lambda sigma: math.exp(sigma) + 50.0)
        with pytest.raises(NumericError, match=r"of series 'expexp' at sigma=5\.0 is not its maximum term"):
            max_term_log(spec, 5.0)

    def test_non_convex_step_is_numeric_error(self):
        # t(n) = sigma*n - k*n**3 is log-concave, but its step's curvature
        # -6k falls: the blocked walk's chords show it.  At sigma=3e-3 the
        # central index is 1e6 and the deviation ~1.3e4, a wide window.
        k = 1e-15
        spec = SeriesSpec("cubic", float, lambda n: -k * n ** 3, lam_array=lambda ns: ns,
                          log_norm_array=lambda ns: -k * ns ** 3, peak=lambda s: math.sqrt(s / (3 * k)))
        with pytest.raises(NumericError, match=r"series 'cubic' at sigma=0\.003 are not log-concave with a convex step"):
            log_sum_upper(spec, 3e-3)


class TestLogSum:
    def test_sigma_zero_closed_form(self):
        v = log_sum_upper(expexp_spec(1, 1), 0.0)
        assert to_real(v) == pytest.approx(math.log(math.e - 1.0), rel=1e-12)

    def test_c2_sigma_one_closed_form(self):
        # sum (2e)^n/n! = exp(2e) - 1
        v = log_sum_upper(expexp_spec(1, 2), 1.0)
        expected = 2 * math.e + math.log1p(-math.exp(-2 * math.e))
        assert to_real(v) == pytest.approx(expected, rel=1e-12)
        assert to_real(v) == pytest.approx(brute_log_sum(1, 2, 1.0), rel=1e-12)

    @pytest.mark.parametrize("a,c", [(1, 1), (2, 1), (1, 3), (3, 2)])
    def test_closed_form_regression(self, a, c):
        # |log_sum - log(exp(c e^(a sigma)) - 1)| <= 1e-9 relative on [0, 30]
        spec = expexp_spec(a, c)
        for sigma in np.linspace(0.0, 30.0, 61):
            x = c * math.exp(a * sigma)
            closed = x + math.log1p(-math.exp(-x)) if x < 700 else x
            got = to_real(log_sum_upper(spec, float(sigma)))
            assert abs(got - closed) <= 1e-9 * max(1.0, abs(closed))

    def test_sandwich(self):
        for a, c in ((1, 1), (2, 1), (1, 3), (3, 2)):
            spec = expexp_spec(a, c)
            for sigma in (0.0, 2.0, 7.5, 18.0, 30.0):
                _, mt = max_term_log(spec, sigma)
                assert compare(mt, log_sum_upper(spec, sigma)) <= 0

    def test_strict_monotonicity_in_sigma(self):
        spec = expexp_spec(1, 2)
        sigmas = np.linspace(0.0, 25.0, 40)
        sums = [log_sum_upper(spec, float(s)) for s in sigmas]
        maxes = [max_term_log(spec, float(s))[1] for s in sigmas]
        for prev, cur in zip(sums, sums[1:]):
            assert compare(prev, cur) == -1
        for prev, cur in zip(maxes, maxes[1:]):
            assert compare(prev, cur) == -1


class TestSumOracle:
    """log_sum_upper and max_term_log against log(exp(c e^(a sigma)) - 1) in 50-digit mpmath."""

    GRID = [(a, c, a_sigma / a) for a in (0.5, 1.0, 1.7, 3.0) for c in (0.5, 1.0, 2.3, 5.0)
            for a_sigma in (0, 1, 3, 6, 9, 12, 15, 18, 20, 23, 26, 30, 40, 60, 100, 300, 690)]
    GRID += [(1.0, 1.0, 12.0), (1.0, 1.0, 20.0)]

    @staticmethod
    def closed(a, c, sigma):
        with mpmath.workdps(50):
            return mpmath.log(mpmath.expm1(mpmath.mpf(c) * mpmath.exp(mpmath.mpf(a) * mpmath.mpf(sigma))))

    @staticmethod
    def level_gap(value, closed):
        """closed minus value, both taken down to value's level (as perfbench/checks.py does)."""
        with mpmath.workdps(50):
            x = closed
            for _ in range(value.level):
                x = mpmath.log(x)
            return x - mpmath.mpf(value.mantissa)

    @pytest.mark.parametrize("a,c,sigma", GRID)
    def test_sandwich_and_slack(self, a, c, sigma):
        spec = expexp_spec(a, c)
        lower, upper = max_term_log(spec, sigma)[1], log_sum_upper(spec, sigma)
        closed = self.closed(a, c, sigma)
        assert self.level_gap(lower, closed) >= -1e-14 * max(lower.level, 1)
        assert self.level_gap(upper, closed) <= 1e-14 * max(upper.level, 1)
        # Slack: at most 1e-4 from the blocks (laid out for 5e-5) where the
        # window is wide, plus rounding.
        # Each term log is log||a_n|| + sigma*lambda_n, two parts of about
        # a*sigma*log M each, and carries a margin of 8 ulps of their size;
        # a block's bound may sit a few such margins above its terms (its
        # own edge plus a tangent slope taken from a neighbouring chord), so
        # 64 ulps of (a*sigma + 1)*log M cover the rounding.
        with mpmath.workdps(50):
            slack = mpmath.mpf(to_real(upper)) - closed
            margin = 64 * sys.float_info.epsilon * (a * sigma + 1) * (abs(closed) + 1)
            assert slack <= 1e-4 + margin

    def test_walk_is_tail_tol_tight_on_narrow_windows(self):
        for sigma in (0.0, 2.0, 5.0, 8.0):
            got = to_real(log_sum_upper(expexp_spec(1, 1), sigma))
            assert float(mpmath.mpf(got) - self.closed(1, 1, sigma)) <= 1e-12 * max(1.0, got)


def counted_spec(spec):
    """spec with every generator wrapped to count scalar calls plus array elements.

    box[0] holds that count, box[1] the array elements alone.
    """
    box = [0, 0]

    def wrap(fn):
        def counted(x):
            box[0] += np.size(x)
            box[1] += np.size(x) if isinstance(x, np.ndarray) else 0
            return fn(x)
        return counted if fn is not None else None

    generators = {f.name: wrap(getattr(spec, f.name)) for f in dataclasses.fields(spec)
                  if callable(getattr(spec, f.name))}
    return dataclasses.replace(spec, **generators), box


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0])
def test_generator_evaluations_per_sum(a):
    # a few hundred evaluations per call where the window is wide; the
    # widest windows summed term by term stay below 4096 terms
    spec, box = counted_spec(expexp_spec(a, 1.0))
    sigmas = GridSpec(5.0, 30.0, 200).sigmas()
    for sigma in sigmas:
        log_sum_upper(spec, sigma)
    assert box[0] / len(sigmas) <= 3000


@pytest.mark.parametrize("a_sigma", [16.2, 18.4, 23.0, 30.0, 40.0, 100.0, 300.0])
def test_blocked_sum_is_a_scalar_walk(a_sigma):
    # from n* ~ 1e7 up a blocked window takes a few dozen scalar generator
    # calls and none of the array generators, which only term-by-term
    # windows use
    spec, box = counted_spec(expexp_spec(1.0, 1.0))
    log_sum_upper(spec, a_sigma)
    assert box[1] == 0
    assert box[0] <= 200


@pytest.mark.parametrize("fa,fb,w,d", [(0.0, -3.0, 40.0, 0.0), (-2.0, 5.0, 40.0, 0.0), (1.0, 1.0, 64.0, 0.0),
                                       (0.0, -50.0, 10.0, 1e-3), (-50.0, 0.0, 10.0, 1e-3),
                                       (0.0, -1e3, 200.0, 1e-4)])
def test_block_tangent_fallback(fa, fb, w, d):
    # a flat block (d = 0) or one whose quadratic peaks far past it (erfc
    # underflows) is bounded by the tangent at its higher end: never below
    # the terms' sum, up to the last ulps, and within 1 of it here
    h, slope = w / 2, (fb - fa) / w
    with mpmath.workdps(30):
        us = [mpmath.mpf(j) - h for j in range(int(w))]
        ref = float(mpmath.log(mpmath.fsum(mpmath.exp((fa + fb) / 2 + slope * u + d * (h - u) * (h + u) / 2)
                                           for u in us)))
    got = _log_block(fa, fb, w, d)
    assert ref - 4 * sys.float_info.epsilon * abs(ref) <= got <= ref + 1.0


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_sandwich_property(a, c, sigma):
    spec = expexp_spec(a, c)
    _, mt = max_term_log(spec, sigma)
    assert compare(mt, log_sum_upper(spec, sigma)) <= 0


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=12.0, max_value=690.0))
@settings(max_examples=60, deadline=None)
def test_blocked_sum_against_closed_form(a, c, a_sigma):
    # blocked windows between TestSumOracle's grid points, so a layout that
    # changes with sigma is checked too: never below the closed form, and
    # at most the blocks' 5e-5 plus TestSumOracle's rounding margin above
    sigma = a_sigma / a
    upper = log_sum_upper(expexp_spec(a, c), sigma)
    closed = TestSumOracle.closed(a, c, sigma)
    assert TestSumOracle.level_gap(upper, closed) <= 1e-14 * max(upper.level, 1)
    with mpmath.workdps(50):
        margin = 64 * sys.float_info.epsilon * (a_sigma + 1) * (abs(closed) + 1)
        assert mpmath.mpf(to_real(upper)) - closed <= 5e-5 + margin


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=0.0, max_value=15.0), st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_monotone_property(a, c, sigma, step):
    spec = expexp_spec(a, c)
    assert compare(log_sum_upper(spec, sigma), log_sum_upper(spec, sigma + step)) == -1


class TestTableSpec:
    def test_finite_sum(self):
        spec = table_spec("t", [1.0, 2.0, 3.0], [0.0, -1.0, -3.0])
        expected = math.log(math.exp(0.0 + 2.0) + math.exp(-1.0 + 4.0) + math.exp(-3.0 + 6.0))
        assert to_real(log_sum_upper(spec, 2.0)) == pytest.approx(expected, rel=1e-12)

    def test_beyond_table_is_error(self):
        spec = table_spec("t", [1.0, 2.0], [0.0, -1.0])
        with pytest.raises(DomainError):
            term_log(spec, 5, 0.0)

    def test_validation_works_on_tables(self):
        lam = [float(n) for n in range(1, 33)]
        ln = [-0.5 * n * math.log(n + 1) for n in range(1, 33)]
        assert validate(table_spec("t", lam, ln), 32).verdict in ("pass", "warn")

    def test_inverses_find_each_surrogate_root(self):
        # the maximum term's root is exact; Newton on the sum lands within a stopping
        # width, 1e-12 relative; a vanishing term (log_norm -inf) takes no part
        spec = table_spec("t", [1.0, 2.0, 3.0, 4.0], [0.0, -1.0, -math.inf, -3.0])
        for sigma in (0.05, 0.7, 2.0, 9.5, 40.0):
            assert spec.lower_inverse(max_term_log(spec, sigma)[1]) == pytest.approx(sigma, rel=1e-14)
            assert spec.upper_inverse(log_sum_upper(spec, sigma)) == pytest.approx(sigma, rel=1e-12)

    def test_inverses_of_targets_past_2_to_the_62(self):
        # lambda = 1.7n is not a power of two, so (y - ln)/lambda * lambda misses y by
        # thousands of units up there; the sum's weights are taken against its largest term
        lam = [1.7 * n for n in range(1, 65)]
        spec = table_spec("t", lam, [-0.5 * n * math.log(n + 1) for n in range(1, 65)])
        for sigma in (1e17, 1e25, 1e300):
            y = log_sum_upper(spec, sigma)
            assert to_real(y) >= 1e19  # held as a level-index number: ~1e-14 relative
            assert spec.lower_inverse(max_term_log(spec, sigma)[1]) == pytest.approx(sigma, rel=1e-12)
            assert spec.upper_inverse(y) == pytest.approx(sigma, rel=1e-12)
        f = SeriesUpperSource(expexp_spec(1.0, 1.0))
        for sigma in (46.0, 50.0):
            y = f.log_m(sigma)
            assert to_real(y) >= 1e19
            for source in (SeriesLowerSource(spec), SeriesUpperSource(spec)):
                x = invert_modulus(source, y)
                assert compare(source.log_m(x * (1 - 1e-12)), y) <= 0 <= compare(source.log_m(x * (1 + 1e-12)), y)

    def test_inverses_of_a_table_whose_terms_all_vanish(self):
        # no line reaches y: the guesses are not finite, which an inversion refuses,
        # and nothing raises but the package's own errors
        spec = table_spec("t", [1.0, 2.0], [-math.inf, -math.inf])
        y = max_term_log(table_spec("u", [1.0], [0.0]), 1.0)[1]
        assert spec.lower_inverse(y) == math.inf
        assert math.isnan(spec.upper_inverse(y))
        for source in (SeriesLowerSource(spec), SeriesUpperSource(spec)):
            with pytest.raises(DomainError):  # the curve itself, as without an inverse
                invert_modulus(source, y)


class TestSpecFromJson:
    # a JSON source document read as a series goes through corpus.series_spec
    def test_expexp(self):
        spec = series_spec({"family": "expexp", "a": 1, "c": 3})
        assert spec.params == {"a": 1.0, "c": 3.0}

    def test_table(self):
        spec = series_spec({"family": "table", "lambda": [1, 2], "log_norm": [0, -1]})
        assert spec.n_limit == 2

    def test_unknown_family(self):
        with pytest.raises(SpecFormatError):
            series_spec({"family": "nope"})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecFormatError):
            series_spec({"family": "expexp", "a": 1, "c": 1, "bogus": 2})

    def test_missing_field(self):
        with pytest.raises(SpecFormatError):
            series_spec({"family": "expexp", "a": 1})

"""Profiles, inversion and composition."""

import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rittgrowth.corpus import parse_shorthand, resolve_source
from rittgrowth.errors import BracketError, DomainError, NumericError
from rittgrowth import growth as growth_mod
from rittgrowth.growth import (INVERT_REL_TOL, GridSpec, SeriesUpperSource, SyntheticSource, _itp_probe,
                               _reduced, compose_samples, invert_modulus, sample_profile)
from rittgrowth.indicators import profile_samples, relative_samples
from rittgrowth.levelindex import ExtReal, compare, from_real, log_chain, to_real
from rittgrowth.series import expexp_spec
from rittgrowth.theorems import load_batch


def brute_log_sum(a, c, sigma, n_hi=4000):
    ts = [n * math.log(c) - math.lgamma(n + 1) + sigma * a * n for n in range(1, n_hi + 1)]
    m = max(ts)
    return m + math.log(sum(math.exp(t - m) for t in ts))


class TestGridSpec:
    def test_linear(self):
        g = GridSpec(1.0, 5.0, 5)
        assert g.sigmas() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_log_spacing(self):
        g = GridSpec(1.0, 100.0, 3, "log")
        assert g.sigmas() == pytest.approx([1.0, 10.0, 100.0])

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 600))
    @example(0.0, 1e-323, 6)  # the step underflows to 0
    @example(-1e308, 1e308, 3)  # the span overflows
    @settings(max_examples=300, deadline=None)
    def test_linear_is_np_linspace_bit_for_bit(self, lo, hi, count):
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            return
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, count).tolist()
        assert [s.hex() for s in GridSpec(lo, hi, count).sigmas()] == [s.hex() for s in want]

    @given(st.floats(1e-6, 1e6), st.floats(1e-9, 60.0), st.integers(2, 2000))
    @settings(max_examples=300, deadline=None)
    def test_log_is_np_geomspace_within_1e_13(self, lo, log_ratio, count):
        hi = lo * math.exp(log_ratio)
        got = GridSpec(lo, hi, count, "log").sigmas()
        assert (got[0], got[-1], len(got)) == (lo, hi, count)
        want = np.geomspace(lo, hi, count)
        assert float(np.max(np.abs(np.array(got) - want) / want)) <= 1e-13

    def test_bad_grids(self):
        with pytest.raises(ValueError):
            GridSpec(5.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            GridSpec(0.0, 2.0, 4, "log")
        for lo, hi in ((5.0, math.inf), (-math.inf, 5.0), (math.nan, 5.0), (5.0, math.nan)):
            with pytest.raises(ValueError, match="finite sigma_min < sigma_max"):
                GridSpec(lo, hi, 8)


class TestSampleProfile:
    def test_series_profile_matches_brute_force(self):
        src = SeriesUpperSource(expexp_spec(1, 1))
        (sigma, value), *_ = sample_profile(src, GridSpec(1.0, 5.0, 5))
        assert sigma == 1.0
        assert to_real(value) == pytest.approx(brute_log_sum(1, 1, 1.0), rel=1e-12)
        # log(exp(e) - 1) = 2.6500157972111684 by direct evaluation
        assert to_real(value) == pytest.approx(2.6500157972111684, rel=1e-12)

    def test_synthetic_rule_evaluation(self):
        # rule log M(sigma) = e^sigma, i.e. the depth-2 tower rule
        src = parse_shorthand("tower:k=2,rho=1,q=0").bundle().upper
        prof = sample_profile(src, GridSpec(1.0, 3.0, 3))
        assert prof[1] == (2.0, ExtReal(1, 2.0))  # e^2

    def test_decreasing_rule_rejected(self):
        src = SyntheticSource("bad", {}, lambda s: from_real(-s), sigma_floor=0.0)
        with pytest.raises(NumericError, match="not strictly increasing"):
            sample_profile(src, GridSpec(1.0, 2.0, 4))


class TestInvert:
    def test_series_inversion_against_closed_form(self):
        # solve log(exp(e^s) - 1) = e: s = log(log(e^e + 1)) = 1.0232362058844582
        src = SeriesUpperSource(expexp_spec(1, 1))
        sigma = invert_modulus(src, from_real(math.e))
        assert sigma == pytest.approx(math.log(math.log(math.exp(math.e) + 1)), abs=1e-9)

    def test_synthetic_exact(self):
        # log M = e^sigma, y = e: sigma = 1
        src = parse_shorthand("tower:k=2,rho=1,q=0").bundle().upper
        assert invert_modulus(src, ExtReal(1, 1.0)) == pytest.approx(1.0, abs=1e-11)

    def test_below_range_is_error(self):
        src = SeriesUpperSource(expexp_spec(1, 1))
        # log M(0) = log(e-1) = 0.541; target 0.1 is unreachable at sigma >= 0
        with pytest.raises(BracketError):
            invert_modulus(src, from_real(0.1))

    @pytest.mark.parametrize("shorthand", ["expexp:a=1,c=1", "expexp:a=2,c=1",
                                           "tower:k=2,rho=1,q=0", "tower:k=3,rho=2,q=0",
                                           "osc:rho=2,lam=1,p=2,q=0"])
    def test_inversion_identity(self, shorthand):
        bundle = parse_shorthand(shorthand).bundle()
        for sigma in (1.0, 3.0, 11.0, 30.0):
            got = invert_modulus(bundle.upper, bundle.upper.log_m(sigma))
            assert abs(got - sigma) <= 1e-9

    @pytest.mark.parametrize("shorthand,sigma,guess,branch", [
        pytest.param("expexp:a=1,c=1", 20.0, 40.0, -math.inf, id="expexp:a=1,c=1-20.0--inf"),
        pytest.param("tower:k=4,rho=1,q=0", 0.1, 30.0, math.inf, id="tower:k=4,rho=1,q=0-0.1-inf")])
    def test_residuals_out_of_machine_range(self, monkeypatch, shorthand, sigma, guess, branch):
        # a guess of 40 for the root 20 steps down to the floor, where a level-3
        # target reduces log M(0) = 0.54 below the machine range (-inf); a guess
        # of 30 for a level-2 tower target reduces log M(30) above it (+inf)
        # and grows down from there; the probe then takes midpoints
        reduced, probes = [], []

        def record_reduced(v, k):
            reduced.append(_reduced(v, k))
            return reduced[-1]

        def record_probe(lo, hi, f_lo, f_hi, *rest):
            probes.append((f_lo, f_hi))
            return _itp_probe(lo, hi, f_lo, f_hi, *rest)

        monkeypatch.setattr(growth_mod, "_reduced", record_reduced)
        monkeypatch.setattr(growth_mod, "_itp_probe", record_probe)
        src = parse_shorthand(shorthand).bundle().upper
        y = src.log_m(sigma)
        x = invert_modulus(GuessingSource(src, lambda y: guess), y)
        assert branch in reduced
        assert any(not (math.isfinite(f_lo) and math.isfinite(f_hi)) for f_lo, f_hi in probes)
        assert compare(src.log_m(x * (1 - 2e-12)), y) < 0 < compare(src.log_m(x * (1 + 2e-12)), y)

    def test_top_of_the_float_range(self):
        # a guess below a root near the largest float, whose doublings would pass
        # it, stops there and returns a finite midpoint; so does the cold search
        source = parse_shorthand("tower:k=3,rho=0.5,q=0").bundle().upper
        for root, guess in ((1.5e308, 1e307), (1.79e308, 1.7e308), (1.79e308, None)):
            counted = GuessingSource(source, lambda y: guess) if guess else RecordingSource(source)
            x = invert_modulus(counted, source.log_m(root))
            assert abs(x - root) <= 2 * INVERT_REL_TOL * root
            assert all(math.isfinite(s) for s in counted.sigmas)

    @pytest.mark.parametrize("sigma", [1e36, 1e40, 1e300, 1.7e308])
    def test_cold_search_reaches_the_float_range(self, sigma):
        # from (floor, floor + 1) the doublings reach any root up to the largest float
        source = parse_shorthand("tower:k=3,rho=1,q=0").bundle().upper
        counted = CountingSource(source)
        x = invert_modulus(counted, source.log_m(sigma))
        assert abs(x - sigma) <= INVERT_REL_TOL * sigma
        assert counted.calls > 120

    @pytest.mark.parametrize("guess", [None, 1e307, 1.7e308, 1.79e308])
    def test_root_past_the_float_range_is_a_bracket_error(self, guess):
        # the root, 2e308, is past the largest float: the cold search, the
        # source's own guess (2e308, which overflows) and a guess below the
        # root all grow up to the largest float and stop there, never handing
        # the curve a sigma that is not finite
        source = parse_shorthand("tower:k=3,rho=0.5,q=0").bundle().upper
        y = parse_shorthand("tower:k=3,rho=1,q=0").bundle().upper.log_m(1e308)
        for counted in (RecordingSource(source), GuessingSource(source, (lambda y: guess) if guess else None)):
            with pytest.raises(BracketError, match="cannot grow within the float range"):
                invert_modulus(counted, y)
            assert all(math.isfinite(s) for s in counted.sigmas)

    def test_composition_up_to_the_float_range(self):
        # roots 2 sigma up to 1.78e308, past 2**1023: the cold search's next
        # doubling would pass the largest float, and the bracket stops there instead
        f = parse_shorthand("tower:k=3,rho=1,q=0").bundle().upper
        g = RecordingSource(parse_shorthand("tower:k=3,rho=0.5,q=0").bundle().upper)
        sigmas = [6e307, 7.5e307, 8.9e307]
        ys = [f.log_m(s) for s in sigmas]
        for (s, x), y in zip(compose_samples(g, sigmas, ys), ys):
            assert abs(x - 2 * s) <= 3 * INVERT_REL_TOL * x  # y's level-3 mantissa
            assert compare(g.log_m(x * (1 - 1e-12)), y) <= 0 <= compare(g.log_m(x * (1 + 1e-12)), y)
        assert all(math.isfinite(s) for s in g.sigmas)

    def test_composition_past_the_float_range(self):
        # the composition's roots 2 sigma leave the float range along the grid;
        # once the guess overflows, the cold search grows up to the largest
        # float and stops there
        f = parse_shorthand("tower:k=3,rho=1,q=0").bundle().upper
        g = RecordingSource(parse_shorthand("tower:k=3,rho=0.5,q=0").bundle().upper)
        sigmas = GridSpec(1e307, 1.7e308, 16).sigmas()
        with pytest.raises(BracketError):
            compose_samples(g, sigmas, [f.log_m(s) for s in sigmas])
        assert g.sigmas and all(math.isfinite(s) for s in g.sigmas)


class CountingSource:
    """Wraps a source and counts its log_m calls."""

    def __init__(self, source):
        self.source = source
        self.sigma_floor = source.sigma_floor
        self.calls = 0

    def log_m(self, sigma):
        self.calls += 1
        return self.source.log_m(sigma)


class RecordingSource(CountingSource):
    """A CountingSource that also records each sigma it is handed."""

    def __init__(self, source):
        super().__init__(source)
        self.sigmas = []

    def log_m(self, sigma):
        self.sigmas.append(sigma)
        return super().log_m(sigma)


def bisection_calls(source, y):
    """log_m calls of plain bisection from invert_modulus's cold bracket."""
    counted = CountingSource(source)
    lo, hi = 0.0, 1.0
    while compare(counted.log_m(hi), y) < 0:
        lo, hi = hi, 2.0 * hi
    assert compare(counted.log_m(lo), y) <= 0
    while (hi - lo) > INVERT_REL_TOL * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if compare(counted.log_m(mid), y) < 0:
            lo = mid
        else:
            hi = mid
    return counted.calls


SOLVER_SOURCES = [("expexp:a=1,c=1", "upper"), ("expexp:a=1,c=1", "lower"),
                  ("expexp:a=2,c=3", "upper"), ("tower:k=3,rho=2,q=0", "upper"),
                  ("tower:k=4,rho=1,q=0", "upper")]
SOLVER_SIGMAS = (1.7, 4.3, 9.1, 14.6, 22.9, 29.3)


class TestSolver:
    """ITP inversion: bisection's bracket and stopping rule in fewer calls."""

    @pytest.mark.parametrize("shorthand,surrogate", SOLVER_SOURCES)
    def test_never_beyond_bisection_plus_one(self, shorthand, surrogate):
        source = dict(parse_shorthand(shorthand).bundle().surrogates())[surrogate]
        for sigma in SOLVER_SIGMAS:
            y = source.log_m(sigma)
            counted = CountingSource(source)
            invert_modulus(counted, y)
            assert counted.calls <= bisection_calls(source, y) + 1

    @pytest.mark.parametrize("surrogate", ["upper", "lower"])
    def test_smooth_expexp_is_cheap(self, surrogate):
        source = dict(parse_shorthand("expexp:a=2,c=3").bundle().surrogates())[surrogate]
        for sigma in SOLVER_SIGMAS:
            counted = CountingSource(source)
            invert_modulus(counted, source.log_m(sigma))
            assert counted.calls <= 15

    @pytest.mark.parametrize("shorthand,surrogate", SOLVER_SOURCES)
    def test_result_straddles_the_target(self, shorthand, surrogate):
        source = dict(parse_shorthand(shorthand).bundle().surrogates())[surrogate]
        target = parse_shorthand("expexp:a=1,c=5").bundle().upper
        for sigma in SOLVER_SIGMAS:
            y = target.log_m(sigma)
            s = invert_modulus(source, y)
            assert compare(source.log_m(s * (1 - 2e-12)), y) <= 0
            assert compare(source.log_m(s * (1 + 2e-12)), y) >= 0


class TestHistoryIndependence:
    def test_shuffled_evaluation_order(self):
        sigmas = [float(s) for s in np.linspace(5.0, 30.0, 400)]
        shuffled = sigmas[:]
        random.Random(0).shuffle(shuffled)
        for shorthand in ("expexp:a=1,c=1", "expexp:a=2,c=1", "expexp:a=1,c=3"):
            entry = parse_shorthand(shorthand)
            for _, source in entry.bundle().surrogates():
                in_order = {s: source.log_m(s) for s in sigmas}
                for s in shuffled:
                    assert source.log_m(s) == in_order[s]


class TestCompose:
    def test_shared_form_gives_double(self):
        # both curves are exp(c e^(a s)) - 1, so the composition is exactly 2s
        f = SeriesUpperSource(expexp_spec(2, 1))
        g = SeriesUpperSource(expexp_spec(1, 1))
        assert invert_modulus(g, f.log_m(5.0)) == pytest.approx(10.0, abs=1e-8)

    def test_identity_on_same_source(self):
        g = SeriesUpperSource(expexp_spec(1, 3))
        assert invert_modulus(g, g.log_m(5.0)) == pytest.approx(5.0, abs=1e-9)

    def test_coefficient_shift(self):
        # c_f = e: e * e^s = e^(s+1), so the composition is s + 1
        f = SeriesUpperSource(expexp_spec(1, math.e))
        g = SeriesUpperSource(expexp_spec(1, 1))
        assert invert_modulus(g, f.log_m(5.0)) == pytest.approx(6.0, abs=1e-8)

    def test_monotone_in_sigma(self):
        f = parse_shorthand("expexp:a=2,c=1").bundle().upper
        g = parse_shorthand("expexp:a=1,c=3").bundle().upper
        sigmas = GridSpec(5.0, 20.0, 24).sigmas()
        samples = compose_samples(g, sigmas, [f.log_m(s) for s in sigmas])
        psis = [p for _, p in samples]
        assert all(b > a for a, b in zip(psis, psis[1:]))


def expexp_composition(f, g, sigma):
    """x with c_g e^(a_g x) = c_f e^(a_f sigma): M_g^{-1}(M_f(sigma)) for M = exp(c e^(a s)) - 1."""
    return (mpmath.mpf(f["a"]) * sigma + mpmath.log(mpmath.mpf(f["c"]) / mpmath.mpf(g["c"]))) \
        / mpmath.mpf(g["a"])


def tower_composition(f, g, sigma):
    """x with rho_g x = rho_f sigma: log^[k] M = rho s on both sides (q = 0)."""
    return mpmath.mpf(f["rho"]) * sigma / mpmath.mpf(g["rho"])


class TestComposedCurveOracle:
    """The relative curve M_g^{-1}(M_f(sigma)) against a closed form in 40-digit mpmath.

    The reference takes M as the norm sum exp(c e^(a s)) - 1, the value the
    upper surrogates certify to within their slack, or a tower's rule.  It
    shares no code with the solver.  Every inversion's final bracket is at
    most tol = INVERT_REL_TOL * max(1, |x|) wide, and the center pairing
    returns its midpoint, so it lies within tol of x*.  The crossed
    pairings (f-lower against g-upper, f-upper against g-lower) return the
    bracket's outer end, so low never exceeds x* and high never falls
    short of it, even at large a*sigma, where the surrogates differ by less
    than one stopping width.  The oracle reads every grid point (window
    share 1); the default share composes grid index 0 and the tail, and
    must equal the whole grid's composition there bit for bit.
    """

    @staticmethod
    def check(f_id, g_id, grid, reference):
        f, g = parse_shorthand(f_id), parse_shorthand(g_id)
        sets = dict(relative_samples(profile_samples(f.bundle(), grid, 1.0), g.bundle()).sets)
        with mpmath.workdps(40):
            for i, (sigma, center) in enumerate(sets["center"]):
                x = reference(f.params, g.params, mpmath.mpf(sigma))
                tol = INVERT_REL_TOL * max(1, abs(x))
                where = f"{f_id} vs {g_id} at sigma={sigma}"
                assert abs(to_real(center) - x) <= tol, where
                if "low" in sets:
                    assert to_real(sets["low"][i][1]) <= x, where
                    assert to_real(sets["high"][i][1]) >= x, where
        return len(sets["center"])

    @staticmethod
    def tail_against_whole(f_id, g_id, grid):
        """Assert that the default-window composition equals the whole grid's, bit for bit,
        at every point it holds; returns the number of points compared."""
        f, g = parse_shorthand(f_id).bundle(), parse_shorthand(g_id).bundle()
        tail, whole = (dict(relative_samples(profile_samples(f, grid, *share), g).sets)
                       for share in ((), (1.0,)))
        at = {sigma: i for i, (sigma, _x) in enumerate(whole["center"])}
        for name, points in tail.items():
            for sigma, x in points:
                assert x == whole[name][at[sigma]][1], (f_id, g_id, name, sigma)
        return sum(len(points) for points in tail.values())

    def test_acceptance_batch_expexp_pairs(self):
        # every expexp-expexp (f, g, grid) set that the batch's theorems compose
        doc = json.loads((Path(__file__).resolve().parent.parent / "batches"
                          / "acceptance_triples.json").read_text())
        sets = []
        for inst in load_batch(doc):
            for x, y in ((inst.f, inst.h), (inst.g, inst.h), (inst.f, inst.g), (inst.g, inst.f)):
                if (x, y, inst.grid) not in sets:
                    sets.append((x, y, inst.grid))
        expexp = [s for s in sets if s[0].startswith("expexp:") and s[1].startswith("expexp:")]
        points = sum(self.check(x, y, grid, expexp_composition) for x, y, grid in expexp)
        assert (len(expexp), points) == (22, 1408)
        # every set the batch composes, against its whole-grid composition
        assert (len(sets), sum(self.tail_against_whole(*s) for s in sets)) == (42, 3202)

    @pytest.mark.parametrize("k", [3, 4])
    def test_tower_pairs(self, k):
        for rho_f, rho_g in ((2, 1), (1, 1.5)):
            self.check(f"tower:k={k},rho={rho_f},q=0", f"tower:k={k},rho={rho_g},q=0",
                       GridSpec(5.0, 30.0, 64), tower_composition)

    def test_expexp_up_to_the_machine_range(self):
        # a*sigma up to 690, x* up to 690 + log 3, just inside the ~700 limit
        self.check("expexp:a=1,c=3", "expexp:a=1,c=1", GridSpec(5.0, 690.0, 64),
                   expexp_composition)


# (f, g, grid) on the acceptance batch's grids: expexp on a linear grid,
# towers on a log grid, osc against a tower
WARM_PAIRS = [("expexp:a=2,c=1", "expexp:a=1,c=3", GridSpec(5.0, 30.0, 64)),
              ("tower:k=2,rho=2,q=1", "tower:k=2,rho=1,q=0", GridSpec(5.0, 3e4, 200, "log")),
              ("osc:rho=2,lam=1,p=2,q=0", "tower:k=2,rho=2,q=0",
               GridSpec(3.0, 460658806.18633974, 480, "log"))]


def warm_bundles(f_id, g_id):
    return (parse_shorthand(f_id).bundle().upper,
            parse_shorthand(g_id).bundle().upper)


class TestWarmStart:
    """Inversion along a grid: each point a single call, in few curve evaluations."""

    @pytest.mark.parametrize("f_id,g_id,grid", WARM_PAIRS)
    def test_compose_matches_cold(self, f_id, g_id, grid):
        f, g = warm_bundles(f_id, g_id)
        sigmas = grid.sigmas()
        for s, psi in compose_samples(g, sigmas, [f.log_m(s) for s in sigmas]):
            assert psi == invert_modulus(g, f.log_m(s))

    @pytest.mark.parametrize("f_id,g_id,grid", WARM_PAIRS)
    def test_few_curve_evaluations_per_inversion(self, f_id, g_id, grid):
        # each built-in curve starts from its own inverse: two calls a point on
        # the tower and osc rules, a few misses more on expexp; f's own curve
        # inverted at its values is a second curve
        f, g = warm_bundles(f_id, g_id)
        sigmas = grid.sigmas()
        ys = [f.log_m(s) for s in sigmas]
        for shorthand, source in ((g_id, g), (f_id, f)):
            counted = GuessingSource(source)
            compose_samples(counted, sigmas, ys)
            if shorthand.startswith("expexp:"):
                assert counted.calls <= 2.7 * len(sigmas)
            else:
                assert counted.calls == 2 * len(sigmas)

    @pytest.mark.parametrize("slope_after", [50.0, 0.02])
    def test_missed_prediction_still_lands_on_the_root(self, slope_after):
        # log M has a slope kink at sigma = 10, so the curve inverted at
        # y = t has one too, and an inverse that extends the line below the
        # kink misses every root after it
        def rule(sigma):
            return from_real(sigma if sigma < 10.0 else 10.0 + slope_after * (sigma - 10.0))

        def exact(t):
            return t if t < 10.0 else 10.0 + (t - 10.0) / slope_after

        source = SyntheticSource("kink", {}, rule, inverse=to_real)
        ts = [float(t) for t in np.linspace(2.0, 30.0, 57)]
        counted = GuessingSource(source)
        xs = [x for _t, x in compose_samples(counted, ts, [from_real(t) for t in ts])]
        assert counted.calls > 2 * len(ts)
        for t, x in zip(ts, xs):
            assert abs(x - exact(t)) <= INVERT_REL_TOL * max(1.0, abs(x))
            assert x == invert_modulus(source, from_real(t))


class GuessingSource(RecordingSource):
    """Records log_m calls and forwards an inverse: the source's own, or the one given."""

    def __init__(self, source, inverse=None):
        super().__init__(source)
        self.inverse = inverse or source.inverse


GUESS_SOURCES = [("tower:k=3,rho=2,q=0", "upper"), ("tower:k=2,rho=1.5,q=1", "upper"),
                 ("expexp:a=2,c=3", "upper"), ("expexp:a=2,c=3", "lower")]
# a 64-term table: the expexp(1, 1) series cut after n = 64
TABLE = {"family": "table", "lam": [float(n) for n in range(1, 65)],
         "log_norm": [-math.lgamma(n + 1) for n in range(1, 65)]}
TABLE_SOURCES = [pytest.param(TABLE, surrogate, id=f"table-{surrogate}") for surrogate in ("upper", "lower")]


class TestGuess:
    """A source's own inverse places the bracket; the curve still decides it."""

    @staticmethod
    def cold_path(source, y):
        """invert_modulus without the guess (CountingSource hides the inverse): (result, calls)."""
        counted = CountingSource(source)
        return invert_modulus(counted, y), counted.calls

    @pytest.mark.parametrize("ref,surrogate", GUESS_SOURCES + TABLE_SOURCES)
    def test_confirmed_guess_costs_two_calls(self, ref, surrogate):
        source = dict(resolve_source(ref).bundle().surrogates())[surrogate]
        for sigma in SOLVER_SIGMAS:
            y = source.log_m(sigma)
            counted = GuessingSource(source)
            x = invert_modulus(counted, y)
            assert counted.calls == 2
            root, _calls = self.cold_path(source, y)
            assert abs(x - root) <= INVERT_REL_TOL * max(1.0, abs(x))

    @pytest.mark.parametrize("shorthand,surrogate", GUESS_SOURCES)
    @pytest.mark.parametrize("rel", [1e-6, -1e-6])
    def test_wrong_guess_still_finds_the_root(self, shorthand, surrogate, rel):
        # a guess off by 1e-6 costs at most two calls more than the cold search;
        # one off by at most 1e-9 starts from its own secant and costs at most five
        source = dict(parse_shorthand(shorthand).bundle().surrogates())[surrogate]
        for sigma in SOLVER_SIGMAS:
            y = source.log_m(sigma)
            root, calls = self.cold_path(source, y)
            for off, most in ((rel, calls + 2), (rel * 1e-3, 5), (rel * 1e-5, 5)):
                counted = GuessingSource(source, lambda y: source.inverse(y) * (1.0 + off))
                x = invert_modulus(counted, y)
                assert abs(x - root) <= INVERT_REL_TOL * max(1.0, abs(x))
                assert counted.calls <= most

    def test_guess_ends_keep_their_side(self):
        # low and high return the confirmed bracket's ends, mid its midpoint
        source = parse_shorthand("expexp:a=2,c=3").bundle().upper
        y = source.log_m(9.1)
        low, mid, high = (invert_modulus(source, y, end=end) for end in ("low", "mid", "high"))
        assert low < mid < high and high - low <= INVERT_REL_TOL * high
        assert compare(source.log_m(low), y) <= 0 <= compare(source.log_m(high), y)

    @staticmethod
    def _raises(y):
        raise NumericError("no guess here")

    @pytest.mark.parametrize("inverse", [_raises, lambda y: math.nan, lambda y: -3.0, lambda y: 0.0,
                                         lambda y: log_chain(1e3, -1)],
                             ids=["raises", "nan", "below-floor", "at-floor", "overflows"])
    @pytest.mark.parametrize("shorthand,surrogate", GUESS_SOURCES)
    def test_unusable_guess_takes_the_bracket_path(self, inverse, shorthand, surrogate):
        # x - h below the floor, like a guess that raises or is not finite,
        # evaluates nothing: the same calls and the same result as no inverse
        source = dict(parse_shorthand(shorthand).bundle().surrogates())[surrogate]
        for sigma in SOLVER_SIGMAS:
            y = source.log_m(sigma + source.sigma_floor)
            counted = GuessingSource(source, inverse)
            x = invert_modulus(counted, y)
            assert (x, counted.calls) == self.cold_path(source, y)

    def test_guess_out_of_the_curve_range_falls_back(self):
        # a guess where the surrogate cannot be evaluated (a*sigma > 700)
        source = parse_shorthand("expexp:a=1,c=1").bundle().upper
        y = source.log_m(12.0)
        counted = GuessingSource(source, lambda y: 1e4)
        x = invert_modulus(counted, y)
        root, calls = self.cold_path(source, y)
        assert x == root and counted.calls <= calls + 1

    @pytest.mark.parametrize("f_id,g_id,grid", WARM_PAIRS)
    def test_composition_counter_gate(self, f_id, g_id, grid):
        # exactly 2 calls a point against a tower g, a few misses against expexp
        f, g = warm_bundles(f_id, g_id)
        sigmas = grid.sigmas()
        counted = GuessingSource(g)
        compose_samples(counted, sigmas, [f.log_m(s) for s in sigmas])
        if g_id.startswith("tower:"):
            assert counted.calls == 2 * len(sigmas)
        else:
            assert counted.calls <= 2.7 * len(sigmas)

    @pytest.mark.parametrize("surrogate", ["upper", "lower"])
    def test_table_composition_costs_two_calls_a_point(self, surrogate):
        # both of a table's surrogates invert themselves: every point is a confirmed guess
        f = parse_shorthand("tower:k=1,rho=2,q=1").bundle().upper
        g = GuessingSource(dict(resolve_source(TABLE).bundle().surrogates())[surrogate])
        sigmas = GridSpec(5.0, 30.0, 64).sigmas()
        compose_samples(g, sigmas, [f.log_m(s) for s in sigmas])
        assert g.calls == 2 * len(sigmas)


@given(st.floats(min_value=0.5, max_value=2.5), st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=0.5, max_value=25.0))
@settings(max_examples=40, deadline=None)
def test_inversion_identity_property(a, c, sigma):
    src = SeriesUpperSource(expexp_spec(a, c))
    got = invert_modulus(src, src.log_m(sigma))
    assert abs(got - sigma) <= 1e-9 * max(1.0, sigma)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2),
       st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=1e-3, max_value=40.0))
@settings(max_examples=200, deadline=None)
def test_tower_guess_hits_property(k, q, rho, offset):
    src = parse_shorthand(f"tower:k={k},rho={rho!r},q={q}").bundle().upper
    sigma = src.sigma_floor + offset
    counted = GuessingSource(src)
    got = invert_modulus(counted, src.log_m(sigma))
    assert counted.calls == 2
    assert abs(got - sigma) <= INVERT_REL_TOL * max(1.0, sigma)


@given(st.integers(min_value=1, max_value=4), st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=1.01, max_value=5.82), st.floats(min_value=0.0, max_value=1.0))
@example(1, 1.0, 4.41796875, 0.84375)
@settings(max_examples=200, deadline=None)
def test_osc_guess_hits_property(p, lam, ratio, share):
    # rho/lam up to the entry's limit 3 + 2 sqrt(2) = 5.83, where the rule's slope
    # in log sigma nearly vanishes; sigma from just above the floor to 1e300.  The
    # result is within a stopping width of sigma unless y = log M(sigma) cannot
    # tell them apart: y's level-3 mantissa resolves a large value coarsely, and a
    # slope near zero widens that in sigma (up to ~2e-10 relative in 5,000 draws)
    src = parse_shorthand(f"osc:rho={lam * ratio!r},lam={lam!r},p={p},q=0").bundle().upper
    low = math.log(2 * src.sigma_floor)
    sigma = math.exp(low + share * (math.log(1e300) - low))
    y = src.log_m(sigma)
    counted = GuessingSource(src)
    got = invert_modulus(counted, y)
    assert counted.calls == 2
    assert abs(got - sigma) <= INVERT_REL_TOL * max(1.0, sigma) or src.log_m(got) == y


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=0.0, max_value=1.0), st.sampled_from(["upper", "lower"]))
@settings(max_examples=200, deadline=None)
def test_expexp_guess_hits_property(a, c, share, surrogate):
    # the upper guess is the closed form of the sum, which only term-by-term
    # windows (central index below ~6e4) carry to within a stopping width:
    # there sigma stays below c*e^(a*sigma) = 3e4
    top = 40.0 if surrogate == "lower" else math.log(3e4 / c) / a
    sigma = 1e-3 + share * (top - 1e-3)
    src = dict(parse_shorthand(f"expexp:a={a!r},c={c!r}").bundle().surrogates())[surrogate]
    counted = GuessingSource(src)
    got = invert_modulus(counted, src.log_m(sigma))
    assert counted.calls == 2
    assert abs(got - sigma) <= INVERT_REL_TOL * max(1.0, sigma)


_NEAR_POWERS = st.builds(lambda j, ulps: 2.0 ** j * (1.0 + ulps * 2.0 ** -52),
                         st.integers(1, 19), st.integers(-2, 2))


@given(st.sampled_from(["tower:k=3,rho=2,q=0", "tower:k=2,rho=1.5,q=1", "osc:rho=2,lam=1,p=2,q=0"]),
       st.sampled_from(["own", "hidden", "wrong"]),
       st.lists(st.one_of(st.floats(2.0, 1e6), _NEAR_POWERS), min_size=1, max_size=6, unique=True),
       st.floats(-11.0, math.log10(0.5)), st.sampled_from([1.0, -1.0]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_composition_is_history_free(shorthand, inverse, roots, log_rel, sign, rng):
    # composing increasing targets in sorted, reversed or shuffled order gives
    # each point's own invert_modulus call bit for bit: with the source's own
    # inverse, with it hidden (the cold search), and with one off by a relative
    # 1e-11 to 0.5 (a miss); roots include neighbours of powers of two
    source = parse_shorthand(shorthand).bundle().upper
    if inverse == "hidden":
        source = CountingSource(source)
    elif inverse == "wrong":
        rel = sign * 10.0 ** log_rel
        source = GuessingSource(source, lambda y, own=source.inverse: own(y) * (1.0 + rel))
    ys = []
    for root in sorted(roots):
        y = source.log_m(root)
        if not ys or compare(ys[-1], y) < 0:
            ys.append(y)
    shuffled = list(range(len(ys)))
    rng.shuffle(shuffled)
    for end in ("low", "mid", "high"):
        each = [invert_modulus(source, y, end=end) for y in ys]
        for order in (range(len(ys)), range(len(ys))[::-1], shuffled):
            composed = compose_samples(source, [float(i) for i in order], [ys[i] for i in order], end)
            assert {int(i): x for i, x in composed} == dict(enumerate(each))


class TestOscRule:
    def test_monotone_bound_enforced(self):
        from rittgrowth.errors import SpecFormatError
        with pytest.raises(SpecFormatError, match="too large for a monotone oscillating rule"):
            parse_shorthand("osc:rho=6,lam=1,p=2,q=0")  # ratio 6 > 3 + 2 sqrt(2)

    @pytest.mark.parametrize("q", [1, 2])
    def test_q_above_zero_refused(self, q):
        # the rule falls somewhere at q >= 1: near sigma = 21.6 at rho=2, lam=1, q=1
        from rittgrowth.errors import SpecFormatError
        with pytest.raises(SpecFormatError, match="needs p >= 1 and q = 0"):
            parse_shorthand(f"osc:rho=2,lam=1,p=1,q={q}")

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_sigma_not_finite_is_a_domain_error(self, sigma):
        with pytest.raises(DomainError):
            parse_shorthand("osc:rho=2,lam=1,p=2,q=0").bundle().upper.log_m(sigma)

    def test_rule_values(self):
        src = parse_shorthand("osc:rho=2,lam=1,p=2,q=0").bundle().upper
        sigma = 10.0
        v = (1.5 + 0.5 * math.sin(math.log(sigma))) * sigma
        assert to_real(src.log_m(sigma)) == pytest.approx(math.exp(v), rel=1e-12)

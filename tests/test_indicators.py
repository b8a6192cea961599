"""Ratio sequences, tail estimation, indicator recovery, detection."""

import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rittgrowth import growth as growth_mod
from rittgrowth import indicators as indicators_mod
from rittgrowth import theorems as theorems_mod
from rittgrowth.corpus import parse_shorthand, resolve_source
from rittgrowth.errors import (DetectionFailedError, DomainError, IndicatorUndefinedError,
                               NumericError)
from rittgrowth.growth import GridSpec, SourceBundle, SyntheticSource, sample_profile
from rittgrowth.indicators import (LIMINF, LIMSUP, WINDOW, IndicatorEstimate, RatioPoint,
                                   RatioSequence, detect_index_pair, detect_relative_index_pair,
                                   finite_nonzero, order_pair,
                                   profile_samples, ratio_sequence, relative_indicators,
                                   relative_samples, tail_estimate, type_pair, type_pairs,
                                   weak_type_pair)
from rittgrowth.levelindex import (ExtReal, from_real, log_iter, pow_scale, to_real,
                                   to_real_or_none)
from rittgrowth.series import expexp_spec
from rittgrowth.theorems import IndicatorWorkspace


def _upper_samples(shorthand, grid):
    return list(sample_profile(parse_shorthand(shorthand).bundle().upper, grid))


def _make_seq(sigmas, ratios, regressors=None):
    pts = tuple(RatioPoint(s, r, x) for s, r, x in
                zip(sigmas, ratios, regressors or [1.0 / s for s in sigmas]))
    return RatioSequence("order", 2, 0, None, pts, ())


class TestRatioSequence:
    def test_order_ratio_near_limit(self):
        # log^[2] of exp(e^sigma)-ish is sigma + o(1); dividing by sigma -> 1
        samples = _upper_samples("expexp:a=1,c=1", GridSpec(8.0, 12.0, 5))
        seq = ratio_sequence(samples, "order", 2, 0)
        at_ten = [p.ratio for p in seq.points if abs(p.sigma - 10.0) < 1e-9][0]
        assert at_ten == pytest.approx(1.0, abs=1e-6)

    def test_type_ratio(self):
        # log M / (e^sigma)^1 -> c = 3
        samples = _upper_samples("expexp:a=1,c=3", GridSpec(8.0, 12.0, 5))
        seq = ratio_sequence(samples, "type", 2, 0, aux_exponent=1.0)
        at_ten = [p.ratio for p in seq.points if abs(p.sigma - 10.0) < 1e-9][0]
        assert at_ten == pytest.approx(3.0, abs=1e-3)

    def test_leading_domain_violations_dropped(self):
        # q = 1 and the grid starts at sigma = 1 where log sigma = 0
        samples = _upper_samples("expexp:a=1,c=1", GridSpec(1.0, 9.0, 9))
        seq = ratio_sequence(samples, "order", 2, 1)
        assert 1.0 in seq.dropped
        assert all(p.sigma > 1.0 for p in seq.points)

    def test_all_dropped_is_error(self):
        samples = _upper_samples("expexp:a=1,c=1", GridSpec(0.5, 0.9, 4))
        with pytest.raises(DomainError):
            ratio_sequence(samples, "order", 2, 2)

    def test_type_needs_positive_exponent(self):
        samples = _upper_samples("expexp:a=1,c=1", GridSpec(5.0, 9.0, 5))
        with pytest.raises(IndicatorUndefinedError):
            ratio_sequence(samples, "type", 2, 0, aux_exponent=0.0)


class TestTailEstimate:
    def test_constant_sequence(self):
        seq = _make_seq(np.linspace(5, 30, 40), [1.0] * 40)
        est = tail_estimate(seq, LIMSUP)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.trend == pytest.approx(0.0, abs=1e-12)
        assert est.converged

    def test_oscillating_limsup_liminf(self):
        # 1.5 + 0.5 sin(log sigma) sampled log-uniformly over > 2 pi of phase
        sigmas = np.geomspace(3.0, 3.0 * math.exp(2.5 * 2 * math.pi), 500)
        ratios = [1.5 + 0.5 * math.sin(math.log(s)) for s in sigmas]
        seq = _make_seq(sigmas, ratios)
        up = tail_estimate(seq, LIMSUP)
        dn = tail_estimate(seq, LIMINF)
        assert up.value == pytest.approx(2.0, abs=1e-2)
        assert dn.value == pytest.approx(1.0, abs=1e-2)
        assert up.method == "window-extremum"
        assert up.direction_balance >= 0.2

    def test_direction_balance_is_a_float(self):
        # a plain float, never a numpy scalar; the oscillation above has rising and
        # falling steps, the drift below only rising ones
        sigmas = np.geomspace(3.0, 3.0 * math.exp(2.5 * 2 * math.pi), 500)
        for ratios in ([1.5 + 0.5 * math.sin(math.log(s)) for s in sigmas],
                       [s / math.log(s) for s in sigmas]):
            seq = _make_seq(sigmas, ratios)
            for mode in (LIMSUP, LIMINF):
                est = tail_estimate(seq, mode)
                assert type(est.direction_balance) is float
                assert type(seq.fit(len(seq.points)).balance) is float

    def test_bias_removal(self):
        # r = 2 + 5/sigma has limsup 2; the window extremum alone would not
        # reach 1e-3 accuracy on this range, the regression intercept does
        sigmas = np.linspace(5, 30, 200)
        seq = _make_seq(sigmas, [2.0 + 5.0 / s for s in sigmas])
        est = tail_estimate(seq, LIMSUP)
        assert est.method == "extrapolated"
        assert est.value == pytest.approx(2.0, abs=1e-9)

    def test_too_few_points(self):
        seq = _make_seq([1, 2, 3], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            tail_estimate(seq, LIMSUP)

    def test_drifting_sequence_flagged(self):
        sigmas = np.linspace(5, 30, 100)
        seq = _make_seq(sigmas, [s / math.log(s) for s in sigmas])
        est = tail_estimate(seq, LIMSUP)
        assert not est.converged
        assert est.direction_balance == 0.0


class TestOrderPair:
    def test_expexp_a2(self):
        rho, lam = order_pair(profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(),
                                              GridSpec(5.0, 30.0, 200)), 2, 0)
        assert rho.value == pytest.approx(2.0, abs=1e-3)
        assert lam.value == pytest.approx(2.0, abs=1e-3)
        assert rho.lo <= rho.value <= rho.hi

    def test_shift_property(self):
        # a finite nonzero order forces the (p+1, q+1) order to 1
        rho, _ = order_pair(profile_samples(parse_shorthand("expexp:a=1,c=1").bundle(),
                                            GridSpec(10.0, 200.0, 200, "log")), 3, 1)
        assert rho.value == pytest.approx(1.0, abs=5e-2)

    def test_oscillating_profile(self):
        grid = GridSpec(3.0, 3.0 * math.exp(6 * math.pi), 600, "log")
        rho, lam = order_pair(profile_samples(parse_shorthand("osc:rho=2,lam=1,p=2,q=0").bundle(),
                                              grid), 2, 0)
        assert rho.value == pytest.approx(2.0, abs=1e-2)
        assert lam.value == pytest.approx(1.0, abs=1e-2)

    def test_limsup_at_least_liminf(self):
        for sh in ("expexp:a=1,c=3", "tower:k=2,rho=1,q=0", "osc:rho=2,lam=1,p=2,q=0"):
            grid = (GridSpec(3.0, 3.0 * math.exp(6 * math.pi), 480, "log")
                    if sh.startswith("osc") else GridSpec(5.0, 30.0, 64))
            entry = parse_shorthand(sh)
            p, q = entry.index_pair
            rho, lam = order_pair(profile_samples(entry.bundle(), grid), p, q)
            assert rho.value >= lam.value - 1e-12


class TestTypePairs:
    def test_expexp_type(self):
        bundle = parse_shorthand("expexp:a=1,c=3").bundle()
        d, db = type_pair(profile_samples(bundle, GridSpec(5.0, 30.0, 200)), 2, 0, 1.0)
        assert d.value == pytest.approx(3.0, abs=1e-3)
        assert db.value == pytest.approx(3.0, abs=1e-3)

    def test_expexp_weak_type(self):
        bundle = parse_shorthand("expexp:a=1,c=1").bundle()
        tb, t = weak_type_pair(profile_samples(bundle, GridSpec(5.0, 30.0, 200)), 2, 0, 1.0)
        assert t.value == pytest.approx(1.0, abs=1e-3)
        assert tb.value == pytest.approx(1.0, abs=1e-3)

    def test_zero_order_is_undefined(self):
        bundle = parse_shorthand("expexp:a=1,c=1").bundle()
        with pytest.raises(IndicatorUndefinedError):
            type_pair(profile_samples(bundle, GridSpec(5.0, 30.0, 64)), 2, 0, 0.0)
        with pytest.raises(IndicatorUndefinedError):
            weak_type_pair(profile_samples(bundle, GridSpec(5.0, 30.0, 64)), 2, 0, math.inf)


class TestCoefficientScaling:
    def test_order_ratio_shift_bound(self):
        # scaling every norm by e^K moves log M by at most K, so order
        # estimates move by at most K / (window minimum of log^[q] sigma)
        K = 10.0
        grid = GridSpec(5.0, 30.0, 200)
        base = parse_shorthand("expexp:a=1,c=1").bundle()
        from rittgrowth.growth import SeriesLowerSource, SeriesUpperSource, SourceBundle
        spec = expexp_spec(1, 1)
        spec_scaled = replace(spec, log_norm=lambda n: spec.log_norm(n) + K,
                              log_norm_array=lambda ns: spec.log_norm_array(ns) + K)
        scaled = SourceBundle(SeriesUpperSource(spec_scaled), SeriesLowerSource(spec_scaled))
        r0, _ = order_pair(profile_samples(base, grid), 2, 0)
        r1, _ = order_pair(profile_samples(scaled, grid), 2, 0)
        window_min_sigma = 20.0
        assert abs(r1.value - r0.value) <= K / window_min_sigma


class TestRelative:
    def test_order_ratio_of_rates(self):
        rel = relative_indicators(profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(),
                                                  GridSpec(5.0, 30.0, 48)),
                                  parse_shorthand("expexp:a=1,c=1").bundle(), 0, 0)
        assert rel.rho.value == pytest.approx(2.0, abs=1e-2)
        assert rel.lam.value == pytest.approx(2.0, abs=1e-2)

    def test_relative_type(self):
        rel = relative_indicators(profile_samples(parse_shorthand("expexp:a=1,c=5").bundle(),
                                                  GridSpec(5.0, 30.0, 48)),
                                  parse_shorthand("expexp:a=1,c=2").bundle(), 0, 0)
        assert rel.rho.value == pytest.approx(1.0, abs=1e-2)
        assert rel.delta.value == pytest.approx(2.5, abs=1e-2)
        assert rel.delta_bar.value == pytest.approx(2.5, abs=1e-2)
        assert rel.tau.value == pytest.approx(2.5, abs=1e-2)

    def test_self_relative_is_one(self):
        b = parse_shorthand("expexp:a=1,c=3").bundle()
        rel = relative_indicators(profile_samples(b, GridSpec(5.0, 30.0, 48)), b, 0, 0)
        assert rel.rho.value == pytest.approx(1.0, abs=1e-3)
        assert rel.lam.value == pytest.approx(1.0, abs=1e-3)

    def test_types_gated_by_degenerate_order(self):
        # f grows at a higher tower depth: relative order diverges, types skipped
        rel = relative_indicators(profile_samples(parse_shorthand("tower:k=3,rho=1,q=0").bundle(),
                                                  GridSpec(5.0, 30.0, 48)),
                                  parse_shorthand("tower:k=2,rho=1,q=0").bundle(), 0, 0)
        assert rel.rho.value > 1e3
        assert rel.delta is None
        assert any("skipped" in n for n in rel.notes)


class RecordingSource:
    """Wraps a source and counts its log_m calls at each sigma."""

    def __init__(self, source):
        self.source = source
        self.sigma_floor = source.sigma_floor
        self.calls = Counter()

    def log_m(self, sigma):
        self.calls[sigma] += 1
        return self.source.log_m(sigma)

    def describe(self):
        return self.source.describe()


def _reference(samples, kind, p, q, mode, label, aux=None):
    """One indicator as the sum of its parts: a ratio sequence per pairing and mode."""
    ests = [tail_estimate(ratio_sequence(pts, kind, p, q, aux, samples.value_depth), mode,
                          WINDOW, samples.prefix + label) for _name, pts in samples.whole().sets]
    values = [e.value for e in ests]
    return replace(ests[0], lo=min(values), hi=max(values))


def _sampled_sigmas(grid, window=WINDOW):
    """Grid index 0 and the last max(16, ceil(window * n)) grid points, each once."""
    sigmas = grid.sigmas()
    return Counter(sigmas[:1] + sigmas[-max(16, math.ceil(window * grid.count)):])


class TestSharedRatioLayer:
    """Each curve value, ratio sequence and denominator is computed once."""

    def test_f_is_sampled_once_per_grid_point(self):
        f = parse_shorthand("expexp:a=2,c=1").bundle()
        upper, lower = RecordingSource(f.upper), RecordingSource(f.lower)
        grid = GridSpec(5.0, 30.0, 24)
        samples = relative_samples(profile_samples(SourceBundle(upper, lower), grid),
                                   parse_shorthand("expexp:a=1,c=3").bundle())
        assert [name for name, _ in samples.sets] == ["center", "low", "high"]
        assert upper.calls == lower.calls == _sampled_sigmas(grid)

    def test_f_is_sampled_once_across_partners(self, monkeypatch):
        f_ref = "expexp:a=2,c=1"
        recorded = []

        def resolve(ref):
            entry = resolve_source(ref)
            if ref != f_ref:
                return entry
            bundle = entry.bundle()
            recorded.append(SourceBundle(RecordingSource(bundle.upper),
                                         RecordingSource(bundle.lower)))
            return replace(entry, _bundle=recorded[-1])

        monkeypatch.setattr(theorems_mod, "resolve_source", resolve)
        ws = IndicatorWorkspace()
        grid = GridSpec(5.0, 30.0, 24)
        first = ws.rel_set(f_ref, "expexp:a=1,c=3", 0, 0, grid)
        second = ws.rel_set(f_ref, "expexp:a=1,c=1", 0, 0, grid)
        assert first is not second
        bundle, = recorded
        assert bundle.upper.calls == bundle.lower.calls == _sampled_sigmas(grid)

    @pytest.mark.parametrize("f_sh,g_sh,reused", [
        ("expexp:a=2,c=1", "tower:k=2,rho=1,q=0", "high"),
        ("tower:k=2,rho=1,q=0", "expexp:a=1,c=1", "low"),
    ])
    def test_mixed_pair_inverts_two_pairings(self, f_sh, g_sh, reused, monkeypatch):
        composed = []
        compose = indicators_mod.compose_samples

        def counting(g_source, sigmas, f_values, end="mid"):
            composed.append(g_source)
            return compose(g_source, sigmas, f_values, end)

        monkeypatch.setattr(indicators_mod, "compose_samples", counting)
        samples = relative_samples(profile_samples(parse_shorthand(f_sh).bundle(),
                                                   GridSpec(5.0, 25.0, 32)),
                                   parse_shorthand(g_sh).bundle())
        sets = dict(samples.sets)
        assert list(sets) == ["center", "low", "high"]
        assert len(composed) == 2
        assert sets[reused] is sets["center"]

    @pytest.mark.parametrize("make,p,q,aux", [
        (lambda: profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(),
                                 GridSpec(5.0, 30.0, 64)), 2, 0, 2.0),
        # sigma <= 1 leaves the domain of log sigma: the leading points drop
        (lambda: profile_samples(parse_shorthand("expexp:a=1,c=3").bundle(),
                                 GridSpec(0.5, 30.0, 64)), 2, 1, 1.0),
        (lambda: relative_samples(profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(),
                                                  GridSpec(5.0, 25.0, 32)),
                                  parse_shorthand("expexp:a=1,c=3").bundle()), 0, 0, 2.0),
        (lambda: relative_samples(profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(),
                                                  GridSpec(1.0, 30.0, 64)),
                                  parse_shorthand("expexp:a=1,c=3").bundle()), 1, 1, 1.0),
        (lambda: relative_samples(profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(),
                                                  GridSpec(1.0, 30.0, 64)),
                                  parse_shorthand("expexp:a=1,c=3").bundle()), 1, 2, 1.0),
        (lambda: relative_samples(profile_samples(parse_shorthand("tower:k=2,rho=1,q=0").bundle(),
                                                  GridSpec(5.0, 25.0, 32)),
                                  parse_shorthand("expexp:a=1,c=1").bundle()), 0, 0, 1.0),
    ])
    def test_pairs_match_per_pairing_reference(self, make, p, q, aux):
        samples = make()
        got = (order_pair(samples, p, q) + type_pair(samples, p, q, aux)
               + weak_type_pair(samples, p, q, aux))
        want = (_reference(samples, "order", p, q, LIMSUP, "order"),
                _reference(samples, "order", p, q, LIMINF, "lower_order"),
                _reference(samples, "type", p, q, LIMSUP, "type", aux),
                _reference(samples, "type", p, q, LIMINF, "lower_type", aux),
                _reference(samples, "type", p, q, LIMSUP, "weak_type_tau_bar", aux),
                _reference(samples, "type", p, q, LIMINF, "weak_type_tau", aux))
        assert [repr(e) for e in got] == [repr(e) for e in want]
        if q > 0:
            assert got[0].n_dropped > 0


class TestTypeSequences:
    """A type and a weak type of equal exponents share one ratio sequence per pairing."""

    @staticmethod
    def _count_type_sequences(monkeypatch):
        built = []
        build = indicators_mod._ratio_sequences

        def counting(sets, kind, *args):
            for seq in build(sets, kind, *args):
                built.append(kind)
                yield seq

        monkeypatch.setattr(indicators_mod, "_ratio_sequences", counting)
        return built

    def test_relative_set_builds_type_sequences_once(self, monkeypatch):
        f = profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(), GridSpec(5.0, 30.0, 48))
        g = parse_shorthand("expexp:a=1,c=3").bundle()
        samples = relative_samples(f, g)
        rho, lam = order_pair(samples, 0, 0)
        assert rho.value == lam.value
        built = self._count_type_sequences(monkeypatch)
        rel = relative_indicators(f, g, 0, 0)
        assert built.count("type") == len(samples.sets) == 3
        want = type_pair(samples, 0, 0, rho.value) + weak_type_pair(samples, 0, 0, lam.value)
        assert repr((rel.delta, rel.delta_bar, rel.tau_bar, rel.tau)) == repr(want)

    def test_unequal_exponents_build_both(self, monkeypatch):
        samples = profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(),
                                  GridSpec(5.0, 30.0, 64))
        built = self._count_type_sequences(monkeypatch)
        got = type_pairs(samples, 2, 0, 2.0, 1.5)
        assert built.count("type") == 2 * len(samples.sets)
        assert repr(got) == repr((type_pair(samples, 2, 0, 2.0), weak_type_pair(samples, 2, 0, 1.5)))
        assert type_pairs(samples, 2, 0, None, 1.5)[0] == (None, None)


class TestRelativeChecksTheProfile:
    """f enters the relative layer through sample_profile and its checks."""

    def test_non_monotone_f_is_refused(self):
        # log M_f = sigma + 8 sin(sigma) falls on parts of the grid
        wave = SyntheticSource("wave", {}, lambda s: from_real(s + 8.0 * math.sin(s)))
        g = parse_shorthand("tower:k=1,rho=1,q=0").bundle()
        with pytest.raises(NumericError, match="profile not strictly increasing"):
            detect_relative_index_pair(SourceBundle(wave), g, 0, grid=GridSpec(1.0, 20.0, 64))


class TestDetection:
    def test_expexp_is_two_zero(self):
        det = detect_index_pair(parse_shorthand("expexp:a=1,c=1").bundle(), 4, 4)
        assert (det.pair.p, det.pair.q) == (2, 0)
        assert det.order.value == pytest.approx(1.0, abs=1e-3)
        scanned = [(p, q) for p, q, _ in det.evidence]
        assert scanned == [(1, 1), (1, 0), (2, 1), (2, 0)]

    def test_power_growth_is_one_one(self):
        # M = sigma^2: order at (1,1) is 2, above the diagonal threshold
        det = detect_index_pair(parse_shorthand("tower:k=1,rho=2,q=1").bundle(), 4, 4)
        assert (det.pair.p, det.pair.q) == (1, 1)
        assert det.order.value == pytest.approx(2.0, abs=1e-3)

    def test_expexp_a2_order_two(self):
        det = detect_index_pair(parse_shorthand("expexp:a=2,c=1").bundle(), 4, 4)
        assert (det.pair.p, det.pair.q) == (2, 0)
        assert det.order.value == pytest.approx(2.0, abs=1e-3)

    def test_oscillating_profile_detected(self):
        grid = GridSpec(3.0, 3.0 * math.exp(6 * math.pi), 480, "log")
        det = detect_index_pair(parse_shorthand("osc:rho=2,lam=1,p=2,q=0").bundle(), 4, 4, grid)
        assert (det.pair.p, det.pair.q) == (2, 0)

    def test_detection_failure_carries_evidence(self):
        with pytest.raises(DetectionFailedError) as exc:
            detect_index_pair(parse_shorthand("tower:k=3,rho=1,q=0").bundle(), 2, 2)
        scanned = [(p, q) for p, q, _ in exc.value.evidence]
        assert scanned == [(1, 1), (1, 0), (2, 1), (2, 0)]

    def test_relative_pair(self):
        det = detect_relative_index_pair(parse_shorthand("expexp:a=2,c=1").bundle(),
                                         parse_shorthand("expexp:a=1,c=1").bundle(),
                                         2, 3, 3)
        assert (det.pair.p, det.pair.q) == (0, 0)
        assert det.order.value == pytest.approx(2.0, abs=1e-2)


# ---------------------------------------------------------------------------
# Sampled tails: index 0 and the last W grid points stand for the whole grid.
# ---------------------------------------------------------------------------

def _outcome(estimate):
    """estimate()'s result, or the type and message of the error it raises."""
    try:
        return estimate()
    except (DomainError, IndicatorUndefinedError, NumericError, ValueError) as exc:
        return type(exc), str(exc)


def _indicator_set(samples, p, q, window, exponents=None):
    """Order pair at (p, q), then type and weak-type pairs wherever their exponent, the
    order pair's value or the one given, is usable."""
    rho, lam = order_pair(samples, p, q, window)
    exps = [v if finite_nonzero(v) else None
            for v in (exponents or (rho.value, lam.value))]
    return (rho, lam) + tuple(e for pair in type_pairs(samples, p, q, *exps, window)
                              for e in pair if e is not None)


def _whole_and_tail(make_f, window, p, q, g_bundle=None):
    """The indicator set at (p, q) from whole-grid samples and from sampled tails; the
    types of both take the whole grid's orders as exponents."""
    def estimates(share, exponents=None):
        samples = make_f(share)
        if g_bundle is not None:
            samples = relative_samples(samples, g_bundle)
        return _indicator_set(samples, p, q, window, exponents)
    whole = _outcome(lambda: estimates(1.0))
    exponents = (whole[0].value, whole[1].value) if isinstance(whole[0], IndicatorEstimate) else None
    return whole, _outcome(lambda: estimates(window, exponents))


class TestSampledTail:
    """Profiles and relative curves hold grid index 0 and the tail window alone."""

    def test_composition_inverts_index_zero_and_the_tail(self, monkeypatch):
        grid = GridSpec(5.0, 30.0, 64)
        tail = max(16, math.ceil(WINDOW * grid.count))
        inverted = Counter()
        invert = growth_mod.invert_modulus

        def counting(source, y, *, end="mid"):
            inverted[source.describe()["surrogate"], end] += 1
            return invert(source, y, end=end)

        monkeypatch.setattr(growth_mod, "invert_modulus", counting)
        samples = relative_samples(profile_samples(parse_shorthand("expexp:a=2,c=1").bundle(), grid),
                                   parse_shorthand("expexp:a=1,c=3").bundle())
        assert inverted == {("upper", "mid"): 1 + tail, ("upper", "low"): 1 + tail,
                            ("lower", "high"): 1 + tail}
        assert [len(points) for _name, points in samples.sets] == [1 + tail] * 3

    def test_leading_drop_reads_the_whole_grid_once(self):
        # sigma <= 1 leaves log sigma's domain: index 0 drops, so the estimate
        # counts its drops over the whole grid, sampled once for any (p, q)
        f = parse_shorthand("expexp:a=1,c=3").bundle()
        upper, lower = RecordingSource(f.upper), RecordingSource(f.lower)
        grid = GridSpec(0.5, 30.0, 64)
        samples = profile_samples(SourceBundle(upper, lower), grid)
        tail = profile_samples(f, grid)
        whole = profile_samples(f, grid, 1.0)
        got = _indicator_set(samples, 2, 1, WINDOW)
        assert repr(got) == repr(_indicator_set(whole, 2, 1, WINDOW))
        assert got[0].n_dropped == 2 and got[0].n_points == math.ceil(WINDOW * 62)
        _indicator_set(samples, 3, 1, WINDOW)
        assert upper.calls == lower.calls == _sampled_sigmas(grid) + Counter(grid.sigmas())
        rel = [_indicator_set(relative_samples(s, parse_shorthand("expexp:a=1,c=1").bundle()),
                              1, 1, WINDOW) for s in (tail, whole)]
        assert (rel[0][0].n_points, rel[0][0].n_dropped) == (rel[1][0].n_points, 2)

    def test_monotonicity_is_checked_along_the_points_sampled(self):
        # index 0 is checked against the tail's first point; a dip strictly
        # between them is not evaluated, so only the whole grid sees it
        grid = GridSpec(1.0, 20.0, 64)
        start = grid.sigmas()[-max(16, math.ceil(WINDOW * grid.count))]
        high_start = SyntheticSource("step", {}, lambda s: from_real(s + 100.0 * (s == 1.0)))
        dip = SyntheticSource("dip", {}, lambda s: from_real(s - 5.0 * (3.0 < s < 4.0)))
        with pytest.raises(NumericError, match=f"between sigma=1.0 and sigma={start}$"):
            profile_samples(SourceBundle(high_start), grid)
        assert len(profile_samples(SourceBundle(dip), grid).sets[0][1]) == 27
        with pytest.raises(NumericError, match="profile not strictly increasing"):
            profile_samples(SourceBundle(dip), grid, 1.0)

    @pytest.mark.parametrize("window", [WINDOW, 1.0])
    def test_all_dropped_message_counts_the_grid(self, window):
        samples = profile_samples(parse_shorthand("expexp:a=1,c=1").bundle(),
                                  GridSpec(0.5, 0.95, 64), window)
        with pytest.raises(DomainError, match="^all 64 grid points violate the iterated-log "
                                              "domain for kind=order, p=2, q=2$"):
            order_pair(samples, 2, 2)

    def test_a_wider_estimate_window_reads_the_whole_grid(self):
        bundle = parse_shorthand("expexp:a=2,c=1").bundle()
        grid = GridSpec(5.0, 30.0, 64)
        got = order_pair(profile_samples(bundle, grid, 0.1), 2, 0, 0.7)
        assert repr(got) == repr(order_pair(profile_samples(bundle, grid, 1.0), 2, 0, 0.7))
        assert got[0].n_points == math.ceil(0.7 * 64)


_COUNTS = st.integers(min_value=8, max_value=600)
_SHARES = st.floats(min_value=1e-3, max_value=1.0)
_INDICES = st.tuples(st.integers(0, 3), st.integers(0, 2))
_OSC_SPAN = math.exp(6 * math.pi)  # three whole periods of sin(log sigma)


@st.composite
def _profiles(draw):
    """(shorthand, grid) for an expexp, tower or osc profile."""
    n = draw(_COUNTS)
    family = draw(st.sampled_from(["expexp", "tower", "osc"]))
    if family == "expexp":
        lo = draw(st.floats(0.5, 6.0))
        a, c = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 4.0))
        return f"expexp:a={a!r},c={c!r}", GridSpec(lo, lo + draw(st.floats(5.0, 24.0)), n)
    lo = draw(st.floats(2.0, 6.0))
    if family == "tower":
        k, rho, q = draw(st.integers(1, 3)), draw(st.floats(0.5, 3.0)), draw(st.integers(0, 1))
        return f"tower:k={k},rho={rho!r},q={q}", GridSpec(lo, lo * 1e4, n, "log")
    lam, ratio = draw(st.floats(0.5, 2.0)), draw(st.floats(1.1, 3.0))
    return (f"osc:rho={lam * ratio!r},lam={lam!r},p={draw(st.integers(1, 2))},q=0",
            GridSpec(lo, lo * _OSC_SPAN, n, "log"))


@st.composite
def _relative_pairs(draw):
    """(f, g, grid) for the pairings the benchmark and the batch compose, and mixed ones."""
    n = draw(_COUNTS)
    kind = draw(st.sampled_from(["expexp", "tower", "osc-tower", "tower-expexp", "tower-osc"]))
    rho_f, rho_g = draw(st.floats(1.0, 3.0)), draw(st.floats(1.0, 3.0))
    if kind == "expexp":
        lo = draw(st.floats(0.5, 6.0))
        return (f"expexp:a={rho_f!r},c={draw(st.floats(0.5, 4.0))!r}",
                f"expexp:a={rho_g / 3!r},c={draw(st.floats(0.5, 4.0))!r}",
                GridSpec(lo, lo + draw(st.floats(5.0, 24.0)), n))
    if kind == "tower-expexp":
        return "tower:k=2,rho=1,q=0", "expexp:a=1,c=1", GridSpec(5.0, draw(st.floats(10.0, 25.0)), n)
    k, lo = draw(st.integers(2, 4)), draw(st.floats(3.0, 6.0))
    grid = GridSpec(lo, lo * _OSC_SPAN, n, "log")
    osc = f"osc:rho={rho_f!r},lam={rho_f / 1.5!r},p={k},q=0"
    f = osc if kind == "osc-tower" else f"tower:k={k},rho={rho_f!r},q=0"
    g = (f"osc:rho={rho_g!r},lam={rho_g / 1.5!r},p={k},q=0" if kind == "tower-osc"
         else f"tower:k={k},rho={rho_g!r},q=0")
    return f, g, grid


@given(_profiles(), _SHARES, _INDICES)
@settings(max_examples=60, deadline=None)
def test_sampled_profile_estimates_match_the_whole_grid(profile, window, pq):
    shorthand, grid = profile
    bundle = parse_shorthand(shorthand).bundle()
    whole, tail = _whole_and_tail(lambda share: profile_samples(bundle, grid, share), window, *pq)
    assert repr(tail) == repr(whole)


@given(_relative_pairs(), _SHARES, _INDICES)
@example(("tower:k=2,rho=1,q=0", "expexp:a=1,c=1", GridSpec(5.0, 12.25, 264)), 0.0625, (0, 0))
@settings(max_examples=25, deadline=None)
def test_sampled_relative_estimates_match_the_whole_grid(pair, window, pq):
    # each composed value is a function of (g, f's value) alone, so the tail's
    # points are the whole grid's, bit for bit, and so are the estimates
    f_id, g_id, grid = pair
    f, g = parse_shorthand(f_id).bundle(), parse_shorthand(g_id).bundle()
    whole, tail = _whole_and_tail(lambda share: profile_samples(f, grid, share), window, *pq,
                                  g_bundle=g)
    assert repr(tail) == repr(whole)


def _polyfit_window(rs, xs):
    """The window statistics as np.polyfit gives them: (trend, intercept, resid_rms), the
    last two None unless every ratio is finite.  The residual is scaled before squaring,
    so that ratios up to 1e300 keep a finite rms."""
    finite = np.isfinite(rs)
    trend = (float(np.polyfit(np.arange(rs.size, dtype=float)[finite], rs[finite], 1)[0])
             if finite.sum() >= 2 else 0.0)
    if not finite.all():
        return trend, None, None
    if float(xs.max() - xs.min()) > 1e-13 * max(abs(float(xs.max())), 1e-300):
        xs = np.ldexp(xs, -math.frexp(float(np.abs(xs).max()))[1])
        slope, intercept = np.polyfit(xs, rs, 1)
        resid = rs - (intercept + slope * xs)
    else:
        intercept = float(rs.mean())
        resid = rs - intercept
    scale = float(np.abs(resid).max()) or 1.0
    return trend, float(intercept), scale * math.sqrt(float(np.mean((resid / scale) ** 2)))


@st.composite
def _windows(draw):
    """(ratios, regressors) of one window: a line in the regressor plus a wave, at any
    magnitude up to 1e300, on normal or subnormal regressors (constant ones included),
    with a few infinite ratios in some."""
    n = draw(st.integers(8, 600))
    sigmas = np.geomspace(1.0, draw(st.floats(1.01, 1e4)), n)
    xs = draw(st.sampled_from([1.0, 1e-310, 0.0])) / sigmas
    if draw(st.booleans()):
        xs = np.full(n, xs[0])
    mag = 10.0 ** draw(st.integers(-300, 300))
    wave = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 1.0]))
    rs = mag * (draw(st.floats(-3.0, 3.0)) + draw(st.floats(-3.0, 3.0)) * sigmas[0] / sigmas
                + wave * np.sin(np.arange(n) * draw(st.floats(0.1, 3.0))))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        rs[i] = draw(st.sampled_from([math.inf, -math.inf]))
    return rs, xs


def _near(got, want, scale, rel=1e-9):
    return abs(got - want) <= rel * max(abs(want), scale)


@given(_windows())
@settings(max_examples=300, deadline=None)
def test_window_fit_matches_polyfit(window):
    # the closed-form fit agrees with np.polyfit within 1e-9 of the window's scale: a
    # change of max|r| across the window for the trend, max|r| for the intercept
    rs, xs = window
    seq = RatioSequence("order", 2, 0, None, tuple(RatioPoint(float(i), float(r), float(x))
                                                   for i, (r, x) in enumerate(zip(rs, xs))), ())
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # polyfit may call its scaled columns ill-conditioned
        trend, intercept, resid_rms = _polyfit_window(rs, xs)
    fit = seq.fit(rs.size)
    finite = rs[np.isfinite(rs)]
    scale = float(np.abs(finite).max()) if finite.size else 0.0
    assert _near(fit.trend, trend, scale / rs.size)
    assert (fit.intercept is None) == (intercept is None)
    if intercept is not None:
        assert _near(fit.intercept, intercept, scale)
        assert _near(fit.resid_rms, resid_rms, scale)
    for mode in (LIMSUP, LIMINF):
        est = tail_estimate(seq, mode, 1.0)
        assert est.direction_balance == fit.balance
        assert est.value == (rs.max() if mode == LIMSUP else rs.min()) or \
            est.method == "extrapolated"
        if intercept is None:
            assert est.method == "window-extremum"
            continue
        threshold = 1e-3 * max(1.0, abs(intercept))
        if not _near(resid_rms, threshold, 0.0):
            assert est.method == ("extrapolated" if resid_rms <= threshold
                                  else "window-extremum")
        drift, bound = abs(trend) * rs.size, 0.05 * max(1.0, abs(est.value))
        if math.isfinite(est.value) and not _near(drift, bound, 0.0):
            assert est.converged == (drift <= bound)


def _lstsq_window(rs, xs):
    """(trend, intercept, resid_rms) by np.linalg.lstsq on the columns [1, t] and [1, x],
    x scaled by a power of two; the last two None unless every ratio is finite."""
    def line(cols, ys):
        a = np.column_stack([np.ones(ys.size), cols])
        return np.linalg.lstsq(a, ys, rcond=None)[0], a

    finite = np.isfinite(rs)
    trend = (float(line(np.flatnonzero(finite).astype(float), rs[finite])[0][1])
             if finite.sum() >= 2 else 0.0)
    if not finite.all():
        return trend, None, None
    if float(xs.max() - xs.min()) > 1e-13 * max(abs(float(xs.max())), 1e-300):
        coef, a = line(np.ldexp(xs, -math.frexp(float(np.abs(xs).max()))[1]), rs)
    else:
        coef, a = line(np.zeros(rs.size), rs)
    resid = rs - a @ coef
    scale = float(np.abs(resid).max()) or 1.0
    return trend, float(coef[0]), scale * math.sqrt(float(np.mean((resid / scale) ** 2)))


@given(_windows())
@settings(max_examples=300, deadline=None)
def test_window_fit_matches_lstsq(window):
    # the lists' fit agrees with an SVD least-squares solve within 1e-9 of the window's
    # scale, as with np.polyfit above
    rs, xs = window
    seq = RatioSequence("order", 2, 0, None, tuple(RatioPoint(float(i), float(r), float(x))
                                                   for i, (r, x) in enumerate(zip(rs, xs))), ())
    with np.errstate(all="ignore"):
        trend, intercept, resid_rms = _lstsq_window(rs, xs)
    fit = seq.fit(rs.size)
    finite = rs[np.isfinite(rs)]
    scale = float(np.abs(finite).max()) if finite.size else 0.0
    assert _near(fit.trend, trend, scale / rs.size)
    assert (fit.intercept is None) == (intercept is None)
    if intercept is not None:
        assert _near(fit.intercept, intercept, scale)
        assert _near(fit.resid_rms, resid_rms, scale)


@given(_windows(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_window_intercept_does_not_depend_on_point_order(window, rnd):
    # every sum is an fsum: the same points in any order give the same line, bit for bit
    rs, xs = window
    points = [RatioPoint(float(i), float(r), float(x)) for i, (r, x) in enumerate(zip(rs, xs))]
    shuffled = rnd.sample(points, len(points))

    def bits(fit):
        return [None if v is None else v.hex()
                for v in (fit.intercept, fit.resid_rms, fit.high, fit.low)]

    assert bits(indicators_mod._fit_window(shuffled)) == bits(indicators_mod._fit_window(points))


def _level_index_denominator(sigma, kind, q, rho):
    """A denominator as level-index arithmetic builds it, None off its domain."""
    try:
        if kind == "order":
            den = log_iter(from_real(sigma), q)
            return None if den.level == 0 and den.mantissa <= 0.0 else den
        return pow_scale(log_iter(from_real(sigma), q - 1), rho)
    except DomainError:
        return None


def _log_value(x):
    """log of a positive ExtReal as a float, -inf at 0."""
    return -math.inf if x == ExtReal(0, 0.0) else to_real(log_iter(x, 1))


@given(st.floats(-5.0, 1e9), st.integers(0, 4), st.floats(0.0, 50.0, exclude_min=True),
       st.sampled_from(["order", "type"]))
@settings(max_examples=1000, deadline=None)
def test_denominator_matches_level_index(sigma, q, rho, kind):
    # Values and regressors agree within 1e-13 relative to max(1, |log den|):
    # e^L carries the rounding of L times |L|, and level-index carries more.
    want = _level_index_denominator(sigma, kind, q, rho)
    got = indicators_mod._denominator(sigma, kind, q if kind == "order" else q - 1,
                                      rho if kind == "type" else None)
    assert (got is None) == (want is None)
    if want is None:
        return
    den, regressor = got
    log_want, log_got = _log_value(want), _log_value(den)
    tol = 1e-13 * max(1.0, abs(log_want))
    assert log_got == log_want or abs(log_got - log_want) <= tol
    value = to_real_or_none(want)
    want_regressor = 1.0 / value if value is not None and value > 0 else 0.0
    assert regressor == want_regressor or abs(regressor / want_regressor - 1.0) <= tol


def test_denominator_exponent_beyond_the_float_range():
    # aux * log(base) overflows a float: a base above 1 gives a level-index tower,
    # a base below 1 a power that vanishes below every float, with no ratio
    for sigma, depth in ((1e5, 0), (10.0, -1)):
        want = _level_index_denominator(sigma, "type", depth + 1, 1e308)
        den, regressor = indicators_mod._denominator(sigma, "type", depth, 1e308)
        assert (den.level, regressor) == (want.level, 0.0)
        assert den.mantissa == pytest.approx(want.mantissa, rel=1e-13)
    assert _level_index_denominator(0.1, "type", 1, 1e308) is None
    assert indicators_mod._denominator(0.1, "type", 0, 1e308) is None

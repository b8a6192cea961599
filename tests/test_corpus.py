"""Corpus families: analytic tables and estimator agreement."""

import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from rittgrowth import corpus as corpus_mod
from rittgrowth.corpus import (analytic_relative, default_entries, instantiate,
                               parse_shorthand, resolve_source, series_spec)
from rittgrowth.errors import SpecFormatError
from rittgrowth.growth import GridSpec
from rittgrowth.indicators import order_pair, profile_samples, relative_indicators, type_pair
from rittgrowth.levelindex import from_real


def entry_grid(entry, shifted=False, periods=3.0):
    """Grid suited to the entry: log-uniform whole periods for oscillating
    rules, a long log grid for slow index-shift ratios, [5,30] otherwise."""
    if entry.family == "osc_profile":
        hi = 1e12 if shifted else 3.0 * math.exp(periods * 2 * math.pi)
        return GridSpec(3.0, hi, 480, "log")
    if shifted:
        if entry.family == "expexp":
            return GridSpec(10.0, min(200.0, 600.0 / entry.params["a"]), 200, "log")
        return GridSpec(10.0, 1e12, 300, "log")
    return GridSpec(5.0, 30.0, 200)


class TestRegistry:
    def test_instantiate_expexp(self):
        entry = instantiate("expexp", {"a": 2, "c": 1})
        assert entry.regular
        assert entry.index_pair == (2, 0)
        assert entry.analytic_value("order", 2, 0) == 2

    def test_every_analytic_value_has_a_note(self):
        for entry in default_entries():
            for (kind, p, q), av in entry.analytic.items():
                assert math.isfinite(av.value)
                assert av.note, f"missing derivation note for {entry.id} {kind}({p},{q})"
                assert av.tolerance > 0

    def test_unknown_family(self):
        with pytest.raises(SpecFormatError, match="unknown corpus family 'nope'"):
            instantiate("nope", {})
        with pytest.raises(SpecFormatError, match="unknown corpus family 'nope'"):
            resolve_source({"family": "nope"})

    def test_shorthand_roundtrip(self):
        entry = parse_shorthand("tower:k=2,rho=1,q=0")
        assert entry.params == {"k": 2, "rho": 1.0, "q": 0}
        # the 'lambda' alias is one rule for shorthand and JSON alike
        assert parse_shorthand("osc:rho=2,lambda=1,p=2,q=0").id == "osc:rho=2,lam=1,p=2,q=0"

    def test_json_doc(self):
        entry = resolve_source({"family": "osc_profile", "rho": 2, "lambda": 1, "p": 2, "q": 0})
        assert entry.family == "osc_profile"
        assert not entry.regular
        assert resolve_source({"family": "expexp", "a": 1, "c": 3}).params == {"a": 1.0, "c": 3.0}
        table = {"family": "table", "lambda": [1, 2], "log_norm": [0, -1]}
        assert resolve_source(table).bundle().upper.spec.n_limit == 2
        assert series_spec(table).n_limit == 2

    def test_bad_shorthand(self):
        with pytest.raises(SpecFormatError):
            parse_shorthand("expexp a=1")
        with pytest.raises(SpecFormatError):
            parse_shorthand("expexp:a")
        # JSON and shorthand share the schema: unknown, missing and
        # unconvertible fields are rejected in both
        for bad, message in (("expexp:a=1,c=1,bogus=2", r"unknown fields .*\['bogus'\]"),
                             ({"family": "expexp", "a": 1, "c": 1, "bogus": 2},
                              r"unknown fields .*\['bogus'\]"),
                             ("expexp:a=1", "missing field 'c'"),
                             ({"family": "expexp", "a": 1}, "missing field 'c'"),
                             ("tower:k=two,rho=1,q=0", "bad field 'k'"),
                             ("table:lam=1,log_norm=0", "bad field 'lam'"),
                             ({"family": "osc", "rho": 2, "lam": 1, "lambda": 1, "p": 2, "q": 0},
                              "'lam' given twice"),
                             ({"family": "tower", "k": 2.7, "rho": 1, "q": 0.9}, "bad field 'k'"),
                             ({"family": "tower", "k": True, "rho": 1, "q": 0}, "bad field 'k'"),
                             ({"family": "expexp", "a": True, "c": 1}, "bad field 'a'"),
                             ({"family": "table", "lam": [True, 2, 3], "log_norm": [0, -1, -2]},
                              "bad field 'lam'"),
                             ("expexp:a=1,a=2,c=1", "'a' given twice"),
                             ("expexp:a=inf,c=1", "finite a > 0"),
                             ("expexp:a=1,c=nan", "finite a > 0"),
                             ({"family": "expexp", "a": 1, "c": float("inf")}, "finite a > 0"),
                             ("tower:k=2,rho=nan,q=0", "finite rho > 0"),
                             ("tower:k=2,rho=inf,q=0", "finite rho > 0")):
            with pytest.raises(SpecFormatError, match=message):
                resolve_source(bad)


class TestAnalyticRelative:
    def test_expexp_order(self):
        f = parse_shorthand("expexp:a=2,c=1")
        g = parse_shorthand("expexp:a=1,c=1")
        assert analytic_relative(f, g, "relative_order", 0, 0) == 2.0

    def test_expexp_type(self):
        f = parse_shorthand("expexp:a=1,c=5")
        g = parse_shorthand("expexp:a=1,c=2")
        assert analytic_relative(f, g, "relative_type", 0, 0) == pytest.approx(2.5)

    def test_tower_pair(self):
        f = parse_shorthand("tower:k=2,rho=2,q=0")
        g = parse_shorthand("tower:k=2,rho=1,q=0")
        assert analytic_relative(f, g, "relative_order", 0, 0) == 2.0
        assert analytic_relative(f, g, "relative_type", 0, 0) == 1.0

    def test_no_closed_form(self):
        f = parse_shorthand("osc:rho=2,lam=1,p=2,q=0")
        g = parse_shorthand("tower:k=2,rho=1,q=0")
        assert analytic_relative(f, g, "relative_order", 0, 0) is None


class TestEstimatorAgreement:
    @pytest.mark.parametrize("entry_id", [e.id for e in default_entries()])
    def test_every_tabulated_value(self, entry_id):
        """The corpus contract: pipeline estimates agree with every analytic
        table row at that row's declared tolerance."""
        from rittgrowth.indicators import weak_type_pair
        entry = parse_shorthand(entry_id)
        bundle = entry.bundle()
        base_p, base_q = entry.index_pair
        cache = {}

        def orders(p, q):
            if (p, q) not in cache:
                shifted = (p, q) != (base_p, base_q)
                cache[(p, q)] = order_pair(profile_samples(bundle, entry_grid(entry, shifted)), p, q)
            return cache[(p, q)]

        for (kind, p, q), av in sorted(entry.analytic.items()):
            if kind in ("order", "lower_order"):
                rho, lam = orders(p, q)
                got = rho.value if kind == "order" else lam.value
            elif kind in ("type", "lower_type"):
                d, db = type_pair(profile_samples(bundle, entry_grid(entry)), p, q,
                                  entry.analytic_value("order", p, q))
                got = d.value if kind == "type" else db.value
            else:  # weak types
                tb, t = weak_type_pair(profile_samples(bundle, entry_grid(entry)), p, q,
                                       entry.analytic_value("lower_order", p, q))
                got = tb.value if kind == "weak_type_tau_bar" else t.value
            assert got == pytest.approx(av.value, abs=av.tolerance), (kind, p, q)

    def test_relative_pair_against_closed_form(self):
        f = parse_shorthand("expexp:a=3,c=2")
        g = parse_shorthand("expexp:a=2,c=1")
        rel = relative_indicators(profile_samples(f.bundle(), GridSpec(5.0, 30.0, 48)),
                                  g.bundle(), 0, 0)
        assert rel.rho.value == pytest.approx(analytic_relative(f, g, "relative_order", 0, 0),
                                              abs=1e-2)
        assert rel.delta.value == pytest.approx(analytic_relative(f, g, "relative_type", 0, 0),
                                                abs=1e-2)


# Two ulps (four units of roundoff) for each float operation: libm's log, exp
# and sin are within one.
ROUNDING = 4 * 2.0 ** -53


def float_chain(v, steps):
    """The exact value of float steps on v, from 50-digit mpmath, and the relative
    error a float evaluation may carry.  A step is "log", "exp" or ("div", c); each
    rounds by ROUNDING, and a relative error r of x becomes r / |log x| after log,
    r * |x| after exp and stays r after the quotient."""
    x, r = mpmath.mpf(v), mpmath.mpf(0)
    for step in steps:
        if step == "log":
            x = mpmath.log(x)
            r = r / abs(x) if r else r
        elif step == "exp":
            r, x = r * abs(x), mpmath.exp(x)
        else:
            x = x / step[1]
        r += ROUNDING
    return x, r


def reduced_value(entry, sigma):
    """The float a synthetic rule hands to level-index arithmetic at sigma, its
    reduced value log^[k] M: the argument of the rule's last from_real call."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_mod, "from_real", lambda v: seen.append(v) or from_real(v))
        entry.bundle().upper.log_m(sigma)
    return seen[-1]


def log_uniform(lo, hi, share):
    return math.exp(math.log(lo) + share * (math.log(hi) - math.log(lo)))


SHARES = st.floats(min_value=0.0, max_value=1.0)


class TestRuleOracle:
    """The synthetic rules' reduced values and the tower inverse against mpmath,
    within ROUNDING per float operation carried through the chain's conditioning."""

    @given(st.integers(1, 4), st.integers(0, 2), st.floats(0.1, 10.0), SHARES)
    @example(1, 0, 1.0, 0.9)
    @example(3, 2, 2.0, 1.0)
    @settings(max_examples=300, deadline=None)
    def test_tower_reduced_value(self, k, q, rho, share):
        # log^[k] M = rho * log^[q] sigma
        entry = parse_shorthand(f"tower:k={k},rho={rho!r},q={q}")
        sigma = log_uniform(max(entry.bundle().upper.sigma_floor, 1e-3), 1e300, share)
        with mpmath.workdps(50):
            log_q, rel = float_chain(sigma, ["log"] * q)
            want = rho * log_q
            assert abs(reduced_value(entry, sigma) - want) <= (rel + ROUNDING) * abs(want)

    @given(st.integers(1, 4), st.just(0), st.floats(0.2, 3.0), st.floats(1.05, 5.5),
           SHARES)
    @example(2, 0, 1.0, 2.0, 1.0)
    @settings(max_examples=300, deadline=None)
    def test_osc_reduced_value(self, p, q, lam, ratio, share):
        # log^[p] M = (m0 + m1 sin log sigma) * log^[q] sigma
        rho = lam * ratio
        entry = parse_shorthand(f"osc:rho={rho!r},lam={lam!r},p={p},q={q}")
        sigma = log_uniform(max(entry.bundle().upper.sigma_floor, 1e-3), 1e300, share)
        m0, m1 = 0.5 * (rho + lam), 0.5 * (rho - lam)
        with mpmath.workdps(50):
            log_q, rel = float_chain(sigma, ["log"] * q)
            log_sigma = mpmath.log(sigma)
            sine = mpmath.sin(log_sigma)
            factor = m0 + m1 * sine
            # log sigma carries ROUNDING * |log sigma| into the sine, whose own
            # rounding, the product's and the sum's follow
            factor_err = (m1 * ROUNDING * (abs(log_sigma) + 1) + ROUNDING * abs(m1 * sine)
                          + ROUNDING * abs(factor))
            want = factor * log_q
            bound = rel + factor_err / factor + ROUNDING
            assert abs(reduced_value(entry, sigma) - want) <= bound * abs(want)

    @given(st.integers(1, 4), st.integers(0, 2), st.floats(0.1, 10.0), SHARES)
    @example(1, 0, 1.0, 1.0)
    @example(2, 1, 0.5, 0.7)
    @settings(max_examples=300, deadline=None)
    def test_tower_inverse(self, k, q, rho, share):
        # sigma = exp^[q](log^[k-1](y) / rho), from the exact value of y = log M's
        # level and mantissa: y's level-index value is the input, not sigma
        source = parse_shorthand(f"tower:k={k},rho={rho!r},q={q}").bundle().upper
        y = source.log_m(log_uniform(max(source.sigma_floor, 1e-3), 1e300, share))
        down = y.level - (k - 1)
        with mpmath.workdps(50):
            want, rel = float_chain(y.mantissa, ["exp"] * down + ["log"] * -down
                                    + [("div", rho)] + ["exp"] * q)
            assert abs(source.inverse(y) - want) <= rel * abs(want)

    @given(st.integers(1, 4), st.floats(0.2, 3.0), st.floats(1.05, 5.5), SHARES)
    @example(1, 1.0, 2.0, 1.0)
    @example(2, 1.0, 5.5, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_osc_inverse(self, p, lam, ratio, share):
        # sigma = exp(u) with u + log(m0 + m1 sin u) = log z, z = log^[p-1](y) from
        # the exact value of y's level and mantissa, solved by 50-digit bisection.
        # The float root misses by the errors of log z and of the float left side,
        # over the least slope 1 - m1 / sqrt(m0^2 - m1^2), and by an ulp of u
        rho = lam * ratio
        source = parse_shorthand(f"osc:rho={rho!r},lam={lam!r},p={p},q=0").bundle().upper
        y = source.log_m(log_uniform(2 * source.sigma_floor, 1e300, share))
        down = y.level - (p - 1)
        m0, m1 = mpmath.mpf(0.5 * (rho + lam)), mpmath.mpf(0.5 * (rho - lam))
        with mpmath.workdps(50):
            z, rel = float_chain(y.mantissa, ["exp"] * down + ["log"] * -down)
            log_z = mpmath.log(z)
            lo, hi = log_z - mpmath.log(rho), log_z - mpmath.log(lam)
            for _ in range(200):
                u = (lo + hi) / 2
                if u + mpmath.log(m0 + m1 * mpmath.sin(u)) < log_z:
                    lo = u
                else:
                    hi = u
            factor = m0 + m1 * mpmath.sin(u)
            factor_err = (m1 * ROUNDING * abs(mpmath.sin(u)) + ROUNDING * abs(factor - m0)
                          + ROUNDING * factor)
            side_err = (factor_err / factor + ROUNDING * abs(mpmath.log(factor))
                        + ROUNDING * (abs(u) + abs(log_z)))
            slope = 1 - m1 / mpmath.sqrt(m0 * m0 - m1 * m1)
            bound = (rel + ROUNDING * abs(log_z) + side_err) / slope + ROUNDING * abs(u) + ROUNDING
            want = mpmath.exp(u)
            assert abs(source.inverse(y) - want) <= bound * want

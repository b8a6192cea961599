"""Level-index arithmetic: representation bands, iterated log/exp, ordering."""

import functools
import math
import pickle
import re

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rittgrowth.errors import DomainError, ExtRangeError
from rittgrowth.levelindex import (EXP_LIMIT, ExtReal, compare, exp_iter, from_real, lift,
                                   log_chain, log_iter, log_real, lse_accumulate, pow_scale,
                                   ratio_to_float, to_real, to_real_or_none)

E = math.e


class TestFromReal:
    def test_below_band_limit(self):
        x = from_real(2.0)
        assert (x.level, x.mantissa) == (0, 2.0)

    def test_hundred(self):
        # log 100 = 4.605170185988092, log of that = 1.5271796258079011
        x = from_real(100.0)
        assert x.level == 2
        assert x.mantissa == pytest.approx(1.5271796258079011, rel=1e-14)

    def test_band_boundary_e(self):
        x = from_real(E)
        assert x.level == 1
        assert x.mantissa == pytest.approx(1.0, abs=1e-15)

    def test_negative_stays_level_zero(self):
        x = from_real(-1234.5)
        assert (x.level, x.mantissa) == (0, -1234.5)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            from_real(float("nan"))
        with pytest.raises(DomainError):
            from_real(math.inf)


class TestToReal:
    def test_plain(self):
        assert to_real(ExtReal(0, -7.5)) == -7.5

    def test_tower_of_two(self):
        assert to_real(ExtReal(2, 1.5271796258079011)) == pytest.approx(100.0, abs=1e-10)

    def test_overflow(self):
        with pytest.raises(ExtRangeError):
            to_real(ExtReal(9, 1.4))


    def test_minus_infinity_stays_itself(self):
        assert to_real(ExtReal(0, -math.inf)) == -math.inf


class TestBands:
    def test_level0_band_enforced(self):
        with pytest.raises(ValueError):
            ExtReal(0, 3.0)

    def test_level1_band_enforced(self):
        with pytest.raises(ValueError):
            ExtReal(1, 0.5)
        with pytest.raises(ValueError):
            ExtReal(2, E)


class TestValue:
    # an ExtReal is an immutable value: hashable, equal by value, picklable
    def test_fields_cannot_be_assigned(self):
        x = ExtReal(1, 1.5)
        with pytest.raises(AttributeError):
            x.level = 2
        with pytest.raises(AttributeError):
            x.mantissa = 2.0
        assert x == ExtReal(1, 1.5)

    def test_other_names_cannot_be_assigned(self):
        x = ExtReal(1, 1.5)
        with pytest.raises(AttributeError):
            x.other = 0
        assert not hasattr(x, "__dict__")

    def test_equal_values_have_equal_hashes(self):
        for a, b in ((from_real(100.0), from_real(100.0)), (ExtReal(0, -0.0), ExtReal(0, 0.0)),
                     (exp_iter(ExtReal(0, 2.0), 3), exp_iter(ExtReal(0, 2.0), 3))):
            assert a == b
            assert hash(a) == hash(b)
        assert len({ExtReal(0, -0.0), ExtReal(0, 0.0), ExtReal(1, 1.0)}) == 2
        assert compare(ExtReal(0, -0.0), ExtReal(0, 0.0)) == 0

    def test_pickle_round_trip(self):
        for x in (ExtReal(0, -3.5), ExtReal(3, 1.0), from_real(1e300)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                y = pickle.loads(pickle.dumps(x, protocol))
                assert type(y) is ExtReal
                assert (y, repr(y)) == (x, repr(x))


class TestLogIter:
    def test_level_decrement(self):
        assert log_iter(ExtReal(3, 1.2), 2) == ExtReal(1, 1.2)

    def test_hundred_one_log(self):
        x = log_iter(from_real(100.0), 1)
        assert to_real(x) == pytest.approx(math.log(100.0), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_iter(ExtReal(0, -1.0), 1)

    def test_identity_k0(self):
        x = from_real(17.25)
        assert log_iter(x, 0) == x


class TestExpIter:
    def test_level_increment(self):
        assert exp_iter(ExtReal(2, 1.5), 1) == ExtReal(3, 1.5)

    def test_exp_zero(self):
        assert exp_iter(ExtReal(0, 0.0), 1) == ExtReal(0, 1.0)

    def test_band_check(self):
        assert exp_iter(ExtReal(0, 2.0), 1) == ExtReal(1, 2.0)

    def test_exp_rounding_to_e_moves_up_a_level(self):
        # only the double just below 1 has an exp that rounds to e
        below = math.nextafter(1.0, 0.0)
        assert exp_iter(ExtReal(0, below), 1) == ExtReal(1, 1.0)
        assert exp_iter(ExtReal(0, below), 3) == ExtReal(3, 1.0)
        assert exp_iter(ExtReal(0, math.nextafter(below, 0.0)), 1).level == 0

    def test_negative_k_is_log(self):
        assert exp_iter(ExtReal(2, 1.3), -1) == ExtReal(1, 1.3)


class TestCompare:
    def test_higher_level_dominates(self):
        assert compare(ExtReal(2, 1.5), ExtReal(1, 2.7)) == 1

    def test_value_comparison_across_levels(self):
        # 3.0 normalizes to (1, log 3); e^1.2 = 3.32 > 3
        assert compare(from_real(3.0), ExtReal(1, 1.2)) == -1

    def test_equal(self):
        x = from_real(123.0)
        assert compare(x, x) == 0


class TestLse:
    def test_two_zeros(self):
        assert lse_accumulate([0.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_negligible_term(self):
        assert lse_accumulate([0.0, -1e308]) == pytest.approx(0.0, abs=1e-300)

    def test_reciprocal_factorials(self):
        # independent oracle: direct float sum of 1/n! up to n=20
        terms = [-math.lgamma(n + 1) for n in range(1, 21)]
        expected = math.log(sum(1.0 / math.factorial(n) for n in range(1, 21)))
        assert lse_accumulate(terms) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.5413248546129182, rel=1e-12)

    def test_minus_inf_terms_vanish(self):
        assert lse_accumulate([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-300)


class TestPowScale:
    def test_e_squared(self):
        x = pow_scale(ExtReal(1, 1.0), 2.0)
        assert x == ExtReal(1, 2.0)

    def test_identity(self):
        x = from_real(42.0)
        assert pow_scale(x, 1.0) == x

    def test_zero_exponent(self):
        assert pow_scale(from_real(9.0), 0.0) == ExtReal(0, 1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            pow_scale(ExtReal(0, -2.0), 2.0)

    def test_huge_base(self):
        # (e^(e^40))^3 = e^(3 e^40): compare one log down
        x = exp_iter(from_real(40.0), 2)
        y = pow_scale(x, 3.0)
        assert to_real(log_iter(y, 1)) == pytest.approx(3.0 * math.exp(40.0), rel=1e-12)

    def test_exponent_beyond_machine_range(self):
        # (e^(1e300))^(1e9) = e^(1e309): alpha * log x overflows a double,
        # but the power is representable one level up
        y = pow_scale(exp_iter(from_real(1e300), 1), 1e9)
        with mpmath.workdps(50):
            expected = mpmath.log(mpmath.mpf(10) ** 9) + mpmath.log(mpmath.mpf(10) ** 300)
        assert to_real(log_iter(y, 2)) == pytest.approx(float(expected), rel=1e-13)

    def test_negative_exponent_beyond_machine_range(self):
        with pytest.raises(ExtRangeError):
            pow_scale(exp_iter(from_real(1e300), 1), -1e9)


class TestRatio:
    def test_plain(self):
        assert ratio_to_float(from_real(6.0), from_real(3.0)) == pytest.approx(2.0)

    def test_tower_over_small_is_inf(self):
        assert ratio_to_float(ExtReal(5, 1.5), from_real(10.0)) == math.inf

    def test_small_over_tower_is_zero(self):
        assert ratio_to_float(from_real(10.0), ExtReal(5, 1.5)) == 0.0

    def test_comparable_towers(self):
        num = exp_iter(from_real(1000.0 + math.log(2.5)), 1)
        den = exp_iter(from_real(1000.0), 1)
        assert ratio_to_float(num, den) == pytest.approx(2.5, rel=1e-9)


def banded(w, k):
    """The (level, mantissa) of exp^k(w) for an mpmath number w, at the working precision."""
    level = k
    while w >= mpmath.e:
        w, level = mpmath.log(w), level + 1
    while level > 0 and w < 1:
        w, level = mpmath.exp(w), level - 1
    return level, w


def exp_mp(w, k):
    for _ in range(k):
        w = mpmath.exp(w)
    return w


class TestTowerOracle:
    """Levels 3-5 against 50-digit mpmath, allowing 1e-14 of mantissa error per level."""

    MANTISSAS = (1.01, 1.3, 2.0, 2.7)  # off the band edge 1, where rounding picks the level

    @staticmethod
    def assert_banded(x, expected):
        level, mantissa = expected
        assert x.level == level
        assert abs(x.mantissa - float(mantissa)) <= 1e-14 * max(level, 1)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("v", [0.3, 0.9, 1.5, 2.6, 10.0, 700.0])
    def test_exp_iter(self, v, k):
        with mpmath.workdps(50):
            self.assert_banded(exp_iter(from_real(v), k), banded(mpmath.mpf(v), k))

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_log_iter_down_to_machine_range(self, level):
        with mpmath.workdps(50):
            for m in self.MANTISSAS:
                for k in (level - 2, level - 1, level, level + 1):
                    want = mpmath.log(m) if k == level + 1 else exp_mp(mpmath.mpf(m), level - k)
                    self.assert_banded(log_iter(ExtReal(level, m), k), banded(want, 0))

    @pytest.mark.parametrize("level", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 2.0, 1e3])
    def test_pow_scale(self, level, alpha):
        # log log (x**alpha) = log alpha + log log x
        with mpmath.workdps(50):
            for m in self.MANTISSAS:
                log_log = mpmath.log(alpha) + exp_mp(mpmath.mpf(m), level - 2)
                self.assert_banded(pow_scale(ExtReal(level, m), alpha), banded(log_log, 2))

    def test_ratio_of_level_3_towers(self):
        # the quotient is exp(log num - log den), a difference of two
        # numbers near 1e6: the result carries their ~1e-10 absolute rounding
        with mpmath.workdps(50):
            for m in (1.05, 1.5, 2.5):
                num, den = ExtReal(3, m + 1e-12), ExtReal(3, m)
                want = mpmath.exp(exp_mp(mpmath.mpf(m + 1e-12), 2) - exp_mp(mpmath.mpf(m), 2))
                assert ratio_to_float(num, den) == pytest.approx(float(want), rel=1e-8)

    @pytest.mark.parametrize("level", [4, 5])
    def test_ratio_past_the_logs_range_saturates(self, level):
        low, high = ExtReal(level, 1.5), ExtReal(level, 1.5 + 1e-9)
        assert ratio_to_float(high, low) == math.inf
        assert ratio_to_float(low, high) == 0.0
        assert ratio_to_float(low, low) == 1.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300)
def test_round_trip(v):
    assert to_real(from_real(v)) == pytest.approx(v, rel=1e-12, abs=1e-300)


@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6))
@example(999999.9999999999, 1e6)  # adjacent doubles, one ExtReal at level 2
@settings(max_examples=300)
def test_order_embedding(u, v):
    # order is kept, and strict once u and v differ by more than the
    # documented mantissa resolution (about 1e-14 per level crossed)
    if u > v:
        u, v = v, u
    cmp = compare(from_real(u), from_real(v))
    assert cmp == -compare(from_real(v), from_real(u))
    if u == v:
        assert cmp == 0
    elif v - u > 1e-13 * max(abs(u), abs(v)):
        assert cmp == -1
    else:
        assert cmp <= 0


EXT_REALS = st.one_of(
    st.builds(ExtReal, st.just(0), st.floats(max_value=E, exclude_max=True)),
    st.builds(ExtReal, st.integers(min_value=1, max_value=4),
              st.floats(min_value=1.0, max_value=E, exclude_max=True)),
)


@given(st.lists(EXT_REALS, min_size=2, max_size=8))
@example([ExtReal(0, -0.0), ExtReal(0, 0.0)])  # equal values, unequal doubles
@example([ExtReal(2, 1.0), ExtReal(1, 2.7)])  # the level decides
@settings(max_examples=300)
def test_operators_and_sorting_follow_compare(xs):
    x, y = xs[0], xs[1]
    c = compare(x, y)
    assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)
    assert sorted(xs) == sorted(xs, key=functools.cmp_to_key(compare))
    assert repr(x) == f"ExtReal(level={x.level}, mantissa={x.mantissa!r})"


@given(st.integers(min_value=0, max_value=8), st.floats(min_value=1.0, max_value=2.718),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=300)
def test_exp_log_inverse(level, mantissa, k):
    if level >= 1 and not mantissa < E:
        mantissa = 1.5
    x = ExtReal(level, mantissa) if level >= 1 else ExtReal(0, mantissa)
    y = exp_iter(log_iter(x, 0), 0)
    assert y == x
    z = log_iter(exp_iter(x, k), k)
    assert z.level == x.level
    assert z.mantissa == pytest.approx(x.mantissa, rel=k * 1e-14 + 1e-15)


@given(st.floats(min_value=0.1, max_value=1e5), st.floats(min_value=0.1, max_value=1e5),
       st.integers(min_value=1, max_value=3))
@example(0.1, 0.10000000000000002, 1)  # adjacent doubles, one ExtReal after exp
@settings(max_examples=200)
def test_monotonicity(u, v, k):
    # exp^[k] and log^[k] keep the order, strictly once u and v differ by
    # more than the documented mantissa resolution (as in test_order_embedding)
    if u == v:
        return
    lo, hi = (u, v) if u < v else (v, u)
    strict = hi - lo > 1e-13 * hi

    def assert_ordered(a, b):
        cmp = compare(a, b)
        assert cmp == -compare(b, a)
        assert cmp == -1 if strict else cmp <= 0

    assert_ordered(exp_iter(from_real(lo), k), exp_iter(from_real(hi), k))
    if math.log(lo) > 0 or k == 1:
        try:
            a, b = log_iter(from_real(lo), k), log_iter(from_real(hi), k)
        except DomainError:
            return
        assert_ordered(a, b)


def _ratio_through_log_iter(num, den):
    """ratio_to_float with each operand's log built by log_iter, as a reference."""
    nv, dv = to_real_or_none(num), to_real_or_none(den)
    if nv is not None and dv is not None:
        if dv == 0.0:
            raise DomainError("ratio denominator is zero")
        return nv / dv
    if dv is not None and dv <= 0.0:
        raise DomainError("non-positive denominator")
    if nv is not None and nv <= 0.0:
        return 0.0
    ln, ld = to_real_or_none(log_iter(num, 1)), to_real_or_none(log_iter(den, 1))
    if ln is not None and ld is not None:
        t = ln - ld
        return math.inf if t > 709.782712893384 else 0.0 if t < -709.782712893384 else math.exp(t)
    c = compare(num, den)
    return 1.0 if c == 0 else math.inf if c > 0 else 0.0


@given(EXT_REALS, EXT_REALS)
@example(ExtReal(3, 1.8818), ExtReal(0, 2.5))  # log num ~ 710.3: a finite quotient
@example(ExtReal(0, 2.5), ExtReal(3, 1.8818))
@settings(max_examples=500)
def test_ratio_to_float_matches_logs_through_log_iter(num, den):
    def outcome(ratio):
        try:
            return repr(ratio(num, den))  # bit for bit, nan and -0.0 included
        except DomainError:
            return "DomainError"
    assert outcome(ratio_to_float) == outcome(_ratio_through_log_iter)


# Two ulps (four units of roundoff) for each float log: libm's are within one.
ROUNDING = 4 * 2.0 ** -53


FINITE_OR_NOT = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(min_value=-5.0, max_value=20.0))


@given(FINITE_OR_NOT, st.integers(min_value=-3, max_value=5))
@example(math.nan, 0)
@example(-math.inf, 0)
@example(0.0, 1)
@example(1.0, 2)  # log 1 = 0, and log 0 is off the domain
@example(-1.4113244633046319e-16, -2)  # exp(exp(v)) rounds to e
@settings(max_examples=1000)
def test_log_chain_domain_is_log_iters(v, k):
    # DomainError exactly where the level-index chain raises; for k <= 0 that
    # is a non-finite v alone, and only an overflowing exp may raise besides
    def raises(f):
        try:
            f()
        except DomainError:
            return True
        except ExtRangeError:
            assert k < 0
        return False
    assert raises(lambda: log_chain(v, k)) == raises(lambda: log_iter(from_real(v), k))


@given(st.floats(min_value=1e-300, max_value=1e300), st.integers(min_value=0, max_value=4))
@example(4.6e8, 0)
@example(4.6e8, 2)
@example(1e300, 3)
@settings(max_examples=500, deadline=None)
def test_log_chain_against_mpmath(v, k):
    try:
        got = log_chain(v, k)
    except DomainError:
        assume(k >= 1)  # a log of a value <= 0 on the way
        return
    with mpmath.workdps(50):
        want, rel = mpmath.mpf(v), 0
        for _ in range(k):
            # each log rounds, and turns a relative error r of its argument into r / |log|
            want = mpmath.log(want)
            rel = (rel / abs(want) if rel else 0) + ROUNDING
        assert abs(got - want) <= rel * abs(want)
    level_index = log_iter(from_real(v), k)
    if level_index.level == 0:  # no round trip left: the same float logs, bit for bit
        assert got == level_index.mantissa


@pytest.mark.parametrize("v,k", [(1.0, -3), (1.0, -4), (2.5, -3), (700.0, -1), (710.0, -1),
                                 (-3.0, -2)])
def test_log_chain_below_zero_is_an_exp_chain(v, k):
    want = v
    for _ in range(-k):
        want = math.exp(want) if want <= EXP_LIMIT else math.inf
    if want == math.inf:  # the message to_real gives for ExtReal(-k, v)
        with pytest.raises(ExtRangeError, match=re.escape(f"value exp^[{-k}]({v}) exceeds")):
            log_chain(v, k)
    else:
        assert log_chain(v, k) == want


def _log_iter_by_levels(x, k):
    """log_iter's reference for k >= 1: one level or one float log at a time."""
    level, mant = x.level, x.mantissa
    for _ in range(k):
        if level >= 1:
            level -= 1
        elif mant <= 0.0:
            raise DomainError(f"log of non-positive value {mant}")
        else:
            level, mant = 0, math.log(mant)
    return ExtReal(level, mant)


@given(EXT_REALS, st.integers(min_value=1, max_value=7))
@example(ExtReal(0, 0.0), 1)
@example(ExtReal(2, 1.0), 4)  # log 1 = 0, then log 0 is off the domain
@settings(max_examples=500)
def test_log_iter_matches_level_by_level(x, k):
    def outcome(f):
        try:
            return repr(f(x, k))  # bit for bit
        except DomainError:
            return "DomainError"
    assert outcome(log_iter) == outcome(_log_iter_by_levels)


def same_float(a, b):
    """Bit for bit: equal, and -0.0 is not 0.0."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(f, *args):
    """f's result, or the class of the package error it raised."""
    try:
        return f(*args)
    except (DomainError, ExtRangeError) as exc:
        return type(exc)


# negative, subnormal, just below 1 and up to the largest double, nan and +-inf
LIFT_INPUTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.floats(min_value=-5e-324, max_value=5e-323),
                        st.floats(min_value=0.999, max_value=1.0),
                        st.floats(min_value=1e300))


@given(LIFT_INPUTS, st.integers(min_value=0, max_value=5))
@example(math.nextafter(1.0, 0.0), 1)  # exp rounds to e: the value is (1, 1.0)
@example(math.nextafter(1.0, 0.0), 3)
@example(-0.0, 2)
@example(-0.0, 0)
@example(5e-324, 1)
@example(1.7976931348623157e308, 5)
@example(math.nan, 0)
@example(math.inf, 2)
@example(-math.inf, 1)
@settings(max_examples=1000)
def test_lift_is_exp_iter_of_from_real(v, k):
    got = outcome(lift, v, k)
    want = outcome(lambda: exp_iter(from_real(v), k))
    if isinstance(want, type):
        assert got is want is DomainError  # only nan and the infinities
        return
    assert got.level == want.level and same_float(got.mantissa, want.mantissa)


def with_log_counts(x):
    return st.tuples(st.just(x), st.integers(min_value=0, max_value=x.level + 2))


@given(EXT_REALS.flatmap(with_log_counts))
@example((ExtReal(0, -math.inf), 0))  # to_real reads a level-0 mantissa as it is
@example((ExtReal(0, -math.inf), 1))
@example((ExtReal(0, -0.0), 0))
@example((ExtReal(0, 0.0), 1))  # log 0 is off the domain
@example((ExtReal(4, 2.7), 0))  # overflows the machine range
@example((ExtReal(3, 1.8818), 1))
@settings(max_examples=1000)
def test_log_real_is_to_real_of_log_iter(pair):
    x, k = pair
    got = outcome(log_real, x, k)
    want = outcome(lambda: to_real(log_iter(x, k)))
    if isinstance(want, type):
        assert got is want
    else:
        assert same_float(got, want)


def assert_in_bands(x):
    # the public constructor's checks accept the pair, and no numpy scalar rides along
    assert ExtReal(x.level, x.mantissa) == x
    assert type(x.level) is int and type(x.mantissa) is float


@given(st.floats(allow_nan=False, allow_infinity=False), EXT_REALS,
       st.integers(min_value=0, max_value=5))
@example(math.nextafter(1.0, 0.0), ExtReal(0, math.nextafter(1.0, 0.0)), 1)
@example(-0.0, ExtReal(0, -math.inf), 0)
@settings(max_examples=500)
def test_built_values_stay_in_the_bands(v, x, k):
    assert_in_bands(from_real(v))
    assert_in_bands(lift(v, k))
    assert_in_bands(exp_iter(x, k))
    try:
        assert_in_bands(log_iter(x, k))
    except DomainError:
        assert x.level < k

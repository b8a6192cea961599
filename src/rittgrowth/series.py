"""Dirichlet series with generator-defined exponents and coefficient norms.

A series is Sum_n a_n * exp(s * lambda_n) with lambda_n strictly increasing
to infinity and log||a_n|| / lambda_n -> -inf.  Only the norms matter for
growth, so a SeriesSpec stores two generators: n -> lambda_n and
n -> log||a_n|| (-inf marks a vanishing term).  A finite table is
enumerated; an infinite series also supplies its central index and array
forms of both generators.

The maximum-modulus curve M(sigma) = sup_t ||f(sigma+it)|| is not
computable from norms alone, but it is sandwiched:

    max term <= M(sigma) <= sum of term norms,

and both bounds are computed here.  An infinite series' term logs t(n)
are strictly log-concave with a convex step t(n+1) - t(n).  The maximum
term sits at the central index of Wiman-Valiron theory, which the `peak`
generator places within a few steps and its neighbours confirm.  The sum
is a walk from there: term by term on narrow windows, in blocks under
concave quadratics on wide ones, laid out by the local Gaussian model
(Hayman, Canad. Math. Bull. 17, 1974); see log_sum_upper.

Everything here is plain floats except the term-by-term windows, which
an infinite series' array generators evaluate in one numpy call each.
numpy is imported there, on first use, so a process that sums no such
window (tables, validate, the synthetic rules) never loads it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import DomainError, NumericError, SpecFormatError, TailBoundError
from .levelindex import ExtReal, from_real, lse_accumulate, to_real

if TYPE_CHECKING:
    import numpy as np

# Hard cap for the walk's widening reach; 2000 doublings cover every index
# reachable before term magnitudes overflow the double range.
_MAX_DOUBLINGS = 2000
_TAIL_TOL = 1e-12  # the two tails past the walk carry at most this share of the sum
_EPS = sys.float_info.epsilon
# Rounding margin of a term log, in ulps of |log||a_n||| + |sigma*lambda_n|
# (generators are taken to be accurate to a few ulps of their values).
_ROUND_ULPS = 8.0
_EXACT_TERMS = 4096  # windows summed term by term; wider ones go in blocks
_BLOCK_SLACK = 5e-5  # gap a blocked walk is laid out for, unless rounding noise is larger
_BLOCK_TAIL = 0.1 * _BLOCK_SLACK  # a blocked walk's tails carry at most this share of the sum
_SQRT_PI, _SQRT_HALF = math.sqrt(math.pi), math.sqrt(0.5)
_TAIL_PAD = 8.0
# Largest index that doubles still carry exactly; past it indices are floats.
_EXACT_INDEX = 2 ** 53
_RANGE_HINT = "series evaluation needs roughly a*sigma < 700 for the expexp family"
_PEAK_CLIMB = 4  # neighbour steps from a peak candidate before it is refused
_INVERSE_ROUNDS = 4  # Newton steps, and index re-roundings, of expexp's lower inverse
_TABLE_NEWTON_STEPS = 32  # at most, for a table's upper inverse
_TABLE_NEWTON_TOL = 1e-13  # relative Newton step at which it stops
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_FACTORIALS = [math.log(math.factorial(n)) for n in range(256)]


@dataclass(frozen=True)
class SeriesSpec:
    """A vector-valued Dirichlet series reduced to its coefficient norms.

    lam / log_norm are scalar generators (1-based n).  A finite table sets
    n_limit and needs nothing else.  An infinite series (n_limit None)
    must also supply:
      * lam_array / log_norm_array: the same generators on a float ndarray
        of indices, which evaluate a term-by-term window in one call (the
        only numpy in the package: _Edges imports it for them);
      * peak: sigma -> a real whose rounding lies within _PEAK_CLIMB steps
        of the maximum term's index, the central index; max_term_log climbs
        from it to that index, and log_sum_upper starts there.
    Its terms t(n) must be strictly log-concave with a step t(n+1) - t(n)
    convex in n; log_sum_upper refuses a step its edges show is not.
    Any series may supply upper_inverse / lower_inverse: y -> a guess at
    the sigma where log_sum_upper / max_term_log equals y (expexp_spec and
    table_spec supply both).  The surrogate itself confirms a guess; a
    missed one only starts the inversion's bracket.
    """

    name: str
    lam: Callable[[float], float]
    log_norm: Callable[[float], float]
    params: dict = field(default_factory=dict)
    lam_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    log_norm_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    n_limit: Optional[int] = None  # finite tables only
    peak: Optional[Callable[[float], float]] = None
    upper_inverse: Optional[Callable[[ExtReal], float]] = None
    lower_inverse: Optional[Callable[[ExtReal], float]] = None

    def __post_init__(self):
        if self.n_limit is None and None in (self.peak, self.lam_array, self.log_norm_array):
            raise SpecFormatError(f"infinite series '{self.name}' needs peak, lam_array and "
                                  f"log_norm_array generators")

    def describe(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class ValidationReport:
    n_checked: int
    monotone_ok: bool
    d_estimate: float
    coeff_decay_trend: float
    verdict: str  # "pass" | "warn" | "fail"
    cause: str = ""


def expexp_spec(a: float, c: float) -> SeriesSpec:
    """lambda_n = a*n, log||a_n|| = n log c - log n!.

    The sum has the closed form exp(c * e^(a sigma)) - 1, which makes this
    the workhorse family with analytically known indicators.
    """
    if not (0 < a < math.inf and 0 < c < math.inf):
        raise SpecFormatError("expexp requires finite a > 0 and c > 0")
    log_c = math.log(c)

    def lam(n: float) -> float:
        return a * n

    def log_norm(n: float) -> float:
        return n * log_c - math.lgamma(n + 1.0)

    def lam_arr(ns: np.ndarray) -> np.ndarray:
        return a * ns

    def log_norm_arr(ns: np.ndarray) -> np.ndarray:
        # log n!: Stirling's series (A&S 6.1.41) to 1/(360n^3), a table below 256
        import numpy as np

        small = ns < 256.0
        x = np.maximum(ns, 256.0) if small.any() else ns
        log_x, r = np.log(x), 1.0 / x
        out = (log_x - 1.0) * x  # log_x - 1 is exact
        r *= 1.0 / 12.0 - r * r / 360.0
        log_x *= 0.5
        log_x += r + 0.5 * math.log(2.0 * math.pi)
        out += log_x
        if x is not ns:
            out[small] = np.array(_LOG_FACTORIALS)[ns[small].astype(np.intp)]
        return np.subtract(ns * log_c, out, out=out)

    def peak(sigma: float) -> float:
        # t(n+1) - t(n) = log(x/(n+1)) with x = c*e^(a*sigma): x - 1/2 rounds to the
        # maximum term's index, within 1/(24x) of the root of digamma(n+1) = log x
        try:
            return max(math.exp(log_c + a * sigma) - 0.5, 0.0)
        except OverflowError as exc:
            raise NumericError(f"central index of 'expexp' at sigma={sigma} exceeds the machine "
                               f"range; {_RANGE_HINT}") from exc

    def upper_inverse(y: ExtReal) -> float:
        # the sum is e^X - 1 with X = c*e^(a*sigma): X = y + log1p(e^-y), kept in range for y < 0
        v = to_real(y)
        return (math.log(max(v, 0.0) + math.log1p(math.exp(-abs(v)))) - log_c) / a

    def lower_inverse(y: ExtReal) -> float:
        # the maximum term is about X - log(2 pi X)/2: Newton in log X, then the
        # sigma where t(n) = y exactly, n re-rounded until it is the peak there
        v = to_real(y)
        n = 1.0
        if v > 1.0:
            u = math.log(v + _HALF_LOG_2PI + 0.5 * math.log(v))
            for _ in range(_INVERSE_ROUNDS):
                x = math.exp(u)
                u -= (x - 0.5 * u - v - _HALF_LOG_2PI) / (x - 0.5)
            n = math.floor(math.exp(u))
        for _ in range(_INVERSE_ROUNDS):
            sigma = (v + math.lgamma(n + 1.0) - n * log_c) / (a * n)
            m = max(1.0, math.floor(peak(sigma) + 0.5))
            if m == n:
                break
            n = m
        return sigma

    return SeriesSpec("expexp", lam, log_norm, {"a": a, "c": c}, lam_arr, log_norm_arr, peak=peak,
                      upper_inverse=upper_inverse, lower_inverse=lower_inverse)


def table_spec(name: str, lam_values: Sequence[float], log_norm_values: Sequence[float]) -> SeriesSpec:
    """Finite explicit prefix; evaluation beyond the table is an error.

    Both surrogates invert themselves: the maximum term exactly, and the
    log-sum by Newton steps from the maximum term's root.
    """
    lam_t = [float(v) for v in lam_values]
    ln_t = [float(v) for v in log_norm_values]
    if len(lam_t) != len(ln_t) or not lam_t:
        raise SpecFormatError("table spec needs equal-length non-empty lambda/log_norm tables")
    limit = len(lam_t)

    def entry(table: list, n: float) -> float:
        i = int(n)
        if not 1 <= i <= limit:
            raise DomainError(f"index {i} beyond the {limit}-entry table for series '{name}'")
        return table[i - 1]

    lam, log_norm = functools.partial(entry, lam_t), functools.partial(entry, ln_t)

    def lower_inverse(y: ExtReal) -> float:
        # the maximum of increasing lines ln + sigma*lam first reaches y on one of them; a
        # vanishing term's line never does (inf), and a table whose terms all vanish guesses inf
        v = to_real(y)
        return min((v - ln) / lam_n for lam_n, ln in zip(lam_t, ln_t))

    def upper_inverse(y: ExtReal) -> float:
        # Newton on the convex log-sum from the maximum term's root, which lies above its own,
        # until a step is below _TABLE_NEWTON_TOL; each term is weighed against the largest,
        # so the total is at least 1 whatever the rounding of the target (an infinite start
        # makes every weight nan, and the guess nan)
        v, sigma = to_real(y), lower_inverse(y)
        for _ in range(_TABLE_NEWTON_STEPS):
            ts = [ln + sigma * lam_n for lam_n, ln in zip(lam_t, ln_t)]
            top = max(ts)
            ws = [(lam_n, math.exp(t - top)) for lam_n, t in zip(lam_t, ts)]
            total = sum(w for _lam_n, w in ws)
            step = (top - v + math.log(total)) * total / sum(lam_n * w for lam_n, w in ws)
            sigma -= step
            if not abs(step) > _TABLE_NEWTON_TOL * max(1.0, abs(sigma)):
                break
        return sigma

    return SeriesSpec(name, lam, log_norm, {"lambda": lam_t, "log_norm": ln_t}, n_limit=limit,
                      upper_inverse=upper_inverse, lower_inverse=lower_inverse)


def validate(spec: SeriesSpec, n_max: int = 128) -> ValidationReport:
    """Check the convergence conditions at a truncation.

    d_estimate is max over checked n of log n / lambda_n, a finite lower
    witness for the exponent-density constant.  The decay trend is the
    least-squares slope of log||a_n||/lambda_n over the last half of the
    window; entirety demands it keep falling, so a non-negative slope is
    a failure and a barely-negative one only warrants a warning.  A table
    whose coefficient norms all vanish, past the window too, is a failure:
    it has no term to grow.
    """
    if n_max < 16:
        raise ValueError("validate needs n_max >= 16")
    if spec.n_limit is not None:
        n_max = min(n_max, spec.n_limit)
    try:
        lams = [spec.lam(n) for n in range(1, n_max + 1)]
        lns = [spec.log_norm(n) for n in range(1, n_max + 1)]
    except Exception as exc:  # generator failure surfaces as a fail verdict
        return ValidationReport(0, False, math.nan, math.nan, "fail", f"generator failure: {exc}")

    monotone_ok = lams[0] > 0 and all(b > a for a, b in zip(lams, lams[1:]))
    d_estimate = max(math.log(n) / lams[n - 1] for n in range(1, n_max + 1)) if monotone_ok else math.nan

    ratios = [(n, lns[n - 1] / lams[n - 1]) for n in range(n_max // 2, n_max + 1)
              if lams[n - 1] > 0 and lns[n - 1] != -math.inf]
    if len(ratios) >= 2:
        # the least-squares slope sum((n - mean n)(y - mean y)) / sum((n - mean n)**2), both
        # sums times k, the index factors exact in integers
        k, s_n = len(ratios), sum(n for n, _ in ratios)
        y_mean = math.fsum(y for _, y in ratios) / k
        trend = (math.fsum((k * n - s_n) * (y - y_mean) for n, y in ratios)
                 / (k * sum(n * n for n, _ in ratios) - s_n * s_n))
    else:
        trend = -math.inf  # all-vanishing tail decays trivially

    if not monotone_ok:
        return ValidationReport(n_max, False, d_estimate, trend, "fail",
                                "exponents not strictly increasing from a positive start")
    if spec.n_limit is not None and all(spec.log_norm(n) == -math.inf
                                        for n in range(1, spec.n_limit + 1)):
        return ValidationReport(n_max, True, d_estimate, trend, "fail",
                                "every coefficient norm of the table vanishes")
    if trend >= 0.0:
        return ValidationReport(n_max, True, d_estimate, trend, "fail",
                                "log-norm/exponent ratio is not decaying")
    verdict = "warn" if trend > -1e-4 else "pass"
    cause = "decay trend is marginal" if verdict == "warn" else ""
    return ValidationReport(n_max, True, d_estimate, trend, verdict, cause)


def term_log(spec: SeriesSpec, n: int, sigma: float) -> float:
    """log of one term norm: log||a_n|| + sigma * lambda_n  (-inf if vanishing)."""
    return _term(spec, n, sigma)[0]


def _term(spec: SeriesSpec, n, sigma: float) -> tuple[float, float]:
    """term_log and its margin, _ROUND_ULPS ulps of |log||a_n||| + |sigma*lambda_n|."""
    try:
        ln = spec.log_norm(n)
        s_lam = sigma * spec.lam(n)
    except OverflowError as exc:  # e.g. lgamma of an index past ~1e305
        raise _term_range_error(spec, n, sigma) from exc
    t = ln + s_lam
    if math.isnan(t) or t == math.inf:
        raise _term_range_error(spec, n, sigma)
    return t, _ROUND_ULPS * _EPS * (abs(ln) + abs(s_lam))


def _term_range_error(spec: SeriesSpec, n, sigma: float) -> NumericError:
    return NumericError(f"term magnitude at n={n}, sigma={sigma} of series '{spec.name}' exceeds "
                        f"the machine range; {_RANGE_HINT}")


def _verified_peak(spec: SeriesSpec, t: Callable[[float], float], sigma: float):
    """The spec's central index rounded to an index, checked to be the maximum term.

    Log-concavity makes a local maximum global, so the candidate is
    accepted once t(n-1) <= t(n) >= t(n+1).  A rising neighbour is
    climbed to first: the integer argmax can sit one off a peak that is a
    rounded continuous root.  Past n ~ 1e7 rounding of the term values is
    as large as the one-step differences, so a climb that does not settle
    accepts neighbours within its rounding margin, and beyond 2**53 the
    factor-2 neighbours are checked instead.  A candidate that fails means
    the peak generator is wrong: a NumericError.
    """
    n_c = spec.peak(sigma)
    if n_c < _EXACT_INDEX:
        n = max(1, int(math.floor(n_c + 0.5)))
        for _ in range(_PEAK_CLIMB):
            if n > 1 and t(n - 1) > t(n):
                n -= 1
            elif t(n + 1) > t(n):
                n += 1
            else:
                return n
        if n > 1 and max(t(n - 1), t(n + 1)) <= t(n) + _term(spec, n, sigma)[1]:
            return n
    elif t(n_c / 2.0) <= t(n_c) >= t(n_c * 2.0):
        return n_c
    raise NumericError(f"central index {n_c!r} of series '{spec.name}' at sigma={sigma} "
                       f"is not its maximum term")


def max_term_log(spec: SeriesSpec, sigma: float) -> tuple[int, ExtReal]:
    """Index and log-value of the maximum term at abscissa sigma.

    Finite tables are enumerated.  An infinite series' peak generator
    proposes the index and its neighbours confirm it (_verified_peak); a
    peak on a vanishing term is a DomainError, as only tables may end.
    Beyond 2**53 the index is tracked as a float; the flat peak makes the
    sub-integer placement irrelevant there.
    """
    memo = {}  # the climb re-reads terms

    def t(n):
        if n not in memo:
            memo[n] = term_log(spec, n, sigma)
        return memo[n]

    if spec.n_limit is not None:
        best = max(range(1, spec.n_limit + 1), key=t)
    else:
        best = _verified_peak(spec, t, sigma)
        if t(best) == -math.inf:  # it ties its -inf neighbours
            raise DomainError(f"term n={best} of series '{spec.name}' vanishes; only tables may end")
    return best, from_real(t(best))


def _tails(ns, f, err):
    """log bounds of the terms before ns[0] and after ns[3], a walk's first two and last two edges.

    By log-concavity the terms fall at least as fast outside the end chords,
    so geometric series with those chords, widened by margins, bound both.
    """
    (n0, n1, n2, n3), (f0, f1, f2, f3), (e0, e1, e2, e3) = ns, f, err
    s = (f1 - f0 - e0 - e1) / (n1 - n0)
    left = -math.inf if n0 <= 1.0 else f0 + e0 - s - math.log(-math.expm1(-s)) if s > 0 else math.inf
    s = (f3 - f2 + e2 + e3) / (n3 - n2)
    return left, f3 + e3 + s - math.log(-math.expm1(s)) if s < 0 else math.inf


class _Edges:
    """Every term of the window first..last, from the array generators; logs relative to t(n*).

    The one step that needs numpy, imported here on first use.
    """

    def __init__(self, spec: SeriesSpec, sigma: float, first: float, last: float, t_star: float):
        import numpy as np

        ns = np.arange(first, last + 1.0)
        try:
            ln = spec.log_norm_array(ns)
            s_lam = sigma * spec.lam_array(ns)
        except OverflowError as exc:  # e.g. lgamma of an index past ~1e305
            raise _term_range_error(spec, ns[-1], sigma) from exc
        t = ln + s_lam
        if not math.isfinite(t.sum()):
            bad = int((~np.isfinite(t)).argmax())
            if t[bad] == -math.inf:
                raise DomainError(f"term n={ns[bad]} of series '{spec.name}' vanishes; only tables may end")
            raise _term_range_error(spec, ns[bad], sigma)
        err = _ROUND_ULPS * _EPS * (np.abs(ln) + np.abs(s_lam))
        f, self.last = t - t_star, float(ns[-1])
        hi = f + err
        # the terms, each at least exp(hi - 2*err), bound the sum from below
        self.top = float(hi.max())
        self.edge_sum = float(np.exp(hi - self.top).sum())
        self.cut = self.top + math.log(0.5 * _TAIL_TOL * self.edge_sum) - 2.0 * float(err.max())
        self.tails = _tails(*(v[[0, 1, -2, -1]].tolist() for v in (ns, f, err)))

    def log_sum(self) -> float:
        return self.top + math.log(self.edge_sum + sum(math.exp(x - self.top) for x in self.tails))


def _log_block(fa: float, fb: float, w: float, d: float) -> float:
    """log bound of the terms a..b-1 of a block of width w = b - a (see _Blocks).

    t(n) <= q(u) = mean + slope*u + d*(h - u)*(h + u)/2 at u = n - (a+b)/2,
    h = w/2.  By the midpoint rule each exp(q(n)) is at most the integral of
    g = exp(q) over its cell [n - 1/2, n + 1/2] plus G/(24v) (G = max g,
    v = 1/d), and needs no G/(24v) where g is convex: beyond sqrt(v) + 1/2
    from the peak u0.  The integral is erf-form, in the erfc form from the
    nearer end when u0 lies outside; a block too flat or too far past its
    peak for erfc takes the tangent at its higher end instead.
    """
    h, slope = 0.5 * w, (fb - fa) / w
    if d > 0.0:
        u0, r = slope / d, math.sqrt(0.5 * d)
        near, z0, z1 = -h - 0.5, (-h - 0.5 - u0) * r, (h - 0.5 - u0) * r
        if z1 <= 0.0:  # mirrored: the peak lies past the block
            near, z0, z1 = h - 0.5, -z1, -z0
        if z0 < 0.0:
            near, z0, area = u0, 0.0, (math.erf(z1) - math.erf(z0)) * (1.0 + 4.0 * _EPS)
        else:  # p - m carries 2 ulps of each
            p, m = math.erfc(z0), math.erfc(z1)
            area = p - m + 4.0 * _EPS * (p + m)
        if z0 < 26.0:  # erfc underflows past ~26.5; area is relative to G = q(near) + z0*z0
            area *= 0.5 * _SQRT_PI / r
            if z0 < _SQRT_HALF + r:  # cells within sqrt(v) + 1/2 of u0
                right, left = u0 + _SQRT_HALF / r + 0.5, u0 - _SQRT_HALF / r - 0.5
                area += max((right if right < h - 1.0 else h - 1.0) - (left if left > -h else -h) + 1.0, 0.0) * d / 24.0
            return (0.5 * (fa + fb) + slope * near + 0.5 * (d * (h - near)) * (h + near)
                    + z0 * z0 * (1.0 + 4.0 * _EPS) + math.log(area))
    near = -h - 0.5 if slope <= d * (-h - 0.5) else h - 0.5
    k = abs(slope - d * near)
    return (0.5 * (fa + fb) + slope * near + 0.5 * (d * (h - near)) * (h + near)
            + math.log(-math.expm1(-k * w) / k if k > 0.0 else w))


class _Blocks:
    """Second-order bounds on a window too wide to sum term by term, in plain floats.

    With a convex step, d(n) = t(n+1) - 2t(n) + t(n-1) <= 0 rises with n.
    The discrete Green's function of d on a block [a, b] sums to
    (n-a)(b-n)/2, so the terms lie below the chord plus D(n-a)(b-n)/2 for
    any D >= -d(a+1): the fall between the chords of the two blocks before
    a (-d averaged over them), widened by margins.  Those must fall along
    the window, or it is a NumericError.  The first two blocks only anchor
    curvature, unless the window starts with the single terms n = 1, 2.

    If -d falls by k per index, a block of width w sits about k*w**3/8
    above its terms.  Widths w0*exp(drop/3) in the local Gaussian model,
    doubling past about two deviations, even that out over the sum to a gap
    of about k*w0**3/3, set to max(_BLOCK_SLACK, rounding noise); k comes
    from the drops c*r**2/2 -+ k*r**3/6 at the reach ends.
    """

    def __init__(self, spec: SeriesSpec, sigma: float, n_star: float, t_star: float, dev, span, noise: float):
        ends = n_star - span[0], n_star + span[1]
        known = {n_star: (t_star, noise), ends[0]: _term(spec, ends[0], sigma), ends[1]: _term(spec, ends[1], sigma)}
        q = max(span[0], 1.0) / span[1]  # r_l = q*r_r: no powers of r, reaches pass 1e150
        k_r3 = 6.0 * (abs((t_star - known[ends[0]][0]) / (q * q) - t_star + known[ends[1]][0])
                      + 0.125 * noise * (1.0 + 1.0 / (q * q))) / (1.0 + q)
        w0 = max(1.0, span[1] * (2.0 * max(_BLOCK_SLACK, noise) / k_r3) ** (1.0 / 3.0))
        sides = []
        for d, reach, extra in ((dev[0], span[0], 2), (dev[1], span[1], 0)):  # 2 left anchors past the reach
            xs, x, w, rate = [], 0.0, w0, 1.0 / (6.0 * d * d)
            while x < reach or extra:
                extra -= x >= reach
                grown = w0 * math.exp(x * x * rate) if x * x * rate < 60.0 else math.inf
                w = 2.0 * w if 2.0 * w < grown else grown
                step = w // 1.0 if w >= 1.0 else 1.0
                x = reach if x < reach <= x + 1.5 * step else x + step
                xs.append(x)
            sides.append(xs)
        ns = [n_star - x for x in reversed(sides[0])] + [n_star] + [n_star + x for x in sides[1]]
        if ns[0] <= 3.0:  # the window starts at n = 1; doubling edges keep each block within its left edge
            edges = [1.0, 2.0, 3.0]
            for n in (n for n in ns if n > 3.0):
                while n > 2.0 * edges[-1]:
                    edges.append(2.0 * edges[-1])
                edges.append(n)
            ns = edges
        elif n_star > _EXACT_INDEX:  # float indices can coincide
            ns = sorted(set(ns))
        first, self.last, logs, f, err, bound = (0 if ns[0] == 1.0 else 2), ns[-1], [], [], [], math.inf
        c1 = m1 = w1 = c2 = m2 = w2 = pn = pt = pe = 0.0  # chord i-1 ends at edge i; block i-1 takes i-3, i-2
        for i, n in enumerate(ns):
            t, e = known.get(n) or _term(spec, n, sigma)
            if t == -math.inf:
                raise DomainError(f"term n={n} of series '{spec.name}' vanishes; only tables may end")
            t -= t_star
            if i:
                w = n - pn
                c, m = (t - pt) / w, (e + pe) / w
                if i >= 3:
                    fall, margin, across = c1 - c2, m1 + m2, w1 + w2
                    d = 2.0 * (fall + margin) / across
                    if d < 0.0 or 2.0 * (fall - margin) > bound * across:
                        raise NumericError(f"terms of series '{spec.name}' at sigma={sigma} are not log-concave "
                                           f"with a convex step near n={pn}")
                    bound = min(bound, d)
                    logs.append(_log_block(pt + pe, t + e, w, d))
                elif not first:
                    logs.append(pt + pe)
                if pn == n_star:  # the terms after n* lie above their chord, which falls by g
                    g = max(pt - pe - t + e, 1e-300)
                    self.cut = pt - pe + math.log(-math.expm1(-g) / g * w * 0.5 * _BLOCK_TAIL)
                c1, m1, w1, c2, m2, w2 = c2, m2, w2, c, m, w
            f.append(t)
            err.append(e)
            pn, pt, pe = n, t, e
        self.logs = logs + [pt + pe]  # the last edge's term: the right tail starts after it
        self.tails = _tails(*([v[first], v[first + 1], v[-2], v[-1]] for v in (ns, f, err)))

    def log_sum(self) -> float:
        return lse_accumulate((*self.logs, *self.tails))


def log_sum_upper(spec: SeriesSpec, sigma: float) -> ExtReal:
    """Upper surrogate: log of the full sum of term norms, certified from above.

    Finite tables are enumerated.  Otherwise a walk around the central
    index n* (the peak rounded) reaches, by the local Gaussian model and
    then by doubling, until each geometric tail is below half its share.
    Up to _EXACT_TERMS terms it takes every term (_Edges, _TAIL_TOL-tight),
    wider ones go in blocks (_Blocks).  Terms, curvatures and the sum
    carry rounding margins, so the value never falls below the true sum.
    """
    if spec.n_limit is not None:
        ts = [term_log(spec, n, sigma) for n in range(1, spec.n_limit + 1)]
        return from_real(lse_accumulate(ts))
    # the walk needs a start near the peak, not the exact maximum term
    n_star = float(max(1, math.floor(spec.peak(sigma) + 0.5)))
    t_star, margin = _term(spec, n_star, sigma)
    # The model's deviation on each side comes from the drop t(n*) - t(n* -+ h) at
    # h ~ sqrt(n*) (expexp's variance), moved out where rounding would hide it.
    noise = margin + _ROUND_ULPS * _EPS
    h = max(4.0, float(math.floor(math.sqrt(n_star) * math.sqrt(1.0 + 64.0 * noise))))
    dev = [h / math.sqrt(2.0 * max(t_star - _term(spec, n, sigma)[0], 4.0 * noise))
           for n in (max(n_star - h, 1.0), n_star + h)]

    def reach(tol):  # where the model's terms fall below tol/2 of the peak, by e**-2 more, plus _TAIL_PAD terms
        r = math.sqrt(2.0 * (math.log(2.0 / tol) + 16.0 * noise + 2.0))
        return [min(math.ceil(dev[0] * r) + _TAIL_PAD, n_star - 1.0), math.ceil(dev[1] * r) + _TAIL_PAD]

    span, blocked = reach(_TAIL_TOL), False
    for _ in range(_MAX_DOUBLINGS):
        if not blocked and span[0] + span[1] > _EXACT_TERMS:  # blocks weigh tails against their slack
            blocked, span = True, reach(_BLOCK_TAIL)
        walk = (_Blocks(spec, sigma, n_star, t_star, dev, span, noise) if blocked else
                _Edges(spec, sigma, n_star - span[0], n_star + span[1], t_star))
        if max(walk.tails) <= walk.cut:
            break
        span = [min(2.0 * span[0], n_star - 1.0) if walk.tails[0] > walk.cut else span[0],
                2.0 * span[1] if walk.tails[1] > walk.cut else span[1]]
    else:
        raise TailBoundError(f"term ratio not eventually below 1 for '{spec.name}' at "
                             f"sigma={sigma}, n={walk.last}", int(min(walk.last, 2.0 ** 62)))
    log_u = walk.log_sum()
    return from_real(t_star + log_u + 4.0 * _EPS * (abs(t_star) + abs(log_u) + 1.0))

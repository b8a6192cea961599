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

and both bounds are computed here.  Term sequences of interest are
strictly log-concave in n once past the first term, so the maximum term
sits at the central index of Wiman-Valiron theory: the root of the
continuous stationarity equation d/dn log(term) = 0.  An infinite series
supplies that root as its `peak` generator (expexp solves
digamma(n+1) = log c + a*sigma), since the maximizing index grows like
exp(sigma) and cannot be enumerated; the rounded root is accepted once its
neighbours confirm the maximum, which log-concavity makes sufficient, and
a root that fails the check is a NumericError.  The sum is one outward
walk from the central index in blocks laid out by the Wiman-Valiron local
model (a discretised Gaussian in n), each bounded by tangents from
log-concavity; see log_sum_upper.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import digamma, erfinv, gammaln, zeta

from .errors import DomainError, NumericError, SpecFormatError, TailBoundError
from .levelindex import ExtReal, from_real, lse_accumulate

# Hard cap for the walk's widening reach; 2000 doublings cover every index
# reachable before term magnitudes overflow the double range.
_MAX_DOUBLINGS = 2000
_TAIL_TOL = 1e-12  # the two tails past the walk carry at most this share of the sum
_EPS = sys.float_info.epsilon
# Rounding margin of a term log, in ulps of |log||a_n||| + |sigma*lambda_n|
# (generators are taken to be accurate to a few ulps of their values).
_ROUND_ULPS = 8.0
_EXACT_TERMS = 4096  # windows summed term by term; wider ones go in blocks
_BLOCK_SLACK = 5e-5  # blocked walks' gap: 1e-9 of log M where they start (expexp, x ~ 7e4)
_TAIL_PAD = 8.0
# Largest index that doubles still carry exactly; past it indices are floats.
_EXACT_INDEX = 2 ** 53
_RANGE_HINT = "series evaluation needs roughly a*sigma < 700 for the expexp family"
_DIGAMMA_ONE = -0.5772156649015329  # digamma(1) = -Euler's gamma
_PEAK_CLIMB = 4  # neighbour steps from a peak candidate before it is refused


@dataclass(frozen=True)
class SeriesSpec:
    """A vector-valued Dirichlet series reduced to its coefficient norms.

    lam / log_norm are scalar generators (1-based n).  A finite table sets
    n_limit and needs nothing else.  An infinite series (n_limit None)
    must also supply:
      * lam_array / log_norm_array: the same generators on a float ndarray
        of indices, which evaluate the walk's block edges in one call;
      * peak: sigma -> the continuous maximizer of
        n -> log||a_n|| + sigma*lambda_n, its central index; max_term_log
        verifies the integer it rounds to, and log_sum_upper starts there.
    """

    name: str
    lam: Callable[[float], float]
    log_norm: Callable[[float], float]
    params: dict = field(default_factory=dict)
    lam_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    log_norm_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    n_limit: Optional[int] = None  # finite tables only
    peak: Optional[Callable[[float], float]] = None

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
        return ns * log_c - gammaln(ns + 1.0)

    def peak(sigma: float) -> float:
        # Central index: d/dn [n log c - log n! + a*sigma*n] = 0 reads
        # digamma(n+1) = log c + a*sigma.
        target = log_c + a * sigma
        if target <= _DIGAMMA_ONE:  # stationary point at n <= 0: the first term leads
            return 0.0
        try:
            x = math.exp(target) + 0.5  # digamma(x) = log(x - 1/2) + O(x**-2)
        except OverflowError as exc:
            raise NumericError(
                f"central index of 'expexp' at sigma={sigma} exceeds the machine range; {_RANGE_HINT}"
            ) from exc
        if x < 1e8:  # above, the start is already exact to double precision
            for _ in range(4):
                step = (float(digamma(x)) - target) / float(zeta(2.0, x))  # zeta(2, x) = trigamma
                x -= step
                if abs(step) <= 1e-13 * x:
                    break
        return x - 1.0

    return SeriesSpec("expexp", lam, log_norm, {"a": a, "c": c}, lam_arr, log_norm_arr, peak=peak)


def table_spec(name: str, lam_values: Sequence[float], log_norm_values: Sequence[float]) -> SeriesSpec:
    """Finite explicit prefix; evaluation beyond the table is an error."""
    lam_t = [float(v) for v in lam_values]
    ln_t = [float(v) for v in log_norm_values]
    if len(lam_t) != len(ln_t) or not lam_t:
        raise SpecFormatError("table spec needs equal-length non-empty lambda/log_norm tables")
    limit = len(lam_t)

    def lam(n: float) -> float:
        i = int(n)
        if not 1 <= i <= limit:
            raise DomainError(f"index {i} beyond the {limit}-entry table for series '{name}'")
        return lam_t[i - 1]

    def log_norm(n: float) -> float:
        i = int(n)
        if not 1 <= i <= limit:
            raise DomainError(f"index {i} beyond the {limit}-entry table for series '{name}'")
        return ln_t[i - 1]

    return SeriesSpec(name, lam, log_norm,
                      {"lambda": lam_t, "log_norm": ln_t}, n_limit=limit)


def validate(spec: SeriesSpec, n_max: int = 128) -> ValidationReport:
    """Check the convergence conditions at a truncation.

    d_estimate is max over checked n of log n / lambda_n, a finite lower
    witness for the exponent-density constant.  The decay trend is the
    least-squares slope of log||a_n||/lambda_n over the last half of the
    window; entirety demands it keep falling, so a non-negative slope is
    a failure and a barely-negative one only warrants a warning.
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
        xs = np.array([n for n, _ in ratios], dtype=float)
        ys = np.array([r for _, r in ratios], dtype=float)
        trend = float(np.polyfit(xs, ys, 1)[0])
    else:
        trend = -math.inf  # all-vanishing tail decays trivially

    if not monotone_ok:
        return ValidationReport(n_max, False, d_estimate, trend, "fail",
                                "exponents not strictly increasing from a positive start")
    if trend >= 0.0:
        return ValidationReport(n_max, True, d_estimate, trend, "fail",
                                "log-norm/exponent ratio is not decaying")
    verdict = "warn" if trend > -1e-4 else "pass"
    cause = "decay trend is marginal" if verdict == "warn" else ""
    return ValidationReport(n_max, True, d_estimate, trend, verdict, cause)


def term_log(spec: SeriesSpec, n: int, sigma: float) -> float:
    """log of one term norm: log||a_n|| + sigma * lambda_n  (-inf if vanishing)."""
    try:
        ln = spec.log_norm(n)
        if ln == -math.inf:
            return -math.inf
        t = ln + sigma * spec.lam(n)
    except OverflowError as exc:  # e.g. lgamma of an index past ~1e305
        raise _term_range_error(spec, n, sigma) from exc
    if math.isnan(t) or t == math.inf:
        raise _term_range_error(spec, n, sigma)
    return t


def _term_range_error(spec: SeriesSpec, n, sigma: float) -> NumericError:
    return NumericError(
        f"term magnitude at n={n}, sigma={sigma} of series '{spec.name}' exceeds "
        f"the machine range; {_RANGE_HINT}"
    )


def _verified_peak(spec: SeriesSpec, t: Callable[[float], float], sigma: float):
    """The spec's central index rounded to an index, checked to be the maximum term.

    Log-concavity makes a local maximum global, so the candidate is
    accepted once t(n-1) <= t(n) >= t(n+1).  A rising neighbour is
    climbed to first: the integer argmax can sit one off the rounded
    continuous root, and past n ~ 1e7 rounding of the term values is as
    large as the one-step differences.  Beyond 2**53 those differences
    vanish entirely and the factor-2 neighbours are checked instead.
    A candidate that fails the check means the peak generator is wrong: a
    NumericError.
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
    t = functools.lru_cache(maxsize=None)(lambda n: term_log(spec, n, sigma))  # the climb re-reads terms
    if spec.n_limit is not None:
        best = max(range(1, spec.n_limit + 1), key=t)
    else:
        best = _verified_peak(spec, t, sigma)
        if t(best) == -math.inf:  # it ties its -inf neighbours
            raise DomainError(f"term n={best} of series '{spec.name}' vanishes; only tables may end")
    return best, from_real(t(best))


def _log_geom(c, s, m):
    """log sum_{j=0}^{m-1} exp(c + j*s) elementwise, for finite s; -inf where m = 0."""
    r = -np.maximum(np.abs(s), 1e-300)
    return c + np.fmax((m - 1.0) * s, 0.0) + np.log(np.expm1(m * r) / np.expm1(r))


class _Edges:
    """Ascending block edges around the central index n* and the bounds they give.

    Each edge's term log t(n) carries a margin of _ROUND_ULPS ulps of
    |log||a_n||| + |sigma*lambda_n|, the parts that nearly cancel near n*.
    Log-concavity bounds the terms between edges e < e' from above by the
    tangents at both ends, with slopes from the neighbouring chords widened
    by their margins; geometric series with the end chords bound the terms
    outside the edges.  So the bounds hold for the true terms.  Logs are
    relative to t(n*).
    """

    def __init__(self, spec: SeriesSpec, sigma: float, ns: np.ndarray, t_star: float):
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
        self.err = _ROUND_ULPS * _EPS * (np.abs(ln) + np.abs(s_lam))
        self.ns, self.f = ns, t - t_star
        self.hi = self.f + self.err

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def bounds(self):
        """log upper bounds of the terms in each block (e, e']: the left tangent parts, then the right ones."""
        ns, f, err, hi = self.ns, self.f, self.err, self.hi
        w = ns[1:] - ns[:-1]
        chord, rho = (f[1:] - f[:-1]) / w, (err[:-1] + err[1:]) / w
        # s1 >= every difference t(n+1) - t(n) from a block's left edge on
        # (the chord before it), s2 <= every one up to its right edge
        s1 = np.concatenate(((0.0,), chord[:-1] + rho[:-1]))
        s2 = np.concatenate((chord[1:] - rho[1:], (0.0,)))
        # the left tangent takes the terms up to where the tangents cross,
        # the right one the rest
        drop, slant = hi[1:] - hi[:-1], s1 - s2
        m1 = np.floor(np.fmin(np.fmax((drop - w * s2) / slant, 0.0), w - 1.0))
        m2 = w - m1
        if ns[-1] - ns[0] > _EXACT_INDEX:
            # past the float's integer resolution count the crossing from the
            # nearer edge and round the far count up, so no term is lost
            right = np.fmin(np.fmax(np.ceil((w * s1 - drop) / slant), 1.0), w)
            near_right = right < 0.5 * w
            m1 = np.where(near_right, np.nextafter(w - right, math.inf), m1)
            m2 = np.where(near_right, right, np.nextafter(m2, math.inf))
        # the end blocks have one neighbour: the first takes only its right
        # tangent, the last only its left one
        m1[0], m2[0], m1[-1], m2[-1] = 0.0, w[0], w[-1], 0.0
        return _log_geom(np.concatenate((hi[:-1] + s1, hi[1:])),
                         np.concatenate((s1, -s2)), np.concatenate((m1, m2)))

    def tails(self):
        """log bounds of the terms before the first edge and past the last one."""
        (n0, n1), (f0, f1), (e0, e1) = (v[:2].tolist() for v in (self.ns, self.f, self.err))
        s = (f1 - f0 - e0 - e1) / (n1 - n0)
        left = -math.inf if n0 <= 1.0 else f0 + e0 - s - math.log(-math.expm1(-s)) if s > 0 else math.inf
        (n0, n1), (f0, f1), (e0, e1) = (v[-2:].tolist() for v in (self.ns, self.f, self.err))
        s = (f1 - f0 + e0 + e1) / (n1 - n0)
        return left, f1 + e1 + s - math.log(-math.expm1(s)) if s < 0 else math.inf


@functools.lru_cache(maxsize=64)
def _offsets(per_side: int, reach_left: float, reach_right: float) -> np.ndarray:
    """Edge offsets from the central index, in units of the local standard deviation.

    For Gaussian terms of variance v a block of width w that carries a
    share m of the sum has a bound gap proportional to m*w**2/v.  The
    fewest edges for a total gap g have widths growing as exp(k**2/(6v))
    with the offset k: sqrt(6)*erfinv(i/N) per side, N = 1.2/sqrt(g)
    (calibrated on expexp: the measured gap is 0.94g at g = 5e-5).  Past
    the last of those the widths double up to the reach, so no block is
    more than twice as wide as its neighbour (a chord's rounding margin
    grows with that ratio).
    """
    k = math.sqrt(6.0) * erfinv(np.arange(per_side) / per_side)
    sides = []
    for k_max in (reach_left, reach_right):
        core = k[:max(int(k.searchsorted(k_max)), 2)]
        step = core[-1] - core[-2]
        grow = math.ceil(math.log2((k_max - core[-1]) / (2.0 * step) + 1.0))
        widths = 2.0 * (2.0 ** np.arange(1.0, grow + 1.0) - 1.0)  # 2, 4, 8, ... steps
        sides.append(np.concatenate((core, core[-1] + step * widths)))
    offsets = np.concatenate((-sides[0][:0:-1], sides[1]))
    offsets.setflags(write=False)  # shared by every caller of the cache
    return offsets


def log_sum_upper(spec: SeriesSpec, sigma: float) -> ExtReal:
    """Upper surrogate: log of the full sum of term norms, certified from above.

    Finite tables are enumerated.  Otherwise one outward walk from the
    central index n* (the peak generator rounded) bounds the sum (see
    _Edges).  The local Gaussian model sets the reach, where each
    geometric tail falls below _TAIL_TOL/2 of the sum, and the edges: a
    window of at most _EXACT_TERMS terms takes every term, so the value is
    _TAIL_TOL-tight there; a wider one is cut into blocks for a gap of
    max(_TAIL_TOL, _BLOCK_SLACK, rounding noise) between the bounds
    (_offsets).  The reach grows until both tails are small enough.  Term
    values, slopes and the sum carry rounding margins, so the value never
    falls below the true sum.
    """
    if spec.n_limit is not None:
        ts = [term_log(spec, n, sigma) for n in range(1, spec.n_limit + 1)]
        return from_real(lse_accumulate(ts))
    # the walk needs a start near the peak, not the exact maximum term
    n_star = float(max(1, math.floor(spec.peak(sigma) + 0.5)))

    t_star = term_log(spec, n_star, sigma)
    # The model's deviation on each side comes from the drop t(n*) - t(n* -+ h)
    # at h ~ sqrt(n*) (the expexp variance is n*), moved out where the
    # rounding noise of t would hide the drop.
    ln, s_lam = spec.log_norm(n_star), sigma * spec.lam(n_star)
    noise = _ROUND_ULPS * _EPS * (abs(ln) + abs(s_lam) + 1.0)
    h = max(4.0, float(math.floor(math.sqrt(n_star) * math.sqrt(1.0 + 64.0 * noise))))
    dev = [h / math.sqrt(2.0 * max(t_star - term_log(spec, n, sigma), 4.0 * noise))
           for n in (max(n_star - h, 1.0), n_star + h)]
    scale = min(dev)

    def reach(depth):  # where the model's terms are depth below the peak, plus _TAIL_PAD terms
        left, right = (math.ceil(d * math.sqrt(2.0 * depth)) + _TAIL_PAD for d in dev)
        return [min(left, n_star - 1.0), right]

    # A window summed term by term has all of its mass to weigh its tails
    # against; blocks have only their edge terms, so they reach further.
    depth = math.log(2.0 / _TAIL_TOL) + 16.0 * noise
    span = reach(depth + 2.0)
    if span[0] + span[1] > _EXACT_TERMS:
        span = reach(depth + 4.0 + math.log(scale))
    per_side = math.ceil(1.2 / math.sqrt(min(max(_TAIL_TOL, _BLOCK_SLACK, noise), 0.1)))
    for _ in range(_MAX_DOUBLINGS):
        exact = span[0] + span[1] <= _EXACT_TERMS
        if exact:
            ns = np.arange(n_star - span[0], n_star + span[1] + 1.0)
        else:  # reaches rounded up to quarters of the deviation keep the offsets cached
            quarters = (math.ceil(4.0 * r / scale) / 4.0 for r in span)
            ns = np.maximum(n_star + np.floor(scale * _offsets(per_side, *quarters)),
                            n_star - span[0])
            ns = ns[np.concatenate(((True,), ns[1:] > ns[:-1]))]  # some offsets coincide
        edges = _Edges(spec, sigma, ns, t_star)
        tails = edges.tails()
        # the edge terms, each at least exp(hi - 2*err), bound the sum from below
        top = float(edges.hi.max())
        edge_sum = float(np.exp(edges.hi - top).sum())
        cut = top + math.log(0.5 * _TAIL_TOL * edge_sum) - 2.0 * float(edges.err.max())
        if tails[0] <= cut and tails[1] <= cut:
            break
        span = [min(2.0 * span[0], n_star - 1.0) if tails[0] > cut else span[0],
                2.0 * span[1] if tails[1] > cut else span[1]]
    else:
        raise TailBoundError(f"term ratio not eventually below 1 for '{spec.name}' at "
                             f"sigma={sigma}, n={ns[-1]}", int(min(ns[-1], 2.0 ** 62)))
    if not exact:  # blocks bound the terms between their edges
        parts = edges.bounds()
        top = float(parts.max())
        edge_sum = float(np.exp(parts - top).sum()) + math.exp(edges.hi[0] - top)
    log_u = top + math.log(edge_sum + sum(math.exp(x - top) for x in tails))
    return from_real(t_star + log_u + 4.0 * _EPS * (abs(t_star) + abs(log_u) + 1.0))

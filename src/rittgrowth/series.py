"""Dirichlet series with generator-defined exponents and coefficient norms.

A series is Sum_n a_n * exp(s * lambda_n) with lambda_n strictly increasing
to infinity and log||a_n|| / lambda_n -> -inf.  Only the norms matter for
growth, so a SeriesSpec stores two generators: n -> lambda_n and
n -> log||a_n|| (-inf marks a vanishing term).

The maximum-modulus curve M(sigma) = sup_t ||f(sigma+it)|| is not
computable from norms alone, but it is sandwiched:

    max term <= M(sigma) <= sum of term norms,

and both bounds are computed here.  Term sequences of interest are
strictly log-concave in n once past the first term, so the maximum term
sits at the central index of Wiman-Valiron theory: the root of the
continuous stationarity equation d/dn log(term) = 0.  A spec that knows
that root supplies it as its `peak` generator (expexp solves
digamma(n+1) = log c + a*sigma); the rounded root is accepted once its
neighbours confirm the maximum, which log-concavity makes sufficient.
Specs without a peak generator, or a candidate that fails the check,
fall back to a doubling bracket plus integer ternary search (the
maximizing index grows like exp(sigma) and cannot be enumerated).  The
sum keeps an explicit window of significant terms; when the window would
be enormous, a certified upper bound peak + log(window width) replaces
the explicit log-sum-exp.  That slack is O(log n*) on a value of size
exp(a*sigma) and is invisible at the iterated-log level where every
indicator lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .errors import DomainError, NumericError, SearchLimitError, SpecFormatError, TailBoundError
from .levelindex import ExtReal, from_real, lse_accumulate

# Hard cap for the expanding searches; doubling 2000 times from 64 covers
# every index reachable before term magnitudes overflow the double range.
_MAX_DOUBLINGS = 2000
DEFAULT_WINDOW_CAP = 1 << 20
DEFAULT_TAIL_TOL = 1e-12
# Largest index that doubles still carry exactly; past it indices are floats.
_EXACT_INDEX = 2 ** 53
_RANGE_HINT = "series evaluation needs roughly a*sigma < 700 for the expexp family"
_DIGAMMA_ONE = -0.5772156649015329  # digamma(1) = -Euler's gamma
_PEAK_CLIMB = 4  # neighbour steps from a peak candidate before the generic search


@dataclass(frozen=True)
class SeriesSpec:
    """A vector-valued Dirichlet series reduced to its coefficient norms.

    lam / log_norm are scalar generators (1-based n).  The optional
    *_array variants accept a float ndarray of indices and are used to
    vectorize window sums; they must agree with the scalar generators.
    The optional peak generator maps sigma to the continuous maximizer of
    n -> log||a_n|| + sigma*lambda_n; max_term_log verifies the integer
    it rounds to and falls back to its generic search without one.
    """

    name: str
    lam: Callable[[float], float]
    log_norm: Callable[[float], float]
    params: dict = field(default_factory=dict)
    lam_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    log_norm_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    n_limit: Optional[int] = None  # finite tables only
    peak: Optional[Callable[[float], float]] = None

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


def expexp_spec(a: float, c: float, log_scale: float = 0.0) -> SeriesSpec:
    """lambda_n = a*n, log||a_n|| = n log c - log n! (+ optional offset).

    The sum has the closed form exp(c * e^(a sigma)) - 1, which makes this
    the workhorse family with analytically known indicators.
    """
    if a <= 0 or c <= 0:
        raise SpecFormatError("expexp requires a > 0 and c > 0")
    log_c = math.log(c)

    def lam(n: float) -> float:
        return a * n

    def log_norm(n: float) -> float:
        return n * log_c - math.lgamma(n + 1.0) + log_scale

    def lam_arr(ns: np.ndarray) -> np.ndarray:
        return a * ns

    def log_norm_arr(ns: np.ndarray) -> np.ndarray:
        return ns * log_c - gammaln(ns + 1.0) + log_scale

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

    params = {"a": a, "c": c}
    if log_scale:
        params["log_scale"] = log_scale
    return SeriesSpec("expexp", lam, log_norm, params, lam_arr, log_norm_arr, peak=peak)


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


def spec_from_json(doc: dict) -> SeriesSpec:
    """Build a SeriesSpec from its documented JSON form.

    {"family": "expexp", "a": ..., "c": ...}  or
    {"family": "table", "name": ..., "lambda": [...], "log_norm": [...]}
    Unknown fields are rejected.
    """
    if not isinstance(doc, dict) or "family" not in doc:
        raise SpecFormatError("series document must be an object with a 'family' field")
    family = doc["family"]
    if family == "expexp":
        allowed = {"family", "a", "c", "log_scale"}
        unknown = set(doc) - allowed
        if unknown:
            raise SpecFormatError(f"unknown fields for expexp spec: {sorted(unknown)}")
        try:
            return expexp_spec(float(doc["a"]), float(doc["c"]), float(doc.get("log_scale", 0.0)))
        except KeyError as exc:
            raise SpecFormatError(f"expexp spec missing field {exc}") from exc
    if family == "table":
        allowed = {"family", "name", "lambda", "log_norm"}
        unknown = set(doc) - allowed
        if unknown:
            raise SpecFormatError(f"unknown fields for table spec: {sorted(unknown)}")
        try:
            return table_spec(str(doc.get("name", "table")), doc["lambda"], doc["log_norm"])
        except KeyError as exc:
            raise SpecFormatError(f"table spec missing field {exc}") from exc
    raise SpecFormatError(f"unknown series family '{family}'")


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


class _TermCache:
    """Per-evaluation memo so the bracket and ternary phases share evaluations."""

    __slots__ = ("spec", "sigma", "memo")

    def __init__(self, spec: SeriesSpec, sigma: float):
        self.spec = spec
        self.sigma = sigma
        self.memo: dict = {}

    def __call__(self, n) -> float:
        t = self.memo.get(n)
        if t is None:
            t = term_log(self.spec, n, self.sigma)
            self.memo[n] = t
        return t


def _next_index(n):
    """Successor that stays exact for ints and monotone for large floats."""
    if isinstance(n, int):
        return n + 1
    return math.nextafter(n, math.inf) if n + 1.0 == n else n + 1.0


def _mid(lo, hi):
    m = lo + (hi - lo) / 2
    if isinstance(lo, int) and isinstance(hi, int):
        return int(m)
    return m


def _geom_probe(lo, hi, frac: float):
    """Geometric interpolation between positive indices, type-preserving."""
    m = math.exp(math.log(lo) + frac * (math.log(hi) - math.log(lo)))
    if isinstance(lo, int) and isinstance(hi, int) and hi <= _EXACT_INDEX:
        return min(hi - 1, max(lo + 1, int(m)))
    return m


def _verified_peak(spec: SeriesSpec, t: _TermCache, sigma: float):
    """The spec's central index rounded to an index, if it is the maximum.

    Log-concavity makes a local maximum global, so the candidate is
    accepted once t(n-1) <= t(n) >= t(n+1).  A rising neighbour is
    climbed to first: the integer argmax can sit one off the rounded
    continuous root, and past n ~ 1e7 rounding of the term values is as
    large as the one-step differences.  Beyond 2**53 those differences
    vanish entirely and the factor-2 neighbours are checked instead.
    None means the check failed and the generic search decides.
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
        return None
    if t(n_c / 2.0) <= t(n_c) >= t(n_c * 2.0):
        return n_c
    return None


def max_term_log(spec: SeriesSpec, sigma: float, n_max: int = 64) -> tuple[int, ExtReal]:
    """Index and log-value of the maximum term at abscissa sigma.

    Finite tables are enumerated.  Otherwise the spec's peak generator, if
    any, proposes the index and its neighbours confirm it.  The generic
    search, used without a peak generator or when the check fails,
    searches 1..n_max and doubles the bound while the sequence is still
    rising at the edge, then ternary-searches the (log-concave) bracket.
    Beyond 2**53 the index is tracked as a float; the flat peak makes the
    sub-integer placement irrelevant there.
    """
    t = _TermCache(spec, sigma)
    if spec.n_limit is not None:
        best = max(range(1, spec.n_limit + 1), key=t)
        return best, from_real(t(best))
    if spec.peak is not None:
        best = _verified_peak(spec, t, sigma)
        if best is not None:
            return best, from_real(t(best))

    hi = max(2, int(n_max))
    for _ in range(_MAX_DOUBLINGS):
        # factor-2 probe: one-step differences fall below double rounding
        # at tower-sized magnitudes, factor-2 differences never do
        edge = hi if hi <= _EXACT_INDEX else float(hi)
        if t(edge * 2) < t(edge):
            hi = hi * 2  # peak lies in [1, 2*edge]
            break
        hi = hi * 2
    else:
        raise SearchLimitError(
            f"maximum-term search for '{spec.name}' at sigma={sigma} exceeded "
            f"{_MAX_DOUBLINGS} doublings"
        )

    lo, hi = 1, (hi if hi <= _EXACT_INDEX else float(hi))
    # Ternary search with geometric probes (uniform progress on the index's
    # order of magnitude) and a flat-top stop: once the two probes agree at
    # double resolution the peak value is already pinned.
    while (hi - lo) > 8:
        m1 = _geom_probe(lo, hi, 1.0 / 3.0)
        m2 = _geom_probe(lo, hi, 2.0 / 3.0)
        if not (lo < m1 < m2 < hi):  # index resolution exhausted
            break
        t1, t2 = t(m1), t(m2)
        if t1 == t2:
            lo, hi = m1, m2
            break
        if t1 < t2:
            lo = m1
        else:
            hi = m2
    # Small exhaustive sweep around the bracket firms up the integer argmax.
    if isinstance(lo, int) and isinstance(hi, int) and (hi - lo) <= 64:
        lo_s, hi_s = max(1, lo - 2), hi + 2
        best = max(range(lo_s, hi_s + 1), key=t)
    else:
        cands = [lo, _mid(lo, hi), hi]
        best = max(cands, key=t)
    return best, from_real(t(best))


def _term_logs_window(spec: SeriesSpec, sigma: float, n_lo, n_hi) -> np.ndarray:
    ns = np.arange(float(n_lo), float(n_hi) + 0.5)
    if spec.lam_array is not None and spec.log_norm_array is not None:
        ts = spec.log_norm_array(ns) + sigma * spec.lam_array(ns)
    else:
        ts = np.array([term_log(spec, int(n), sigma) for n in ns])
    return ts


def log_sum_upper(spec: SeriesSpec, sigma: float, tail_tol: float = DEFAULT_TAIL_TOL,
                  window_cap: int = DEFAULT_WINDOW_CAP, n_max: int = 64, n_star=None) -> ExtReal:
    """Upper surrogate: log of the full sum of term norms.

    The significant window around the maximum term is summed exactly
    (log-sum-exp); both excluded tails are certified below tail_tol
    relative mass - the right one through the decreasing term ratio,
    which is checked and reported if it fails.  Windows wider than
    window_cap switch to the certified bound peak + log(width), still an
    upper bound for the sum and above the maximum term.
    """
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    t = _TermCache(spec, sigma)

    if spec.n_limit is not None:
        ts = [t(n) for n in range(1, spec.n_limit + 1)]
        return from_real(lse_accumulate(ts))

    if n_star is None:  # caller may pass the argmax it already computed
        n_star, _peak_ext = max_term_log(spec, sigma, n_max=n_max)
    peak = t(n_star)
    log_half_tol = math.log(tail_tol / 2.0)

    # Left edge: t is increasing on [1, n_star]; excluded terms each sit
    # below the threshold and there are at most n_star of them.
    thr_left = peak + log_half_tol - math.log(max(float(n_star), 2.0))
    if n_star == 1 or t(1) > thr_left:
        n_left = 1
    else:
        lo, hi = 1, n_star  # t(lo) <= thr < t(hi)
        while (hi - lo) > 1:
            m = _mid(lo, hi)
            if m == lo or m == hi:
                break
            if t(m) > thr_left:
                hi = m
            else:
                lo = m
        n_left = hi

    # Right edge: t is decreasing on [n_star, inf); the depth term
    # 0.5*log(n_star) pre-pays the flatness of the ratio near the peak so
    # the geometric certificate below succeeds without re-expansion.
    thr_right = peak + log_half_tol - 0.5 * math.log(max(float(n_star), 16.0)) - 2.0
    inside, step = n_star, 1
    for _ in range(_MAX_DOUBLINGS):
        cand = n_star + step if n_star + step > n_star else _next_index(float(n_star))
        if t(cand) <= thr_right:
            break
        inside, step = cand, step * 2
    else:
        raise SearchLimitError(
            f"right tail of '{spec.name}' at sigma={sigma} never fell below its threshold"
        )
    outside = cand
    while (outside - inside) > 1:
        m = _mid(inside, outside)
        if m == inside or m == outside:
            break
        if t(m) > thr_right:
            inside = m
        else:
            outside = m
    n_right = outside

    # Geometric certificate in blocks: with Delta = t(n_right + s) - t(n_right)
    # and decreasing chord slopes (log-concavity), every block of s terms
    # past n_right is bounded by s * exp(t(n_right) + j*Delta), so
    # tail <= s * exp(t(n_right)) / (1 - exp(Delta)).  The stride s grows
    # until Delta is resolvably negative: at huge magnitudes the one-step
    # difference is below double rounding.
    for _ in range(_MAX_DOUBLINGS):
        base = t(n_right)
        resolve = 2.0 + abs(base) * 1e-13
        stride = 1
        span = delta = 0.0
        for _ in range(_MAX_DOUBLINGS):
            probe = n_right + stride
            if not probe > n_right:  # stride below float resolution
                probe = _next_index(float(n_right))
            span = float(probe) - float(n_right)
            delta = t(probe) - base
            if delta < -resolve:
                break
            stride *= 2
        if delta >= 0.0:
            raise TailBoundError(
                f"term ratio not eventually below 1 for '{spec.name}' at sigma={sigma}, n={n_right}",
                int(n_right),
            )
        tail_log = math.log(max(span, 1.0)) + base - (math.log1p(-math.exp(delta)) if delta > -700 else 0.0)
        if tail_log <= peak + log_half_tol:
            break
        n_right = n_right * 2  # widen geometrically; extra width only loosens log(width)
    else:
        raise TailBoundError(
            f"right-tail certificate failed for '{spec.name}' at sigma={sigma}, n={n_right}",
            int(n_right),
        )

    width = float(n_right) - float(n_left) + 1.0
    if width <= window_cap:
        ts = _term_logs_window(spec, sigma, n_left, n_right)
        finite = ts[np.isfinite(ts)]
        if finite.size == 0:
            return from_real(peak)
        m = float(finite.max())
        val = m + math.log(float(np.exp(finite - m).sum()))
        return from_real(max(val, peak))
    # Certified coarse bound: window terms each <= peak, tails < tail_tol mass.
    return from_real(peak + math.log(width + 1.0))

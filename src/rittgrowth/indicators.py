"""Growth-indicator estimation from ratio sequences along a sigma grid.

Every indicator is a limsup or liminf of a ratio r(sigma); on a finite
grid they become tail-window statistics:

* the raw window extremum (sup or inf over the final window), and
* a bias-removed extrapolation: for curves with a finite limit, the
  numerator behaves like rho * d(sigma) + const, so regressing r against
  1/d and reading the intercept strips the const/d(sigma) tail that a raw
  extremum would keep.  The regression is trusted only when its residuals
  are tiny relative to the intercept; genuinely oscillating ratios fail
  that check and fall back to the window extremum, which is exactly what
  a limsup/liminf of an oscillation wants.

Each estimate carries a convergence diagnostic (least-squares drift of
the ratio across the window) and an interval obtained by re-estimating
on the certified lower/upper growth surrogates.  The curve is sampled
once per surrogate pairing (``Samples``, each set the (sigma, value) pairs
of ``sample_profile``); every indicator, both index-pair scans and the one
relative curve M_g^{-1} M_f, composed from f's profile, read those samples,
so f enters only through ``sample_profile`` and its floor and monotonicity
checks.  An indicator pair builds one ratio sequence per
pairing, read by its limsup and liminf alike (a type and a weak type of equal
exponents share it), and each grid point's denominator once for all pairings,
in floats.  A sequence fits each tail window once (RatioSequence.fit), in
closed form over plain lists with every sum an fsum: every mode and label
reads that fit.

An estimate reads only the tail of its ratio sequence, so a curve is
sampled at grid index 0 and the last W = max(_MIN_POINTS, ceil(window * n))
of the grid's n points, W at most n.  Curves increase and iterated logs
have threshold domains, so a ratio valid at index 0 is valid at every
point and each of its windows lies in that tail; a ratio that index 0
leaves out is built from the whole grid (``Samples.whole``), so every
count still covers the whole grid.

The one setting is the tail window, a share of the ratio points (``window``,
default WINDOW, the CLI's --window); the other numbers are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from operator import lt, mul
from typing import Callable, Iterator, Optional, Sequence

from .errors import DetectionFailedError, DomainError, IndicatorUndefinedError
from .growth import DEFAULT_GRID, GridSpec, SourceBundle, compose_samples, sample_profile
from .levelindex import EXP_LIMIT, ExtReal, from_real, lift, log_chain, log_iter, ratio_to_float

LIMSUP = "limsup"
LIMINF = "liminf"


WINDOW = 0.4            # tail window, as a share of the ratio points; the one setting
_MIN_POINTS = 16
_RESID_REL_TOL = 1e-3   # accept the extrapolated intercept below this residual level
_DRIFT_TOL = 0.05       # non-convergence flag: |trend| * window vs value
FINITE_EPS = 1e-3       # numeric meaning of "finite and nonzero"
_INDEX_MARGIN = 0.1     # excess over the Kronecker/b threshold in index-pair scans


def finite_nonzero(value: float) -> bool:
    return FINITE_EPS <= value <= 1.0 / FINITE_EPS


def _tail_count(n: int, window: float) -> int:
    """Points in the tail window of share window over n; all n for a share outside
    (0, 1], which tail_estimate refuses."""
    return min(n, max(_MIN_POINTS, math.ceil(window * n))) if 0.0 < window <= 1.0 else n


@dataclass(frozen=True)
class IndexPair:
    p: int
    q: int


@dataclass(frozen=True)
class RatioPoint:
    sigma: float
    ratio: float
    regressor: float  # 1/denominator, 0.0 when the denominator exceeds machine range


@dataclass(frozen=True)
class WindowFit:
    """The statistics of a tail window that every limsup and liminf of it reads."""

    trend: float  # least-squares slope of the finite ratios against their index
    # least-squares intercept of the ratios against the regressors and the rms of
    # its residuals; None when a ratio is not finite
    intercept: Optional[float]
    resid_rms: Optional[float]
    high: float
    low: float
    # min(share of rising steps, share of falling steps) across the window
    balance: float


@dataclass(frozen=True)
class RatioSequence:
    kind: str
    p: int
    q: int
    aux_exponent: Optional[float]
    points: tuple[RatioPoint, ...]  # the valid points held: the last of them
    dropped: tuple[float, ...]
    skipped: int = 0  # valid points before those held, never evaluated
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def fit(self, w: int) -> WindowFit:
        """The statistics of the last w points, computed on the first call."""
        if w not in self._fits:
            self._fits[w] = _fit_window(self.points[-w:])
        return self._fits[w]


def json_number(v):
    """A float as JSON can carry it: infinities and nan become "inf", "-inf", "nan"."""
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    return v


@dataclass(frozen=True)
class IndicatorEstimate:
    kind: str
    p: int
    q: int
    value: float
    lo: float
    hi: float
    trend: float
    window: float
    converged: bool
    method: str
    n_points: int
    n_dropped: int = 0
    aux_exponent: Optional[float] = None
    # min(share of rising steps, share of falling steps) across the window;
    # bounded oscillation mixes directions, divergence does not
    direction_balance: float = 0.0

    def to_json(self, grid: Optional[GridSpec] = None) -> dict:
        # every field but direction_balance; aux_exponent only when set
        doc = {name: json_number(v) for name, v in vars(self).items()
               if name != "direction_balance" and v is not None}
        if grid is not None:
            doc["grid"] = grid.describe()
        return doc


def ratio_sequence(samples: Sequence[tuple[float, ExtReal]], kind: str, p: int, q: int,
                   aux_exponent: Optional[float] = None, value_depth: int = 1) -> RatioSequence:
    """Defining ratio of an indicator along sampled curve values.

    samples hold the curve at log-depth value_depth: a growth profile
    stores log M (depth 1), a composed M_g^{-1}M_f sequence stores the
    value itself (depth 0).  kind "order" forms log^[p](.) / log^[q]sigma;
    kind "type" forms log^[p-1](.) / (log^[q-1]sigma)^aux.  Points whose
    iterated logs leave their domain (leading points of the grid) are
    dropped and reported, not errors; an empty result is an error.
    """
    samples = tuple(samples)
    return next(_ratio_sequences(Samples((("", samples),), len(samples), value_depth),
                                 kind, p, q, aux_exponent, 1.0))


def _denominator(sigma: float, kind: str, depth: int,
                 aux_exponent: Optional[float]) -> Optional[tuple[ExtReal, float]]:
    """(denominator, regressor 1/den or 0.0 beyond machine range), None off the log domain.

    Built in floats from log_chain, which reads sigma as the curves' rules do.
    An order's denominator is log^[depth] sigma; a type's, (log^[depth] sigma)^aux,
    is exp(aux * log^[depth+1] sigma), whose exponent is a machine float even
    where the denominator is not (depth -1 gives exp(aux * sigma)).
    """
    try:
        v = log_chain(sigma, depth if kind == "order" else depth + 1)
    except DomainError:
        return None
    if kind == "order":
        return None if v <= 0.0 else (from_real(v), 1.0 / v)
    if depth < 0 and sigma < 1.0 and math.exp(sigma) == 0.0:
        return None  # e^sigma underflows: no positive base
    log_den = aux_exponent * v
    if math.isinf(log_den):  # a tower two levels up, or no positive denominator at all
        return None if log_den < 0 else (
            lift(math.log(aux_exponent) + math.log(v), 2), 0.0)
    if log_den > EXP_LIMIT:
        return lift(log_den, 1), 0.0
    den = math.exp(log_den)
    return from_real(den), (1.0 / den if den > 0.0 else 0.0)


def _ratio_sequences(samples: Samples, kind: str, p: int, q: int, aux_exponent: Optional[float],
                     window: float) -> Iterator[RatioSequence]:
    """ratio_sequence of each set of samples, for tail windows of share window.

    The sets share their sigmas, so each denominator is built once.  Values
    increase and iterated logs have threshold domains, so a ratio's valid
    points are a suffix of the grid: when every set's ratio is valid at
    index 0 it is valid everywhere, and the sampled tail holds every
    window.  Otherwise, or when the window reaches past the tail, the
    sequences are built from samples.whole(), the whole grid.
    """
    if kind not in ("order", "type"):
        raise ValueError(f"unknown ratio kind '{kind}'")
    if p < 0 or q < 0:
        raise ValueError(f"indices p, q must be >= 0, got ({p}, {q})")
    if kind == "type":
        if aux_exponent is None:
            raise ValueError("type ratios need the order as aux_exponent")
        if not (aux_exponent > 0 and math.isfinite(aux_exponent)):
            raise IndicatorUndefinedError(
                f"type ratio needs a finite positive exponent, got {aux_exponent}"
            )
    num_shift = (p if kind == "order" else p - 1) - samples.value_depth
    den_depth = q if kind == "order" else q - 1

    def ratio(value: ExtReal, den) -> Optional[float]:
        try:
            return None if den is None else ratio_to_float(
                log_iter(value, num_shift), den[0])
        except DomainError:
            return None

    sets = [pts for _name, pts in samples.sets]
    held, n = len(sets[0]), samples.n
    dens = [_denominator(sigma, kind, den_depth, aux_exponent) for sigma, _value in sets[0]]
    rows = [[ratio(value, den) for (_sigma, value), den in zip(pts, dens)] for pts in sets]
    if held < n and (held - 1 < _tail_count(n, window) or any(row[0] is None for row in rows)):
        yield from _ratio_sequences(samples.whole(), kind, p, q, aux_exponent, window)
        return
    start = 1 if held < n else 0  # index 0 of a sampled tail only vouches for the prefix
    for pts, row in zip(sets, rows):
        points = tuple(RatioPoint(sigma, r, den[1]) for (sigma, _value), r, den
                       in zip(pts[start:], row[start:], dens[start:]) if r is not None)
        dropped = tuple(sigma for (sigma, _value), r in zip(pts, row) if r is None)
        if not points:
            raise DomainError(
                f"all {len(dropped)} grid points violate the iterated-log domain for "
                f"kind={kind}, p={p}, q={q}"
            )
        yield RatioSequence(kind, p, q, aux_exponent, points, dropped, n - held + start)


def _unscale(v: float, e: int) -> float:
    """v * 2**e, saturating to +-inf where it leaves the float range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def _centred(vs: list[float], e: int) -> tuple[list[float], float]:
    """vs scaled by 2**-e, less their mean, and that mean; fsum makes both
    independent of the order of vs."""
    scaled = [math.ldexp(v, -e) for v in vs]
    mean = math.fsum(scaled) / len(scaled)
    return [v - mean for v in scaled], mean


def _fit_window(win: Sequence[RatioPoint]) -> WindowFit:
    """WindowFit of a window, each least-squares line in closed form from centred sums.

    The finite ratios are scaled by an exact power of two to at most 1 in
    magnitude, so their squares and sums stay finite, and so are the
    regressors (subnormal xs would otherwise square to 0).  Every sum is
    an fsum, so the intercept and its residual do not depend on the
    order of the window's points.  A ratio is finite or infinite, never
    nan (ratio_to_float), so the window's extremes tell whether all are
    finite.
    """
    rs = [p.ratio for p in win]
    high, low = max(rs), min(rs)
    every = math.isfinite(high) and math.isfinite(low)
    rf = rs if every else [r for r in rs if math.isfinite(r)]
    n = len(rf)
    if not n:
        return WindowFit(0.0, None, None, high, low, 0.0)
    e = math.frexp(max(high, -low) if every else max(map(abs, rf)))[1]
    resid, mean = _centred(rf, e)
    trend = 0.0
    if n >= 2:
        t = range(n) if every else [i for i, r in enumerate(rs) if math.isfinite(r)]
        t_mean = sum(t) / n  # exact over every position
        t = [i - t_mean for i in t]
        trend = _unscale(math.fsum(map(mul, t, resid)) / math.fsum(map(mul, t, t)), e)

    intercept = resid_rms = None
    if every:
        xs = [p.regressor for p in win]
        x_hi, x_lo = max(xs), min(xs)
        x_max = max(x_hi, -x_lo)
        if x_hi - x_lo > 1e-13 * max(x_max, 1e-300):
            xs, x_mean = _centred(xs, math.frexp(x_max)[1])
            slope = math.fsum(map(mul, xs, resid)) / math.fsum(map(mul, xs, xs))
            resid = [r - slope * x for r, x in zip(resid, xs)]
            mean -= slope * x_mean
        intercept = _unscale(mean, e)
        resid_rms = _unscale(math.sqrt(math.fsum(map(mul, resid, resid)) / n), e)

    balance = 0.0
    if n >= 3:
        up = float(sum(map(lt, rf, islice(rf, 1, None)))) / (n - 1)  # rising steps
        balance = min(up, 1.0 - up)
    return WindowFit(trend, intercept, resid_rms, high, low, balance)


def tail_estimate(seq: RatioSequence, mode: str, window: float = WINDOW,
                  kind_label: Optional[str] = None) -> IndicatorEstimate:
    """Finite-grid stand-in for the limsup/liminf of a ratio sequence, read from the
    window's fit (seq.fit), which the other mode and labels share."""
    if mode not in (LIMSUP, LIMINF):
        raise ValueError(f"mode must be '{LIMSUP}' or '{LIMINF}'")
    n = len(seq.points) + seq.skipped
    if n < 8:
        raise ValueError(f"tail estimation needs >= 8 ratio points, got {n}")
    if not 0.0 < window <= 1.0:
        raise ValueError("window must lie in (0, 1]")
    w = _tail_count(n, window)
    fit = seq.fit(w)
    value, method = (fit.high if mode == LIMSUP else fit.low), "window-extremum"
    if fit.intercept is not None and fit.resid_rms <= _RESID_REL_TOL * max(1.0, abs(fit.intercept)):
        value, method = fit.intercept, "extrapolated"
    converged = math.isfinite(value) and abs(fit.trend) * w <= _DRIFT_TOL * max(1.0, abs(value))
    label = kind_label or ("order" if seq.kind == "order" else "type")
    return IndicatorEstimate(
        kind=label, p=seq.p, q=seq.q, value=value, lo=value, hi=value,
        trend=fit.trend, window=window, converged=converged, method=method,
        n_points=w, n_dropped=len(seq.dropped), aux_exponent=seq.aux_exponent,
        direction_balance=fit.balance,
    )


def _admissible(est: IndicatorEstimate, threshold: float) -> bool:
    """An order estimate counts as finite nonzero for index-pair purposes only
    if the ratio sequence is not simply drifting: either the bias-removed
    extrapolation succeeded, or the window oscillates in both directions."""
    if not (finite_nonzero(est.value) and est.value > threshold):
        return False
    return est.method == "extrapolated" or est.direction_balance >= 0.2


# ---------------------------------------------------------------------------
# Samples: a curve sampled once per surrogate pairing, shared by every ratio.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Samples:
    """A growth curve sampled on a grid of n points, once for each surrogate pairing.

    sets holds (pairing, ((sigma, value), ...)), every set on the same
    sigmas, with the pairing of the point estimate first; the others only
    widen its interval.  The sigmas are grid index 0 and the grid's last
    len - 1 points: the tail every estimate reads, and the point that
    decides whether the prefix between them is in a ratio's domain.  A set
    of n points holds the whole grid.  whole() gives the whole grid, from
    fill() the first time it is asked.  value_depth is the log-depth of the
    stored values (1 for a log M profile, 0 for a composed M_g^{-1}M_f
    curve); prefix starts every estimate's label.
    """

    sets: tuple[tuple[str, tuple[tuple[float, ExtReal], ...]], ...]
    n: int
    value_depth: int = 1
    prefix: str = ""
    fill: Optional[Callable[[], Samples]] = field(default=None, repr=False, compare=False)
    _whole: list = field(default_factory=list, init=False, repr=False, compare=False)

    def whole(self) -> Samples:
        if len(self.sets[0][1]) == self.n:
            return self
        if not self._whole:
            self._whole.append(self.fill())
        return self._whole[0]


def profile_samples(bundle: SourceBundle, grid: GridSpec, window: float = WINDOW) -> Samples:
    """log M of each surrogate of the bundle, upper first, sampled once: at grid index
    0 and the last max(_MIN_POINTS, ceil(window * n)) indices, every index at window=1."""
    tail = _tail_count(grid.count, window)
    return Samples(tuple((name, sample_profile(src, grid, tail))
                         for name, src in bundle.surrogates()),
                   grid.count, fill=lambda: profile_samples(bundle, grid, 1.0))


def relative_samples(f: Samples, g_bundle: SourceBundle) -> Samples:
    """The relative curve M_g^{-1} M_f, g composed against f's profile (profile_samples)
    at exactly the grid points f holds.

    The center pairing composes the two upper surrogates; the interval
    pairings cross them: (f-lower against g-upper) can only undershoot and
    (f-upper against g-lower) can only overshoot the true curve.  Each
    crossed pairing keeps its inversion bracket's outer end (its lower end
    for low, its upper end for high), so neither crosses the true curve.
    """
    (_upper, upper), *lower = f.sets
    sigmas, f_upper = zip(*upper)

    def composed(g_source, f_values, end="mid"):
        return tuple((s, from_real(v)) for s, v in compose_samples(g_source, sigmas, f_values, end))

    center = composed(g_bundle.upper, f_upper)
    sets = [("center", center)]
    # a crossed pairing whose lower surrogate is missing is center itself
    if lower or g_bundle.lower is not None:
        sets.append(("low", composed(g_bundle.upper, [v for _s, v in lower[0][1]], "low")
                     if lower else center))
        sets.append(("high", center if g_bundle.lower is None else
                     composed(g_bundle.lower, f_upper, "high")))
    return Samples(tuple(sets), f.n, value_depth=0, prefix="relative_",
                   fill=lambda: relative_samples(f.whole(), g_bundle))


def _estimates(samples: Samples, kind: str, p: int, q: int, modes: Sequence[tuple[str, str]],
               window: float, aux_exponent: Optional[float] = None) -> tuple[IndicatorEstimate, ...]:
    """One indicator per (mode, label) of modes, all read from each pairing's one ratio
    sequence: the first pairing gives every value, all of them its interval."""
    rows: list[list[IndicatorEstimate]] = [[] for _ in modes]
    for seq in _ratio_sequences(samples, kind, p, q, aux_exponent, window):
        for row, (mode, label) in zip(rows, modes):
            row.append(tail_estimate(seq, mode, window, samples.prefix + label))
    return tuple(replace(ests[0], lo=min(e.value for e in ests), hi=max(e.value for e in ests))
                 for ests in rows)


def order_pair(samples: Samples, p: int, q: int,
               window: float = WINDOW) -> tuple[IndicatorEstimate, IndicatorEstimate]:
    """(order, lower order) at index-pair (p, q) from the sampled surrogates."""
    return _estimates(samples, "order", p, q, ((LIMSUP, "order"), (LIMINF, "lower_order")), window)


def _require_finite_positive(value: float, what: str) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise IndicatorUndefinedError(
            f"{what} requires an order in (0, inf), got {value}"
        )


_TYPE_MODES = ((LIMSUP, "type"), (LIMINF, "lower_type"))
_WEAK_TYPE_MODES = ((LIMSUP, "weak_type_tau_bar"), (LIMINF, "weak_type_tau"))


def type_pair(samples: Samples, p: int, q: int, rho: float,
              window: float = WINDOW) -> tuple[IndicatorEstimate, IndicatorEstimate]:
    """(type, lower type): limsup/liminf of log^[p-1]M / (log^[q-1]sigma)^rho."""
    _require_finite_positive(rho, "the type indicator")
    return _estimates(samples, "type", p, q, _TYPE_MODES, window, rho)


def weak_type_pair(samples: Samples, p: int, q: int, lam: float,
                   window: float = WINDOW) -> tuple[IndicatorEstimate, IndicatorEstimate]:
    """(tau_bar, tau): limsup/liminf of the same ratio with the lower order as exponent."""
    _require_finite_positive(lam, "the weak-type indicator")
    return _estimates(samples, "type", p, q, _WEAK_TYPE_MODES, window, lam)


def type_pairs(samples: Samples, p: int, q: int, rho: Optional[float], lam: Optional[float],
               window: float = WINDOW) -> tuple[tuple, tuple]:
    """(type_pair at rho, weak_type_pair at lam), (None, None) where the exponent is
    None; equal exponents share one ratio sequence per pairing."""
    if rho is not None and rho == lam:
        _require_finite_positive(rho, "the type indicator")
        ests = _estimates(samples, "type", p, q, _TYPE_MODES + _WEAK_TYPE_MODES, window, rho)
        return ests[:2], ests[2:]
    return ((None, None) if rho is None else type_pair(samples, p, q, rho, window),
            (None, None) if lam is None else weak_type_pair(samples, p, q, lam, window))


# ---------------------------------------------------------------------------
# Relative indicators: the curve is M_g^{-1} M_f, sampled by composition.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelativeIndicators:
    rho: IndicatorEstimate
    lam: IndicatorEstimate
    delta: Optional[IndicatorEstimate] = None
    delta_bar: Optional[IndicatorEstimate] = None
    tau: Optional[IndicatorEstimate] = None
    tau_bar: Optional[IndicatorEstimate] = None
    notes: tuple[str, ...] = ()

    def by_kind(self) -> dict:
        ests = (self.rho, self.lam, self.delta, self.delta_bar, self.tau, self.tau_bar)
        return {e.kind: e for e in ests if e is not None}


def relative_indicators(f: Samples, g_bundle: SourceBundle, p: int, q: int,
                        window: float = WINDOW) -> RelativeIndicators:
    """The full relative indicator set of f, given as its profile, through g's growth scale.

    Types and weak types are only computed when the corresponding order or
    lower order is finite nonzero (their defining hypothesis); a skipped
    block is reported as None with a note.
    """
    samples = relative_samples(f, g_bundle)
    rho, lam = order_pair(samples, p, q, window)
    ok_rho, ok_lam = finite_nonzero(rho.value), finite_nonzero(lam.value)
    (delta, delta_bar), (tau_bar, tau) = type_pairs(samples, p, q, rho.value if ok_rho else None,
                                                    lam.value if ok_lam else None, window)
    notes = tuple(note for ok, note in (
        (ok_rho, f"type skipped: relative order {rho.value} not finite nonzero"),
        (ok_lam, f"weak type skipped: relative lower order {lam.value} not finite nonzero")) if not ok)
    return RelativeIndicators(rho, lam, delta, delta_bar, tau, tau_bar, notes)


# ---------------------------------------------------------------------------
# Index-pair detection.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionResult:
    pair: IndexPair
    order: IndicatorEstimate
    evidence: tuple[tuple[int, int, float], ...]


def _detect(sample, p_max: int, q_max: int, grid: Optional[GridSpec], candidates,
            threshold, what: str, window: float) -> DetectionResult:
    """First candidate (p, q) whose order is admissible above threshold(p, q).

    Candidates scan p up and q down, which mirrors the defining exclusion:
    a pair is only reachable after every (p-1, q-1) predecessor was already
    seen inadmissible.  All scanned estimates are returned as evidence.
    """
    if p_max > 6 or q_max > 6:
        raise ValueError("index-pair scans are limited to p_max, q_max <= 6")
    if p_max < 0 or q_max < 0:
        raise ValueError(f"p_max, q_max must be >= 0, got ({p_max}, {q_max})")
    samples = sample(grid or DEFAULT_GRID)
    evidence: list[tuple[int, int, float]] = []
    for p, q in candidates:
        try:
            est, = _estimates(samples, "order", p, q, ((LIMSUP, "order"),), window)
        except DomainError:
            evidence.append((p, q, math.nan))
            continue
        evidence.append((p, q, est.value))
        if _admissible(est, threshold(p, q)):
            return DetectionResult(IndexPair(p, q), est, tuple(evidence))
    raise DetectionFailedError(f"no admissible {what} up to ({p_max}, {q_max})", evidence)


def detect_index_pair(bundle: SourceBundle, p_max: int = 4, q_max: int = 4,
                      grid: Optional[GridSpec] = None,
                      window: float = WINDOW) -> DetectionResult:
    """First (p, q), scanning p up and q down, whose order is finite nonzero.

    The diagonal (1,1) candidate carries the extra threshold 1 + margin.
    """
    cands = chain([(1, 1)], ((p, q) for p in range(1, p_max + 1)
                             for q in range(min(p - 1, q_max), -1, -1)))
    return _detect(lambda grid: profile_samples(bundle, grid, window), p_max, q_max, grid, cands,
                   lambda p, q: 1.0 + _INDEX_MARGIN if p == q else FINITE_EPS,
                   "index-pair", window)


def detect_relative_index_pair(f_bundle: SourceBundle, g_bundle: SourceBundle, m: int,
                               p_max: int = 4, q_max: int = 4,
                               grid: Optional[GridSpec] = None,
                               window: float = WINDOW) -> DetectionResult:
    """Relative analogue; the b-threshold bites only on the (m, m) diagonal."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    cands = ((p, q) for p in range(p_max + 1) for q in range(min(p, q_max), -1, -1))
    return _detect(lambda grid: relative_samples(profile_samples(f_bundle, grid, window), g_bundle),
                   p_max, q_max, grid, cands,
                   lambda p, q: max((1.0 if p == q == m else 0.0) + _INDEX_MARGIN, FINITE_EPS),
                   "relative index-pair", window)

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
on the certified lower/upper growth surrogates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DetectionFailedError, DomainError, IndicatorUndefinedError
from .growth import GridSpec, SourceBundle, compose_samples, invert_modulus, sample_profile
from .levelindex import ExtReal, exp_iter, from_real, log_iter, pow_scale, ratio_to_float, to_real_or_none

LIMSUP = "limsup"
LIMINF = "liminf"


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the tail estimation; defaults match the package tolerances."""

    window_fraction: float = 0.4
    min_points: int = 16
    resid_rel_tol: float = 1e-3   # accept the extrapolated intercept below this residual level
    drift_tol: float = 0.05      # non-convergence flag: |trend| * window vs value
    finite_eps: float = 1e-3     # numeric meaning of "finite and nonzero"
    index_margin: float = 0.1    # excess over the Kronecker/b threshold in index-pair scans

    def finite_nonzero(self, value: float) -> bool:
        return self.finite_eps <= value <= 1.0 / self.finite_eps


DEFAULT_CONFIG = EstimatorConfig()


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
class RatioSequence:
    kind: str
    p: int
    q: int
    aux_exponent: Optional[float]
    points: tuple[RatioPoint, ...]
    dropped: tuple[float, ...]


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

    @property
    def halfwidth(self) -> float:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            return math.inf
        return 0.5 * (self.hi - self.lo)

    def to_json(self, grid: Optional[GridSpec] = None) -> dict:
        num = json_number
        doc = {
            "kind": self.kind, "p": self.p, "q": self.q,
            "value": num(self.value), "lo": num(self.lo), "hi": num(self.hi),
            "trend": num(self.trend), "window": self.window,
            "converged": self.converged, "method": self.method,
            "n_points": self.n_points, "n_dropped": self.n_dropped,
        }
        if self.aux_exponent is not None:
            doc["aux_exponent"] = self.aux_exponent
        if grid is not None:
            doc["grid"] = grid.describe()
        return doc


def _apply_log_depth(value: ExtReal, extra: int) -> ExtReal:
    return log_iter(value, extra) if extra >= 0 else exp_iter(value, -extra)


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
    if kind not in ("order", "type"):
        raise ValueError(f"unknown ratio kind '{kind}'")
    if kind == "type":
        if aux_exponent is None:
            raise ValueError("type ratios need the order as aux_exponent")
        if not (aux_exponent > 0 and math.isfinite(aux_exponent)):
            raise IndicatorUndefinedError(
                f"type ratio needs a finite positive exponent, got {aux_exponent}"
            )
    num_depth = p if kind == "order" else p - 1
    den_depth = q if kind == "order" else q - 1

    points: list[RatioPoint] = []
    dropped: list[float] = []
    for sigma, value in samples:
        try:
            num = _apply_log_depth(value, num_depth - value_depth)
            den = _apply_log_depth(from_real(sigma), den_depth)
            if kind == "type":
                den = pow_scale(den, aux_exponent)
            elif den.level == 0 and den.mantissa <= 0.0:
                dropped.append(sigma)
                continue
            r = ratio_to_float(num, den)
        except DomainError:
            dropped.append(sigma)
            continue
        x = to_real_or_none(den)
        regressor = 1.0 / x if (x is not None and x > 0) else 0.0
        points.append(RatioPoint(sigma, r, regressor))
    if not points:
        raise DomainError(
            f"all {len(dropped)} grid points violate the iterated-log domain for "
            f"kind={kind}, p={p}, q={q}"
        )
    return RatioSequence(kind, p, q, aux_exponent, tuple(points), tuple(dropped))


def tail_estimate(seq: RatioSequence, mode: str, window_fraction: Optional[float] = None,
                  config: EstimatorConfig = DEFAULT_CONFIG, kind_label: Optional[str] = None) -> IndicatorEstimate:
    """Finite-grid stand-in for the limsup/liminf of a ratio sequence."""
    if mode not in (LIMSUP, LIMINF):
        raise ValueError(f"mode must be '{LIMSUP}' or '{LIMINF}'")
    pts = seq.points
    if len(pts) < 8:
        raise ValueError(f"tail estimation needs >= 8 ratio points, got {len(pts)}")
    frac = config.window_fraction if window_fraction is None else window_fraction
    if not 0.0 < frac <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    w = min(len(pts), max(config.min_points, math.ceil(frac * len(pts))))
    win = pts[-w:]
    rs = np.array([p.ratio for p in win])
    xs = np.array([p.regressor for p in win])

    finite = np.isfinite(rs)
    if finite.all() and w >= 2:
        trend = float(np.polyfit(np.arange(w, dtype=float), rs, 1)[0])
    elif finite.sum() >= 2:
        idx = np.arange(w, dtype=float)[finite]
        trend = float(np.polyfit(idx, rs[finite], 1)[0])
    else:
        trend = 0.0

    raw = float(rs.max()) if mode == LIMSUP else float(rs.min())
    value, method = raw, "window-extremum"
    if finite.all():
        spread = float(xs.max() - xs.min())
        if spread > 1e-13 * max(abs(float(xs.max())), 1e-300):
            slope, intercept = np.polyfit(xs, rs, 1)
            fit = intercept + slope * xs
        else:
            intercept = float(rs.mean())
            fit = np.full_like(rs, intercept)
        resid_rms = float(np.sqrt(np.mean((rs - fit) ** 2)))
        if resid_rms <= config.resid_rel_tol * max(1.0, abs(float(intercept))):
            value, method = float(intercept), "extrapolated"

    converged = math.isfinite(value) and abs(trend) * w <= config.drift_tol * max(1.0, abs(value))
    if finite.sum() >= 3:
        diffs = np.diff(rs[finite])
        up = float(np.mean(diffs > 0))
        balance = min(up, 1.0 - up)
    else:
        balance = 0.0
    label = kind_label or ("order" if seq.kind == "order" else "type")
    return IndicatorEstimate(
        kind=label, p=seq.p, q=seq.q, value=value, lo=value, hi=value,
        trend=trend, window=frac, converged=converged, method=method,
        n_points=w, n_dropped=len(seq.dropped), aux_exponent=seq.aux_exponent,
        direction_balance=balance,
    )


def _combine_surrogates(primary: IndicatorEstimate,
                        others: Sequence[IndicatorEstimate]) -> IndicatorEstimate:
    values = [primary.value] + [e.value for e in others]
    return replace(primary, lo=min(values), hi=max(values))


def _admissible(est: IndicatorEstimate, threshold: float, config: EstimatorConfig) -> bool:
    """An order estimate counts as finite nonzero for index-pair purposes only
    if the ratio sequence is not simply drifting: either the bias-removed
    extrapolation succeeded, or the window oscillates in both directions."""
    if not (config.finite_nonzero(est.value) and est.value > threshold):
        return False
    return est.method == "extrapolated" or est.direction_balance >= 0.2


def _profile_samples(bundle: SourceBundle, grid: GridSpec) -> list[tuple[str, list[tuple[float, ExtReal]]]]:
    out = []
    for name, src in bundle.surrogates():
        prof = sample_profile(src, grid)
        out.append((name, list(zip(prof.sigmas, prof.values))))
    return out


def _estimate_from_samples(sample_sets, kind, p, q, mode, label, config,
                           aux_exponent=None, value_depth=1, window_fraction=None) -> IndicatorEstimate:
    ests = []
    for _name, samples in sample_sets:
        seq = ratio_sequence(samples, kind, p, q, aux_exponent=aux_exponent, value_depth=value_depth)
        ests.append(tail_estimate(seq, mode, window_fraction, config, kind_label=label))
    return _combine_surrogates(ests[0], ests[1:])


def order_pair(bundle: SourceBundle, p: int, q: int, grid: GridSpec,
               config: EstimatorConfig = DEFAULT_CONFIG) -> tuple[IndicatorEstimate, IndicatorEstimate]:
    """(order, lower order) at index-pair (p, q) from the sampled surrogates."""
    sets = _profile_samples(bundle, grid)
    rho = _estimate_from_samples(sets, "order", p, q, LIMSUP, "order", config)
    lam = _estimate_from_samples(sets, "order", p, q, LIMINF, "lower_order", config)
    return rho, lam


def _require_finite_positive(value: float, what: str) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise IndicatorUndefinedError(
            f"{what} requires an order in (0, inf), got {value}"
        )


def type_pair(bundle: SourceBundle, p: int, q: int, rho: float, grid: GridSpec,
              config: EstimatorConfig = DEFAULT_CONFIG) -> tuple[IndicatorEstimate, IndicatorEstimate]:
    """(type, lower type): limsup/liminf of log^[p-1]M / (log^[q-1]sigma)^rho."""
    _require_finite_positive(rho, "the type indicator")
    sets = _profile_samples(bundle, grid)
    delta = _estimate_from_samples(sets, "type", p, q, LIMSUP, "type", config, aux_exponent=rho)
    delta_bar = _estimate_from_samples(sets, "type", p, q, LIMINF, "lower_type", config, aux_exponent=rho)
    return delta, delta_bar


def weak_type_pair(bundle: SourceBundle, p: int, q: int, lam: float, grid: GridSpec,
                   config: EstimatorConfig = DEFAULT_CONFIG) -> tuple[IndicatorEstimate, IndicatorEstimate]:
    """(tau_bar, tau): limsup/liminf of the same ratio with the lower order as exponent."""
    _require_finite_positive(lam, "the weak-type indicator")
    sets = _profile_samples(bundle, grid)
    tau_bar = _estimate_from_samples(sets, "type", p, q, LIMSUP, "weak_type_tau_bar", config, aux_exponent=lam)
    tau = _estimate_from_samples(sets, "type", p, q, LIMINF, "weak_type_tau", config, aux_exponent=lam)
    return tau_bar, tau


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
    form: str = "direct"
    notes: tuple[str, ...] = ()

    def by_kind(self) -> dict:
        out = {"relative_order": self.rho, "relative_lower_order": self.lam}
        if self.delta is not None:
            out["relative_type"] = self.delta
        if self.delta_bar is not None:
            out["relative_lower_type"] = self.delta_bar
        if self.tau is not None:
            out["relative_weak_type_tau"] = self.tau
        if self.tau_bar is not None:
            out["relative_weak_type_tau_bar"] = self.tau_bar
        return out


def _relative_sample_sets(f_bundle: SourceBundle, g_bundle: SourceBundle,
                          grid: GridSpec) -> list[tuple[str, list[tuple[float, float]]]]:
    """Composition samples for the value estimate and its certified sandwich.

    The center pairing composes the two upper surrogates; the interval
    pairings cross them: (f-lower against g-upper) can only undershoot
    and (f-upper against g-lower) can only overshoot the true curve.
    """
    sigmas = grid.sigmas()
    sets = [("center", compose_samples(g_bundle.upper, f_bundle.upper, sigmas))]
    if f_bundle.lower is not None or g_bundle.lower is not None:
        sets.append(("low", compose_samples(g_bundle.upper, f_bundle.lower_or_upper, sigmas)))
        sets.append(("high", compose_samples(g_bundle.lower_or_upper, f_bundle.upper, sigmas)))
    return sets


def _dual_sample_sets(f_bundle: SourceBundle, g_bundle: SourceBundle,
                      grid: GridSpec) -> list[tuple[str, list[tuple[float, float]]]]:
    """Second defining form: both curves inverted at a shared value grid.

    The value grid is f's own curve values along the sigma grid, which
    keeps both inversions inside their achievable ranges; f is then
    re-inverted independently rather than assuming M^{-1}M = id.
    """
    sigmas = grid.sigmas()
    ys = [f_bundle.upper.log_m(s) for s in sigmas]
    samples = []
    bracket_u = bracket_v = None
    for s, y in zip(sigmas, ys):
        u = invert_modulus(f_bundle.upper, y, bracket=bracket_u)
        v = invert_modulus(g_bundle.upper, y, bracket=bracket_v)
        samples.append((u, v))
        bracket_u = (u, u + max(0.25 * abs(u), 1.0))
        bracket_v = (v, v + max(0.25 * abs(v), 1.0))
    return [("center", samples)]


def relative_indicators(f_bundle: SourceBundle, g_bundle: SourceBundle, p: int, q: int,
                        grid: GridSpec, config: EstimatorConfig = DEFAULT_CONFIG,
                        form: str = "direct", include_types: bool = True) -> RelativeIndicators:
    """The full relative indicator set of f measured through g's growth scale.

    Types and weak types are only computed when the corresponding order or
    lower order is finite nonzero (their defining hypothesis); a skipped
    block is reported as None with a note.
    """
    if form == "direct":
        raw_sets = _relative_sample_sets(f_bundle, g_bundle, grid)
    elif form == "dual":
        raw_sets = _dual_sample_sets(f_bundle, g_bundle, grid)
    else:
        raise ValueError(f"unknown relative form '{form}'")
    sets = [(name, [(s, from_real(v)) for s, v in samples]) for name, samples in raw_sets]

    rho = _estimate_from_samples(sets, "order", p, q, LIMSUP, "relative_order", config, value_depth=0)
    lam = _estimate_from_samples(sets, "order", p, q, LIMINF, "relative_lower_order", config, value_depth=0)

    notes: list[str] = []
    delta = delta_bar = tau = tau_bar = None
    if include_types:
        if config.finite_nonzero(rho.value):
            delta = _estimate_from_samples(sets, "type", p, q, LIMSUP, "relative_type", config,
                                           aux_exponent=rho.value, value_depth=0)
            delta_bar = _estimate_from_samples(sets, "type", p, q, LIMINF, "relative_lower_type", config,
                                               aux_exponent=rho.value, value_depth=0)
        else:
            notes.append(f"type skipped: relative order {rho.value} not finite nonzero")
        if config.finite_nonzero(lam.value):
            tau_bar = _estimate_from_samples(sets, "type", p, q, LIMSUP, "relative_weak_type_tau_bar",
                                             config, aux_exponent=lam.value, value_depth=0)
            tau = _estimate_from_samples(sets, "type", p, q, LIMINF, "relative_weak_type_tau",
                                         config, aux_exponent=lam.value, value_depth=0)
        else:
            notes.append(f"weak type skipped: relative lower order {lam.value} not finite nonzero")
    return RelativeIndicators(rho, lam, delta, delta_bar, tau, tau_bar, form, tuple(notes))


# ---------------------------------------------------------------------------
# Index-pair detection.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionResult:
    pair: IndexPair
    order: IndicatorEstimate
    evidence: tuple[tuple[int, int, float], ...]


def _scan_candidates(p_max: int, q_max: int, relative: bool) -> list[tuple[int, int]]:
    """Scan order mirrors the defining exclusion: a pair is only reachable
    after every (p-1, q-1) predecessor was already seen inadmissible."""
    cands: list[tuple[int, int]] = []
    if relative:
        for p in range(0, p_max + 1):
            for q in range(min(p, q_max), -1, -1):
                cands.append((p, q))
    else:
        cands.append((1, 1))
        for p in range(1, p_max + 1):
            for q in range(min(p - 1, q_max), -1, -1):
                cands.append((p, q))
    return cands


def detect_index_pair(bundle: SourceBundle, p_max: int = 4, q_max: int = 4,
                      grid: Optional[GridSpec] = None,
                      config: EstimatorConfig = DEFAULT_CONFIG) -> DetectionResult:
    """First (p, q), scanning p up and q down, whose order is finite nonzero.

    The diagonal (1,1) candidate carries the extra threshold 1 + margin;
    all scanned estimates are returned as evidence.
    """
    if p_max > 6 or q_max > 6:
        raise ValueError("index-pair scans are limited to p_max, q_max <= 6")
    grid = grid or GridSpec(5.0, 30.0, 64)
    sets = _profile_samples(bundle, grid)
    evidence: list[tuple[int, int, float]] = []
    for (p, q) in _scan_candidates(p_max, q_max, relative=False):
        try:
            est = _estimate_from_samples(sets, "order", p, q, LIMSUP, "order", config)
        except DomainError:
            evidence.append((p, q, math.nan))
            continue
        evidence.append((p, q, est.value))
        threshold = 1.0 + config.index_margin if p == q else config.finite_eps
        if _admissible(est, threshold, config):
            return DetectionResult(IndexPair(p, q), est, tuple(evidence))
    raise DetectionFailedError(
        f"no admissible index-pair up to ({p_max}, {q_max})", evidence
    )


def detect_relative_index_pair(f_bundle: SourceBundle, g_bundle: SourceBundle, m: int,
                               p_max: int = 4, q_max: int = 4,
                               grid: Optional[GridSpec] = None,
                               config: EstimatorConfig = DEFAULT_CONFIG) -> DetectionResult:
    """Relative analogue; the b-threshold bites only on the (m, m) diagonal."""
    if p_max > 6 or q_max > 6:
        raise ValueError("index-pair scans are limited to p_max, q_max <= 6")
    grid = grid or GridSpec(5.0, 30.0, 64)
    raw_sets = _relative_sample_sets(f_bundle, g_bundle, grid)
    sets = [(name, [(s, from_real(v)) for s, v in samples]) for name, samples in raw_sets]
    evidence: list[tuple[int, int, float]] = []
    for (p, q) in _scan_candidates(p_max, q_max, relative=True):
        try:
            est = _estimate_from_samples(sets, "order", p, q, LIMSUP, "relative_order", config,
                                         value_depth=0)
        except DomainError:
            evidence.append((p, q, math.nan))
            continue
        evidence.append((p, q, est.value))
        b = 1.0 if (p == q == m) else 0.0
        threshold = max(b + config.index_margin, config.finite_eps)
        if _admissible(est, threshold, config):
            return DetectionResult(IndexPair(p, q), est, tuple(evidence))
    raise DetectionFailedError(
        f"no admissible relative index-pair up to ({p_max}, {q_max})", evidence
    )

"""Growth curves sigma -> log M(sigma) and their monotone inversion.

A *source* is any strictly increasing curve evaluable at fresh sigma
(series surrogates or synthetic closed-form rules); a profile is a source
sampled on a grid, its (sigma, log M) pairs.  Inversion brackets the root
on the continuous source rather than interpolating samples, so no
interpolation error enters the extended domain.  Its ITP solver (Oliveira
& Takahashi, ACM TOMS 47(1), 2020) interpolates only to choose where to
probe; every bracket update is an exact level-index comparison, so the
bracket and its stopping rule are those of bisection, in at most one step
more.

The composition M_g^{-1}(M_f(sigma)) at the heart of every relative
indicator is one inversion per point, carried out entirely on (level,
mantissa) pairs; the curve value M_f(sigma) is never materialized.
Every built-in curve carries its own inverse, a guess at the root: in
closed form for the tower and osc rules and both expexp surrogates, and
for a finite table exact on its maximum term and by Newton steps on its
sum.  Two curve evaluations a stopping width apart confirm a guess by
exact comparison, and then they are the whole inversion.  A guess that
misses starts its bracket from those two evaluations, one secant step
wide; a source without an inverse (a test double) searches up from its
floor.  No inversion reads another, so each composed point
(``compose_samples``) is a function of the source and its target alone.

Grids, profiles and inversions are plain floats and level-index values;
only a series' term-by-term windows use numpy (``series._Edges``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import BracketError, DomainError, ExtRangeError, NumericError
from .levelindex import ExtReal, compare, log_real
from . import series as series_mod
from .series import SeriesSpec

# Relative sigma width at which an inversion bracket stops shrinking, and the
# ceiling of its expansion: the largest float.
INVERT_REL_TOL = 1e-12
_FLOAT_MAX = math.nextafter(math.inf, 0.0)
# ITP constants: truncation delta = _ITP_K1 * width**2 / max(1, |hi|)
# (kappa2 = 2) and n0 = 1 step of slack over bisection.
_ITP_K1 = 0.2
_ITP_N0 = 1


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid; spacing is linear in sigma or linear in log sigma."""

    sigma_min: float
    sigma_max: float
    count: int
    spacing: str = "linear"  # "linear" | "log"

    def __post_init__(self):
        if not -math.inf < self.sigma_min < self.sigma_max < math.inf:
            raise ValueError("grid needs finite sigma_min < sigma_max")
        if self.count < 2:
            raise ValueError("grid needs count >= 2")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing '{self.spacing}'")
        if self.spacing == "log" and self.sigma_min <= 0:
            raise ValueError("log spacing needs sigma_min > 0")

    def sigmas(self) -> list[float]:
        """The grid's points, both ends exact.

        A linear grid is np.linspace's, bit for bit: i * step + sigma_min, or
        i / (count - 1) * span + sigma_min where the step underflows to 0.  A
        log grid is exp(i * step + log sigma_min); it differs from
        np.geomspace's power of 10 in the last bits.
        """
        lo, hi, div = self.sigma_min, self.sigma_max, self.count - 1
        if self.spacing == "log":
            start = math.log(lo)
            step = (math.log(hi) - start) / div
            return [lo] + [math.exp(i * step + start) for i in range(1, div)] + [hi]
        step = (hi - lo) / div
        if step:
            return [i * step + lo for i in range(div)] + [hi]
        return [i / div * (hi - lo) + lo for i in range(div)] + [hi]

    def describe(self) -> dict:
        return {"sigma_min": self.sigma_min, "sigma_max": self.sigma_max,
                "count": self.count, "spacing": self.spacing}


DEFAULT_GRID = GridSpec(5.0, 30.0, 64)  # theorem instances' grid and the detectors'


class GrowthSource:
    """Strictly increasing curve sigma -> log M(sigma) as an ExtReal.

    inverse, when set, maps a value y = log M to a guess at the sigma with
    log M(sigma) = y; invert_modulus confirms it on the curve itself.
    """

    sigma_floor: float = 0.0
    inverse: Optional[Callable[[ExtReal], float]] = None

    def log_m(self, sigma: float) -> ExtReal:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class SeriesLowerSource(GrowthSource):
    """Maximum-term surrogate: a certified lower bound for log M."""

    def __init__(self, spec: SeriesSpec):
        self.spec = spec
        self.inverse = spec.lower_inverse

    def log_m(self, sigma: float) -> ExtReal:
        return series_mod.max_term_log(self.spec, sigma)[1]

    def describe(self) -> dict:
        return {"kind": "series", "surrogate": "lower", "spec": self.spec.describe()}


class SeriesUpperSource(GrowthSource):
    """Coefficient-norm sum surrogate: a certified upper bound for log M."""

    def __init__(self, spec: SeriesSpec):
        self.spec = spec
        self.inverse = spec.upper_inverse

    def log_m(self, sigma: float) -> ExtReal:
        return series_mod.log_sum_upper(self.spec, sigma)

    def describe(self) -> dict:
        return {"kind": "series", "surrogate": "upper", "spec": self.spec.describe()}


class SyntheticSource(GrowthSource):
    """Closed-form rule sigma -> log M(sigma); used for profile families."""

    def __init__(self, name: str, params: dict, rule: Callable[[float], ExtReal],
                 sigma_floor: float = 0.0, inverse: Optional[Callable[[ExtReal], float]] = None):
        self.name = name
        self.params = params
        self.rule = rule
        self.sigma_floor = sigma_floor
        self.inverse = inverse

    def log_m(self, sigma: float) -> ExtReal:
        return self.rule(sigma)

    def describe(self) -> dict:
        return {"kind": "synthetic", "family": self.name, "params": self.params}


@dataclass(frozen=True)
class SourceBundle:
    """A curve with its certified sandwich, when one exists.

    upper is the point-estimate curve; lower (absent for synthetic rules)
    drives the other end of every reported indicator interval.
    """

    upper: GrowthSource
    lower: Optional[GrowthSource] = None

    def surrogates(self) -> list[tuple[str, GrowthSource]]:
        out = [("upper", self.upper)]
        if self.lower is not None:
            out.append(("lower", self.lower))
        return out


def sample_profile(source: GrowthSource, grid: GridSpec,
                   tail: Optional[int] = None) -> tuple[tuple[float, ExtReal], ...]:
    """(sigma, log M(sigma)) at grid index 0 and the last tail indices (every index
    when tail is None), checked to be strictly increasing along those points.

    The floor check reads sigma alone; index 0 is always evaluated, so an
    error at the grid's start surfaces whatever the tail.  Between index 0
    and the tail nothing is evaluated or checked.
    """
    sigmas = grid.sigmas()
    if tail is not None:
        sigmas = sigmas[:1] + sigmas[max(1, len(sigmas) - tail):]
    if sigmas[0] < source.sigma_floor:
        raise NumericError(
            f"grid starts at sigma={sigmas[0]} below the source floor {source.sigma_floor}"
        )
    values = [source.log_m(s) for s in sigmas]
    for i in range(1, len(values)):
        if compare(values[i - 1], values[i]) >= 0:
            raise NumericError(
                f"profile not strictly increasing between sigma={sigmas[i-1]} and sigma={sigmas[i]}"
            )
    return tuple(zip(sigmas, values))


def _reduced(v: ExtReal, k: int) -> float:
    """log^[k] v as a machine real; -inf/+inf where it leaves the machine range."""
    try:
        return log_real(v, k)
    except DomainError:
        return -math.inf
    except ExtRangeError:
        return math.inf


def _itp_probe(lo: float, hi: float, f_lo: float, f_hi: float,
               width0: float, step: int, tol: float) -> float:
    """Next ITP abscissa inside (lo, hi) for reduced residuals f_lo <= 0 <= f_hi.

    Interpolate (regula falsi), truncate towards the midpoint by
    _ITP_K1 * width**2 / max(1, |hi|), then project into the ball that
    keeps the bracket after step+1 steps no wider than bisection's
    (from the initial width width0) after step+1-_ITP_N0.  Scaling the
    truncation by the root's magnitude rather than by width0 lets a narrow
    bracket close in a few probes.  The truncation is at
    least a quarter of the stopping width, so a converged interpolant
    closes the bracket from both sides.  Non-finite residuals or a
    degenerate secant give the midpoint.
    """
    mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) would overflow near the float maximum
    if not (math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo < f_hi):
        return mid
    width = hi - lo
    x_f = lo - f_lo * (width / (f_hi - f_lo))
    side = math.copysign(1.0, mid - x_f)
    delta = max(_ITP_K1 * width * width / max(1.0, abs(hi)), 0.25 * tol)
    x_t = x_f + side * delta if delta <= abs(mid - x_f) else mid
    radius = max(width0 * 2.0 ** (_ITP_N0 - 1 - step) - 0.5 * width, 0.0)
    x = x_t if abs(x_t - mid) <= radius else mid - side * radius
    return x if lo < x < hi else mid


def _guess(source: GrowthSource, y: ExtReal, floor: float):
    """The source's guess x at the root as (x - h, log M(x - h), x + h, log M(x + h)).

    h is half a stopping width at x.  None, and nothing is evaluated, when
    the source has no inverse or the guess raises, leaves x + h not finite
    or puts x - h below the floor; None, after all, when either end raises.
    """
    inverse = getattr(source, "inverse", None)
    if inverse is None:
        return None
    try:
        x = inverse(y)
        h = 0.5 * INVERT_REL_TOL * max(1.0, abs(x))
        if not (math.isfinite(x + h) and x - h >= floor):
            return None
        return x - h, source.log_m(x - h), x + h, source.log_m(x + h)
    except (NumericError, ArithmeticError):
        return None


def invert_modulus(source: GrowthSource, y: ExtReal, *, end: str = "mid") -> float:
    """sigma with log M(sigma) = y, resolved to 1e-12 relative in sigma.

    A source with an inverse is first asked for a guess x, and log M is
    evaluated at a, b = x -+ h, half a stopping width either side.  If
    log M(a) <= y <= log M(b) by exact compare(), that bracket already
    meets the stopping rule and is final: two evaluations.  A missed guess
    keeps the end nearer the root and puts the other one step further out:
    twice the distance to the root of the secant through (a, b), on the
    reduced residuals below, clamped to [b - a, max(1, |b|)], and b - a
    when those residuals are not finite or not increasing.  Without a
    usable guess (see _guess) the search starts from (floor, floor + 1),
    floor being max(source floor, 0).

    A bracket that misses y grows by doubling its width away from where it
    started: upward from its lower end until log M(hi) >= y, never past the
    largest float (no room left is a BracketError), or downward from its
    upper end until log M(lo) <= y, never below the floor.  It then shrinks
    by ITP steps, whose probes interpolate the curve reduced into machine
    range, log^[k] M - log^[k] y with k = max(y.level - 1, 0).  Each update
    is decided by the exact compare() against y, so the invariant
    log M(lo) <= y <= log M(hi) and the stopping rule are bisection's, and
    at most one step is spent beyond bisection's count.  Nothing but
    (source, y, end) enters, so the result is a function of them alone.

    Returns the final bracket's lower end for end="low", its upper end for
    "high" and its midpoint for "mid": a root of a lower curve read as
    "low" never exceeds the root of the curve it bounds.
    """
    floor = max(source.sigma_floor, 0.0)
    guess = _guess(source, y, floor)
    if guess is not None:
        a, v_a, b, v_b = guess
        if compare(v_a, y) <= 0 <= compare(v_b, y):
            return _bracket_end(a, b, end)
    k = max(y.level - 1, 0)
    target = _reduced(y, k)
    if guess is None:
        lo, v_lo, hi, v_hi = floor, None, max(1.0, floor + 1.0), None
    else:
        # a and b lie on one side of the root, and the nearer has the smaller residual
        f_a, f_b = _reduced(v_a, k) - target, _reduced(v_b, k) - target
        reach = b - a
        if 0.0 < f_b - f_a < math.inf:
            secant = min(abs(f_a), abs(f_b)) * (reach / (f_b - f_a))
            reach = min(max(2.0 * secant, reach), max(1.0, abs(b)))
        if compare(v_b, y) < 0:
            lo, v_lo, hi, v_hi = b, v_b, min(b + reach, _FLOAT_MAX), None
        else:
            lo, v_lo, hi, v_hi = max(a - reach, floor), None, a, v_a

    # Grow upward until log M(hi) >= y; the float range bounds the doublings.
    anchor = lo
    while True:
        if v_hi is None:
            if not lo < hi:  # no room left below the largest float
                raise BracketError("inversion bracket cannot grow within the float range")
            v_hi = source.log_m(hi)
        if compare(v_hi, y) >= 0:
            break
        lo, v_lo = hi, v_hi
        hi, v_hi = min(anchor + 2.0 * (hi - anchor), _FLOAT_MAX), None

    # Grow downward until log M(lo) <= y; the floor bounds the doublings.
    anchor = hi
    while True:
        if v_lo is None:
            v_lo = source.log_m(lo)
        if compare(v_lo, y) <= 0:
            break
        if lo <= floor:
            raise BracketError("inversion target below the achievable range at the floor")
        hi, v_hi = lo, v_lo
        lo, v_lo = max(anchor - 2.0 * (anchor - lo), floor), None

    f_lo, f_hi = _reduced(v_lo, k) - target, _reduced(v_hi, k) - target
    width0 = hi - lo
    step = 0
    while (hi - lo) > INVERT_REL_TOL * max(1.0, abs(hi)):
        x = _itp_probe(lo, hi, f_lo, f_hi, width0, step, INVERT_REL_TOL * max(1.0, abs(lo)))
        v = source.log_m(x)
        if compare(v, y) < 0:
            lo, f_lo = x, _reduced(v, k) - target
        else:
            hi, f_hi = x, _reduced(v, k) - target
        step += 1
    return _bracket_end(lo, hi, end)


def _bracket_end(lo: float, hi: float, end: str) -> float:
    return {"low": lo, "mid": 0.5 * lo + 0.5 * hi, "high": hi}[end]


def compose_samples(g_source: GrowthSource, sigmas: Sequence[float],
                    f_values: Sequence[ExtReal], end: str = "mid") -> list[tuple[float, float]]:
    """(sigma, M_g^{-1}(M_f(sigma))) at each sigma, from f's values log M_f there.

    Each point is its own invert_modulus(g_source, y, end=end), and end picks
    the bracket end it returns.  Nothing passes from one point to the next,
    so a composed value is the same whatever other points are composed with
    it and in whatever order.
    """
    return [(s, invert_modulus(g_source, y, end=end)) for s, y in zip(sigmas, f_values)]

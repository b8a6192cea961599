"""Level-index arithmetic for magnitudes up to towers of exponentials.

A value is stored as ``(level, mantissa)`` meaning ``exp`` applied
``level`` times to ``mantissa``.  The bands

* level 0: mantissa in (-inf, e)
* level >= 1: mantissa in [1, e)

make the representation unique and give a one-branch comparison:
lexicographic order on ``(level, mantissa)`` coincides with the order of
the represented values, so ExtReal's generated ordering and compare()
agree.  Mantissas are ordinary doubles; the accumulated mantissa error is
about 1e-14 per level crossed, far below any tolerance used downstream.

Iterated logs/exps move the level, so ``log(log(...))`` of a number the
size of ``exp(exp(exp(x)))`` is exact level arithmetic and never touches
machine ``exp``/``log`` until the value drops to level 0.  Machine reals
such as sigma take log_chain instead: the same logs, with no round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ExtRangeError

_E = math.e
# largest x with exp(x) finite in double precision
EXP_LIMIT = 709.782712893384


@dataclass(frozen=True, order=True)
class ExtReal:
    """Immutable level-index number: value = exp^[level](mantissa).

    The slots are declared here, not by the dataclass (slots=True), so the
    frozen __setattr__ refers to this class itself and refuses any name with
    an AttributeError.  Pickling rebuilds through the constructor, which
    also checks the bands.
    """

    __slots__ = ("level", "mantissa")
    level: int
    mantissa: float

    def __reduce__(self):
        return ExtReal, (self.level, self.mantissa)

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if math.isnan(self.mantissa):
            raise ValueError("NaN mantissa is not a valid ExtReal")
        if self.level == 0:
            if not self.mantissa < _E:
                raise ValueError(f"level-0 mantissa must be < e, got {self.mantissa}")
        else:
            if not (1.0 <= self.mantissa < _E):
                raise ValueError(f"level-{self.level} mantissa must lie in [1, e), got {self.mantissa}")


_SET_LEVEL = ExtReal.__dict__["level"].__set__
_SET_MANTISSA = ExtReal.__dict__["mantissa"].__set__


def _banded(level: int, mantissa: float) -> ExtReal:
    """ExtReal(level, mantissa) without __post_init__, for pairs in the bands by construction."""
    x = object.__new__(ExtReal)
    _SET_LEVEL(x, level)
    _SET_MANTISSA(x, mantissa)
    return x


def from_real(v: float) -> ExtReal:
    """Normalize a finite machine real into the unique banded representation."""
    return lift(v, 0)


def lift(v: float, k: int) -> ExtReal:
    """exp_iter(from_real(v), k) for k >= 0, built as one ExtReal."""
    v = float(v)
    if not math.isfinite(v):
        raise DomainError("cannot build an ExtReal from NaN" if v != v else
                          "cannot build an ExtReal from an infinity; stay in the extended domain")
    level = 0
    while v >= _E:
        v = math.log(v)
        level += 1
    return _exp_steps(level, v, k) if k else _banded(level, v)


def _exp_chain(v: float, k: int) -> float | None:
    """exp applied k times to v, None when a step overflows."""
    for _ in range(k):
        if v > EXP_LIMIT:
            return None
        v = math.exp(v)
    return v


def to_real(x: ExtReal) -> float:
    """Collapse back to a machine real; raises ExtRangeError when the tower overflows."""
    return log_chain(x.mantissa, -x.level) if x.level else x.mantissa


def to_real_or_none(x: ExtReal) -> float | None:
    """Like to_real but returns None instead of raising on overflow."""
    return _exp_chain(x.mantissa, x.level)


def compare(x: ExtReal, y: ExtReal) -> int:
    """Total order on represented values: -1, 0 or +1."""
    if x.level != y.level:
        return -1 if x.level < y.level else 1
    if x.mantissa == y.mantissa:
        return 0
    return -1 if x.mantissa < y.mantissa else 1


def log_chain(v: float, k: int) -> float:
    """log applied k times to the machine real v (exp applied -k times when k < 0).

    to_real(log_iter(from_real(v), k)) without its level-index round trip, which
    misses by ~1e-14 relative.  DomainError where log_iter(from_real(v), k)
    raises, ExtRangeError where an exp overflows.
    """
    if not math.isfinite(v):
        raise DomainError(f"cannot take iterated logs of {v}")
    if k < 0:
        w = _exp_chain(v, -k)
        if w is None:
            raise ExtRangeError(f"value exp^[{-k}]({v}) exceeds the machine range; "
                                "keep it in the ExtReal domain")
        return w
    for _ in range(k):
        if v <= 0.0:
            raise DomainError(f"log of non-positive value {v}")
        v = math.log(v)
    return v


def log_iter(x: ExtReal, k: int) -> ExtReal:
    """Apply log k times.  Raises DomainError if an intermediate value is <= 0."""
    if k <= 0:
        return exp_iter(x, -k) if k else x
    if k <= x.level:
        return _banded(x.level - k, x.mantissa)
    return _banded(0, log_chain(x.mantissa, k - x.level))  # below e: the float chain


def log_real(x: ExtReal, k: int) -> float:
    """to_real(log_iter(x, k)) for k >= 0, with no ExtReal built in between."""
    return log_chain(x.mantissa, k - x.level) if k or x.level else x.mantissa


def exp_iter(x: ExtReal, k: int) -> ExtReal:
    """Apply exp k times.  Never overflows: the level just grows."""
    if k <= 0:
        return log_iter(x, -k) if k else x
    return _exp_steps(x.level, x.mantissa, k)


def _exp_steps(level: int, mant: float, k: int) -> ExtReal:
    """exp applied k >= 0 times to the banded pair (level, mant)."""
    for _ in range(k):
        if level >= 1 or mant >= 1.0:
            level += 1
        else:
            mant = math.exp(mant)  # mant < 1; rounds to e only just below 1
            if mant >= _E:
                level, mant = level + 1, 1.0
    return _banded(level, mant)


def add_scalar(x: ExtReal, d: float) -> ExtReal:
    """x + d for a machine-scale d.

    Exact while x is machine-representable; beyond that the shift is below
    the mantissa's resolution and x is returned unchanged.
    """
    v = to_real_or_none(x)
    if v is not None:
        return from_real(v + d)
    return x


def mul_scalar(x: ExtReal, c: float) -> ExtReal:
    """x * c for a positive machine scalar c, valid at any magnitude of x."""
    if c <= 0.0 or math.isinf(c) or math.isnan(c):
        raise DomainError(f"mul_scalar requires a finite positive scalar, got {c}")
    v = to_real_or_none(x)
    if v is not None and math.isfinite(v * c):
        return from_real(v * c)
    # x or the product is huge and positive: multiply in log domain.
    return exp_iter(add_scalar(log_iter(x, 1), math.log(c)), 1)


def pow_scale(x: ExtReal, alpha: float) -> ExtReal:
    """x ** alpha for x > 0 computed as exp(alpha * log x) in the extended domain."""
    if math.isnan(alpha) or math.isinf(alpha):
        raise DomainError(f"exponent must be finite, got {alpha}")
    if x.level == 0 and x.mantissa <= 0.0:
        raise DomainError(f"pow_scale requires a positive base, got {x.mantissa}")
    if alpha == 1.0:
        return x
    if alpha == 0.0:
        return ExtReal(0, 1.0)
    w = log_iter(x, 1)
    wv = to_real_or_none(w)
    if wv is not None and math.isfinite(alpha * wv):
        return lift(alpha * wv, 1)
    # alpha * log x is beyond machine range (always so when x is at level >= 3).
    if alpha < 0.0:
        raise ExtRangeError("negative power of a tower-sized value underflows the representation")
    return exp_iter(mul_scalar(w, alpha), 1)


def ratio_to_float(num: ExtReal, den: ExtReal) -> float:
    """num / den as a machine real, saturating to inf / 0.0 when the quotient
    leaves the machine range.

    Both machine-representable: plain division (num may be negative).
    Otherwise both operands are necessarily positive (only towers overflow)
    and the quotient is exp(log num - log den), evaluated one level down;
    if even the logs overflow, the compare() order decides inf / 1 / 0.
    """
    nv = _exp_chain(num.mantissa, num.level)
    dv = _exp_chain(den.mantissa, den.level)
    if nv is not None and dv is not None:
        if dv == 0.0:
            raise DomainError("ratio denominator is zero")
        return nv / dv
    if dv is not None and dv <= 0.0:
        raise DomainError("ratio of a tower-sized numerator to a non-positive denominator")
    if nv is not None and nv <= 0.0:
        return 0.0  # finite (possibly negative) over a tower: vanishes
    # the logs of positive operands: a level down, or the float log at level 0
    ln = _exp_chain(num.mantissa, num.level - 1) if num.level else math.log(nv)
    ld = _exp_chain(den.mantissa, den.level - 1) if den.level else math.log(dv)
    if ln is not None and ld is not None:
        t = ln - ld
        if t > EXP_LIMIT:
            return math.inf
        if t < -EXP_LIMIT:
            return 0.0
        return math.exp(t)
    c = compare(num, den)
    if c == 0:
        return 1.0
    return math.inf if c > 0 else 0.0


def lse_accumulate(terms) -> float:
    """log(sum(exp(t) for t in terms)) with the maximum subtracted first.

    Deterministic for a fixed input order; terms equal to -inf contribute
    nothing (vanishing series terms are passed through as -inf).
    """
    terms = list(terms)
    if not terms:
        raise ValueError("lse_accumulate needs at least one term")
    m = max(terms)
    if m == -math.inf:
        return -math.inf
    if math.isnan(m) or m == math.inf:
        raise DomainError("lse_accumulate terms must be finite or -inf")
    acc = 0.0
    for t in terms:
        acc += math.exp(t - m)
    return m + math.log(acc)

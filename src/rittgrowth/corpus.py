"""Built-in growth families with analytically known indicators.

Three families cover the estimator test surface:

* expexp(a, c): the series with exponents a*n and norms c^n/n!, whose sum
  is exactly exp(c * e^(a sigma)) - 1.  Order a and type c at (2, 0);
  regular.
* tower(k, rho, q): synthetic rule log^[k]M = rho * log^[q]sigma, the
  canonical regular curve at any index-pair; its type at (k, q) is
  exactly 1.
* osc_profile(rho, lam, p, q): log^[p]M = (m0 + m1 sin log sigma) * sigma
  with m0, m1 the mean and half-spread of (rho, lam), at q = 0 only;
  irregular with order rho and lower order lam when sampled on a
  log-uniform grid covering whole periods.

Each of the three inverts in closed form, the root of its rule guessed
for growth.invert_modulus to confirm.  A fourth, table(name, lam,
log_norm), is a user's finite prefix (JSON only); its two surrogates
invert themselves too (series.table_spec).

One rule, read_fields, reads every outside document against a schema given
as data: sources (``expexp:a=2,c=1`` or ``{"family": "expexp", "a": 2, ...}``)
with _FAMILIES, grids with GRID_FIELDS, and batch instances with theorems'.

Irregular growth is deliberately synthetic: prescribing an oscillating
order through explicit coefficients is delicate and unnecessary for
testing the estimators.  Relative ground truth is only claimed for pairs
whose composition has a closed form (expexp-expexp and tower-tower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import SpecFormatError
from .growth import GridSpec, SeriesLowerSource, SeriesUpperSource, SourceBundle, SyntheticSource
from .levelindex import lift, log_chain, log_real
from .series import SeriesSpec, expexp_spec, table_spec, validate


@dataclass(frozen=True)
class AnalyticValue:
    value: float
    note: str           # names the closed form it comes from
    tolerance: float    # agreement the estimator promises on a suitable grid


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    family: str
    params: dict
    regular: bool
    index_pair: Optional[tuple[int, int]]
    analytic: dict  # (kind, p, q) -> AnalyticValue
    tolerance: float  # default agreement tolerance for this entry
    _bundle: SourceBundle

    def bundle(self) -> SourceBundle:
        return self._bundle

    def analytic_value(self, kind: str, p: int, q: int) -> Optional[float]:
        hit = self.analytic.get((kind, p, q))
        return hit.value if hit else None

    def describe(self) -> dict:
        return {
            "id": self.id, "family": self.family, "params": dict(self.params),
            "regular": self.regular, "index_pair": self.index_pair,
            "tolerance": self.tolerance,
            "analytic": [
                {"kind": k, "p": p, "q": q, "value": av.value, "note": av.note,
                 "tolerance": av.tolerance}
                for (k, p, q), av in sorted(self.analytic.items())
            ],
        }


def _expexp_entry(a: float, c: float) -> CorpusEntry:
    spec = expexp_spec(a, c)

    note_order = f"log M = {c}*exp({a}*sigma) + o(1), so log^[2]M / sigma -> {a}"
    note_type = f"log M / exp({a}*sigma) -> {c} with order exponent {a}"
    note_shift = "index shift (p+1, q+1) of a finite nonzero order"
    analytic = {
        ("order", 2, 0): AnalyticValue(a, note_order, 1e-3),
        ("lower_order", 2, 0): AnalyticValue(a, note_order, 1e-3),
        ("type", 2, 0): AnalyticValue(c, note_type, 1e-3),
        ("lower_type", 2, 0): AnalyticValue(c, note_type, 1e-3),
        ("weak_type_tau", 2, 0): AnalyticValue(c, note_type, 1e-3),
        ("weak_type_tau_bar", 2, 0): AnalyticValue(c, note_type, 1e-3),
        ("order", 3, 1): AnalyticValue(1.0, note_shift, 5e-2),
        ("lower_order", 3, 1): AnalyticValue(1.0, note_shift, 5e-2),
    }
    return CorpusEntry(f"expexp:a={_fmt(a)},c={_fmt(c)}", "expexp", {"a": a, "c": c},
                       True, (2, 0), analytic, 1e-3,
                       SourceBundle(SeriesUpperSource(spec), SeriesLowerSource(spec)))


def _tower_entry(k: int, rho: float, q: int) -> CorpusEntry:
    if k < 1 or q < 0 or not 0 < rho < math.inf:
        raise SpecFormatError("tower rule needs k >= 1, q >= 0, finite rho > 0")

    def rule(sigma: float):
        return lift(rho * log_chain(sigma, q), k - 1)

    def inverse(y) -> float:
        return log_chain(log_real(y, k - 1) / rho, -q)

    # log^[q]sigma must be defined and non-negative: sigma >= exp^[q-1](1), 0 at q = 0.
    src = SyntheticSource("tower", {"k": k, "rho": rho, "q": q}, rule,
                          sigma_floor=log_chain(1.0, 1 - q), inverse=inverse)

    note = f"rule log^[{k}]M = {rho} * log^[{q}]sigma is its own derivation"
    note_type = "exp(rho*log^[q]sigma) equals (log^[q-1]sigma)^rho exactly"
    note_weak = "regular: weak type coincides with type"
    note_shift = "index shift of a finite nonzero order"
    analytic = {
        ("order", k, q): AnalyticValue(rho, note, 1e-3),
        ("lower_order", k, q): AnalyticValue(rho, note, 1e-3),
        ("type", k, q): AnalyticValue(1.0, note_type, 1e-3),
        ("lower_type", k, q): AnalyticValue(1.0, note_type, 1e-3),
        ("weak_type_tau", k, q): AnalyticValue(1.0, note_weak, 1e-3),
        ("weak_type_tau_bar", k, q): AnalyticValue(1.0, note_weak, 1e-3),
        ("order", k + 1, q + 1): AnalyticValue(1.0, note_shift, 5e-2),
        ("lower_order", k + 1, q + 1): AnalyticValue(1.0, note_shift, 5e-2),
    }
    return CorpusEntry(f"tower:k={k},rho={_fmt(rho)},q={q}", "tower",
                       {"k": k, "rho": rho, "q": q}, True, (k, q), analytic, 1e-3, SourceBundle(src))


def _osc_entry(rho: float, lam: float, p: int, q: int) -> CorpusEntry:
    if not (rho > lam > 0):
        raise SpecFormatError("oscillating profile needs rho > lam > 0")
    m0 = 0.5 * (rho + lam)
    m1 = 0.5 * (rho - lam)
    if m0 <= m1 * math.sqrt(2.0):
        # derivative m0 + m1 (sin + cos)(log sigma) must stay positive
        raise SpecFormatError(
            f"rho/lam = {rho/lam} too large for a monotone oscillating rule (needs < 3 + 2*sqrt(2))"
        )
    if p < 1 or q != 0:
        # at q >= 1 the rule's derivative in u = log sigma holds m1 cos(u) log^[q]sigma,
        # which outgrows the rest: the rule falls somewhere for every rho > lam
        raise SpecFormatError("oscillating rule needs p >= 1 and q = 0")

    def rule(sigma: float):
        return lift((m0 + m1 * math.sin(log_chain(sigma, 1))) * sigma, p - 1)

    def inverse(y) -> float:
        # log^[p-1] y = (m0 + m1 sin u) e^u at u = log sigma, so its log equals
        # u + log(m0 + m1 sin u), increasing in u; lam <= m0 + m1 sin u <= rho
        # brackets the root
        target = log_chain(log_real(y, p - 1), 1)
        lo, hi = target - math.log(rho), target - math.log(lam)
        mid = 0.5 * lo + 0.5 * hi
        while lo < mid < hi:
            if mid + math.log(m0 + m1 * math.sin(mid)) < target:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * lo + 0.5 * hi
        return math.exp(mid)

    src = SyntheticSource("osc_profile", {"rho": rho, "lam": lam, "p": p, "q": q},
                          rule, sigma_floor=1e-6, inverse=inverse)

    note = "sup/inf of m0 + m1 sin(log sigma) on a log-uniform grid over whole periods"
    analytic = {
        ("order", p, q): AnalyticValue(rho, note, 1e-2),
        ("lower_order", p, q): AnalyticValue(lam, note, 1e-2),
    }
    return CorpusEntry(f"osc:rho={_fmt(rho)},lam={_fmt(lam)},p={p},q={q}", "osc_profile",
                       {"rho": rho, "lam": lam, "p": p, "q": q}, False, (p, q),
                       analytic, 1e-2, SourceBundle(src))


def _table_entry(name: str, lam: list, log_norm: list) -> CorpusEntry:
    """User-supplied finite prefix (JSON only); no analytic claims attached."""
    spec = table_spec(name, lam, log_norm)
    report = validate(spec, 64)
    if report.verdict == "fail":
        raise SpecFormatError(f"table series fails validation: {report.cause}")

    return CorpusEntry(f"table:{spec.name}", "table", dict(spec.params),
                       False, None, {}, math.inf,
                       SourceBundle(SeriesUpperSource(spec), SeriesLowerSource(spec)))


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _column(values) -> list:
    if not isinstance(values, list):  # shorthand cannot carry a table
        raise TypeError(f"expected an array of numbers, got {values!r}")
    return [number(v) for v in values]


def number(value) -> float:
    """A number field: JSON 2 or 2.5, or shorthand "2.5"; a boolean is refused."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def integer(value) -> int:
    """An integer field: JSON 2 or 2.0, or shorthand "2"; a boolean or 2.7 is refused."""
    if isinstance(value, bool) or not isinstance(value, str) and value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def read_fields(schema, doc, what: str, aliases=None) -> list:
    """The schema rule: ``doc``, a JSON object or a tuple of (name, value) pairs, read
    with ``schema``'s (name, converter[, default]) fields into arguments in their
    order.  ``aliases`` maps names to fields.  Any other doc, or a field given twice,
    unknown, missing or unconvertible, is a SpecFormatError naming ``what``."""
    if not isinstance(doc, (dict, tuple)):
        raise SpecFormatError(f"{what} must be an object, got {doc!r}")
    given = {}
    for key, value in (doc.items() if isinstance(doc, dict) else doc):
        name = (aliases or {}).get(key, key)
        if name in given:
            raise SpecFormatError(f"field '{name}' given twice for {what}")
        given[name] = value
    unknown = sorted(set(given) - {f[0] for f in schema})
    if unknown:
        raise SpecFormatError(f"unknown fields for {what}: {unknown}")
    args = []
    for name, convert, *default in schema:
        if name not in given and not default:
            raise SpecFormatError(f"{what} is missing field '{name}'")
        try:
            args.append(convert(given[name]) if name in given else default[0])
        except (SpecFormatError, TypeError, ValueError, OverflowError) as exc:
            raise SpecFormatError(f"bad field '{name}' for {what}: {exc}") from exc
    return args


# The source schema: each family's entry builder and its fields.  Shorthand
# and JSON documents share it; 'lambda' is an alias of the field 'lam'.
_FAMILIES = {
    "expexp": (_expexp_entry, (("a", number), ("c", number))),
    "tower": (_tower_entry, (("k", integer), ("rho", number), ("q", integer))),
    "osc": (_osc_entry, (("rho", number), ("lam", number), ("p", integer), ("q", integer))),
    "table": (_table_entry, (("name", str, "table"), ("lam", _column), ("log_norm", _column))),
}
_FAMILY_ALIASES = {"osc_profile": "osc"}
_FIELD_ALIASES = {"lambda": "lam"}

# The grid schema, in GridSpec's argument order.
GRID_FIELDS = (("sigma_min", number), ("sigma_max", number), ("count", integer),
               ("spacing", str, GridSpec.spacing))


def grid_spec(doc, what: str = "grid") -> GridSpec:
    """The grid ``doc`` describes; GridSpec's own range checks raise ValueError."""
    return GridSpec(*read_fields(GRID_FIELDS, doc, what))


# Canonical instances: the estimator-recovery families plus the synthetic
# rules the theorem batches lean on.
DEFAULT_ENTRY_SPECS = [
    "expexp:a=1,c=1", "expexp:a=2,c=1", "expexp:a=1,c=3", "expexp:a=3,c=2",
    "tower:k=1,rho=2,q=1", "tower:k=2,rho=1,q=0", "tower:k=2,rho=2,q=0",
    "tower:k=3,rho=1,q=0", "tower:k=3,rho=2,q=0",
    "osc:rho=2,lam=1,p=2,q=0",
]


def _arguments(family: str, params) -> tuple[str, list]:
    """Raw fields read with the family's schema: its canonical name and converted arguments."""
    family = _FAMILY_ALIASES.get(family, family)
    if family not in _FAMILIES:
        raise SpecFormatError(f"unknown corpus family '{family}'")
    return family, read_fields(_FAMILIES[family][1], params, f"family '{family}'", _FIELD_ALIASES)


def _split(ref) -> tuple[str, tuple]:
    """A source reference's family and raw fields as (key, value) pairs in order:
    shorthand 'family:key=value,...' (values still strings) or a JSON document
    {"family": ..., <fields>}."""
    if isinstance(ref, dict):
        if "family" not in ref:
            raise SpecFormatError("source document must be an object with a 'family' field")
        return str(ref["family"]), tuple((k, v) for k, v in ref.items() if k != "family")
    if not isinstance(ref, str):
        raise SpecFormatError(f"cannot resolve source reference of type {type(ref).__name__}")
    if ":" not in ref:
        raise SpecFormatError(f"source shorthand '{ref}' must look like family:key=value,...")
    family, _, rest = ref.partition(":")
    items = [item.partition("=") for item in rest.split(",") if item]
    for key, eq, value in items:
        if not eq:
            raise SpecFormatError(f"bad parameter '{key}' in shorthand '{ref}'")
    return family.strip(), tuple((key.strip(), value.strip()) for key, _, value in items)


def instantiate(family: str, params) -> CorpusEntry:
    """The entry a family name and its raw fields (a dict or a tuple of pairs) describe."""
    family, args = _arguments(family, params)
    return _FAMILIES[family][0](*args)


# parse_shorthand and source_from_doc are named for the two forms, and
# callers (perfbench/tracer.py among them) use those names; like
# resolve_source, each accepts either form.
def parse_shorthand(text: str) -> CorpusEntry:
    """'expexp:a=2,c=1' -> entry; the same shorthand the CLI accepts."""
    return instantiate(*_split(text))


def source_from_doc(doc: dict) -> CorpusEntry:
    """JSON form: {"family": ..., <fields>}."""
    return instantiate(*_split(doc))


def resolve_source(ref) -> CorpusEntry:
    """Accept shorthand strings or JSON documents."""
    return instantiate(*_split(ref))


def series_spec(ref) -> SeriesSpec:
    """The series a source reference names, without the table check that its
    entry applies: validate reports that check instead of refusing the table."""
    family, args = _arguments(*_split(ref))
    make = {"expexp": expexp_spec, "table": table_spec}.get(family)
    if make is None:
        raise SpecFormatError("validate applies to series sources; profiles have no coefficients")
    return make(*args)


def default_entries() -> list[CorpusEntry]:
    return [parse_shorthand(s) for s in DEFAULT_ENTRY_SPECS]


def analytic_relative(f: CorpusEntry, g: CorpusEntry, kind: str, p: int, q: int) -> Optional[float]:
    """Closed-form relative indicators for the pairs that have one.

    expexp-expexp at (0,0): the composition is (a_f/a_g)sigma +
    log(c_f/c_g)/a_g + o(1), so the order is a_f/a_g and every type-kind
    indicator is (c_f/c_g)^(1/a_g).  tower-tower with equal depth at
    (0,0): composition (rho_f/rho_g)sigma exactly; order rho_f/rho_g,
    types 1.
    """
    if (p, q) != (0, 0):
        return None
    order_kinds = ("relative_order", "relative_lower_order")
    type_kinds = ("relative_type", "relative_lower_type",
                  "relative_weak_type_tau", "relative_weak_type_tau_bar")
    if f.family == "expexp" and g.family == "expexp":
        af, cf = f.params["a"], f.params["c"]
        ag, cg = g.params["a"], g.params["c"]
        if kind in order_kinds:
            return af / ag
        if kind in type_kinds:
            return (cf / cg) ** (1.0 / ag)
        return None
    if f.family == "tower" and g.family == "tower" and f.params["k"] == g.params["k"] \
            and f.params["q"] == 0 and g.params["q"] == 0:
        if kind in order_kinds:
            return f.params["rho"] / g.params["rho"]
        if kind in type_kinds:
            return 1.0
    return None

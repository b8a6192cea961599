"""Inequality-chain checking for relative growth indicators.

Each statement relates the indicators of f and g measured through a third
function h.  Statements are data: a row of STATEMENTS lists hypotheses
and clauses (``_clause``) that ``check_instance`` walks per instance.
Hypotheses are reported under their own text; once a group is not met by
the estimates the verdict is "vacuous", never "fail" - a conditional
claim cannot be falsified by a failed premise.  Operands are evaluated
left to right; the first ill-posed one (an interval touching zero) makes
the instance vacuous, with its message as a note.  A numeric or domain
error gives the verdict "error" with its cause as the note, so one bad
instance cannot sink a batch.  A schema error (SpecFormatError) propagates;
TheoremInstance raises one for a bad theorem id, index or tolerance.

Per-link tolerance is the instance tolerance plus the interval
half-widths of the two linked quantities, so certified estimation slack
never masquerades as a counterexample.

Two readings forced by gaps in the source statements are flagged in the
report notes: the sigma-like symbols in the lower-type corollary (Ct2)
are read as the type/lower type of g, and a malformed exponent in the
tau-bar chain (Tt3) is read as 1/lambda of g at (m, p).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import attrgetter
from typing import Optional

from .corpus import CorpusEntry, grid_spec, integer, number, read_fields, resolve_source
from .errors import IncompleteInstanceError, RittGrowthError, SpecFormatError
from .growth import DEFAULT_GRID, GridSpec
from .indicators import (FINITE_EPS, IndicatorEstimate, RelativeIndicators, finite_nonzero,
                         json_number, profile_samples, relative_indicators)


@dataclass(frozen=True)
class TheoremInstance:
    theorem_id: str
    f: object  # source shorthand or JSON doc
    g: object
    h: object
    m: int = 0
    p: int = 0
    q: int = 0
    tolerance: float = 2e-2
    grid: GridSpec = DEFAULT_GRID

    def __post_init__(self):
        if self.theorem_id not in STATEMENTS:
            raise SpecFormatError(f"unknown theorem id '{self.theorem_id}'")
        if min(self.m, self.p, self.q) < 0:
            raise SpecFormatError("theorem indices m, p, q must be non-negative")
        # an infinite tolerance would pass every link
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise SpecFormatError(f"instance tolerance must be finite and positive, got {self.tolerance}")

    def describe(self) -> dict:
        return {
            "theorem": self.theorem_id, "f": self.f, "g": self.g, "h": self.h,
            "m": self.m, "p": self.p, "q": self.q, "tolerance": self.tolerance,
            "grid": self.grid.describe(),
        }


@dataclass(slots=True)
class Quantity:
    """A chain entry: point value plus the surrogate-pairing interval."""

    label: str
    value: float
    lo: float
    hi: float

    @property
    def halfwidth(self) -> float:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            return math.inf
        return 0.5 * (self.hi - self.lo)


def _q_ratio(a: Quantity, b: Quantity, label: str) -> Quantity:
    if b.lo <= 0:
        raise IncompleteInstanceError(f"ratio {label} needs a positive denominator interval")
    # a numerator end below zero is extreme over the denominator's near end
    return Quantity(label, a.value / b.value, a.lo / (b.lo if a.lo < 0 else b.hi),
                    a.hi / (b.hi if a.hi < 0 else b.lo))


def _q_mul(a: Quantity, b: Quantity, label: str) -> Quantity:
    if a.lo < 0 or b.lo < 0:
        raise IncompleteInstanceError(f"product {label} needs non-negative intervals")
    return Quantity(label, a.value * b.value, a.lo * b.lo, a.hi * b.hi)


def _q_pow_inv(base: Quantity, expo: Quantity, label: str) -> Quantity:
    """base ** (1 / expo) with interval corners; base and expo positive."""
    if base.lo <= 0 or expo.lo <= 0:
        raise IncompleteInstanceError(f"power {label} needs positive intervals")
    e_lo, e_hi = 1.0 / expo.hi, 1.0 / expo.lo
    corners = [base.lo ** e_lo, base.lo ** e_hi, base.hi ** e_lo, base.hi ** e_hi]
    return Quantity(label, base.value ** (1.0 / expo.value), min(corners), max(corners))


def _q_fold(fold, label: str, *qs: Quantity) -> Quantity:
    """min or max of quantities, taken separately on values and interval ends."""
    return Quantity(label, fold(q.value for q in qs), fold(q.lo for q in qs), fold(q.hi for q in qs))


def _point(label: str, v: float) -> Quantity:
    return Quantity(label, v, v, v)


def _quantity(est: Optional[IndicatorEstimate], label: str) -> Quantity:
    if est is None:
        raise IncompleteInstanceError(f"estimate {label} was gated off and is unavailable")
    return Quantity(label, est.value, est.lo, est.hi)


@dataclass(slots=True)
class Link:
    relation: str  # "le" | "ge" | "eq"
    left: Quantity
    right: Quantity
    slack: float
    tol: float
    ok: bool


def _link(relation: str, left: Quantity, right: Quantity, base_tol: float) -> Link:
    tol = base_tol + left.halfwidth + right.halfwidth
    gap = left.value - right.value
    slack = {"le": -gap, "ge": gap, "eq": -abs(gap)}[relation]
    # Degenerate agreements (inf vs inf) count as satisfied comparisons;
    # any other nan slack fails.
    if relation in ("le", "ge") and left.value == right.value:
        slack = 0.0
    return Link(relation, left, right, slack, tol, slack >= -tol)


@dataclass
class CheckReport:
    theorem_id: str
    subject: dict
    hypothesis_status: dict
    chain: list  # [(label, value)]
    slacks: list
    links: list
    notes: list
    verdict: str  # "pass" | "vacuous" | "fail" | "error" (cause in notes)

    def to_json(self) -> dict:
        num = json_number
        return {
            "theorem": self.theorem_id,
            "subject": self.subject,
            "hypotheses": {k: bool(v) for k, v in self.hypothesis_status.items()},
            "chain": [[label, num(value)] for label, value in self.chain],
            "slacks": [num(s) for s in self.slacks],
            "links": [
                {"relation": l.relation, "left": l.left.label, "left_value": num(l.left.value),
                 "right": l.right.label, "right_value": num(l.right.value),
                 "slack": num(l.slack), "tol": num(l.tol), "ok": l.ok}
                for l in self.links
            ],
            "notes": list(self.notes),
            "verdict": self.verdict,
        }


class IndicatorWorkspace:
    """Resolves source references and caches profiles and relative indicator sets.

    Theorem batches reuse the same (pair, indices, grid) sets heavily, and
    an f met with several partners g on one grid shares one profile.  Both
    caches key a curve by its family and parameters, not by its id, which
    names only a table.  Estimates are deterministic, so caching cannot
    change any result.
    """

    def __init__(self):
        self._entries: dict = {}  # reference -> (entry, curve key)
        self._profiles: dict = {}
        self._sets: dict = {}

    def _resolve(self, ref) -> tuple[CorpusEntry, str]:
        key = json.dumps(ref, sort_keys=True) if isinstance(ref, dict) else str(ref)
        if key not in self._entries:
            entry = resolve_source(ref)
            self._entries[key] = entry, json.dumps([entry.family, entry.params], sort_keys=True)
        return self._entries[key]

    def entry(self, ref) -> CorpusEntry:
        return self._resolve(ref)[0]

    def rel_set(self, x_ref, y_ref, i: int, j: int, grid: GridSpec) -> RelativeIndicators:
        (x, x_curve), (y, y_curve) = self._resolve(x_ref), self._resolve(y_ref)
        key = (x_curve, y_curve, i, j, grid)
        if key not in self._sets:
            if (x_curve, grid) not in self._profiles:
                self._profiles[x_curve, grid] = profile_samples(x.bundle(), grid)
            self._sets[key] = relative_indicators(self._profiles[x_curve, grid], y.bundle(), i, j)
        return self._sets[key]


def _regular(rho: IndicatorEstimate, lam: IndicatorEstimate, tol: float) -> bool:
    gap = abs(rho.value - lam.value)
    return gap <= tol + 0.5 * abs(rho.hi - rho.lo) + 0.5 * abs(lam.hi - lam.lo)


# The table evaluator.  "rho_h(f)" is run.fh.rho.
_NAMES = {f"{sym}_{of}": attrgetter(f"{pair}.{'lam' if sym == 'lambda' else sym.lower()}")
          for sym in ("rho", "lambda", "Delta", "Delta_bar", "tau", "tau_bar")
          for of, pair in (("h(f)", "fh"), ("h(g)", "gh"), ("g(f)", "fg"), ("f(g)", "gf"))}

_CLAIMS = {"finite nonzero": lambda est: est is not None and finite_nonzero(est.value),
           "available": lambda est: est is not None,
           "~ 0": lambda est: est.value < FINITE_EPS,
           "~ inf": lambda est: est.value > 1.0 / FINITE_EPS}


def _eval(e, run, local: dict) -> Quantity:
    """An expression's quantity: a named quantity, a let name, "a/b", "a * b",
    ("pow_inv", base, exponent, label), ("min" | "max", label, *operands),
    ("const", value, label), ("as", name, label), ("point", operand, label)
    or ("threshold", "ge" | "le").  ``local`` holds let names, and named
    quantities and constants from their first use on."""
    if e in local:
        return local[e]
    if e in _NAMES or e[0] == "const":  # built at first use, then reused
        return local.setdefault(e, _point(e[2], e[1]) if e[0] == "const" else _quantity(_NAMES[e](run), e))
    if isinstance(e, str):  # labelled by its text, so both operands are named
        sep, op = ("/", _q_ratio) if "/" in e else (" * ", _q_mul)
        a, b = e.split(sep)
        return op(_eval(a, run, local), _eval(b, run, local), e)
    op, x, *rest = e
    if op == "pow_inv":
        return _q_pow_inv(_eval(x, run, local), _eval(rest[0], run, local), rest[1])
    if op in ("min", "max"):
        return _q_fold(min if op == "min" else max, x, *(_eval(y, run, local) for y in rest))
    if op == "threshold":
        return _point("threshold", 1.0 / FINITE_EPS if x == "ge" else FINITE_EPS)
    if op == "as":
        return _quantity(_NAMES[x](run), rest[0])
    if op == "point":
        return _point(rest[0], _eval(x, run, local).value)
    raise ValueError(f"unknown operation '{op}'")


def _holds(text: str, run, local: dict) -> bool:
    """A hypothesis or guard, evaluated from the text it is reported under."""
    if text.endswith(" wrt h regular"):
        pair = getattr(run, f"{text[0]}h")
        return _regular(pair.rho, pair.lam, run.inst.tolerance)
    name, _, claim = text.partition(" ")
    if claim.startswith("= "):  # equal within the instance tolerance and half-widths
        return _link("eq", _eval(name, run, local), _eval(claim[2:], run, local), run.inst.tolerance).ok
    return _CLAIMS[claim](_NAMES[name](run))


def _clause(rel, *entries, let=(), when=(), otherwise=None, note="", tol=None):
    """A chain, its consecutive entries linked by ``rel`` ("le" or "ge"), or
    with ``rel=None`` (left, relation, right) claims reporting their left
    sides, as data that extends (run, chain, links).  ``let`` binds (name,
    expression) pairs first.  It runs when its guards ``when`` hold, else
    ``otherwise`` does; ``note`` follows it; ``tol`` replaces the tolerance."""
    return partial(_apply_clause, rel, entries, let, when, otherwise, note, tol)


def _apply_clause(rel, entries, let, when, otherwise, note, tol, run, chain, links):
    local: dict = {}
    if not all(_holds(text, run, local) for text in when):
        return otherwise(run, chain, links) if otherwise else None
    for name, e in let:
        local[name] = _eval(e, run, local)
    tol = run.inst.tolerance if tol is None else tol
    if rel is None:
        for left, r, right in entries:
            links.append(_link(r, _eval(left, run, local), _eval(right, run, local), tol))
            chain.append(links[-1].left)
    else:
        qs = [_eval(e, run, local) for e in entries]
        chain += qs
        links += [_link(rel, a, b, tol) for a, b in zip(qs, qs[1:])]
    run.notes += [note] if note else []


_claims = partial(_clause, None)  # (left, relation, right) claims


def _statement(hyp, *clauses, note="", none_fired=None):
    """As data, applied to a run: the reported entries and links, or None if
    vacuous: a hypothesis group failed, or no clause ran (``none_fired``)."""
    return partial(_apply_statement, hyp, clauses, note, none_fired)


def _apply_statement(hyp, clauses, note, none_fired, run):
    chain, links = [], []
    for group in hyp:
        run.hyp.update((text, _holds(text, run, {})) for text in group)
        if not all(run.hyp.values()):
            return None
    run.notes += [note] if note else []
    for clause in clauses:
        clause(run, chain, links)
    if none_fired and not links:
        text, missing = none_fired
        run.hyp[text] = False
        run.notes += [missing] if missing else []
        return None
    return chain, links


# The statements.

_FN_ORDERS = ("rho_h(f) finite nonzero", "lambda_h(f) finite nonzero",
              "rho_h(g) finite nonzero", "lambda_h(g) finite nonzero")
_REGULAR_BOTH = ("rho_h(f) finite nonzero", "rho_h(g) finite nonzero",
                 "f wrt h regular", "g wrt h regular")
_FN_TYPES = tuple(f"{sym}_h({x}) finite nonzero" for sym in ("Delta", "Delta_bar", "tau", "tau_bar")
                  for x in "fg") + ("rho_h(g) finite nonzero", "lambda_h(g) finite nonzero")
_ONE = ("const", 1.0, "1")
_EQUAL_ORDERS = "rho_h(f) = rho_h(g)"
_SKIPPED = _claims(note="equal-orders clause skipped: rho_h(f) != rho_h(g)")


def _root(label: str, bound: str) -> tuple:
    """"num/den ^ 1/expo" is (num_h(f) / den_h(g)) ** (1 / expo_h(g))."""
    ratio, expo = bound.split(" ^ 1/")
    num, den = ratio.split("/")
    return ("pow_inv", f"{num}_h(f)/{den}_h(g)", f"{expo}_h(g)", label)


def _fold(side: str, bounds: list):
    fold, which = ("max", "lower") if side == "lb" else ("min", "upper")
    roots = [_root(f"{side}{i}", b) for i, b in enumerate(bounds, 1)]
    return (fold, f"{fold} of {which} bounds", *roots) if len(roots) > 1 else _root(side, bounds[0])


def _type(target: str, lower: list, upper: list, note: str = ""):
    """Tt1-Tt4, Ct1-Ct4: a type of f through g between its bounds' max and min."""
    t = f"{target}_g(f)"
    chain = (_clause("le", *([_fold("lb", lower)] if lower else []), t, _fold("ub", upper))
             if upper else _clause("ge", t, _fold("lb", lower)))
    return _statement((_FN_TYPES, (f"{t} available",)), chain, note=note)


def _product(prod: str, one_sided: str):
    """C5/C6: the product of the two orientations is 1 for a regular pair."""
    return _statement((_FN_ORDERS,), _claims(
        (prod, "eq", _ONE), when=("f wrt h regular", "g wrt h regular"),
        note="both regular: equality",
        otherwise=_claims((prod, one_sided, _ONE), note="irregular pair: one-sided bound")))


def _degenerate(hyp: str, *cases):
    """C7/C8: once an estimate crosses the zero or infinity threshold, the
    conclusion's point value must cross it too.  No trigger: vacuous."""
    return _statement(((hyp,),), *(
        _claims((("point", target, f"{trigger} => {target} = {'inf' if rel == 'ge' else '0'}"),
                rel, ("threshold", rel)), when=(trigger,), tol=0.0)
        for trigger, target, rel in cases),
        none_fired=("some degenerate case triggered", "no degenerate hypothesis triggered"))


def _sandwich(regular: str, a: tuple, b: tuple):
    """T41/T42: targets ``a`` between Delta-type ratios, ``b`` between tau-type ones."""
    def target(part, sym):
        return ("as", f"{sym}_g(f)", f"{part}:{sym.lower()}_g(f)")
    return _statement(
        (_FN_TYPES, (f"{regular} wrt h regular",) + tuple(
            f"{sym}_g(f) available" for sym in ("Delta", "Delta_bar", "tau", "tau_bar"))),
        _clause("le", _root("lbA", "Delta_bar/Delta ^ 1/rho"), target("A", a[0]),
               ("min", "A:min", "m1", "m2"), ("max", "A:max", "m1", "m2"), target("A", a[1]),
               _root("ubA", "Delta/Delta_bar ^ 1/rho"),
               let=(("m1", _root("m1", "Delta_bar/Delta_bar ^ 1/rho")),
                    ("m2", _root("m2", "Delta/Delta ^ 1/rho")))),
        _clause("le", _root("lbB", "tau/tau_bar ^ 1/lambda"), target("B", b[0]),
               ("min", "B:min", "m3", "m4"), ("max", "B:max", "m3", "m4"), target("B", b[1]),
               _root("ubB", "tau_bar/tau ^ 1/lambda"),
               let=(("m3", _root("m3", "tau/tau ^ 1/lambda")),
                    ("m4", _root("m4", "tau_bar/tau_bar ^ 1/lambda")))))


STATEMENTS = {
    "T1": _statement((_FN_ORDERS,), _clause(
        "le", "lambda_h(f)/rho_h(g)", "lambda_g(f)",
        ("min", "min(lambda/lambda, rho/rho)", "ll", "rr"),
        ("max", "max(lambda/lambda, rho/rho)", "ll", "rr"), "rho_g(f)", "rho_h(f)/lambda_h(g)",
        let=(("ll", "lambda_h(f)/lambda_h(g)"), ("rr", "rho_h(f)/rho_h(g)")))),
    "C1": _statement((_FN_ORDERS + ("f wrt h regular",),),
        _claims(("lambda_g(f)", "eq", "rho_h(f)/rho_h(g)"), ("rho_g(f)", "eq", "rho_h(f)/lambda_h(g)")),
        _claims(("lambda_g(f)", "eq", _ONE), ("rho_f(g)", "eq", _ONE), when=(_EQUAL_ORDERS,),
               note="equal-orders clause: both orientations checked separately", otherwise=_SKIPPED)),
    "C2": _statement((_FN_ORDERS + ("g wrt h regular",),),
        _claims(("lambda_g(f)", "eq", "lambda_h(f)/rho_h(g)"), ("rho_g(f)", "eq", "rho_h(f)/rho_h(g)")),
        _claims(("rho_g(f)", "eq", _ONE), ("lambda_f(g)", "eq", _ONE), when=(_EQUAL_ORDERS,),
               otherwise=_SKIPPED)),
    "C3": _statement((_REGULAR_BOTH,), _claims(("lambda_g(f)", "eq", "t"), ("rho_g(f)", "eq", "t"),
                                                let=(("t", "rho_h(f)/rho_h(g)"),))),
    "C4": _statement((_REGULAR_BOTH + (_EQUAL_ORDERS,),), _claims(
        *((name, "eq", _ONE) for name in ("lambda_g(f)", "rho_g(f)", "lambda_f(g)", "rho_f(g)")))),
    "C5": _product("rho_g(f) * rho_f(g)", "ge"),
    "C6": _product("lambda_g(f) * lambda_f(g)", "le"),
    "C7": _degenerate("rho_h(f) finite nonzero",
                      ("rho_h(g) ~ 0", "lambda_g(f)", "ge"), ("lambda_h(g) ~ 0", "rho_g(f)", "ge"),
                      ("rho_h(g) ~ inf", "lambda_g(f)", "le"), ("lambda_h(g) ~ inf", "rho_g(f)", "le")),
    "C8": _degenerate("rho_h(g) finite nonzero",
                      ("rho_h(f) ~ 0", "rho_g(f)", "le"), ("lambda_h(f) ~ 0", "lambda_g(f)", "le"),
                      ("rho_h(f) ~ inf", "rho_g(f)", "ge"), ("lambda_h(f) ~ inf", "lambda_g(f)", "ge")),
    "R1": _statement((_FN_ORDERS,),
        _claims(("rho_g(f)", "eq", "rho_h(f)/rho_h(g)"), ("lambda_g(f)", "eq", "lambda_h(f)/lambda_h(g)"),
               when=("g wrt h regular",), note="branch: g regular wrt h"),
        _claims(("rho_g(f)", "eq", "lambda_h(f)/lambda_h(g)"), ("lambda_g(f)", "eq", "rho_h(f)/rho_h(g)"),
               when=("f wrt h regular",), note="branch: f regular wrt h"),
        none_fired=("one side regular", "")),
    "Tt1": _type("Delta", ["Delta_bar/tau ^ 1/lambda", "Delta/tau_bar ^ 1/lambda"],
                 ["Delta/Delta_bar ^ 1/rho"]),
    "Ct1": _type("Delta", [], ["tau_bar/tau ^ 1/lambda", "tau_bar/Delta_bar ^ 1/rho"]),
    "Tt2": _type("Delta_bar", ["Delta_bar/tau_bar ^ 1/lambda"],
                 ["Delta_bar/Delta_bar ^ 1/rho", "Delta/Delta ^ 1/rho"]),
    "Ct2": _type("Delta_bar", [], ["tau/tau ^ 1/lambda", "tau_bar/tau_bar ^ 1/lambda",
                                   "tau_bar/Delta ^ 1/rho", "tau/Delta_bar ^ 1/rho"],
                 note="sigma-type symbols read as Delta_h(g) / Delta_bar_h(g)"),
    "Tt3": _type("tau_bar", ["tau_bar/tau_bar ^ 1/lambda", "tau/tau ^ 1/lambda"],
                 ["tau_bar/Delta_bar ^ 1/rho"], note="malformed exponent read as 1/lambda_h(g)"),
    "Ct3": _type("tau_bar", ["Delta_bar/Delta_bar ^ 1/rho", "Delta/Delta ^ 1/rho",
                             "Delta/tau_bar ^ 1/lambda", "Delta_bar/tau ^ 1/lambda"], []),
    "Tt4": _type("tau", ["tau/tau_bar ^ 1/lambda"], ["tau/Delta_bar ^ 1/rho", "tau_bar/Delta ^ 1/rho"]),
    "Ct4": _type("tau", ["Delta_bar/Delta ^ 1/rho", "Delta_bar/tau_bar ^ 1/lambda"], []),
    "T41": _sandwich("g", ("Delta_bar", "Delta"), ("tau", "tau_bar")),
    "T42": _sandwich("f", ("tau", "tau_bar"), ("Delta_bar", "Delta")),
}

THEOREM_IDS = tuple(STATEMENTS)


class _Run:
    """One instance: its relative sets, hypotheses and notes."""

    def __init__(self, inst: TheoremInstance, ws: IndicatorWorkspace):
        self.inst, self.ws = inst, ws
        self.fh = ws.rel_set(inst.f, inst.h, inst.m, inst.q, inst.grid)
        self.gh = ws.rel_set(inst.g, inst.h, inst.m, inst.p, inst.grid)
        self.fg = ws.rel_set(inst.f, inst.g, inst.p, inst.q, inst.grid)
        self.hyp, self.notes = {}, []

    @cached_property
    def gf(self) -> RelativeIndicators:
        """g measured through f, fetched only when a statement names it."""
        inst = self.inst
        return self.ws.rel_set(inst.g, inst.f, inst.q, inst.p, inst.grid)

    def report(self, chain_qs: list, links: list) -> CheckReport:
        verdict = ("vacuous" if not all(self.hyp.values())
                   else "pass" if all(l.ok for l in links) else "fail")
        return CheckReport(self.inst.theorem_id, self.inst.describe(), dict(self.hyp),
                           [(q.label, q.value) for q in chain_qs], [l.slack for l in links],
                           links, list(self.notes), verdict)


def check_instance(instance: TheoremInstance, ws: Optional[IndicatorWorkspace] = None) -> CheckReport:
    try:
        run = _Run(instance, ws or IndicatorWorkspace())
        return run.report(*(STATEMENTS[instance.theorem_id](run) or ([], [])))
    except IncompleteInstanceError as exc:
        # a bound touched zero or infinity: the claim is untested
        run.hyp["chain quantities well-posed"] = False
        run.notes.append(str(exc))
        return run.report([], [])
    except SpecFormatError:
        raise
    except RittGrowthError as exc:  # one failing instance must not sink a batch
        return CheckReport(instance.theorem_id, instance.describe(), {}, [], [], [],
                           [f"{type(exc).__name__}: {exc}"], "error")


# The batch-instance schema, in TheoremInstance's argument order and with its
# defaults; sources stay as given, for the workspace to resolve.
_INSTANCE_FIELDS = (("theorem", str), *((name, lambda ref: ref) for name in "fgh"),
                    *((name, integer, getattr(TheoremInstance, name)) for name in "mpq"),
                    ("tolerance", number, TheoremInstance.tolerance),
                    ("grid", grid_spec, TheoremInstance.grid))


def _array(items) -> list:
    if not isinstance(items, list):
        raise SpecFormatError("batch document needs an 'instances' array")
    return items


def load_batch(doc: dict) -> list[TheoremInstance]:
    """Batch document: {"instances": [{theorem, f, g, h, m?, p?, q?, tolerance?, grid?}]}."""
    items, = read_fields((("instances", _array),), doc, "batch document")
    instances = []
    for i, item in enumerate(items):
        args = read_fields(_INSTANCE_FIELDS, item, f"instance {i}")
        try:
            instances.append(TheoremInstance(*args))
        except SpecFormatError as exc:  # named by its place, as the schema rule's errors are
            raise SpecFormatError(f"instance {i}: {exc}") from exc
    return instances


def run_batch(instances: list[TheoremInstance]) -> list[CheckReport]:
    ws = IndicatorWorkspace()
    return [check_instance(inst, ws) for inst in instances]

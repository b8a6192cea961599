"""Output checks behind `failed`: analytic references and an mpmath sandwich.

Every check returns a list of problems; an empty list means the unit is
correct.  References come from the corpus' closed forms
(`CorpusEntry.analytic`, `corpus.analytic_relative`), from the osc-tower
composition worked out below, and from an mpmath evaluation of the expexp
closed form that shares no code with the series surrogates.
"""

from __future__ import annotations

import contextlib
import io
import json

import mpmath

from rittgrowth import cli, corpus, theorems

# Relative indicators: the agreement tests/test_acceptance.py criterion 3 asserts.
REL_TOL = 1e-2
# levelindex documents ~1e-14 accumulated mantissa error per level crossed;
# the sandwich is compared at that resolution (see sandwich()).
MANTISSA_TOL_PER_LEVEL = 1e-14
DEFAULT_DETECT_GRID = "5:30:64"

ORDER_KINDS = ("relative_order", "relative_lower_order")


def reference_relative(f: corpus.CorpusEntry, g: corpus.CorpusEntry, kind: str,
                       p: int, q: int):
    """Closed-form relative indicator, or None where there is none.

    Beyond corpus.analytic_relative: for f = osc(rho, lam, p=k, q=0) and
    g = tower(k, rho_g, q=0), log^[k]M_f = (m0 + m1 sin log s) s and
    log^[k]M_g = rho_g s, so M_g^{-1}(M_f(s)) = (m0 + m1 sin log s) s / rho_g:
    relative order rho / rho_g and lower order lam / rho_g at (0, 0).
    """
    value = corpus.analytic_relative(f, g, kind, p, q)
    if value is not None:
        return value
    if (p, q) == (0, 0) and kind in ORDER_KINDS and f.family == "osc_profile" \
            and g.family == "tower" and f.params["p"] == g.params["k"] \
            and f.params["q"] == 0 and g.params["q"] == 0:
        top = f.params["rho"] if kind == "relative_order" else f.params["lam"]
        return top / g.params["rho"]
    return None


def _close(est: dict, want: float, tol: float, label: str) -> list:
    got = est["value"]
    if isinstance(got, str) or not abs(got - want) <= tol:
        return [f"{label}: {got} vs reference {want} (tolerance {tol})"]
    return []


def check_cli_unit(argv: list, text: str) -> list:
    """Compare one CLI report with its analytic reference."""
    doc = json.loads(text)
    opts = dict(zip(argv[1::2], argv[2::2]))
    problems = []
    if argv[0] == "indicator":
        entry = corpus.parse_shorthand(opts["--spec"])
        checked = 0
        for est in doc["estimates"]:
            av = entry.analytic.get((est["kind"], est["p"], est["q"]))
            if av is not None:
                checked += 1
                problems += _close(est, av.value, av.tolerance, f"{entry.id} {est['kind']}")
        if not checked:
            problems.append(f"{entry.id}: no estimate has an analytic reference")
    elif argv[0] == "detect" and "--g-spec" not in opts:
        entry = corpus.parse_shorthand(opts["--spec"])
        pair = (doc["pair"]["p"], doc["pair"]["q"])
        if pair != tuple(entry.index_pair):
            problems.append(f"{entry.id}: detected {pair}, expected {entry.index_pair}")
        else:
            av = entry.analytic[("order", *pair)]
            problems += _close(doc["order"], av.value, av.tolerance, f"{entry.id} order")
    elif argv[0] == "detect":
        f, g = corpus.parse_shorthand(opts["--spec"]), corpus.parse_shorthand(opts["--g-spec"])
        pair = (doc["pair"]["p"], doc["pair"]["q"])
        if pair != (0, 0):
            problems.append(f"{f.id} vs {g.id}: detected {pair}, expected (0, 0)")
        else:
            want = reference_relative(f, g, "relative_order", 0, 0)
            problems += _close(doc["order"], want, REL_TOL, f"{f.id} vs {g.id} order")
    elif argv[0] == "relative":
        f, g = corpus.parse_shorthand(opts["--f-spec"]), corpus.parse_shorthand(opts["--g-spec"])
        p, q = int(opts["--p"]), int(opts["--q"])
        checked = 0
        for kind, est in doc["estimates"].items():
            want = reference_relative(f, g, kind, p, q)
            if want is not None:
                checked += 1
                problems += _close(est, want, REL_TOL, f"{f.id} vs {g.id} {kind}")
        if not checked:
            problems.append(f"{f.id} vs {g.id}: no estimate has a reference")
    else:
        problems.append(f"no check for command {argv[0]}")
    return problems


def check_theorem_unit(instance, report: dict, expected: str, ws) -> list:
    """Verdict against the template's, and the workspace's relative sets against references."""
    problems = []
    if report["verdict"] != expected:
        problems.append(f"{instance.theorem_id}: verdict {report['verdict']}, expected {expected}")
    grid = instance.grid or theorems.DEFAULT_GRID
    m, p, q = instance.m, instance.p, instance.q
    for x, y, i, j in ((instance.f, instance.h, m, q), (instance.g, instance.h, m, p),
                       (instance.f, instance.g, p, q)):
        rel = ws.rel_set(x, y, i, j, grid)  # cached by the measured run
        fx, fy = ws.entry(x), ws.entry(y)
        for kind, est in rel.by_kind().items():
            want = reference_relative(fx, fy, kind, i, j)
            if want is not None and not abs(est.value - want) <= REL_TOL:
                problems.append(f"{instance.theorem_id} {fx.id} vs {fy.id} {kind}: "
                                f"{est.value} vs reference {want}")
    return problems


def grid_text(grid: dict) -> str:
    return (f"{float(grid['sigma_min'])!r}:{float(grid['sigma_max'])!r}:{int(grid['count'])}:"
            f"{grid.get('spacing', 'linear')}")


def expexp_grids_of_argv(argv: list) -> list:
    """(spec, grid) pairs of the expexp sources a CLI unit samples."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    grid = opts.get("--sigma", DEFAULT_DETECT_GRID)
    return [(opts[k], grid) for k in ("--spec", "--f-spec", "--g-spec")
            if opts.get(k, "").startswith("expexp:")]


def expexp_grids_of_instance(inst: dict) -> list:
    grid = grid_text(inst.get("grid") or theorems.DEFAULT_GRID.describe())
    return [(inst[r], grid) for r in ("f", "g", "h") if inst[r].startswith("expexp:")]


def _profile(spec: str, grid: str, surrogate: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["profile", "--spec", spec, "--sigma", grid, "--surrogate", surrogate])
    if code != 0:
        raise RuntimeError(f"profile {spec} {grid} {surrogate} exited {code}")
    return json.loads(out.getvalue())["samples"]


def _log_iter(x, level: int):
    for _ in range(level):
        if x <= 0:
            return mpmath.mpf("-inf")
        x = mpmath.log(x)
    return x


def sandwich(spec: str, grid: str) -> list:
    """`profile --surrogate lower` <= log(exp(c e^(a s)) - 1) <= `profile --surrogate upper`.

    Surrogate values are (level, mantissa) pairs, so the closed form is
    taken down to each sample's own level in 60-digit arithmetic and the
    mantissas are compared, allowing the documented mantissa error of
    1e-14 per level: exp^[level] amplifies one ulp of mantissa far
    beyond the double resolution of the value itself.
    """
    entry = corpus.parse_shorthand(spec)
    a, c = mpmath.mpf(entry.params["a"]), mpmath.mpf(entry.params["c"])
    try:
        lower, upper = _profile(spec, grid, "lower"), _profile(spec, grid, "upper")
    except RuntimeError as exc:
        return [str(exc)]
    problems = []
    with mpmath.workdps(60):
        for lo, up in zip(lower, upper):
            closed = mpmath.log(mpmath.expm1(c * mpmath.exp(a * mpmath.mpf(lo["sigma"]))))
            for sample, sign, name in ((lo, 1, "lower"), (up, -1, "upper")):
                level = sample["level"]
                gap = sign * (_log_iter(closed, level) - mpmath.mpf(sample["mantissa"]))
                if gap < -MANTISSA_TOL_PER_LEVEL * max(level, 1):
                    problems.append(f"{spec} sigma={lo['sigma']!r}: {name} surrogate "
                                    f"(level {level}, mantissa {sample['mantissa']!r}) is on "
                                    f"the wrong side of the closed form")
    return problems

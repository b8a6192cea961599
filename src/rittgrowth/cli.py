"""Command line front end.

Subcommands: validate, profile, indicator, relative, detect, check,
oracle, corpus.  Sources are given either as shorthand (``expexp:a=2,c=1``)
or as a path to a JSON document; corpus's schema rule reads them, grids and
batch instances.  Output is JSON by default (sorted keys, no timestamps)
so identical runs are byte-identical.

Exit codes: 0 success, 1 a non-vacuous theorem check failed, 2 usage or
schema error, 3 numeric/domain error.  A table failing validation gets
its report and exit 3 from ``validate``, exit 2 elsewhere.  ``check``
exits 3 if any instance got the verdict "error" (a numeric error).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import oracle as oracle_mod
from . import series as series_mod
from . import theorems as theorems_mod
from .errors import RittGrowthError, SpecFormatError
from .growth import GridSpec, sample_profile
from .indicators import (WINDOW, detect_index_pair, detect_relative_index_pair, json_number,
                         order_pair, profile_samples, ratio_sequence, relative_indicators,
                         type_pairs)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _source_ref(text: str):
    """Shorthand like 'expexp:a=1,c=3' as given, or the JSON source document at that path."""
    path = Path(text)
    if path.suffix == ".json" or path.exists():
        return json.loads(path.read_text())
    return text


def _load_source_arg(text: str) -> corpus_mod.CorpusEntry:
    return corpus_mod.resolve_source(_source_ref(text))


def _parse_grid(text: str) -> GridSpec:
    """sigma grid syntax 'min:max:count[:log|:linear]': the grid schema's fields in order."""
    names = (name for name, *_ in corpus_mod.GRID_FIELDS)
    return corpus_mod.grid_spec(tuple(zip(names, text.split(":", 3))),
                                f"grid '{text}' (min:max:count[:log|:linear])")


def _emit(doc, args) -> None:
    """Write a report, JSON unless it is already text, to --output or stdout."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    # the spec without its entry's table check, whose report is the output
    spec = corpus_mod.series_spec(_source_ref(args.spec))
    report = series_mod.validate(spec, args.nmax)
    _emit({
        "spec": spec.describe(), "n_checked": report.n_checked,
        "monotone_ok": report.monotone_ok, "d_estimate": json_number(report.d_estimate),
        "coeff_decay_trend": json_number(report.coeff_decay_trend),
        "verdict": report.verdict, "cause": report.cause,
    }, args)
    return EXIT_OK if report.verdict != "fail" else EXIT_NUMERIC


def cmd_profile(args) -> int:
    bundle = _load_source_arg(args.spec).bundle()
    source = dict(bundle.surrogates()).get(args.surrogate, bundle.upper)
    grid = _parse_grid(args.sigma)
    profile = sample_profile(source, grid)
    if args.format == "csv":
        rows = [f"{s!r},{v.level},{v.mantissa!r}\n" for s, v in profile]
        _emit("".join(["sigma,level,mantissa\n"] + rows), args)
    else:
        _emit({
            "source": source.describe(), "grid": grid.describe(),
            "samples": [{"sigma": s, "level": v.level, "mantissa": v.mantissa} for s, v in profile],
        }, args)
    return EXIT_OK


def cmd_indicator(args) -> int:
    entry = _load_source_arg(args.spec)
    grid = _parse_grid(args.sigma)
    # the plot reads every grid point, the estimates only the tail
    samples = profile_samples(entry.bundle(), grid, 1.0 if args.plot_data else args.window)
    rho, lam = order_pair(samples, args.p, args.q, args.window)
    pairs = type_pairs(samples, args.p, args.q, rho.value if args.kind in ("type", "all") else None,
                       lam.value if args.kind in ("weak-type", "all") else None, args.window)
    estimates = [rho, lam, *(e for pair in pairs for e in pair if e is not None)]
    if args.plot_data:
        # the upper surrogate's samples, the first set
        seq = ratio_sequence(samples.sets[0][1], "order", args.p, args.q)
        lines = [f"{pt.sigma!r} {pt.ratio!r}" for pt in seq.points]
        Path(args.plot_data).write_text("\n".join(lines) + "\n")
    _emit({
        "source": entry.id,
        "grid": grid.describe(),
        "estimates": [e.to_json(grid) for e in estimates],
    }, args)
    return EXIT_OK


def cmd_relative(args) -> int:
    f_entry = _load_source_arg(args.f_spec)
    g_entry = _load_source_arg(args.g_spec)
    grid = _parse_grid(args.sigma)
    rel = relative_indicators(profile_samples(f_entry.bundle(), grid, args.window),
                              g_entry.bundle(), args.p, args.q, args.window)
    _emit({
        "f": f_entry.id, "g": g_entry.id, "form": "direct", "grid": grid.describe(),
        "estimates": {k: e.to_json(grid) for k, e in rel.by_kind().items()},
        "notes": list(rel.notes),
    }, args)
    return EXIT_OK


def cmd_detect(args) -> int:
    entry = _load_source_arg(args.spec)
    grid = _parse_grid(args.sigma) if args.sigma else None
    if args.g_spec:
        g_entry = _load_source_arg(args.g_spec)
        result = detect_relative_index_pair(entry.bundle(), g_entry.bundle(),
                                            args.m, args.p_max, args.q_max, grid, args.window)
    else:
        result = detect_index_pair(entry.bundle(), args.p_max, args.q_max, grid, args.window)
    _emit({
        "source": entry.id,
        "pair": {"p": result.pair.p, "q": result.pair.q},
        "order": result.order.to_json(),
        "evidence": [
            {"p": p, "q": q, "order": json_number(v)}
            for p, q, v in result.evidence
        ],
    }, args)
    return EXIT_OK


def cmd_check(args) -> int:
    instances = theorems_mod.load_batch(json.loads(Path(args.batch).read_text()))
    if args.tol is not None:  # replace checks the tolerance as the constructor does
        instances = [replace(i, tolerance=args.tol) for i in instances]
    ws = theorems_mod.IndicatorWorkspace()
    reports = []
    for inst in instances:
        t0 = time.perf_counter()
        r = theorems_mod.check_instance(inst, ws)
        reports.append(r)
        if not args.quiet:  # progress: one line per instance as it finishes
            print(f"{r.theorem_id:4s} f={r.subject['f']} g={r.subject['g']} h={r.subject['h']} "
                  f"-> {r.verdict} ({time.perf_counter() - t0:.2f} s)", file=sys.stderr)
    counts = {v: sum(1 for r in reports if r.verdict == v) for v in ("vacuous", "fail", "error")}
    _emit({
        "summary": {"instances": len(reports), "pass": len(reports) - sum(counts.values()),
                    **counts},
        "reports": [r.to_json() for r in reports],
    }, args)
    if counts["error"]:
        return EXIT_NUMERIC
    return EXIT_CHECK_FAILED if counts["fail"] else EXIT_OK


def cmd_oracle(args) -> int:
    checked, violations = oracle_mod.sweep(args.instances, args.seed)
    _emit({"instances": args.instances, "seed": args.seed,
           "rules_checked": checked, "violations": violations}, args)
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def cmd_corpus(args) -> int:
    if args.action == "list":
        _emit({"entries": [e.id for e in corpus_mod.default_entries()]}, args)
        return EXIT_OK
    if not args.id:
        raise SpecFormatError("corpus describe needs an entry id")
    entry = corpus_mod.parse_shorthand(args.id)
    _emit(entry.describe(), args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every later call
    (so no caller may change it)."""
    parser = argparse.ArgumentParser(
        prog="rittgrowth",
        description="Growth indicators of entire Dirichlet series and their inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write the JSON report here instead of stdout")

    p = sub.add_parser("validate", help="check series convergence conditions at a truncation")
    p.add_argument("--spec", required=True)
    p.add_argument("--nmax", type=int, default=128)
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("profile", help="sample sigma -> log M(sigma)")
    p.add_argument("--spec", required=True)
    p.add_argument("--sigma", required=True, help="min:max:count[:log]")
    p.add_argument("--surrogate", choices=["upper", "lower"], default="upper")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("indicator", help="estimate order/type indicators")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--kind", choices=["order", "type", "weak-type", "all"], default="order")
    p.add_argument("--window", type=float, default=WINDOW, help="tail window fraction")
    p.add_argument("--plot-data", help="write (sigma, ratio) columns for external plotting")
    add_common(p)
    p.set_defaults(func=cmd_indicator)

    p = sub.add_parser("relative", help="relative indicators of f with respect to g")
    p.add_argument("--f-spec", required=True)
    p.add_argument("--g-spec", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--window", type=float, default=WINDOW)
    add_common(p)
    p.set_defaults(func=cmd_relative)

    p = sub.add_parser("detect", help="scan for the (relative) index-pair")
    p.add_argument("--spec", required=True)
    p.add_argument("--g-spec", help="detect relative pair against this source")
    p.add_argument("--m", type=int, default=0, help="shared first index for the b-threshold")
    p.add_argument("--p-max", type=int, default=4)
    p.add_argument("--q-max", type=int, default=4)
    p.add_argument("--sigma", help="min:max:count[:log]")
    p.add_argument("--window", type=float, default=WINDOW)
    add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("check", help="run a theorem-instance batch")
    p.add_argument("--batch", required=True)
    p.add_argument("--tol", type=float, help="override every instance tolerance")
    p.add_argument("--quiet", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="exact limsup/liminf difference-rule sweep")
    p.add_argument("--instances", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("corpus", help="list or describe built-in families")
    p.add_argument("action", choices=["list", "describe"])
    p.add_argument("id", nargs="?")
    add_common(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFormatError, ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RittGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper in
every rittgrowth namespace that holds it, so calls made through module
attributes, names imported with `from ... import`, and methods all pass
through the wrapper.  Nothing under src/ changes; `uninstall()` puts the
originals back.

Boundaries called fewer than ~10^5 times per run record one span each
(name, start, end, parent span, unit id, self time).  The hot leaves
(`term_log`, the levelindex functions, the `log_m` curves, and the two
series surrogates, which run once per `log_m`) keep only aggregated
counts and times.  Self time is a call's duration minus the time of the
traced calls made inside it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from pathlib import Path

MODULES = ("cli", "corpus", "theorems", "indicators", "growth", "series", "levelindex",
           "oracle", "errors")

# (module, function, span name): one span per call
SPAN_FUNCS = [
    ("cli", "main", "cli.main"),
    ("corpus", "parse_shorthand", "corpus.parse_shorthand"),
    ("corpus", "source_from_doc", "corpus.source_from_doc"),
    ("corpus", "resolve_source", "corpus.resolve_source"),
    ("theorems", "check_instance", "theorems.check_instance"),
    ("growth", "sample_profile", "growth.sample_profile"),
    ("growth", "compose_samples", "growth.compose_samples"),
    ("growth", "invert_modulus", "growth.invert_modulus"),
] + [("indicators", fn, f"indicators.{fn}") for fn in (
    "order_pair", "type_pair", "weak_type_pair", "relative_indicators", "detect_index_pair",
    "detect_relative_index_pair", "ratio_sequence", "tail_estimate")]

# (module, class, method, span name)
SPAN_METHODS = [
    ("corpus", "CorpusEntry", "bundle", "corpus.bundle"),
    ("theorems", "IndicatorWorkspace", "rel_set", "theorems.rel_set"),
]

LOG_M_CLASSES = [("SeriesLowerSource", "growth.log_m.series_lower"),
                 ("SeriesUpperSource", "growth.log_m.series_upper"),
                 ("SyntheticSource", "growth.synthetic_rule")]

LEVELINDEX_FUNCS = ("from_real", "to_real", "to_real_or_none", "compare", "log_iter", "exp_iter",
                    "add_scalar", "mul_scalar", "pow_scale", "ratio_to_float", "lse_accumulate")


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, unit, self_s, watched)
        self.stack: list = [[0.0, -1]]  # open calls: [child time, span index]
        self.agg: dict = {}            # name -> [calls, total_s, self_s, watched]
        self.unit = -1
        self.log_m_calls = [0]
        self.window = {"exact": 0, "terms": 0, "bytes": 0}
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, watch=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][1]
            frame = [0.0, idx]
            stack.append(frame)
            w0 = watch[0] if watch else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                spans[idx] = (name, t0, t1, parent, tracer.unit, d - frame[0],
                              watch[0] - w0 if watch else 0)
        return wrapper

    def _agg(self, name, fn, watch=None, bump=None):
        rec = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            w0 = watch[0] if watch else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stack[-1][0] += d
                rec[0] += 1
                rec[1] += d
                rec[2] += d - frame[0]
                if watch:
                    rec[3] += watch[0] - w0
                if bump:
                    bump[0] += 1
        return wrapper

    def _leaf(self, name, fn):
        """Aggregate wrapper for functions that call nothing traced."""
        rec = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack[-1][0] += d
                rec[0] += 1
                rec[1] += d
                rec[2] += d
        return wrapper

    def _counting_spec(self, make_spec):
        """Wrap expexp_spec so each spec counts the window terms its arrays compute."""
        window = self.window

        def count(fn, is_norm):
            def arr(ns):
                out = fn(ns)
                window["bytes"] += ns.nbytes + out.nbytes
                if is_norm:
                    window["exact"] += 1
                    window["terms"] += ns.size
                return out
            return arr

        def expexp_spec(*args, **kwargs):
            spec = make_spec(*args, **kwargs)
            return dataclasses.replace(spec, lam_array=count(spec.lam_array, False),
                                       log_norm_array=count(spec.log_norm_array, True))
        return expexp_spec

    # -- installation -----------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, mods, original, wrapper, skip=()):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original and mod not in skip:
                    self._set(mod, attr, wrapper)

    def install(self) -> "Tracer":
        pkg = importlib.import_module("rittgrowth")
        mods = [pkg] + [importlib.import_module(f"rittgrowth.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods[1:]}
        growth, series, corpus = by_name["growth"], by_name["series"], by_name["corpus"]

        term_rec = self.agg.setdefault("series.term_log", [0, 0.0, 0.0, 0])
        self._replace_everywhere(mods, series.term_log, self._leaf("series.term_log", series.term_log))
        for fn in ("max_term_log", "log_sum_upper"):
            orig = getattr(series, fn)
            self._replace_everywhere(mods, orig, self._agg(f"series.{fn}", orig, watch=term_rec))
        for cls_name, name in LOG_M_CLASSES:
            cls = getattr(growth, cls_name)
            self._set(cls, "log_m", self._agg(name, cls.__dict__["log_m"], bump=self.log_m_calls))
        for mod_name, fn, name in SPAN_FUNCS:
            orig = getattr(by_name[mod_name], fn)
            watch = self.log_m_calls if fn == "invert_modulus" else None
            self._replace_everywhere(mods, orig, self._span(name, orig, watch))
        for mod_name, cls_name, meth, name in SPAN_METHODS:
            cls = getattr(by_name[mod_name], cls_name)
            self._set(cls, meth, self._span(name, cls.__dict__[meth]))
        levelindex = by_name["levelindex"]
        for fn in LEVELINDEX_FUNCS:
            orig = getattr(levelindex, fn)
            # calls inside levelindex stay unwrapped: each count is one
            # call crossing into the layer, and leaf timing stays exact
            self._replace_everywhere(mods, orig, self._leaf(f"levelindex.{fn}", orig),
                                     skip=(levelindex,))
        self._set(corpus, "expexp_spec", self._counting_spec(corpus.expexp_spec))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting --------------------------------------------------------
    def metrics(self, units: int) -> dict:
        count: dict = {}
        self_s: dict = {}
        watched: dict = {}
        rel_set_misses = 0
        for name, _t0, _t1, parent, _unit, own, w in self.spans:
            count[name] = count.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            watched[name] = watched.get(name, 0) + w
            if name == "indicators.relative_indicators" and parent >= 0 \
                    and self.spans[parent][0] == "theorems.rel_set":
                rel_set_misses += 1

        def spans_self(prefix):
            return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

        def agg(name, field=0):
            return self.agg.get(name, [0, 0.0, 0.0, 0])[field]

        def ratio(num, den):
            return num / den if den else 0.0

        inversions = count.get("growth.invert_modulus", 0)
        mtl_calls, lsu_calls = agg("series.max_term_log"), agg("series.log_sum_upper")
        li = [v for k, v in self.agg.items() if k.startswith("levelindex.")]
        return {
            "trace.units": units,
            "trace.spans": len(self.spans),
            "growth.inversions": inversions,
            "growth.log_m_calls": self.log_m_calls[0],
            "growth.log_m_per_inversion": ratio(watched.get("growth.invert_modulus", 0), inversions),
            "growth.invert_modulus.self_s": self_s.get("growth.invert_modulus", 0.0),
            "growth.compose_samples.self_s": self_s.get("growth.compose_samples", 0.0),
            "growth.sample_profile.self_s": self_s.get("growth.sample_profile", 0.0),
            "growth.synthetic_rule.self_s": agg("growth.synthetic_rule", 2),
            "series.max_term_log.calls": mtl_calls,
            "series.term_log.calls": agg("series.term_log"),
            "series.terms_per_max_term": ratio(agg("series.max_term_log", 3), mtl_calls),
            "series.max_term_log.self_s": agg("series.max_term_log", 2),
            "series.term_log.self_s": agg("series.term_log", 2),
            "series.log_sum_upper.calls": lsu_calls,
            "series.exact_window_ratio": ratio(self.window["exact"], lsu_calls),
            "series.window_terms": self.window["terms"],
            "series.window_bytes_computed": self.window["bytes"],
            "series.log_sum_upper.self_s": agg("series.log_sum_upper", 2),
            "indicators.profile_samplings_per_unit": ratio(count.get("growth.sample_profile", 0), units),
            "indicators.relative_sets": count.get("indicators.relative_indicators", 0),
            "indicators.tail_estimates": count.get("indicators.tail_estimate", 0),
            "indicators.self_s": spans_self("indicators."),
            "theorems.instances": count.get("theorems.check_instance", 0),
            "theorems.rel_set_calls": count.get("theorems.rel_set", 0),
            "theorems.rel_set_misses": rel_set_misses,
            "theorems.self_s": spans_self("theorems."),
            "levelindex.calls": sum(v[0] for v in li),
            "levelindex.self_s": sum(v[2] for v in li),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "corpus.bundles_built": count.get("corpus.bundle", 0),
            "corpus.self_s": spans_self("corpus."),
        }

    def write(self, path: Path) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "unit", "self_s", "log_m_calls"],
               "spans": self.spans,
               "aggregates": {k: dict(zip(("calls", "total_s", "self_s", "term_calls"), v))
                              for k, v in sorted(self.agg.items())},
               "window": self.window}
        path.write_text(json.dumps(doc))

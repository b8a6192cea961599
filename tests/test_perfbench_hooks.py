"""The benchmark's tracer wraps package names by attribute; a rename must fail here.

perfbench/tracer.py replaces functions such as corpus.resolve_source,
series.log_sum_upper and corpus.expexp_spec in every rittgrowth module that
holds them.  If a refactor renames one, or stops calling it through the
module global, the tracer silently counts nothing; this test runs one
traced surrogate evaluation and checks that the counters moved.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_one_upper_surrogate_call(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    from rittgrowth import corpus

    tracer = Tracer().install()
    try:
        entry = corpus.resolve_source("expexp:a=1,c=1")
        entry.bundle().upper.log_m(10.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert metrics["series.log_sum_upper.calls"] == 1
    assert metrics["series.window_terms"] > 0
    assert metrics["corpus.bundles_built"] == 1

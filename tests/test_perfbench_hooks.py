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


def test_tracer_counts_one_relative_set(monkeypatch):
    # rel_set samples f's profile, then composes: the wrapped names on that path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    from rittgrowth.growth import GridSpec
    from rittgrowth.theorems import IndicatorWorkspace

    tracer = Tracer().install()
    try:
        IndicatorWorkspace().rel_set("tower:k=2,rho=2,q=0", "tower:k=2,rho=1,q=0", 0, 0,
                                     GridSpec(5.0, 30.0, 24))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert metrics["theorems.rel_set_misses"] == 1
    assert metrics["indicators.relative_sets"] == 1
    assert metrics["indicators.profile_samplings_per_unit"] == 1  # one synthetic surrogate


# The benchmark's output checks reach further into the package: the theorem
# workload's workspace (entry, rel_set, by_kind, theorems.DEFAULT_GRID), the
# profile subcommand behind the mpmath sandwich, and the CLI reports.  A unit
# whose check raises is counted as failed, so each path must run clean here.

def test_theorem_check_on_a_tower_instance(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    from rittgrowth.theorems import IndicatorWorkspace, check_instance, load_batch

    # no grid: the check falls back to theorems.DEFAULT_GRID, as the run did
    doc = {"theorem": "C5", "f": "tower:k=3,rho=2,q=0", "g": "tower:k=3,rho=1,q=0",
           "h": "tower:k=3,rho=1.5,q=0", "m": 0, "p": 0, "q": 0}
    instance, = load_batch({"instances": [doc]})
    ws = IndicatorWorkspace()
    report = check_instance(instance, ws).to_json()
    assert checks.check_theorem_unit(instance, report, "pass", ws) == []


def test_expexp_sandwich(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    assert checks.sandwich("expexp:a=1,c=1", "5:10:4") == []


def test_indicator_unit_check(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    from rittgrowth.cli import main

    argv = ["indicator", "--spec", "expexp:a=1.5,c=2", "--p", "2", "--q", "0",
            "--sigma", "5:30:200", "--kind", "all"]
    assert main(argv) == 0
    assert checks.check_cli_unit(argv, capsys.readouterr().out) == []

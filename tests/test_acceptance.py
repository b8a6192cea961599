"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  Tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rittgrowth.cli import main as cli_main
from rittgrowth.corpus import default_entries, parse_shorthand
from rittgrowth.growth import GridSpec, invert_modulus
from rittgrowth.indicators import order_pair, profile_samples, relative_indicators, type_pair
from rittgrowth.levelindex import compare, exp_iter, from_real, log_iter, to_real
from rittgrowth.oracle import sweep
from rittgrowth.theorems import load_batch, run_batch

BATCH_PATH = Path(__file__).resolve().parent.parent / "batches" / "acceptance_triples.json"
EXPEXP_FAMILIES = [(1, 1), (2, 1), (1, 3), (3, 2)]
ORDER_GRID = GridSpec(5.0, 30.0, 200)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def family_runs():
    """Order/type estimation per family, timed once and reused."""
    runs = {}
    for a, c in EXPEXP_FAMILIES:
        bundle = parse_shorthand(f"expexp:a={a},c={c}").bundle()
        t0 = time.monotonic()
        samples = profile_samples(bundle, ORDER_GRID)
        rho, lam = order_pair(samples, 2, 0)
        elapsed = time.monotonic() - t0
        delta, delta_bar = type_pair(samples, 2, 0, rho.value)
        runs[(a, c)] = {"rho": rho, "lam": lam, "delta": delta, "delta_bar": delta_bar,
                        "seconds": elapsed}
    return runs


def test_criterion_1_order_recovery(family_runs):
    worst = 0.0
    slowest = 0.0
    for (a, c), run in family_runs.items():
        worst = max(worst, abs(run["rho"].value - a), abs(run["lam"].value - a))
        slowest = max(slowest, run["seconds"])
    _report("criterion 1: order recovery within 1e-3, <10s per family",
            worst <= 1e-3 and slowest < 10.0,
            f"worst error {worst:.2e}, slowest family {slowest:.2f}s")


def test_criterion_2_type_recovery(family_runs):
    worst = 0.0
    for (a, c), run in family_runs.items():
        worst = max(worst, abs(run["delta"].value - c), abs(run["delta_bar"].value - c))
    _report("criterion 2: type recovery within 1e-3", worst <= 1e-3,
            f"worst error {worst:.2e}")


def test_criterion_3_relative_indicators():
    grid = GridSpec(5.0, 30.0, 48)
    bundles = {fc: parse_shorthand(f"expexp:a={fc[0]},c={fc[1]}").bundle()
               for fc in EXPEXP_FAMILIES}
    worst_order = 0.0
    worst_type = 0.0
    for fa, fc in EXPEXP_FAMILIES:
        for ga, gc in EXPEXP_FAMILIES:
            if (fa, fc) == (ga, gc):
                continue
            rel = relative_indicators(profile_samples(bundles[(fa, fc)], grid), bundles[(ga, gc)],
                                      0, 0)
            worst_order = max(worst_order, abs(rel.rho.value - fa / ga))
            if fa == ga:
                worst_type = max(worst_type, abs(rel.delta.value - fc / gc))
    _report("criterion 3: relative order within 1e-2, relative type within 1e-2",
            worst_order <= 1e-2 and worst_type <= 1e-2,
            f"order err {worst_order:.2e}, type err {worst_type:.2e}")


def test_criterion_4_irregular_profile():
    grid = GridSpec(3.0, 3.0 * math.exp(3 * 2 * math.pi), 600, "log")
    rho, lam = order_pair(profile_samples(parse_shorthand("osc:rho=2,lam=1,p=2,q=0").bundle(), grid),
                          2, 0)
    ok = abs(rho.value - 2.0) <= 1e-2 and abs(lam.value - 1.0) <= 1e-2
    _report("criterion 4: oscillating profile limsup/liminf within 1e-2", ok,
            f"rho {rho.value:.4f}, lambda {lam.value:.4f}")


@pytest.fixture(scope="module")
def batch_reports():
    with open(BATCH_PATH) as fh:
        instances = load_batch(json.load(fh))
    return instances, run_batch(instances)


def test_criterion_5_theorem_suite(batch_reports):
    instances, reports = batch_reports
    assert len(instances) >= 20
    fails = [r for r in reports if r.verdict == "fail"]
    non_vacuous = [r for r in reports if r.verdict != "vacuous"]
    chain_ids = {"T1", "Tt1", "Tt2", "Tt3", "Tt4", "T41", "T42"}
    covered = {r.theorem_id for r in non_vacuous if r.verdict == "pass"} & chain_ids
    # every chain theorem exercised non-vacuously, nothing failed
    ok = not fails and covered == chain_ids and len(non_vacuous) >= 20
    # corollary spot checks: C1-C4 equality links, C5/C6 products near 1 on
    # the regular expexp pair
    for r in reports:
        if r.theorem_id in ("C1", "C2", "C3", "C4"):
            ok = ok and r.verdict == "pass" and all(l.relation == "eq" and l.ok for l in r.links)
        if r.theorem_id in ("C5", "C6") and r.subject["f"].startswith("expexp"):
            ok = ok and abs(r.chain[0][1] - 1.0) <= 2e-2
    _report("criterion 5: theorem batch passes", ok,
            f"{len(reports)} instances, {len(fails)} failures, chains covered: {sorted(covered)}")


def test_criterion_6_shift_property():
    worst = 0.0
    for entry in default_entries():
        p, q = entry.index_pair
        if entry.family == "expexp":
            a = entry.params["a"]
            grid = GridSpec(10.0, min(200.0, 600.0 / a), 200, "log")
        elif entry.family == "tower":
            grid = GridSpec(10.0, 1e12, 300, "log")
        else:
            grid = GridSpec(10.0, 1e12, 400, "log")
        rho, _ = order_pair(profile_samples(entry.bundle(), grid), p + 1, q + 1)
        worst = max(worst, abs(rho.value - 1.0))
    _report("criterion 6: index-shift order estimates within 5e-2 of 1",
            worst <= 5e-2, f"worst deviation {worst:.3f}")


def test_criterion_7_oracle_sweep():
    t0 = time.monotonic()
    checked, violations = sweep(10_000, seed=20260809)
    elapsed = time.monotonic() - t0
    _report("criterion 7: 1e4 exact difference-rule instances, zero violations, <5s",
            violations == 0 and checked == 40_000 and elapsed < 5.0,
            f"{checked} rules in {elapsed:.2f}s, {violations} violations")


def test_criterion_8_levelindex_randomized():
    rng = np.random.default_rng(20260809)
    failures = 0
    values = rng.uniform(-1e6, 1e6, size=100_000)
    for v in values:
        x = from_real(float(v))
        if abs(to_real(x) - v) > 1e-12 * max(1.0, abs(v)):
            failures += 1
    pairs = rng.uniform(-1e6, 1e6, size=(100_000, 2))
    for u, v in pairs:
        cu, cv = from_real(float(u)), from_real(float(v))
        want = -1 if u < v else (1 if u > v else 0)
        if compare(cu, cv) != want:
            failures += 1
    mags = rng.uniform(0.1, 1e6, size=100_000)
    ks = rng.integers(0, 6, size=100_000)
    for v, k in zip(mags, ks):
        x = from_real(float(v))
        y = log_iter(exp_iter(x, int(k)), int(k))
        if y.level != x.level or abs(y.mantissa - x.mantissa) > max(k, 1) * 1e-14 + 1e-15:
            failures += 1
    _report("criterion 8: 1e5 randomized round-trip/order/inverse checks, zero failures",
            failures == 0, f"{failures} failures")


def test_criterion_9_inversion_identity():
    worst = 0.0
    for entry in default_entries():
        bundle = entry.bundle()
        sources = [bundle.upper] + ([bundle.lower] if bundle.lower is not None else [])
        for src in sources:
            lo = max(1.0, math.ceil(src.sigma_floor))
            for sigma in range(int(lo), 31):
                got = invert_modulus(src, src.log_m(float(sigma)))
                worst = max(worst, abs(got - sigma))
    _report("criterion 9: inversion identity within 1e-9 across the corpus",
            worst <= 1e-9, f"worst |M^-1(M(s)) - s| = {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    small_batch = {"instances": [
        {"theorem": "T1", "f": "expexp:a=2,c=1", "g": "expexp:a=1,c=1",
         "h": "expexp:a=3,c=1", "m": 0, "p": 0, "q": 0,
         "grid": {"sigma_min": 5, "sigma_max": 30, "count": 32}},
        {"theorem": "C5", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1,q=0",
         "h": "tower:k=2,rho=1.5,q=0"},
    ]}
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(small_batch))

    def one_pass(tag):
        outdir = tmp_path / tag
        outdir.mkdir()
        cmds = [
            ["validate", "--spec", "expexp:a=1,c=1", "--output", str(outdir / "val.json")],
            ["indicator", "--spec", "expexp:a=2,c=1", "--p", "2", "--q", "0",
             "--sigma", "5:30:64", "--kind", "all", "--output", str(outdir / "ind.json")],
            ["relative", "--f-spec", "expexp:a=2,c=1", "--g-spec", "expexp:a=1,c=1",
             "--p", "0", "--q", "0", "--sigma", "5:25:32", "--output", str(outdir / "rel.json")],
            ["detect", "--spec", "expexp:a=2,c=1", "--output", str(outdir / "det.json")],
            ["oracle", "--instances", "3000", "--seed", "11", "--output", str(outdir / "oracle.json")],
            ["check", "--batch", str(batch_path), "--quiet", "--output", str(outdir / "check.json")],
            ["corpus", "list", "--output", str(outdir / "corpus.json")],
            ["profile", "--spec", "expexp:a=1,c=3", "--sigma", "2:20:24", "--format", "csv",
             "--output", str(outdir / "prof.csv")],
        ]
        for cmd in cmds:
            assert cli_main(cmd) == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    first = one_pass("run1")
    second = one_pass("run2")
    _report("criterion 10: identical seeds give byte-identical reports",
            first == second,
            f"{len(first)} artifacts compared")

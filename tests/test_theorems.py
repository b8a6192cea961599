"""Inequality-chain checking: chains, corollaries, degenerate and vacuous paths."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rittgrowth.corpus import resolve_source
from rittgrowth.errors import SpecFormatError
from rittgrowth.growth import GridSpec
from rittgrowth.indicators import (IndicatorEstimate, RelativeIndicators, profile_samples,
                                   relative_indicators)
from rittgrowth.theorems import (THEOREM_IDS, IndicatorWorkspace, Quantity, TheoremInstance,
                                 _link, _q_fold, _q_mul, _q_pow_inv, _q_ratio, check_instance,
                                 load_batch, run_batch)

OSC_GRID = GridSpec(3.0, 3.0 * math.exp(6 * math.pi), 480, "log")
GOLDEN = Path(__file__).resolve().parent / "golden" / "theorem_paths.json"


@pytest.fixture(scope="module")
def ws():
    # shared workspace: estimates are deterministic, caching only saves time
    return IndicatorWorkspace()


class TestOrderChain:
    def test_regular_triple_all_two(self, ws):
        # rates 2, 1, 3: every chain entry is (2/3)/(1/3) = 2
        inst = TheoremInstance("T1", "expexp:a=2,c=1", "expexp:a=1,c=1", "expexp:a=3,c=1")
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert len(r.chain) == 6
        for _, value in r.chain:
            assert value == pytest.approx(2.0, abs=2e-2)

    def test_irregular_f_has_strict_middle(self, ws):
        inst = TheoremInstance("T1", "osc:rho=2,lam=1,p=2,q=0", "tower:k=2,rho=2,q=0",
                               "tower:k=2,rho=1,q=0", grid=OSC_GRID)
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        values = [v for _, v in r.chain]
        assert values[0] == pytest.approx(0.5, abs=1e-2)
        assert values[1] == pytest.approx(0.5, abs=1e-2)
        assert values[3] == pytest.approx(1.0, abs=1e-2)
        assert values[5] == pytest.approx(1.0, abs=1e-2)

    def test_degenerate_orders_make_it_vacuous(self, ws):
        # g one tower level deeper than h: its relative order diverges
        inst = TheoremInstance("T1", "tower:k=2,rho=1,q=0", "tower:k=3,rho=1,q=0",
                               "tower:k=2,rho=2,q=0")
        r = check_instance(inst, ws)
        assert r.verdict == "vacuous"


class TestTypeChains:
    def test_type_chain_entries(self, ws):
        # types through h are c-ratios: Delta_h(f) = 2, tau_h(g) = 2/3,
        # so every entry of the bound chain is 3 = c_f/c_g
        inst = TheoremInstance("Tt1", "expexp:a=1,c=6", "expexp:a=1,c=2", "expexp:a=1,c=3")
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        for _, value in r.chain:
            assert value == pytest.approx(3.0, abs=2e-2)

    def test_regular_case_chains(self, ws):
        for tid in ("Tt2", "Tt3", "Tt4", "Ct1", "Ct2", "Ct3", "Ct4", "T41", "T42"):
            inst = TheoremInstance(tid, "expexp:a=1,c=6", "expexp:a=1,c=2", "expexp:a=1,c=3")
            r = check_instance(inst, ws)
            assert r.verdict == "pass", (tid, r.hypothesis_status, r.links)

    def test_vacuous_when_types_degenerate(self, ws):
        inst = TheoremInstance("Tt1", "osc:rho=2,lam=1,p=2,q=0", "tower:k=2,rho=2,q=0",
                               "tower:k=2,rho=1,q=0", grid=OSC_GRID)
        r = check_instance(inst, ws)
        assert r.verdict == "vacuous"
        assert not r.hypothesis_status["Delta_bar_h(f) finite nonzero"]


class TestCorollaries:
    def test_c1_equalities_and_unit_clause(self, ws):
        inst = TheoremInstance("C1", "expexp:a=1,c=3", "expexp:a=1,c=5", "expexp:a=1,c=2")
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert len(r.links) == 4  # two ratio equalities plus the two unit claims
        assert any("both orientations" in n for n in r.notes)

    def test_c3_collapse(self, ws):
        inst = TheoremInstance("C3", "expexp:a=2,c=1", "expexp:a=1,c=1", "expexp:a=3,c=1")
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        for link in r.links:
            assert link.right.value == pytest.approx(2.0, abs=2e-2)

    def test_c5_reciprocal_product(self, ws):
        inst = TheoremInstance("C5", "expexp:a=2,c=1", "expexp:a=1,c=1", "expexp:a=3,c=1")
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert r.chain[0][1] == pytest.approx(1.0, abs=2e-2)
        assert r.links[0].relation == "eq"

    def test_c5_irregular_inequality(self, ws):
        inst = TheoremInstance("C5", "osc:rho=2,lam=1,p=2,q=0", "tower:k=2,rho=2,q=0",
                               "tower:k=2,rho=1,q=0", grid=OSC_GRID)
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert r.links[0].relation == "ge"
        assert r.chain[0][1] == pytest.approx(2.0, abs=2e-2)

    def test_c6_irregular_inequality(self, ws):
        inst = TheoremInstance("C6", "osc:rho=2,lam=1,p=2,q=0", "tower:k=2,rho=2,q=0",
                               "tower:k=2,rho=1,q=0", grid=OSC_GRID)
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert r.chain[0][1] == pytest.approx(0.5, abs=2e-2)


class TestDegenerate:
    def test_c8_fires_and_passes(self, ws):
        inst = TheoremInstance("C8", "tower:k=3,rho=2,q=0", "tower:k=2,rho=1,q=0",
                               "tower:k=2,rho=2,q=0")
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert len(r.links) >= 1

    def test_no_trigger_is_vacuous(self, ws):
        inst = TheoremInstance("C7", "expexp:a=2,c=1", "expexp:a=1,c=1", "expexp:a=3,c=1")
        r = check_instance(inst, ws)
        assert r.verdict == "vacuous"
        assert any("no degenerate hypothesis" in n for n in r.notes)

    def test_short_grid_misses_slow_zero(self, ws):
        # the trigger (rho_h(g) huge) fires immediately, but the conclusion
        # lambda_g(f) -> 0 decays like log(sigma)/sigma and has not crossed
        # the zero threshold by sigma = 30: an honest finite-grid failure
        inst = TheoremInstance("C7", "tower:k=2,rho=2,q=0", "tower:k=3,rho=1,q=0",
                               "tower:k=2,rho=1,q=0")
        r = check_instance(inst, ws)
        assert r.verdict == "fail"

    def test_long_grid_resolves_it(self, ws):
        inst = TheoremInstance("C7", "tower:k=2,rho=2,q=1", "tower:k=1,rho=1,q=0",
                               "tower:k=2,rho=1,q=0", m=0, p=0, q=1,
                               grid=GridSpec(5.0, 3e4, 200, "log"))
        r = check_instance(inst, ws)
        assert r.verdict == "pass"


class TestRemark:
    def test_both_branches_on_regular_triple(self, ws):
        inst = TheoremInstance("R1", "expexp:a=2,c=1", "expexp:a=1,c=1", "expexp:a=3,c=1")
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert len(r.links) == 4

    def test_g_regular_branch_only(self, ws):
        inst = TheoremInstance("R1", "osc:rho=2,lam=1,p=2,q=0", "tower:k=2,rho=2,q=0",
                               "tower:k=2,rho=1,q=0", grid=OSC_GRID)
        r = check_instance(inst, ws)
        assert r.verdict == "pass"
        assert r.notes == ["branch: g regular wrt h"]

    def test_neither_regular_is_vacuous(self, ws):
        inst = TheoremInstance("R1", "osc:rho=2,lam=1,p=2,q=0", "osc:rho=3,lam=2,p=2,q=0",
                               "tower:k=2,rho=1,q=0", grid=OSC_GRID)
        r = check_instance(inst, ws)
        assert r.verdict == "vacuous"


def _table(rate):
    """An unnamed table: every such table's id is 'table:table'."""
    return {"family": "table", "lam": [rate * n for n in range(1, 65)],
            "log_norm": [-math.lgamma(n + 1) for n in range(1, 65)]}


class TestWorkspace:
    def test_unnamed_tables_get_their_own_sets(self):
        ws = IndicatorWorkspace()
        g, grid = "expexp:a=1,c=1", GridSpec(1.0, 3.0, 32)
        t1, t2 = _table(1.0), _table(2.0)
        assert ws.entry(t1).id == ws.entry(t2).id
        sets = [ws.rel_set(t, g, 0, 0, grid) for t in (t1, t2)]
        for t, rel in zip((t1, t2), sets):
            fresh = relative_indicators(profile_samples(resolve_source(t).bundle(), grid),
                                        resolve_source(g).bundle(), 0, 0)
            assert repr(rel) == repr(fresh)
        assert sets[0].rho.value == pytest.approx(1.0, abs=1e-2)
        assert sets[1].rho.value == pytest.approx(2.0, abs=1e-2)


class TestLink:
    @pytest.mark.parametrize("relation", ["le", "ge"])
    def test_infinite_agreement_is_satisfied(self, relation):
        inf = Quantity("x", math.inf, math.inf, math.inf)
        link = _link(relation, inf, inf, 2e-2)
        assert link.ok and link.slack == 0.0

    def test_undefined_slack_fails(self):
        inf = Quantity("x", math.inf, math.inf, math.inf)
        link = _link("eq", inf, inf, 2e-2)
        assert not link.ok and math.isnan(link.slack)


def _intervals(lo, hi, n=1):
    """n intervals within [lo, hi], each as (lo, point inside, hi)."""
    ends = st.lists(st.floats(lo, hi), min_size=3, max_size=3).map(sorted)
    return st.lists(ends, min_size=n, max_size=n)


def _enclosed(q, exact, ulps=0):
    return q.lo - ulps * math.ulp(q.lo) <= exact <= q.hi + ulps * math.ulp(q.hi)


class TestIntervalOps:
    """The exact result at points inside the operand intervals lies in the
    result's interval."""

    @given(_intervals(-1e6, 1e6), _intervals(1e-3, 1e3))
    @example([[-1.0, -1.0, 1.0]], [[1.0, 1.0, 2.0]])  # numerator reaching below zero
    @settings(max_examples=300, deadline=None)
    def test_ratio(self, a, b):
        (a_lo, x, a_hi), (b_lo, y, b_hi) = a[0], b[0]
        q = _q_ratio(Quantity("a", x, a_lo, a_hi), Quantity("b", y, b_lo, b_hi), "a/b")
        assert _enclosed(q, x / y)

    @given(_intervals(0.0, 1e6, 2))
    @settings(max_examples=300, deadline=None)
    def test_product(self, ab):
        (a_lo, x, a_hi), (b_lo, y, b_hi) = ab
        q = _q_mul(Quantity("a", x, a_lo, a_hi), Quantity("b", y, b_lo, b_hi), "a * b")
        assert _enclosed(q, x * y)

    @given(_intervals(1e-3, 1e3), _intervals(0.1, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_root(self, base, expo):
        (b_lo, x, b_hi), (e_lo, y, e_hi) = base[0], expo[0]
        q = _q_pow_inv(Quantity("b", x, b_lo, b_hi), Quantity("e", y, e_lo, e_hi), "root")
        # pow is faithful, not correctly rounded, so monotone only to an ulp
        assert _enclosed(q, x ** (1.0 / y), ulps=2)

    @pytest.mark.parametrize("fold", [min, max])
    @given(n=st.integers(1, 4), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fold(self, fold, n, data):
        qs = [Quantity("q", x, lo, hi) for lo, x, hi in data.draw(_intervals(-1e6, 1e6, n))]
        assert _enclosed(_q_fold(fold, "fold", *qs), fold(q.value for q in qs))


class TestBatch:
    def test_load_rejects_unknown_fields(self):
        # instances and their grids are read by the corpus schema rule and
        # checked by TheoremInstance, so every malformed document is refused
        # at load, before any instance runs (sources are resolved later)
        item = {"theorem": "T1", "f": "x", "g": "y", "h": "z"}
        grid = {"sigma_min": 5, "sigma_max": 30, "count": 48}

        def batch(**fields):
            return {"instances": [dict(item, **fields)]}

        for doc, message in ((batch(bogus=1), r"unknown fields for instance 0: \['bogus'\]"),
                             (batch(grid=dict(grid, bogus=1)), r"unknown fields for grid: \['bogus'\]"),
                             (batch(grid=dict(grid, count=48.9)), "bad field 'count'"),
                             (batch(m=2.7), "bad field 'm' for instance 0"),
                             (batch(m=True), "bad field 'm' for instance 0"),
                             ({"instances": [item, dict(item, theorem="T99")]},
                              "instance 1: unknown theorem id 'T99'"),
                             (batch(m=-1), "instance 0: theorem indices"),
                             (batch(tolerance=0), "tolerance must be finite and positive"),
                             (batch(tolerance=math.inf), "tolerance must be finite and positive"),
                             (batch(tolerance=True), "bad field 'tolerance' for instance 0"),
                             (batch(grid=dict(grid, sigma_min=True)), "bad field 'sigma_min'"),
                             (batch(grid="5:30:48"), "grid must be an object"),
                             ({"instances": 5}, "needs an 'instances' array"),
                             ({"instances": [item], "bogus": 1},
                              r"unknown fields for batch document: \['bogus'\]")):
            with pytest.raises(SpecFormatError, match=message):
                load_batch(doc)
        # integral numbers and shorthand integers are still integers
        loaded = load_batch(batch(m=2.0, q="1", grid=dict(grid, count=48.0)))
        assert (loaded[0].m, loaded[0].q, loaded[0].grid) == (2, 1, GridSpec(5.0, 30.0, 48))

    def test_load_rejects_missing_instances(self):
        with pytest.raises(SpecFormatError):
            load_batch({})

    def test_unknown_theorem_id(self, ws):
        with pytest.raises(SpecFormatError):
            check_instance(TheoremInstance("T99", "expexp:a=1,c=1", "expexp:a=1,c=1",
                                           "expexp:a=1,c=1"), ws)

    def test_small_batch_runs(self):
        doc = {"instances": [
            {"theorem": "C5", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1,q=0",
             "h": "tower:k=2,rho=1.5,q=0", "m": 0, "p": 0, "q": 0},
        ]}
        reports = run_batch(load_batch(doc))
        assert reports[0].verdict == "pass"
        payload = reports[0].to_json()
        assert payload["theorem"] == "C5"
        assert payload["verdict"] == "pass"

    def test_readme_batch_example_loads(self):
        # the documented format must stay loadable as the schema tightens
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("Batch JSON for `check`:", 1)[1]
        instances = load_batch(json.loads(section.split("```json\n", 1)[1].split("```", 1)[0]))
        assert [i.theorem_id for i in instances] == ["T1"]
        assert instances[0].grid == GridSpec(5.0, 30.0, 64, "linear")

    def test_numeric_error_is_an_instance_verdict(self):
        # expexp:a=30 leaves the machine range near sigma = 700/30; the batch
        # reports it and goes on, while a schema error still propagates
        grid = GridSpec(5.0, 30.0, 16)
        bad = TheoremInstance("T1", "expexp:a=30,c=1", "expexp:a=1,c=1", "expexp:a=1,c=1",
                              grid=grid)
        tower = TheoremInstance("C5", "tower:k=2,rho=2,q=0", "tower:k=2,rho=1,q=0",
                                "tower:k=2,rho=1.5,q=0")
        reports = run_batch([bad, tower])
        assert [r.verdict for r in reports] == ["error", "pass"]
        assert reports[0].subject == bad.describe()
        assert reports[0].notes[0].startswith("NumericError: ") and "a*sigma < 700" in reports[0].notes[0]
        unknown_field = TheoremInstance("C5", {"family": "expexp", "a": 1, "c": 1, "bogus": 2},
                                        "tower:k=2,rho=1,q=0", "tower:k=2,rho=1.5,q=0")
        with pytest.raises(SpecFormatError, match="bogus"):
            run_batch([tower, unknown_field])

    def test_permuted_batch_gives_identical_reports(self):
        # the workspace shares bundles across instances, so a history-dependent
        # surrogate would make a report depend on its place in the batch
        path = Path(__file__).resolve().parent.parent / "batches" / "acceptance_triples.json"
        instances = load_batch(json.loads(path.read_text()))
        subset = [instances[i] for i in (0, 2, 3, 9, 22, 29)]
        order = [5, 3, 0, 4, 2, 1]
        forward = run_batch(subset)
        permuted = run_batch([subset[i] for i in order])
        for report, i in zip(permuted, order):
            assert json.dumps(report.to_json(), sort_keys=True) == \
                json.dumps(forward[i].to_json(), sort_keys=True)

    def test_batch_reports_do_not_depend_on_history(self):
        # in order, reversed, and each instance with a fresh workspace: the same
        # reports.  The instances are the benchmark's tiny batch (perfbench/gen.py's
        # TINY_BATCH), which covers expexp, tower and osc partners
        path = Path(__file__).resolve().parent.parent / "batches" / "acceptance_triples.json"
        instances = [load_batch(json.loads(path.read_text()))[i] for i in (3, 4, 9, 17, 28, 29)]

        def texts(reports):
            return [json.dumps(r.to_json(), sort_keys=True) for r in reports]

        forward = texts(run_batch(instances))
        assert texts(run_batch(instances[::-1]))[::-1] == forward
        assert texts(check_instance(inst) for inst in instances) == forward


# Every (f, g, h) triple used above, with its indices and grid.
PATH_TRIPLES = [
    ("expexp:a=2,c=1", "expexp:a=1,c=1", "expexp:a=3,c=1", {}),
    ("osc:rho=2,lam=1,p=2,q=0", "tower:k=2,rho=2,q=0", "tower:k=2,rho=1,q=0",
     {"grid": OSC_GRID}),
    ("tower:k=2,rho=1,q=0", "tower:k=3,rho=1,q=0", "tower:k=2,rho=2,q=0", {}),
    ("expexp:a=1,c=6", "expexp:a=1,c=2", "expexp:a=1,c=3", {}),
    ("expexp:a=1,c=3", "expexp:a=1,c=5", "expexp:a=1,c=2", {}),
    ("tower:k=3,rho=2,q=0", "tower:k=2,rho=1,q=0", "tower:k=2,rho=2,q=0", {}),
    ("tower:k=2,rho=2,q=0", "tower:k=3,rho=1,q=0", "tower:k=2,rho=1,q=0", {}),
    ("tower:k=2,rho=2,q=1", "tower:k=1,rho=1,q=0", "tower:k=2,rho=1,q=0",
     {"m": 0, "p": 0, "q": 1, "grid": GridSpec(5.0, 3e4, 200, "log")}),
    ("osc:rho=2,lam=1,p=2,q=0", "osc:rho=3,lam=2,p=2,q=0", "tower:k=2,rho=1,q=0",
     {"grid": OSC_GRID}),
]

KINDS = ("rho", "lam", "delta", "delta_bar", "tau", "tau_bar")
PAIRS = ("fh", "gh", "fg", "gf")


def _skeleton(report):
    """Everything a report says except its floats: verdict, hypotheses,
    labels, relations and notes."""
    return {
        "verdict": report.verdict,
        "hypotheses": [[k, bool(v)] for k, v in report.hypothesis_status.items()],
        "chain": [label for label, _ in report.chain],
        "links": [[l.relation, l.left.label, l.right.label] for l in report.links],
        "notes": list(report.notes),
    }


def _estimate(lo):
    return IndicatorEstimate("stub", 0, 0, 1.0, lo, 1.1, 0.0, 0.5, True, "stub", 8)


class _StubWorkspace(IndicatorWorkspace):
    """Serves fixed relative sets for the sources 'f', 'g', 'h'."""

    def __init__(self, sets):
        super().__init__()
        self.sets = sets

    def rel_set(self, x_ref, y_ref, i, j, grid):
        return self.sets[x_ref + y_ref]


def _degraded_reports(pair, kind):
    """All statements on unit estimates, one of which has an interval
    reaching below zero: the first quantity built on it is ill-posed."""
    sets = {key: RelativeIndicators(**{k: _estimate(-0.5 if (key, k) == (pair, kind) else 0.9)
                                       for k in KINDS})
            for key in PAIRS}
    ws = _StubWorkspace(sets)
    reports = [check_instance(TheoremInstance(tid, "f", "g", "h"), ws) for tid in THEOREM_IDS]
    return {r.theorem_id: [r.verdict] + r.notes for r in reports}


class TestEveryPath:
    """Report skeletons of every statement, recorded from the hand-written
    checkers that the statement table replaced."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("index", range(len(PATH_TRIPLES)))
    def test_triple(self, ws, golden, index):
        f, g, h, kw = PATH_TRIPLES[index]
        got = {tid: _skeleton(check_instance(TheoremInstance(tid, f, g, h, **kw), ws))
               for tid in THEOREM_IDS}
        assert got == golden["triples"][index]

    @pytest.mark.parametrize("pair", PAIRS)
    def test_ill_posed_quantity(self, golden, pair):
        # the first failing operation's message goes into the notes, so
        # this pins the order in which operands are evaluated
        for kind in KINDS:
            assert _degraded_reports(pair, kind) == golden["degraded"][pair][kind], kind


def _point_sets(**values):
    """Relative sets of point estimates: 1, or values["fh_rho"] for rho of fh."""
    def est(v):
        return IndicatorEstimate("stub", 0, 0, v, v, v, 0.0, 0.5, True, "stub", 8)
    return {pair: RelativeIndicators(**{k: est(values.get(f"{pair}_{k}", 1.0)) for k in KINDS})
            for pair in PAIRS}


def _branch_reports(**values):
    ws = _StubWorkspace(_point_sets(**values))
    reports = {tid: check_instance(TheoremInstance(tid, "f", "g", "h"), ws) for tid in THEOREM_IDS}
    assert [tid for tid, r in reports.items() if r.verdict == "error"] == []
    return reports


_SKIPPED = ["equal-orders clause skipped: rho_h(f) != rho_h(g)"]
_BOTH = ["branch: g regular wrt h", "branch: f regular wrt h"]


class TestEveryBranch:
    """Each guard of the statement table taken both ways: the table is read
    per instance, so a branch that never runs is never checked."""

    def test_regular_pair_with_equal_orders(self):
        reports = _branch_reports()
        for tid in set(THEOREM_IDS) - {"C7", "C8"}:
            assert reports[tid].verdict == "pass", tid
        assert reports["C1"].notes == ["equal-orders clause: both orientations checked separately"]
        assert reports["C2"].notes == []
        assert reports["C5"].notes == reports["C6"].notes == ["both regular: equality"]
        assert reports["R1"].notes == _BOTH
        for tid in ("C7", "C8"):
            assert reports[tid].verdict == "vacuous"
            assert reports[tid].notes == ["no degenerate hypothesis triggered"]

    def test_unequal_orders(self):
        reports = _branch_reports(fh_rho=2.0, fh_lam=2.0)
        assert reports["C1"].notes == reports["C2"].notes == _SKIPPED
        assert reports["C4"].verdict == "vacuous"
        assert reports["R1"].notes == _BOTH

    @pytest.mark.parametrize("irregular, branch", [("f", "g"), ("g", "f")])
    def test_one_irregular_side(self, irregular, branch):
        reports = _branch_reports(**{f"{irregular}h_rho": 2.0})
        assert reports["C5"].notes == reports["C6"].notes == ["irregular pair: one-sided bound"]
        assert reports["R1"].notes == [f"branch: {branch} regular wrt h"]
        assert reports["R1"].verdict != "vacuous"

    def test_neither_side_regular(self):
        r1 = _branch_reports(fh_rho=2.0, gh_rho=2.0)["R1"]
        assert r1.verdict == "vacuous" and r1.hypothesis_status["one side regular"] is False
        assert r1.notes == [] and r1.links == []

    @pytest.mark.parametrize("tid, x", [("C7", "g"), ("C8", "f")])
    @pytest.mark.parametrize("sym, kind", [("rho", "rho"), ("lambda", "lam")])
    @pytest.mark.parametrize("end, value", [("0", 1e-6), ("inf", 1e6)])
    def test_degenerate_trigger(self, tid, x, sym, kind, end, value):
        report = _branch_reports(**{f"{x}h_{kind}": value})[tid]
        trigger = f"{sym}_h({x}) ~ {end}"
        assert [label.split(" => ")[0] for label, _ in report.chain] == [trigger]
        assert report.verdict in ("pass", "fail") and report.notes == []

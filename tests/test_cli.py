"""CLI surface: subcommands, exit codes, schemas, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from rittgrowth import cli as cli_mod
from rittgrowth import growth as growth_mod
from rittgrowth.cli import build_parser, main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """Parse JSON that must not hold the non-standard NaN or Infinity."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class TestValidate:
    def test_shorthand(self, capsys):
        code, out, _ = run(["validate", "--spec", "expexp:a=1,c=1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["d_estimate"] == pytest.approx(math.log(3) / 3)

    def test_json_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "expexp", "a": 1, "c": 3}))
        code, out, _ = run(["validate", "--spec", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["spec"]["params"] == {"a": 1.0, "c": 3.0}

    def test_profile_family_rejected(self, capsys):
        code, _, err = run(["validate", "--spec", "tower:k=2,rho=1,q=0"], capsys)
        assert code == 2
        assert "series" in err

    def test_schema_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for doc, message in (({"family": "nope"}, "unknown corpus family 'nope'"),
                             ({"family": "expexp", "a": 1, "c": 1, "bogus": 2}, "['bogus']"),
                             ({"family": "expexp", "a": 1}, "missing field 'c'")):
            path.write_text(json.dumps(doc))
            code, _, err = run(["validate", "--spec", str(path)], capsys)
            assert code == 2
            assert message in err

    def test_bad_nmax_is_usage_error(self, capsys):
        code, _, err = run(["validate", "--spec", "expexp:a=1,c=1", "--nmax", "4"], capsys)
        assert code == 2
        assert "n_max" in err

    def test_unparsable_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "garbled.json"
        path.write_text("{not json")
        code, _, err = run(["validate", "--spec", str(path)], capsys)
        assert code == 2


class TestProfile:
    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "prof.csv"
        code, _, _ = run(["profile", "--spec", "expexp:a=1,c=1", "--sigma", "1:5:5",
                          "--format", "csv", "--output", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "sigma,level,mantissa"
        assert len(lines) == 6

    def test_inline_table_source(self, tmp_path, capsys):
        doc = {"family": "table", "name": "demo", "lambda": [1, 2, 3, 4],
               "log_norm": [0, -1, -2.5, -4.5]}
        path = tmp_path / "tab.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["profile", "--spec", str(path), "--sigma", "0:3:7"], capsys)
        assert code == 0
        samples = json.loads(out)["samples"]
        assert len(samples) == 7
        # finite sum at sigma = 0: log(1 + e^-1 + e^-2.5 + e^-4.5)
        expected = math.log(1 + math.exp(-1) + math.exp(-2.5) + math.exp(-4.5))
        assert samples[0]["mantissa"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec,source", [
        # a synthetic rule has no lower surrogate: its one curve is reported
        ("tower:k=2,rho=1,q=0", {"kind": "synthetic", "family": "tower",
                                 "params": {"k": 2, "rho": 1.0, "q": 0}}),
        ("expexp:a=1,c=1", {"kind": "series", "surrogate": "lower",
                            "spec": {"name": "expexp", "params": {"a": 1.0, "c": 1.0}}}),
    ])
    def test_lower_surrogate(self, spec, source, capsys):
        code, out, _ = run(["profile", "--spec", spec, "--sigma", "1:3:3",
                            "--surrogate", "lower"], capsys)
        assert code == 0
        assert json.loads(out)["source"] == source

    def test_exp_rounding_to_e_stays_in_band(self, capsys):
        # exp of the double just below 1 rounds to e: the level-index value is (1, 1.0)
        code, out, _ = run(["profile", "--spec", "tower:k=2,rho=1,q=0",
                            "--sigma", "0.9999999999999999:2:2"], capsys)
        assert code == 0
        first = json.loads(out)["samples"][0]
        assert (first["level"], first["mantissa"]) == (1, 1.0)

    def test_non_finite_input_is_a_usage_error(self, capsys):
        for args in (["profile", "--spec", "expexp:a=1,c=1", "--sigma", "5:inf:8"],
                     ["profile", "--spec", "expexp:a=1,c=1", "--sigma", "nan:30:8"],
                     ["profile", "--spec", "tower:k=2,rho=nan,q=0", "--sigma", "5:30:8"],
                     ["indicator", "--spec", "expexp:a=inf,c=1", "--p", "2", "--q", "0",
                      "--sigma", "5:30:64"],
                     ["indicator", "--spec", "expexp:a=1,c=nan", "--p", "2", "--q", "0",
                      "--sigma", "5:30:64"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
                code, out, err = run(args, capsys)
            assert (code, out) == (2, ""), args
            assert "finite" in err and "RuntimeWarning" not in err, args


class TestSourceContract:
    """Every command reads a source document through the one corpus schema."""

    FAILING_TABLE = {"family": "table", "name": "bad", "lambda": [2, 1, 3, 4],
                     "log_norm": [0, -1, -2.5, -4.5]}

    @staticmethod
    def _batch(path, f):
        path.write_text(json.dumps({"instances": [
            {"theorem": "C5", "f": f, "g": "tower:k=2,rho=1,q=0", "h": "tower:k=2,rho=1.5,q=0"},
        ]}))
        return str(path)

    def test_failing_table_is_reported_by_validate_and_refused_elsewhere(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.FAILING_TABLE))
        code, out, _ = run(["validate", "--spec", str(path)], capsys)
        assert code == 3
        doc = strict_json(out)
        assert doc["d_estimate"] == "nan"
        assert doc["verdict"] == "fail"
        assert doc["cause"] == "exponents not strictly increasing from a positive start"
        code, out, err = run(["profile", "--spec", str(path), "--sigma", "0:3:4"], capsys)
        assert (code, out) == (2, "")
        assert "table series fails validation" in err
        batch = self._batch(tmp_path / "batch.json", self.FAILING_TABLE)
        assert run(["check", "--batch", batch, "--quiet"], capsys)[0] == 2

    VANISHING_TABLE = {"family": "table", "lambda": [1, 2, 3],
                       "log_norm": [-math.inf, -math.inf, -math.inf]}

    def test_table_whose_norms_all_vanish_fails_validate(self, tmp_path, capsys):
        path = tmp_path / "vanishing.json"
        path.write_text(json.dumps(self.VANISHING_TABLE))
        code, out, _ = run(["validate", "--spec", str(path)], capsys)
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["cause"] == "every coefficient norm of the table vanishes"

    def test_table_whose_norms_all_vanish_is_refused_elsewhere(self, tmp_path, capsys):
        path = tmp_path / "vanishing.json"
        path.write_text(json.dumps(self.VANISHING_TABLE))
        code, out, err = run(["profile", "--spec", str(path), "--sigma", "1:2:4"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: table series fails validation: "
                       "every coefficient norm of the table vanishes\n")
        batch = self._batch(tmp_path / "batch.json", self.VANISHING_TABLE)
        assert run(["check", "--batch", batch, "--quiet"], capsys)[0] == 2

    # a source's table is validated on its first 64 terms; here only the six past them live
    LATE_TABLE = {"family": "table", "lambda": list(range(1, 71)),
                  "log_norm": [-math.inf] * 64 + [-n * math.log(n) for n in range(65, 71)]}

    def test_table_whose_norms_vanish_only_in_the_window_still_profiles(self, tmp_path, capsys):
        path = tmp_path / "late.json"
        path.write_text(json.dumps(self.LATE_TABLE))
        code, out, _ = run(["validate", "--spec", str(path)], capsys)
        assert (code, json.loads(out)["verdict"]) == (0, "pass")
        code, out, _ = run(["profile", "--spec", str(path), "--sigma", "1:2:4"], capsys)
        assert code == 0
        assert len(json.loads(out)["samples"]) == 4

    def test_unknown_field_is_a_usage_error_everywhere(self, tmp_path, capsys):
        doc = {"family": "expexp", "a": 1, "c": 1, "bogus": 2}
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(doc))
        batch = self._batch(tmp_path / "batch.json", doc)
        for args in (["profile", "--spec", str(path), "--sigma", "1:2:2"],
                     ["profile", "--spec", "expexp:a=1,c=1,bogus=2", "--sigma", "1:2:2"],
                     ["indicator", "--spec", str(path), "--p", "2", "--q", "0", "--sigma", "5:30:16"],
                     ["check", "--batch", batch, "--quiet"]):
            code, out, err = run(args, capsys)
            assert (code, out) == (2, ""), args
            assert "unknown fields for family 'expexp': ['bogus']" in err

    def test_log_scale_is_not_a_source_field(self, tmp_path, capsys):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"family": "expexp", "a": 1, "c": 1, "log_scale": 50}))
        for command in (["validate"], ["profile", "--sigma", "1:2:2"]):
            code, _, err = run(command + ["--spec", str(path)], capsys)
            assert code == 2
            assert "['log_scale']" in err

    def test_missing_field_and_unknown_family_are_usage_errors(self, tmp_path, capsys):
        for doc, message in (({"family": "expexp", "a": 1}, "missing field 'c'"),
                             ({"family": "tower", "k": 2, "rho": 1}, "missing field 'q'"),
                             ({"family": "nope", "a": 1}, "unknown corpus family 'nope'")):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            batch = self._batch(tmp_path / "batch.json", doc)
            for args in (["validate", "--spec", str(path)],
                         ["profile", "--spec", str(path), "--sigma", "1:2:2"],
                         ["detect", "--spec", str(path)],
                         ["check", "--batch", batch, "--quiet"]):
                code, out, err = run(args, capsys)
                assert (code, out) == (2, ""), args
                assert message in err, args
        assert run(["profile", "--spec", "expexp:a=1", "--sigma", "1:2:2"], capsys)[0] == 2
        assert run(["relative", "--f-spec", "nope:a=1", "--g-spec", "expexp:a=1,c=1",
                    "--p", "0", "--q", "0", "--sigma", "5:10:8"], capsys)[0] == 2


class TestIndicator:
    def test_order_json(self, capsys):
        code, out, _ = run(["indicator", "--spec", "expexp:a=2,c=1", "--p", "2", "--q", "0",
                            "--sigma", "5:30:200"], capsys)
        assert code == 0
        doc = json.loads(out)
        kinds = {e["kind"]: e for e in doc["estimates"]}
        assert kinds["order"]["value"] == pytest.approx(2.0, abs=1e-3)
        assert kinds["lower_order"]["value"] == pytest.approx(2.0, abs=1e-3)

    def test_plot_data(self, tmp_path, capsys):
        plot = tmp_path / "ratios.dat"
        code, _, _ = run(["indicator", "--spec", "expexp:a=1,c=1", "--p", "2", "--q", "0",
                          "--sigma", "5:20:16", "--plot-data", str(plot)], capsys)
        assert code == 0
        rows = plot.read_text().strip().splitlines()
        assert len(rows) == 16
        sigma, ratio = map(float, rows[-1].split())
        assert sigma == 20.0
        assert ratio == pytest.approx(1.0, abs=1e-2)

    def test_all_kinds_sample_each_surrogate_once(self, tmp_path, capsys, monkeypatch):
        # six indicators and the plot data all read one sampled set
        import rittgrowth.indicators as indicators_mod
        from rittgrowth.growth import sample_profile
        calls = []

        def counting(source, grid, tail=None):
            calls.append(source.describe()["surrogate"])
            return sample_profile(source, grid, tail)

        monkeypatch.setattr(indicators_mod, "sample_profile", counting)
        monkeypatch.setattr(cli_mod, "sample_profile", counting)
        code, _, _ = run(["indicator", "--spec", "expexp:a=2,c=1", "--p", "2", "--q", "0",
                          "--sigma", "5:30:64", "--kind", "all",
                          "--plot-data", str(tmp_path / "ratios.dat")], capsys)
        assert code == 0
        assert calls == ["upper", "lower"]

    def test_type_on_subnormal_regressors(self, capfd):
        # at (2,0) this osc rule's type regressors are subnormal: the intercept
        # fit must converge, and stdout must hold the JSON report alone
        code = main(["indicator", "--spec", "osc:rho=2,lam=1,p=2,q=0", "--p", "2",
                     "--q", "0", "--sigma", "2:1e4:300:log", "--kind", "type"])
        out, err = capfd.readouterr()
        assert (code, err) == (0, "")
        kinds = [e["kind"] for e in strict_json(out)["estimates"]]
        assert kinds == ["order", "lower_order", "type", "lower_type"]

    def test_ratios_beyond_1e154_fit_without_overflow(self, capfd):
        # the (0,1) order ratios here reach ~1e175: their squared residuals
        # would overflow float64 unless scaled first
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            code = main(["indicator", "--spec", "expexp:a=0.5,c=3.5", "--p", "0", "--q", "1",
                         "--sigma", "4.5:9.5:8", "--kind", "all"])
        out, err = capfd.readouterr()
        assert (code, err) == (0, "")
        order = strict_json(out)["estimates"][0]
        assert order["method"] == "window-extremum" and order["value"] > 1e154

    def test_bad_grid_syntax(self, capsys):
        code, _, err = run(["indicator", "--spec", "expexp:a=1,c=1", "--p", "2", "--q", "0",
                            "--sigma", "5-30"], capsys)
        assert code == 2

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["indicator", "--spec", "expexp:a=1,c=1"])
        assert exc.value.code == 2

    def test_undefined_type_indicator_is_numeric_error(self, capsys):
        # order at (2,0) for a depth-3 tower overflows to inf on this grid,
        # so asking for the type hits the undefined-indicator gate: exit 3
        code, _, err = run(["indicator", "--spec", "tower:k=3,rho=1,q=0", "--p", "2",
                            "--q", "0", "--sigma", "700:800:32", "--kind", "type"], capsys)
        assert code == 3
        assert "order in (0, inf)" in err

    def test_series_overflow_is_numeric_error(self, capsys):
        # a*sigma = 720 puts the central index past the double range
        code, _, err = run(["profile", "--spec", "expexp:a=30,c=1", "--sigma", "20:24:3"],
                           capsys)
        assert code == 3
        assert "a*sigma < 700" in err


class TestRelative:
    def test_direct(self, capsys):
        code, out, _ = run(["relative", "--f-spec", "expexp:a=2,c=1",
                            "--g-spec", "expexp:a=1,c=1", "--p", "0", "--q", "0",
                            "--sigma", "5:30:48"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["estimates"]["relative_order"]["value"] == pytest.approx(2.0, abs=1e-2)
        assert doc["form"] == "direct"

    def test_form_is_not_an_option(self, capsys):
        # the relative curve has one form, composed from f's profile
        with pytest.raises(SystemExit) as exc:
            main(["relative", "--f-spec", "expexp:a=2,c=1", "--g-spec", "expexp:a=1,c=1",
                  "--p", "0", "--q", "0", "--sigma", "5:30:48", "--form", "dual"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --form dual" in capsys.readouterr().err

    def test_samples_each_surrogate_of_f_once(self, capsys, monkeypatch):
        import rittgrowth.indicators as indicators_mod
        from rittgrowth.growth import sample_profile
        calls = []

        def counting(source, grid, tail=None):
            calls.append(source.describe()["surrogate"])
            return sample_profile(source, grid, tail)

        monkeypatch.setattr(indicators_mod, "sample_profile", counting)
        code, _, _ = run(["relative", "--f-spec", "expexp:a=2,c=1", "--g-spec", "expexp:a=1,c=3",
                          "--p", "0", "--q", "0", "--sigma", "5:30:48"], capsys)
        assert code == 0
        assert calls == ["upper", "lower"]

    # f's floor is 1.0, since log sigma must be defined and non-negative
    FLOOR_PAIR = ["tower:k=2,rho=2,q=1", "--g-spec", "tower:k=2,rho=1,q=0"]
    FLOOR_GRID = ["--sigma", "0.5:3e4:100:log"]

    # the floor is f's own, so it holds at every pair of indices
    @pytest.mark.parametrize("args", [
        ["relative", "--f-spec", *FLOOR_PAIR, "--p", "1", "--q", "1", *FLOOR_GRID],
        ["relative", "--f-spec", *FLOOR_PAIR, "--p", "0", "--q", "0", *FLOOR_GRID],
        ["detect", "--spec", *FLOOR_PAIR, *FLOOR_GRID],
    ])
    def test_grid_below_the_floor_of_f(self, args, capsys):
        code, _, err = run(args, capsys)
        assert code == 3
        assert "grid starts at sigma=0.5 below the source floor 1.0" in err

    def test_root_past_the_float_range_is_a_bracket_error(self, capsys):
        # g's root is 2 sigma, past the largest float from sigma ~ 9e307 on: the
        # inversion stops at the float range, and no nan reaches a rule
        code, out, err = run(["relative", "--f-spec", "tower:k=3,rho=1,q=0",
                              "--g-spec", "tower:k=3,rho=0.5,q=0", "--p", "0", "--q", "0",
                              "--sigma", "1e307:1.7e308:16"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: inversion bracket cannot grow within the float range\n"

    @pytest.mark.parametrize("spec", ["tower:k=2,rho=1,q=5"])
    def test_floor_past_the_float_range_fails_when_the_entry_is_built(self, spec, capsys):
        # the floor of q = 5, exp^[4](1), is past the float range
        code, out, err = run(["indicator", "--spec", spec, "--p", "2", "--q", "5",
                              "--sigma", "5:30:64"], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: value exp^[4](1.0) exceeds the machine range; "
                       "keep it in the ExtReal domain\n")

    @pytest.mark.parametrize("args", [
        ["indicator", "--spec", "osc:rho=2,lam=1,p=2,q=5", "--p", "2", "--q", "5",
         "--sigma", "5:30:64"],
        ["profile", "--spec", "osc:rho=2,lam=1,p=1,q=1", "--sigma", "20:30:50"],
        ["relative", "--f-spec", "tower:k=1,rho=1,q=1", "--g-spec", "osc:rho=2,lam=1,p=1,q=1",
         "--p", "0", "--q", "0", "--sigma", "5:60:64"],
    ])
    def test_osc_rule_past_q_zero_is_refused(self, args, capsys):
        # at q >= 1 the rule falls somewhere (near sigma = 21.6 at rho=2, lam=1,
        # q=1): no estimate may read it, and no relative estimate invert it
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == "error: oscillating rule needs p >= 1 and q = 0\n"

    def test_cold_search_reaches_the_float_range(self, capsys, monkeypatch):
        # g's first root, ~1e37, lies past 120 doublings of (floor, floor + 1);
        # without the guesses every point takes the bracket path to the same roots
        args = ["relative", "--f-spec", "tower:k=2,rho=1,q=0", "--g-spec", "osc:rho=2,lam=1,p=2,q=0",
                "--p", "0", "--q", "0", "--sigma", "1e37:1e38:16"]
        orders = []
        for guess in (True, False):
            if not guess:
                monkeypatch.setattr(growth_mod, "_guess", lambda *args: None)
            code, out, err = run(args, capsys)
            assert (code, err) == (0, "")
            orders.append(json.loads(out)["estimates"]["relative_order"]["value"])
        assert orders[1] == pytest.approx(orders[0], rel=1e-6)


class TestDetect:
    def test_absolute(self, capsys):
        code, out, _ = run(["detect", "--spec", "expexp:a=2,c=1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["pair"] == {"p": 2, "q": 0}

    def test_failure_exit_code(self, capsys):
        code, _, err = run(["detect", "--spec", "tower:k=3,rho=1,q=0",
                            "--p-max", "2", "--q-max", "2"], capsys)
        assert code == 3
        assert "no admissible" in err

    def test_off_domain_candidates_are_nan_evidence(self, capsys):
        # log^[3] of a depth-4 tower drops below zero on this grid, so the
        # order at (3,2), (4,3) and (4,2) is off its domain: the scan records
        # NaN there and goes on to (4,0)
        code, out, _ = run(["detect", "--spec", "tower:k=4,rho=1,q=0",
                            "--sigma", "1.5:2.5:64"], capsys)
        assert code == 0
        doc = strict_json(out)
        assert doc["pair"] == {"p": 4, "q": 0}
        assert doc["order"]["value"] == pytest.approx(1.0, abs=1e-12)
        nan = [(e["p"], e["q"]) for e in doc["evidence"] if e["order"] == "nan"]
        assert nan == [(3, 2), (4, 3), (4, 2)]


class TestIndexRange:
    """The indices p, q, their scan bounds and m are >= 0; a negative one is a usage error."""

    EXPEXP = ["--spec", "expexp:a=1,c=1"]
    PAIR = ["--f-spec", "expexp:a=2,c=1", "--g-spec", "expexp:a=1,c=1"]

    @pytest.mark.parametrize("args,message", [
        (["indicator", *EXPEXP, "--p", "-1", "--q", "0", "--sigma", "5:30:16"],
         "indices p, q must be >= 0, got (-1, 0)"),
        (["indicator", *EXPEXP, "--p", "1", "--q", "-1", "--sigma", "5:30:16", "--kind", "all"],
         "indices p, q must be >= 0, got (1, -1)"),
        (["relative", *PAIR, "--p", "-2", "--q", "0", "--sigma", "5:30:16"],
         "indices p, q must be >= 0, got (-2, 0)"),
        (["relative", *PAIR, "--p", "0", "--q", "-1", "--sigma", "5:30:16"],
         "indices p, q must be >= 0, got (0, -1)"),
        (["detect", *EXPEXP, "--p-max", "-1"], "p_max, q_max must be >= 0, got (-1, 4)"),
        (["detect", *EXPEXP, "--g-spec", "expexp:a=1,c=2", "--q-max", "-1"],
         "p_max, q_max must be >= 0, got (4, -1)"),
        (["detect", *EXPEXP, "--g-spec", "expexp:a=1,c=2", "--m", "-4"], "m must be >= 0, got -4"),
    ])
    def test_negative_index_is_usage_error(self, args, message, capsys):
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestWindow:
    # --window is the estimator's one setting; every command that estimates takes it
    COMMANDS = (["indicator", "--spec", "expexp:a=2,c=1", "--p", "2", "--q", "0",
                 "--sigma", "5:30:64", "--kind", "all"],
                ["relative", "--f-spec", "expexp:a=2,c=1", "--g-spec", "expexp:a=1,c=1",
                 "--p", "0", "--q", "0", "--sigma", "5:25:32"],
                ["detect", "--spec", "expexp:a=2,c=1"])

    def test_window_reaches_every_estimate(self, capsys):
        seen = 0
        for cmd in self.COMMANDS:
            code, out, _ = run(cmd + ["--window", "0.3"], capsys)
            assert code == 0, cmd
            doc = json.loads(out)
            # indicator lists its estimates, relative maps kinds to them, detect has one
            estimates = doc.get("estimates", [doc.get("order")])
            if isinstance(estimates, dict):
                estimates = list(estimates.values())
            for est in estimates:
                # detect reads the default 5:30:64 grid; dropped points are not ratio points
                count = doc.get("grid", {"count": 64})["count"] - est["n_dropped"]
                assert est["window"] == 0.3
                assert est["n_points"] == max(16, math.ceil(0.3 * count))
                seen += 1
        assert seen == 6 + 6 + 1

    # sha256 prefixes of outputs that read every grid point, recorded before
    # profiles and relative curves were sampled at index 0 and the tail only.
    # The reports were recorded again when the window fits became closed-form
    # and the denominators floats; every report float stayed within 1e-13.
    # They were recorded again when sigma came to be read by one float chain
    # (log_chain), with no level-index round trip: expexp's report moved through
    # its q = 0 type denominators; the tower and osc reports, plot data and
    # profiles moved through their rules.  Every other output is unchanged.
    # They were recorded again when grids, window fits and validate left numpy: the log
    # grids' last bits moved every output of the two log-grid cases, and the fsum fits
    # moved expexp's report by 1 ulp; no field but a float changed, and the largest
    # drift is the tower's extrapolated types, 1 - 9.3e-12 -> 1 + 6.9e-13 (exactly 1).
    WHOLE_GRID = {
        ("expexp:a=2,c=1", "5:30:64"): ("7786f65f9d4c1b92", "7ae328ad7edf6878",
                                        "0f4aaca6a8c61646", "37eb8cde29950b90"),
        ("tower:k=2,rho=1.5,q=0", "5:3e4:200:log"): ("2e2aca2376698395", "d97701f9dc49025f",
                                                     "fdc1aec6b8e725e8", "251a5b7b0c06c5d7"),
        ("osc:rho=2,lam=1,p=2,q=0", "3:460658806.18633974:480:log"): (
            "db639b20b403674a", "e210ed5d9db3bf66", "fdbdb06bb69da2a6", "3f5cc7122e6bc25b"),
    }

    @pytest.mark.parametrize("spec,sigma", list(WHOLE_GRID))
    def test_plot_data_and_profile_cover_the_whole_grid(self, spec, sigma, tmp_path, capsys):
        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        plot = tmp_path / "ratios.dat"
        indicator = ["indicator", "--spec", spec, "--p", "2", "--q", "0", "--sigma", sigma,
                     "--kind", "all"]
        outputs = [run(indicator + ["--plot-data", str(plot)], capsys),
                   run(indicator, capsys),
                   run(["profile", "--spec", spec, "--sigma", sigma], capsys),
                   run(["profile", "--spec", spec, "--sigma", sigma, "--format", "csv"], capsys)]
        assert [code for code, _out, _err in outputs] == [0] * 4
        report, plain, profile, csv = (digest(out) for _code, out, _err in outputs)
        assert report == plain
        assert (report, digest(plot.read_text()), profile, csv) == self.WHOLE_GRID[spec, sigma]
        assert len(plot.read_text().splitlines()) == int(sigma.split(":")[2])

    def test_window_outside_zero_one_is_usage_error(self, capsys):
        for cmd in self.COMMANDS:
            code, out, err = run(cmd + ["--window", "0"], capsys)
            assert (code, out) == (2, ""), cmd
            assert err == "error: window must lie in (0, 1]\n"


class TestJsonNumbers:
    def test_detect_evidence_is_strict_json(self, capsys):
        # a depth-3 tower's order at (1, 1) overflows to inf; JSON has no
        # Infinity, so the evidence must carry it as the string "inf"
        code, out, _ = run(["detect", "--spec", "tower:k=3,rho=2,q=0"], capsys)
        assert code == 0
        doc = strict_json(out)
        assert doc["evidence"][0] == {"p": 1, "q": 1, "order": "inf"}


class TestOracle:
    def test_sweep(self, capsys):
        code, out, _ = run(["oracle", "--instances", "2000", "--seed", "7"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["rules_checked"] == 8000


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run(["corpus", "list"], capsys)
        assert code == 0
        entries = json.loads(out)["entries"]
        assert "expexp:a=1,c=1" in entries
        assert any(e.startswith("osc:") for e in entries)

    def test_describe(self, capsys):
        code, out, _ = run(["corpus", "describe", "expexp:a=2,c=1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["index_pair"] == [2, 0]
        assert any(row["kind"] == "order" and row["value"] == 2 for row in doc["analytic"])


class TestCheck:
    def test_passing_batch(self, tmp_path, capsys):
        batch = {"instances": [
            {"theorem": "C5", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1,q=0",
             "h": "tower:k=2,rho=1.5,q=0"},
            {"theorem": "C7", "f": "expexp:a=2,c=1", "g": "expexp:a=1,c=1",
             "h": "expexp:a=3,c=1",
             "grid": {"sigma_min": 5, "sigma_max": 30, "count": 48}},
        ]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        code, out, _ = run(["check", "--batch", str(path), "--quiet"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["fail"] == 0
        assert doc["summary"]["vacuous"] == 1  # the C7 instance has no trigger

    def test_failing_batch_exit_one(self, tmp_path, capsys):
        # premise fires instantly but the conclusion decays like log(s)/s and
        # cannot cross the zero threshold on this short grid
        batch = {"instances": [
            {"theorem": "C7", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=3,rho=1,q=0",
             "h": "tower:k=2,rho=1,q=0",
             "grid": {"sigma_min": 5, "sigma_max": 30, "count": 48}},
        ]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        code, out, _ = run(["check", "--batch", str(path), "--quiet"], capsys)
        assert code == 1
        assert json.loads(out)["summary"]["fail"] == 1


    def test_malformed_batch_is_refused_before_any_instance_runs(self, tmp_path, capsys):
        tower = {"theorem": "C5", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1,q=0",
                 "h": "tower:k=2,rho=1.5,q=0"}
        path = tmp_path / "batch.json"
        for batch, message in (({"instances": 5}, "needs an 'instances' array"),
                               ({"instances": [tower, dict(tower, theorem="T99")]},
                                "unknown theorem id 'T99'")):
            path.write_text(json.dumps(batch))
            code, out, err = run(["check", "--batch", str(path)], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_tolerance_that_cannot_fail_a_check_is_refused(self, tmp_path, capsys):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"instances": [
            {"theorem": "C5", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1,q=0",
             "h": "tower:k=2,rho=1.5,q=0"}]}))
        for tol in ("0", "inf"):
            code, out, err = run(["check", "--batch", str(path), "--tol", tol, "--quiet"], capsys)
            assert (code, out) == (2, ""), tol
            assert "tolerance must be finite and positive" in err

    def test_numeric_error_is_one_instance_verdict(self, tmp_path, capsys):
        # expexp:a=30 leaves the machine range near sigma = 700/30 on this
        # grid; the towers before and after it are still checked
        tower = {"theorem": "Tt2", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1.5,q=0",
                 "h": "tower:k=2,rho=1,q=0"}
        batch = {"instances": [
            tower,
            {"theorem": "T1", "f": "expexp:a=30,c=1", "g": "expexp:a=1,c=1",
             "h": "expexp:a=3,c=1", "grid": {"sigma_min": 5, "sigma_max": 30, "count": 64}},
            tower,
        ]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        code, out, err = run(["check", "--batch", str(path)], capsys)
        assert code == 3
        doc = json.loads(out)
        assert doc["summary"] == {"instances": 3, "pass": 2, "vacuous": 0, "fail": 0, "error": 1}
        assert [r["verdict"] for r in doc["reports"]] == ["pass", "error", "pass"]
        bad = doc["reports"][1]
        assert bad["subject"]["f"] == "expexp:a=30,c=1"
        assert bad["notes"][0].startswith("NumericError: ") and "a*sigma < 700" in bad["notes"][0]
        assert [line.split(" -> ")[1].split(" (")[0] for line in err.splitlines()] == \
            ["pass", "error", "pass"]

    def test_progress_line_as_each_instance_finishes(self, tmp_path, capsys, monkeypatch):
        import io
        import rittgrowth.theorems as theorems_mod
        batch = {"instances": [
            {"theorem": "C5", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1,q=0",
             "h": "tower:k=2,rho=1.5,q=0"},
            {"theorem": "C6", "f": "tower:k=2,rho=2,q=0", "g": "tower:k=2,rho=1,q=0",
             "h": "tower:k=2,rho=1.5,q=0"},
        ]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        err = io.StringIO()
        lines_at_start = []
        check_instance = theorems_mod.check_instance

        def recording(inst, ws=None):
            lines_at_start.append(err.getvalue().count("\n"))
            return check_instance(inst, ws)

        monkeypatch.setattr(theorems_mod, "check_instance", recording)
        monkeypatch.setattr("sys.stderr", err)
        code = main(["check", "--batch", str(path)])
        quiet_out = capsys.readouterr().out
        assert code == 0
        assert lines_at_start == [0, 1]
        lines = err.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("C6   f=tower:k=2,rho=2,q=0 g=tower:k=2,rho=1,q=0 "
                                   "h=tower:k=2,rho=1.5,q=0 -> pass (")
        assert lines[1].endswith(" s)")
        # stdout is the same report with or without progress
        assert main(["check", "--batch", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == quiet_out
        assert err.getvalue().count("\n") == 2


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out_path = tmp_path / f"{name}.json"
            code = main(["indicator", "--spec", "expexp:a=1,c=3", "--p", "2", "--q", "0",
                         "--sigma", "5:30:64", "--output", str(out_path)])
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]


class TestRepeatedCalls:
    # main may be called many times in one process; the parser is built once and
    # no call leaves anything behind for the next
    RELATIVE = ["relative", "--f-spec", "tower:k=2,rho=2,q=0", "--g-spec", "tower:k=2,rho=1,q=0",
                "--p", "0", "--q", "0", "--sigma", "5:12:32:log"]

    def test_output_file_does_not_carry_over(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(self.RELATIVE + ["--output", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        code, out, _ = run(self.RELATIVE, capsys)
        assert code == 0
        assert out == out_path.read_text()

    def test_usage_error_does_not_carry_over(self, capsys):
        build_parser.cache_clear()  # the next call is the process's first
        first = run(self.RELATIVE, capsys)
        assert first[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["relative", "--f-spec", "tower:k=2,rho=2,q=0", "--p", "x"])
        assert exc.value.code == 2
        assert run(["relative"] + self.RELATIVE[1:-1] + ["5-12"], capsys)[0] == 2
        assert run(self.RELATIVE, capsys) == first
        assert build_parser.cache_info().misses == 1

    def test_parser_is_built_on_first_use_only(self):
        # a fresh interpreter: importing the CLI builds no parser, the first main call
        # builds it (with its subcommand parsers) and later calls build none
        code = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import rittgrowth.cli as cli\n"
            "counts = [len(built)]\n"
            "for _ in range(3):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['corpus', 'list']) == 0\n"
            "    counts.append(len(built))\n"
            "print(counts)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        counts = json.loads(out.stdout)
        assert counts[0] == 0
        assert counts[1] > 1
        assert counts[1:] == [counts[1]] * 3


def test_numpy_loads_only_to_sum_a_term_by_term_window(tmp_path):
    # a fresh interpreter: the CLI, the tower and osc rules, relative compositions and a
    # table's validation run on the standard library alone; an expexp upper sum, which
    # evaluates its window through the array generators, is what brings numpy in
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"family": "table", "lambda": list(range(1, 20)),
                                 "log_norm": [-math.lgamma(n + 1.0) for n in range(1, 20)]}))
    grid = ["--sigma", "3:460658806.18633974:96:log"]
    towers = ["tower:k=3,rho=2.5,q=0", "--g-spec", "tower:k=3,rho=1.1,q=0"]
    calls = [[],
             ["relative", "--f-spec", "osc:rho=3,lam=1.5,p=2,q=0", "--g-spec",
              "tower:k=2,rho=1.2,q=0", "--p", "0", "--q", "0", *grid],
             ["relative", "--f-spec", *towers, "--p", "0", "--q", "0", *grid],
             ["detect", "--spec", *towers, *grid],
             ["validate", "--spec", str(table)],
             ["profile", "--spec", "expexp:a=1,c=1", "--sigma", "1:2:4"]]
    script = tmp_path / "loads.py"
    script.write_text(
        "import contextlib, io, json, sys\n"
        "import rittgrowth.cli as cli\n"
        "loaded = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if argv:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert cli.main(argv) == 0, argv\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(json.dumps(loaded))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, str(script), json.dumps(calls)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [False] * 5 + [True]


def test_cli_imports_numpy_alone():
    # a fresh interpreter: rittgrowth depends on no package but numpy
    code = "import sys, rittgrowth.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

"""Config parsing, CLI exit codes, report formats, manifests, reproducibility."""

import csv
import hashlib
import json
import math
import platform
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spdolab import ConfigError, parse_config
from spdolab import cli
from spdolab.cli import main
from spdolab.reports import (environment_stamp, format_cell, format_number, remove_artifacts,
                             write_csv, write_json)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def jsonable(value):
    """Plain-JSON coercion: numpy scalars unwrapped, non-finite floats as
    strings. With json.dumps(..., indent=2, sort_keys=True, allow_nan=False)
    it is the oracle of write_json."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return value


# report values: numpy scalars and arrays, non-finite floats, tuples,
# non-ASCII strings, int and str keys, and empty containers at any depth
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2**31, 2**31 - 1).map(np.int32), st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.integers(-9, 9)), inner, max_size=4)),
    max_leaves=20)


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_minimal_defaults_filled(self, tmp_path):
        cfg = parse_config(write(tmp_path, "command = carleman-scan\n"))
        assert cfg.command == "carleman-scan"
        assert cfg["M"] == 128 and cfg["K"] == 512 and cfg["P"] == 256
        assert cfg["T-list"] == (0.0625, 0.125, 0.25) and cfg["seed"] == 0
        cfg = parse_config(write(tmp_path, "command = roots-check\nprincipal = wave:2\n"))
        assert cfg.command == "roots-check"
        assert cfg["epsilon"] == 0.1 and cfg["seed"] == 0

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# experiment\n\ncommand = roots-check  # trailing\nprincipal = laplace\n"
        assert parse_config(write(tmp_path, text))["principal"] == "laplace"

    def test_negative_horizon_names_key(self, tmp_path):
        text = "command = carleman-scan\nT-list = 0.125, -0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.key == "T-list"
        assert "T-list" in str(err.value)

    def test_carleman_scan_rejects_horizon(self, tmp_path):
        # the scan takes every horizon from T-list, so a T key would do nothing
        text = "command = carleman-scan\nb1 = lambda:1\nT = 0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.key == "T" and err.value.line == 3

    @pytest.mark.parametrize("command, key", [
        *[(c, k) for c in ("symbol-verify", "roots-check", "reduce") for k in "MTKP"],
        *[("bounded-test", k) for k in "nMTKP"],
        *[("elliptic-parametrix", k) for k in "TKP"],
    ])
    def test_key_the_runner_ignores_is_rejected(self, tmp_path, command, key):
        # every value here would pass the key's old check, so only the schema rejects it
        required = "principal = wave:2" if command in ("roots-check", "reduce") else "symbol = xi"
        text = f"command = {command}\n{required}\n{key} = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.key == key and err.value.line == 3
        assert f"line 3: key '{key}'" in str(err.value)

    def test_unknown_key_carries_line(self, tmp_path):
        text = "command = roots-check\nprincipal = wave:2\nwavelet = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.key == "wavelet" and err.value.line == 3

    def test_duplicate_key_rejected(self, tmp_path):
        text = "command = roots-check\nprincipal = a\nprincipal = b\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.line == 3

    def test_missing_command(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "principal = wave:2\n"))
        assert err.value.key == "command"

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "command = frobnicate\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "command = symbol-verify\n"))
        assert err.value.key == "symbol"

    def test_type_violations(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "command = carleman-scan\nK = ten\n"))
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "command = carleman-scan\nM = 100\n"))

    def test_list_values(self, tmp_path):
        text = ("command = carleman-scan\nT-list = 0.125, 0.25\n"
                "kappa-list = 16,64\n")
        cfg = parse_config(write(tmp_path, text))
        assert cfg["T-list"] == (0.125, 0.25)
        assert cfg["kappa-list"] == (16.0, 64.0)

    def test_alias_command_canonicalized(self, tmp_path):
        text = "command = parametrix-test\nsymbol = lambda:1\n"
        assert parse_config(write(tmp_path, text)).command == "elliptic-parametrix"

    def test_echo_round_trip(self, tmp_path):
        text = ("command = roots-check\nprincipal = wave:2\nepsilon = 1.0\n"
                "seed = 7\nn = 2\n")
        echo = parse_config(write(tmp_path, text)).echo()
        assert echo == {"command": "roots-check", "principal": "wave:2",
                        "epsilon": 1.0, "seed": 7, "n": 2,
                        "num-angles": 64, "num-x": 8}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/exp.cfg")


class TestReportFormats:
    def test_seventeen_digit_round_trip(self):
        for x in (math.pi, 1.0 / 3.0, 6.02214076e23, -2.2250738585072014e-308):
            assert float(format_number(x)) == x

    def test_csv_bytes(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b", "verdict"], [(1, math.pi, True), (2, 0.5, False)])
        data = p.read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0] == "a,b,verdict"
        assert "3.1415926535897931" in data.decode()
        assert data.decode().splitlines()[1].endswith("pass")
        assert data.decode().splitlines()[2].endswith("fail")

    def test_csv_cells_match_format_cell(self, tmp_path):
        cells = [True, False, np.True_, np.bool_(False), 0, -7, 2**70, np.int32(-3),
                 np.uint8(200), 0.0, -0.0, math.pi, 1e-300, -2.5e300, math.nan, math.inf,
                 -math.inf, np.float64(-0.0), np.float64(math.nan), np.float32(0.1),
                 np.float64(-math.inf), "pass", "a;b"]
        rows = [tuple(cells), tuple(reversed(cells)), (1.5, 2), (True, 0.25), (2, 1.5), ()]
        p = tmp_path / "cells.csv"
        write_csv(p, ["h"], rows)
        lines = p.read_text().split("\n")
        assert lines[1:] == [",".join(format_cell(v) for v in row) for row in rows] + [""]

    def test_platform_stamp_matches_platform_module(self):
        # the stamp reads no uname().processor; where that is empty or the
        # machine name, platform.platform() prints the same string
        uname = platform.uname()
        if uname.processor not in ("", uname.machine):
            pytest.skip(f"processor {uname.processor!r} is part of platform.platform()")
        assert environment_stamp()["platform"] == platform.platform()

    def test_jsonable_coercions(self, tmp_path):
        path = write_json(tmp_path / "r.json", {"a": np.float64(1.5), "b": np.int32(2),
                                                "c": math.inf, "d": np.array([1.0, 2.0]),
                                                "e": np.True_})
        out = json.loads(path.read_bytes())
        assert out == {"a": 1.5, "b": 2, "c": "inf", "d": [1.0, 2.0], "e": True}

    @given(payload=st.dictionaries(st.text(), JSON_VALUES, max_size=4))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_json_writer_matches_json_dumps(self, tmp_path, payload):
        expected = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
        path = write_json(tmp_path / "r.json", payload)
        assert path.read_bytes() == (expected + "\n").encode()


class TestCliRuns:
    def run(self, tmp_path, text, subcommand, out_name="out", extra=()):
        cfg_path = write(tmp_path, text)
        out = tmp_path / out_name
        code = main([subcommand, "--config", cfg_path, "--out", str(out), *extra])
        return code, out

    def test_roots_check_margins(self, tmp_path):
        text = "command = roots-check\nprincipal = wave:2\nepsilon = 1.0\n"
        code, out = self.run(tmp_path, text, "roots-check")
        assert code == 0
        payload = json.loads((out / "hypotheses.json").read_text())
        assert payload["h1_margin"] == 4.0
        assert payload["h2_margin"] == "inf"
        assert payload["h3_margin"] == 4.0

    # each distinct sample is solved once; num_samples counts the whole grid
    @pytest.mark.parametrize("principal,solved", [
        ("wave:2", 96), ("variable-wave:2,0.5,0", 768), ("variable-wave:2,0.5,0.3", 1536)])
    def test_root_samples_solved(self, tmp_path, principal, solved):
        common = f"principal = {principal}\nn = 2\nnum-angles = 32\nnum-x = 8\n"
        code, out = self.run(tmp_path, "command = roots-check\n" + common, "roots-check")
        assert code in (0, 1)
        hypotheses = json.loads((out / "hypotheses.json").read_text())
        results = json.loads((out / "report.json").read_text())["results"]
        assert hypotheses["num_samples"] == 1536 and "work" not in hypotheses
        assert results == {**hypotheses, "work": {"root_samples_solved": solved}}
        code, out = self.run(tmp_path, "command = reduce\n" + common, "reduce", "reduce")
        assert code == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["work"] == {"root_samples_solved": solved}
        assert results["samples"] == 2 * solved

    # contexts x stencil leaves x directions x positions x radii: 3 sampled
    # times, or 6 (t, path) contexts for a path-reading symbol; 2 directions
    # at n = 1, 8 at n = 2; for an x-dependent symbol 8 positions and every
    # leaf, 17 at n = 1 and 49 at n = 2; else 1 position and the leaves of
    # the xi-derivatives only, 7 at n = 1 and 17 at n = 2; 17 radii
    @pytest.mark.parametrize("symbol,contexts,x_dependent", [
        ("lambda:1", 3, False), ("trig-lambda:2,1,0,1", 3, True),
        ("brownian-lambda:5,1", 6, False)])
    @pytest.mark.parametrize("n,leaves,xi_leaves,directions", [(1, 17, 7, 2), (2, 49, 17, 8)])
    def test_symbol_points(self, tmp_path, symbol, contexts, x_dependent, n, leaves, xi_leaves,
                           directions):
        text = f"command = symbol-verify\nsymbol = {symbol}\nn = {n}\n"
        code, out = self.run(tmp_path, text, "symbol-verify")
        assert code == 0
        results = json.loads((out / "report.json").read_text())["results"]
        per_context = leaves * 8 if x_dependent else xi_leaves
        points = contexts * per_context * directions * 17
        assert results["work"] == {"symbol_points": points}

    def test_misdeclared_symbol_exits_one(self, tmp_path):
        text = "command = symbol-verify\nsymbol = xi2\nl = 1\n"
        code, out = self.run(tmp_path, text, "symbol-verify")
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "fail"

    def test_subcommand_config_mismatch_exits_two(self, tmp_path):
        text = "command = roots-check\nprincipal = wave:2\n"
        code, out = self.run(tmp_path, text, "reduce")
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "ConfigError"

    def test_missing_config_exits_two(self, tmp_path):
        out = tmp_path / "out"
        code = main(["roots-check", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)])
        assert code == 2

    # a NaN symbol has no ellipticity constant: NaN, not the +inf of no sample
    @pytest.mark.parametrize("symbol", ["trig:1,1,0", "const:nan"])
    def test_non_elliptic_symbol_exits_two(self, tmp_path, symbol):
        text = f"command = elliptic-parametrix\nsymbol = {symbol}\nM = 32\n"
        code, out = self.run(tmp_path, text, "elliptic-parametrix")
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "EllipticityError"

    def test_non_finite_roots_exit_two(self, tmp_path):
        # NaN coefficients give NaN roots and a NaN residual, which fails
        text = "command = roots-check\nprincipal = from-roots:nan,1\n"
        code, out = self.run(tmp_path, text, "roots-check")
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "RootSolveError"

    def test_alias_subcommand(self, tmp_path):
        text = "command = parametrix-test\nsymbol = trig-lambda:2,1,0,1\nM = 128\ncutoff = 8\n"
        code, out = self.run(tmp_path, text, "parametrix-test")
        assert code == 0
        rows = (out / "parametrix.csv").read_text().splitlines()
        assert rows[0] == "frequency,residual_norm,fitted_slope"

    def test_seed_flag_overrides_config(self, tmp_path):
        text = "command = roots-check\nprincipal = wave:2\nseed = 3\n"
        code, out = self.run(tmp_path, text, "roots-check", extra=["--seed", "9"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_failing_scan_exits_one_with_full_table(self, tmp_path, monkeypatch):
        # force one failing verdict: exit 1 while scan.csv still carries
        # every per-term column
        from spdolab import carleman as mod

        real = mod.aggregate

        def sabotage(cells, terms):
            reports = real(cells, terms)
            reports[0].verdict = False
            return reports

        monkeypatch.setattr("spdolab.cli.carleman.aggregate", sabotage)
        text = ("command = carleman-scan\nK = 64\nP = 2\nM = 16\n"
                "T-list = 0.25\nkappa-list = 16\n")
        code, out = self.run(tmp_path, text, "carleman-scan")
        assert code == 1
        header = (out / "scan.csv").read_text().splitlines()[0].split(",")
        assert header == ["mu", "T", "K", "P", "lhs", "rhs", "gap", "se", "verdict",
                          "term1", "term2", "term3", "term4", "term5", "term6"]

    def test_parametrix_seed_changes_ellipticity_sample(self, tmp_path):
        text = "command = elliptic-parametrix\nsymbol = brownian-lambda:0.5,1\ncutoff = 8\n"
        constants = []
        for seed in (0, 1):
            code, out = self.run(tmp_path, text, "elliptic-parametrix", out_name=f"s{seed}",
                                 extra=["--seed", str(seed)])
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            constants.append(report["results"]["ellipticity_constant"])
        assert constants[0] != constants[1]

    def test_parametrix_in_two_dimensions(self, tmp_path):
        text = ("command = elliptic-parametrix\nsymbol = trig-lambda:2,1,0,1\n"
                "n = 2\nM = 32\ncutoff = 2\n")
        code, out = self.run(tmp_path, text, "elliptic-parametrix")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["left_slope"] <= -0.9
        assert len((out / "parametrix.csv").read_text().splitlines()) > 2

    def test_non_finite_scan_exits_two(self, tmp_path):
        text = ("command = carleman-scan\nK = 64\nP = 2\nM = 16\n"
                "process = brownian-mode:1e200,1\nT-list = 0.25\nkappa-list = 16\n")
        with pytest.warns(RuntimeWarning):
            code, out = self.run(tmp_path, text, "carleman-scan")
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "NonFiniteError"
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_process_mode_outside_band_exits_two(self, tmp_path, dim):
        text = ("command = carleman-scan\nK = 64\nP = 2\nM = 128\n"
                f"n = {dim}\nprocess = deterministic-mode:200\n")
        code, out = self.run(tmp_path, text, "carleman-scan")
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"] == {"type": "ValueError",
                                   "message": "mode 200 outside retained band [-64, 63]"}
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, line", [
        ("symbol-verify", "symbol = mod:1.5"),
        ("symbol-verify", "symbol = mod-xi:2.5"),
        ("symbol-verify", "symbol = trig:1,0.3,0,1.5"),
        ("symbol-verify", "symbol = xi:0"),
        ("carleman-scan", "process = brownian-mode:0.1,1.5"),
        ("carleman-scan", "process = brownian-mode:0.1,1,7"),
    ])
    def test_bad_selector_arguments_exit_two(self, tmp_path, capsys, command, line):
        # a fractional mode or an extra argument is refused, not rounded or dropped
        sizes = "K = 64\nP = 2\nM = 16\n" if command == "carleman-scan" else ""
        code, out = self.run(tmp_path, f"command = {command}\n{sizes}{line}\n", command)
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "ValueError"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("selector, name", [
        ("trig:1,0.3,0,2", "trig[1.0,0.3,0.0;k=2.0]"),
        ("trig:1,0.3,0", "trig[1.0,0.3,0.0;k=1]"),
        ("mod:3", "mod[3]"),
        ("mod-xi:-2", "mod-xi[-2]"),
        ("xi", "xi0"),
    ])
    def test_integer_mode_selectors_keep_their_names(self, tmp_path, selector, name):
        code, out = self.run(tmp_path, f"command = symbol-verify\nsymbol = {selector}\n",
                             "symbol-verify")
        assert code in (0, 1)
        assert json.loads((out / "report.json").read_text())["results"]["symbol"] == name

    @pytest.mark.parametrize("text, error", [
        ("symbol = lambda:103\n", "NonFiniteError"),
        # only the top radius clears the magnitude floor: one point fits no slope
        ("symbol = lambda:60\nl = 32\n", "OrderFitError"),
    ])
    def test_unresolved_symbol_audit_exits_two(self, tmp_path, text, error):
        # lambda:103 overflows its samples on purpose
        overflow = pytest.warns(RuntimeWarning) if error == "NonFiniteError" else nullcontext()
        with overflow:
            code, out = self.run(tmp_path, "command = symbol-verify\n" + text, "symbol-verify")
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == error
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                     KeyError("missing")])
    def test_unexpected_error_exits_two_with_artifacts(self, tmp_path, monkeypatch, exc):
        def broken(cfg, out):
            raise exc

        monkeypatch.setitem(cli.RUNNERS, "roots-check", broken)
        code, out = self.run(tmp_path, "command = roots-check\nprincipal = wave:2\n",
                             "roots-check")
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == type(exc).__name__
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"report.json"}

    def test_bounded_csv_columns(self, tmp_path):
        text = ("command = bounded-test\nsymbol = xi\ns = 1\n"
                "cutoffs = 8,16\ntrials = 3\n")
        code, out = self.run(tmp_path, text, "bounded-test")
        assert code == 0
        lines = (out / "bounded.csv").read_text().splitlines()
        assert lines[0] == "cutoff,max_ratio"
        assert len(lines) == 3

    def test_reduce_csv_columns(self, tmp_path):
        text = "command = reduce\nprincipal = mixed-cubic\nnum-angles = 2\n"
        code, out = self.run(tmp_path, text, "reduce")
        assert code == 0
        lines = (out / "reduce.csv").read_text().splitlines()
        assert lines[0] == "t,x,angle,branch,re_lambda,im_lambda,resid,cond"
        assert len(lines) == 19  # 18 samples + header

    @pytest.mark.parametrize("principal", ["laplace", "mixed-cubic"])
    def test_reduce_csv_conditioning_is_finite(self, tmp_path, principal):
        text = f"command = reduce\nprincipal = {principal}\nnum-angles = 8\nn = 2\n"
        code, out = self.run(tmp_path, text, "reduce")
        assert code == 0
        with open(out / "reduce.csv") as fh:
            conds = [float(row["cond"]) for row in csv.DictReader(fh)]
        assert conds and all(math.isfinite(c) and c >= 1.0 for c in conds)

    def test_scan_rows_carry_cancellation_ratio(self, tmp_path):
        text = ("command = carleman-scan\nK = 64\nP = 4\nM = 16\n"
                "T-list = 0.25\nkappa-list = 16,64\n")
        code, out = self.run(tmp_path, text, "carleman-scan")
        rows = json.loads((out / "report.json").read_text())["results"]["rows"]
        assert code in (0, 1) and len(rows) == 2
        for row in rows:
            terms = [abs(row[f"term{i}"]) for i in range(1, 7)]
            assert row["cancellation_ratio"] == pytest.approx(sum(terms) / abs(row["gap"]))


    def test_scan_reports_its_work(self, tmp_path):
        # closed forms on 2 horizons x 3 kappas at P = 5: path_blocks =
        # horizons x ceil(P / (2^13 // K)), one block per horizon at K = 64;
        # the report reruns byte for byte
        text = ("command = carleman-scan\nK = 64\nP = 5\nM = 16\nb1 = mod:1\n"
                "T-list = 0.125, 0.25\nkappa-list = 16, 64, 256\n")
        reports = []
        for name in ("a", "b"):
            code, out = self.run(tmp_path, text, "carleman-scan", out_name=name)
            assert code in (0, 1)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        work = json.loads(reports[0])["results"]["work"]
        assert work == {"paths": 30, "path_builds": 10, "brownian_draws": 5,
                        "operator_applies": 3, "path_blocks": 2}


class TestManifest:
    def test_digests_match_files(self, tmp_path):
        text = "command = roots-check\nprincipal = wave:2\n"
        cfg_path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["roots-check", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"hypotheses.json", "report.json"}
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_rerun_byte_identical_modulo_timestamp(self, tmp_path):
        text = "command = reduce\nprincipal = laplace\nnum-angles = 4\n"
        cfg_path = write(tmp_path, text)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["reduce", "--config", cfg_path, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("reduce.csv", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        m0 = json.loads((outs[0] / "manifest.json").read_text())
        m1 = json.loads((outs[1] / "manifest.json").read_text())
        assert m0["files"] == m1["files"]
        m0.pop("timestamp"), m1.pop("timestamp")
        assert m0 == m1

    def test_shipped_configs_rerun_into_the_same_out_dir(self, tmp_path):
        # a rerun into the out dir of the last run removes that run's files
        # and creates each anew: same exit code, names and bytes but for the
        # manifest timestamp, and the manifest digests those bytes
        for cfg in sorted(CONFIGS.glob("*.cfg")):
            out = tmp_path / cfg.stem
            runs = []
            for _ in range(2):
                code = main([parse_config(str(cfg)).command, "--config", str(cfg),
                             "--out", str(out)])
                files = {p.name: p.read_bytes() for p in out.iterdir()}
                manifest = json.loads(files.pop("manifest.json"))
                manifest.pop("timestamp")
                assert manifest["files"] == {name: hashlib.sha256(data).hexdigest()
                                             for name, data in files.items()}, cfg.name
                runs.append((code, files, manifest))
            assert runs[0][0] in (0, 1), cfg.name
            assert runs[0] == runs[1], cfg.name

    def test_error_run_leaves_no_file_of_an_earlier_run(self, tmp_path):
        # a successful scan, then an exit-2 run into the same out dir: only
        # its report and manifest remain, with a file the scan's manifest
        # did not list
        text = ("command = carleman-scan\nK = 64\nP = 2\nM = 16\n"
                "T-list = 0.25\nkappa-list = 16\n")
        out = tmp_path / "out"
        assert main(["carleman-scan", "--config", write(tmp_path, text),
                     "--out", str(out)]) in (0, 1)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json",
                                                         "scan.csv"]
        (out / "notes.txt").write_text("kept\n")
        assert main(["carleman-scan", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.txt",
                                                         "report.json"]
        assert "error" in json.loads((out / "report.json").read_text())
        assert list(json.loads((out / "manifest.json").read_text())["files"]) == ["report.json"]

    @pytest.mark.parametrize("manifest", [
        {"files": {"../outside.txt": "", "sub/inner.txt": "", "sub": "", "..": "", "": "",
                   "data.csv": ""}},
        {"files": ["data.csv"]}, {"files": "data.csv"}, ["data.csv"], "not json"])
    def test_only_listed_plain_names_are_removed(self, tmp_path, manifest):
        # names with a directory part, "..", "" and a directory are left, as is
        # everything a malformed manifest names; the manifest itself goes
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        for path in (tmp_path / "outside.txt", out / "sub" / "inner.txt", out / "data.csv"):
            path.write_text("x")
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        (out / "manifest.json").write_text(text)
        remove_artifacts(out)
        listed = isinstance(manifest, dict) and isinstance(manifest["files"], dict)
        assert (out / "data.csv").exists() != listed
        assert (tmp_path / "outside.txt").exists() and (out / "sub" / "inner.txt").exists()
        assert not (out / "manifest.json").exists()
        remove_artifacts(tmp_path / "absent")  # no manifest, no out dir: nothing to do

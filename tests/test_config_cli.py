"""Config parsing, CLI exit codes, report formats, manifests, reproducibility."""

import csv
import json
import math
from contextlib import nullcontext

import numpy as np
import pytest

from spdolab import ConfigError, parse_config
from spdolab import cli
from spdolab.cli import main
from spdolab.reports import format_number, jsonable, sha256_digest, write_csv


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

    def test_jsonable_coercions(self):
        out = jsonable({"a": np.float64(1.5), "b": np.int32(2), "c": math.inf,
                        "d": np.array([1.0, 2.0]), "e": np.True_})
        assert out == {"a": 1.5, "b": 2, "c": "inf", "d": [1.0, 2.0], "e": True}
        json.dumps(out, allow_nan=False)


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

        real = mod.verify_inequality

        def sabotage(config):
            r = real(config)
            r.verdict = False
            return r

        monkeypatch.setattr("spdolab.cli.carleman.verify_inequality", sabotage)
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


class TestManifest:
    def test_digests_match_files(self, tmp_path):
        text = "command = roots-check\nprincipal = wave:2\n"
        cfg_path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["roots-check", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"hypotheses.json", "report.json"}
        for name, digest in manifest["files"].items():
            assert sha256_digest(out / name) == digest

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

"""The benchmark's workloads: fixed sequences of spdolab runs, each with a check.

A workload is built from its name, the seed and the checkout root alone, so
the launcher and every pass worker derive the same operations. An operation is one program run: a CLI
subcommand on a config, or one library study. Its check returns

    failed    the run produced no usable result (exit 2, an exception, or
              non-finite numbers where the method guarantees finite ones);
    problems  mismatches between a usable result and the independent
              expectation in checks.py (any entry makes the run incorrect);
    paths     Monte Carlo path x cells delivered, when the output checked out;
    samples   characteristic-root samples delivered, likewise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("mc-baseline", "xdep-operators", "roots-audit")

BASELINE = {"a1": "c-dx", "b1": "lambda:1"}
XDEP = {"a1": "trig-lambda:2,1,0,1", "b1": "trig-lambda:1,0,0.5,1"}
PARAMETRIX_SYMBOL = "trig-lambda:2,1,0,1"
SLOPE_TARGET = -0.9
BOUNDED_VARIATION_TOL = 0.10

ROOT_GALLERY = ["wave:1", "wave:2", "laplace", "mixed-cubic",
                "variable-wave:2,0.5,0", "double-root", "from-roots:1,-1,2"]
AUDITED_SYMBOLS = ["lambda:1", "xi", "c-dx", "abs-xi", "trig-lambda:2,1,0,1", "mod-xi:1"]


@dataclass
class Outcome:
    failed: bool = False
    problems: list[str] = field(default_factory=list)
    paths: int = 0
    samples: int = 0


@dataclass
class Op:
    name: str
    subcommand: str | None          # None: a library study, run by `study`
    config: str | None = None       # config text written by the launcher
    shipped: Path | None = None     # or a config shipped in configs/
    check: Callable = None          # (exit code or study result, out_dir) -> Outcome
    study: Callable | None = None
    cli_seed: int | None = None     # passed as --seed (shipped configs only)

    def config_path(self, workdir: Path) -> Path | None:
        if self.shipped is not None:
            return self.shipped
        if self.config is not None:
            return workdir / "configs" / f"{self.name}.cfg"
        return None


def _cfg(**values) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def read_shipped(path: Path) -> dict[str, str]:
    """key = value pairs of a shipped config, comments dropped."""
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if value:
            pairs[key.strip()] = value.strip()
    return pairs


def _report(out: Path) -> dict:
    """report.json; non-finite floats appear as "nan"/"inf", which float() reads."""
    return json.loads((out / "report.json").read_text())


def _error_outcome(rc: int, out: Path) -> Outcome | None:
    if rc == 2:
        err = _report(out).get("error", {}) if (out / "report.json").exists() else {}
        return Outcome(failed=True, problems=[f"exit 2: {err.get('message', '?')}"])
    return None


def _expect_rc(o: Outcome, rc: int, passed: bool) -> None:
    if rc != (0 if passed else 1):
        o.problems.append(f"exit {rc} for verdict {'pass' if passed else 'fail'}")


# ---------------------------------------------------------------------------
# Monte Carlo: carleman-scan with a single-mode Brownian state


def carleman_op(name: str, families: dict, seed: int, paths: int, T_list, kappa_list) -> Op:
    config = _cfg(command="carleman-scan", a1=families["a1"], b1=families["b1"],
                  process="brownian-mode:0.1,1", window="sine", K=512, P=paths, M=128,
                  **{"T-list": ",".join(map(str, T_list)),
                     "kappa-list": ",".join(map(str, kappa_list))}, seed=seed)

    def check(rc, out):
        bad = _error_outcome(rc, out)
        if bad:
            return bad
        rows = _report(out)["results"]["rows"]
        o = Outcome()
        basis = checks.family_vectors(families["a1"], families["b1"], 128, 1)
        cells = [(T, k / (T * T)) for T in T_list for k in kappa_list]
        if len(rows) != len(cells):
            o.problems.append(f"{len(rows)} rows for {len(cells)} cells")
            return o
        for row, (T, mu) in zip(rows, cells):
            prog = np.array([float(row[f"term{i}"]) for i in range(1, 7)])
            lhs, gap, se = float(row["lhs"]), float(row["gap"]), float(row["se"])
            if not np.all(np.isfinite(np.append(prog, [lhs, gap, se]))):
                o.failed = True
                o.problems.append(f"non-finite terms at T={T}, mu={mu:g}")
                continue
            amp = checks.brownian_mode_amplitude(seed, paths, 512, T, 0.1)
            ref = checks.carleman_summary(checks.carleman_cell(amp, basis, mu, T))
            # ratios and verdicts do not change under a common rescaling of the weight
            if not np.allclose(prog / lhs, ref["terms"] / ref["lhs"], rtol=0, atol=1e-9):
                o.problems.append(f"term/lhs mismatch at T={T}, mu={mu:g}")
            if not checks.close(gap / se, ref["gap"] / ref["se"], 1e-7, 1e-9):
                o.problems.append(f"gap/se {gap / se} vs {ref['gap'] / ref['se']} at T={T}")
            if bool(row["verdict"]) != ref["verdict"] or abs(float(row["mu"]) - mu) > 1e-9 * mu:
                o.problems.append(f"verdict or mu differs at T={T}, mu={mu:g}")
        if not o.failed:
            _expect_rc(o, rc, all(bool(r["verdict"]) for r in rows))
        if not o.failed and not o.problems:
            o.paths = paths * len(rows)
        return o

    return Op(name, "carleman-scan", config=config, check=check)


# ---------------------------------------------------------------------------
# quantization and parametrices


def _parametrix_rows(out: Path) -> list[tuple[int, float]]:
    with open(out / "parametrix.csv") as fh:
        return [(int(r["frequency"]), float(r["residual_norm"])) for r in csv.DictReader(fh)]


def parametrix_cli_op(name: str, *, symbol: str = PARAMETRIX_SYMBOL, dim: int, m: int,
                      cutoff: float, shipped: Path | None = None) -> Op:
    config = None if shipped else _cfg(command="elliptic-parametrix", symbol=symbol,
                                       cutoff=cutoff, M=m, n=dim)

    def check(rc, out):
        bad = _error_outcome(rc, out)
        if bad:
            return bad
        o = Outcome()
        res = _report(out)["results"]
        rows = _parametrix_rows(out)
        torus = checks.Torus(dim, m)
        ks, left, right = [], [], []
        for k, resid in rows:
            # the direction of a 2-D scan mode is not fixed by the runner's contract
            candidates = [(k,)] if dim == 1 else [(k, 0), (0, k), (k, k)]
            fits = []
            for mode in candidates:
                lv, rv = checks.parametrix_residuals(symbol, torus, cutoff, mode)
                fits.append((abs(checks.norm(lv) - resid), checks.norm(lv), checks.norm(rv)))
            err, lnorm, rnorm = min(fits)
            if not math.isfinite(resid):
                o.failed = True
            elif err > 1e-12 + 1e-8 * lnorm:
                o.problems.append(f"left residual at k={k}: {resid} vs {lnorm}")
            ks.append(k)
            left.append(lnorm)
            right.append(rnorm)
        slopes = checks.loglog_slope(ks, left), checks.loglog_slope(ks, right)
        for side, expect in zip(("left_slope", "right_slope"), slopes):
            got = float(res[side])
            # right residuals fall geometrically, so their fit carries ~1e-7 rounding
            if not checks.close(got, expect, 1e-4, 1e-9):
                o.problems.append(f"{side} {got} vs {expect}")
            if not expect <= SLOPE_TARGET:
                o.problems.append(f"{side} {expect} above {SLOPE_TARGET}")
        passed = all(v <= SLOPE_TARGET for v in slopes)
        if bool(res["passed"]) != passed:
            o.problems.append(f"verdict {res['passed']}, expected {passed}")
        _expect_rc(o, rc, passed)
        return o

    return Op(name, "elliptic-parametrix", config=config, shipped=shipped, check=check)


def parametrix_study_op(seed: int) -> Op:
    """2-D 64^2 quantize + parametrix, residuals on two pure modes as 2-tuples,
    in the style of scripts/parametrix_slope_study.py."""
    rng = np.random.default_rng([seed, 64])
    modes = [(int(rng.integers(17, 31)), 0),
             (int(rng.integers(12, 23)), int(rng.integers(12, 23)))]
    cutoff = 8.0

    def study():
        from spdolab import catalog, operators
        from spdolab.grid import SpectralField, TorusGrid

        grid = TorusGrid(2, 64)
        op = operators.quantize(catalog.make_symbol(PARAMETRIX_SYMBOL), grid)
        built = operators.parametrix(op, lower_frequency_bound=cutoff)
        cols = np.stack([SpectralField.pure_mode(grid, k).values.ravel() for k in modes], axis=1)
        # one streamed pass of A serves both the modes and R applied to them
        a_cols = op.apply_many(np.hstack([cols, built.right.apply_many(cols)]))
        n = len(modes)
        left = built.left.apply_many(a_cols[:, :n]) - cols
        return {"a": a_cols[:, :n], "left": left, "right": a_cols[:, n:] - cols}

    def check(result, out):
        o = Outcome()
        if not all(np.all(np.isfinite(v)) for v in result.values()):
            return Outcome(failed=True, problems=["non-finite apply"])
        torus = checks.Torus(2, 64)
        f, g = checks.separated_factors(PARAMETRIX_SYMBOL)
        for j, k in enumerate(modes):
            # a left-quantized symbol maps e^{ik.x} to a(x, k) e^{ik.x}
            expect_a = f(torus.x[0]) * g(tuple(np.array(float(c)) for c in k)) * torus.mode(k)
            if checks.norm(result["a"][:, j] - expect_a.ravel()) > 1e-10 * checks.norm(expect_a):
                o.problems.append(f"A e^(ik.x) differs for k={k}")
            lv, rv = checks.parametrix_residuals(PARAMETRIX_SYMBOL, torus, cutoff, k)
            for side, got, expect in (("left", result["left"][:, j], lv),
                                      ("right", result["right"][:, j], rv)):
                if checks.norm(got - expect.ravel()) > 1e-9:
                    o.problems.append(f"{side} residual differs for k={k}")
        return o

    return Op("parametrix-2d-64", None, check=check, study=study)


def bounded_op(shipped: Path, seed: int) -> Op:
    cfg = read_shipped(shipped)  # defaults as in docs/config.md
    spec = {"symbol": cfg["symbol"], "s": float(cfg.get("s", 1.0)),
            "order": checks.true_order(cfg["symbol"]),
            "cutoffs": tuple(int(c) for c in cfg.get("cutoffs", "32,64,128").split(",")),
            "trials": int(cfg.get("trials", 10))}

    def check(rc, out):
        bad = _error_outcome(rc, out)
        if bad:
            return bad
        o = Outcome()
        with open(out / "bounded.csv") as fh:
            got = [float(r["max_ratio"]) for r in csv.DictReader(fh)]
        expect = checks.bounded_ratios(spec["symbol"], spec["s"], spec["order"],
                                       spec["cutoffs"], spec["trials"], seed)
        if len(got) != len(expect) or not np.allclose(got, expect, rtol=1e-9, atol=0):
            o.problems.append(f"max ratios {got} vs {expect}")
        variation = (max(expect) - min(expect)) / min(expect)
        res = _report(out)["results"]
        if not checks.close(float(res["variation"]), variation, 1e-8, 1e-12):
            o.problems.append(f"variation {res['variation']} vs {variation}")
        passed = variation < BOUNDED_VARIATION_TOL
        if not passed:
            o.problems.append(f"variation {variation} not below {BOUNDED_VARIATION_TOL}")
        if bool(res["passed"]) != passed:
            o.problems.append(f"verdict {res['passed']}, expected {passed}")
        _expect_rc(o, rc, passed)
        return o

    # the shipped config has no seed; it comes from the command line
    return Op("bounded-test-shipped", "bounded-test", shipped=shipped, check=check, cli_seed=seed)


# ---------------------------------------------------------------------------
# characteristic roots, reduction, symbol audits


def roots_op(selector: str, dim: int, *, name: str | None = None, epsilon: float = 0.1,
             num_angles: int = 64, num_x: int = 8) -> Op:
    config = _cfg(command="roots-check", principal=selector, n=dim, epsilon=epsilon,
                  **{"num-angles": num_angles, "num-x": num_x})

    def check(rc, out):
        bad = _error_outcome(rc, out)
        if bad:
            return bad
        o = Outcome()
        got = json.loads((out / "hypotheses.json").read_text())
        expect = checks.hypothesis_margins(selector, dim, num_angles, num_x)
        for key in ("h1_margin", "h2_margin", "h3_margin"):
            if not checks.close(float(got[key]), expect[key], 1e-9, 1e-9):
                o.problems.append(f"{key} {got[key]} vs {expect[key]}")
        if got["num_samples"] != expect["num_samples"]:
            o.problems.append(f"num_samples {got['num_samples']} vs {expect['num_samples']}")
        passed = all(expect[k] >= epsilon for k in ("h1_margin", "h2_margin", "h3_margin"))
        if bool(got["all_pass"]) != passed:
            o.problems.append(f"all_pass {got['all_pass']}, expected {passed}")
        _expect_rc(o, rc, passed)
        if not o.problems:
            o.samples = int(got["num_samples"])
        return o

    return Op(name or f"roots-{selector}-n{dim}", "roots-check", config=config, check=check)


def reduce_op(selector: str, dim: int, *, name: str | None = None,
              num_angles: int = 64, num_x: int = 8) -> Op:
    config = _cfg(command="reduce", principal=selector, n=dim,
                  **{"num-angles": num_angles, "num-x": num_x})

    def check(rc, out):
        bad = _error_outcome(rc, out)
        if bad:
            return bad
        o = Outcome()
        with open(out / "reduce.csv") as fh:
            rows = list(csv.DictReader(fh))
        groups: dict[tuple, list] = {}
        for r in rows:
            key = (r["t"], r["x"], r["angle"])
            groups.setdefault(key, []).append(r)
            if not float(r["resid"]) <= 1e-8:
                o.problems.append(f"residual {r['resid']} above 1e-8")
                break
        m = len(checks.closed_form_roots(selector, (0.0,), checks.directions(dim, num_angles)[0]))
        num_pos = num_x if checks.x_dependent(selector) else 1
        expect_rows = 3 * num_pos * len(checks.directions(dim, num_angles)) * m
        if len(rows) != expect_rows:
            o.problems.append(f"{len(rows)} rows, expected {expect_rows}")
        for (t, x, angle), group in groups.items():
            a = float(angle)
            d = np.array([math.cos(a)]) if dim == 1 else np.array([math.cos(a), math.sin(a)])
            expect = checks.closed_form_roots(selector, (float(x),), d)
            found = np.array([float(r["re_lambda"]) + 1j * float(r["im_lambda"]) for r in group])
            if not checks.match_roots(found, expect, 1e-9 * (1.0 + np.abs(expect).max())):
                o.problems.append(f"eigenvalues at x={x}, angle={angle} differ from roots")
                break
        res = _report(out)["results"]
        if res["samples"] != len(rows):
            o.problems.append(f"report samples {res['samples']} vs {len(rows)} rows")
        _expect_rc(o, rc, True)
        if not o.problems:
            o.samples = int(res["samples"])
        return o

    return Op(name or f"reduce-{selector}-n{dim}", "reduce", config=config, check=check)


def audit_op(selector: str, dim: int = 1, *, declared: float | None = None,
             name: str | None = None, shipped: Path | None = None) -> Op:
    values = {"command": "symbol-verify", "symbol": selector, "n": dim}
    if declared is not None:
        values["l"] = declared
    config = None if shipped else _cfg(**values)
    true_order = checks.true_order(selector)
    declared = true_order if declared is None else declared

    def check(rc, out):
        bad = _error_outcome(rc, out)
        if bad:
            return bad
        o = Outcome()
        res = _report(out)["results"]
        fitted = float(res["fitted_order"])
        if not abs(fitted - true_order) <= 0.05:
            o.problems.append(f"fitted order {fitted} not within 0.05 of {true_order}")
        # a true declaration passes; one below the true order must be rejected
        passed = declared >= true_order
        if bool(res["passed"]) != passed:
            o.problems.append(f"audit verdict {res['passed']}, expected {passed}")
        _expect_rc(o, rc, passed)
        return o

    return Op(name or f"audit-{selector}-n{dim}", "symbol-verify", config=config,
              shipped=shipped, check=check)


def shipped_audit_op(name: str, shipped: Path) -> Op:
    cfg = read_shipped(shipped)
    declared = float(cfg["l"]) if "l" in cfg else None
    return audit_op(cfg["symbol"], int(cfg.get("n", 1)), declared=declared, name=name,
                    shipped=shipped)


# ---------------------------------------------------------------------------
# workloads


def probe(seed: int, *layers: str, roots_grid: tuple[int, int] = (256, 16)) -> list[Op]:
    """One small run of each named layer that the workload's own runs leave
    out, so that every metric has a value on every workload. The Carleman and
    roots probes take an eighth of a pass or more, so that the rate they give
    is measured over several seconds of every run. `roots_grid` is the roots
    probe's angles x positions."""
    angles, positions = roots_grid
    runs = {
        "carleman": lambda: carleman_op("probe-carleman", XDEP, seed, 16, (0.25,), (16, 64)),
        "roots": lambda: roots_op("wave:1", 2, name="probe-roots", num_angles=angles,
                                  num_x=positions),
        "reduce": lambda: reduce_op("laplace", 2, name="probe-reduce"),
        "audit": lambda: audit_op("lambda:1", name="probe-audit"),
        "parametrix": lambda: parametrix_cli_op("probe-parametrix", dim=1, m=32, cutoff=2.0),
    }
    return [runs[layer]() for layer in layers]


def mc_baseline(seed: int, configs: Path) -> list[Op]:
    return [
        carleman_op("baseline-scan", BASELINE, seed, 8, (0.0625, 0.125, 0.25), (16, 64, 256)),
        # known fault: the weight e^kappa overflows, every term is NaN; fixed
        # seed so that the failing input does not depend on --seed
        carleman_op("kappa1024-cell", BASELINE, 0, 8, (0.25,), (1024,)),
        # the roots probe takes about as long as the scan, so both rates are
        # measured over similar shares of the run
        *probe(seed, "roots", "reduce", "audit", "parametrix", roots_grid=(256, 12)),
    ]


def xdep_operators(seed: int, configs: Path) -> list[Op]:
    shipped = configs / "elliptic-parametrix.cfg"
    cfg = read_shipped(shipped)  # defaults as in docs/config.md
    return [
        parametrix_study_op(seed),
        parametrix_cli_op("elliptic-parametrix-shipped", symbol=cfg["symbol"],
                          dim=int(cfg.get("n", 1)), m=int(cfg.get("M", 128)),
                          cutoff=float(cfg.get("cutoff", 1.0)), shipped=shipped),
        # known fault: the residual scan builds 1-tuple modes on a 2-D grid (exit 2)
        parametrix_cli_op("elliptic-parametrix-2d-32", dim=2, m=32, cutoff=2.0),
        bounded_op(configs / "bounded-test.cfg", seed),
        carleman_op("xdep-scan", XDEP, seed, 32, (0.125, 0.25), (16, 64)),
        *probe(seed, "roots", "reduce", "audit"),
    ]


def roots_audit(seed: int, configs: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    c = float(rng.choice([0.5, 1.5, 2.5, 3.0]))
    triple = [float(v) for v in rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0], 3, replace=False)]
    s = float(rng.choice([-1.0, -0.5, 0.5, 1.5, 2.0]))
    principals = ROOT_GALLERY + [f"wave:{c:g}", "from-roots:" + ",".join(f"{v:g}" for v in triple)]
    # 32 angles x 8 positions keeps a pass near 4.5 s, so a run holds many passes
    ops = [roots_op(p, n, num_angles=32) for n in (1, 2) for p in principals]
    ops += [reduce_op(p, n, num_angles=32) for n in (1, 2) for p in principals
            if p != "double-root"]
    ops += [audit_op(sym, n) for n in (1, 2) for sym in AUDITED_SYMBOLS + [f"lambda:{s:g}"]]
    ops += [shipped_audit_op("audit-shipped", configs / "symbol-verify.cfg"),
            shipped_audit_op("audit-misdeclared-shipped", configs / "symbol-verify-misdeclared.cfg")]
    return ops + probe(seed, "carleman", "parametrix")


def build(workload: str, seed: int, root: Path) -> list[Op]:
    builders = {"mc-baseline": mc_baseline, "xdep-operators": xdep_operators,
                "roots-audit": roots_audit}
    return builders[workload](seed, root / "configs")

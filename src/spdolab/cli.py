"""Command-line harness: one subcommand per experiment, deterministic outputs.

    spdo-lab <subcommand> --config <file> [--seed <u64>] [--out <dir>]

Exit status: 0 when every verdict passes, 1 when any verdict fails, 2 on
configuration, module or any other error (recorded as a structured entry in
report.json). Every run emits its data files, then report.json, then
manifest.json with sha256 digests of everything else; the manifest is the
only file carrying a timestamp, so reruns with the same config and seed are
byte-identical elsewhere.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import carleman, catalog, reduction
from .config import COMMAND_ALIASES, COMMANDS, ExperimentConfig, parse_config
from .errors import ConfigError, SpdoLabError
from .grid import TorusGrid
from .operators import boundedness_harness, parametrix, parametrix_residual_scan, quantize
from .reports import environment_stamp, write_csv, write_json, write_manifest
from .symbols import check_elliptic, check_hypotheses, verify_symbol_order

SLOPE_TARGET = -0.9
REDUCE_RESID_TOL = 1e-8
BOUNDED_VARIATION_TOL = 0.10


def _index_label(index: tuple[int, ...]) -> str:
    return ";".join(str(i) for i in index)


def run_symbol_verify(cfg: ExperimentConfig, out: Path):
    sym = catalog.make_symbol(cfg["symbol"])
    if "l" in cfg.values:
        sym = catalog.with_declared_order(sym, float(cfg["l"]))
    report = verify_symbol_order(sym, dim=cfg["n"], seed=cfg["seed"])
    rows = [(_index_label(e.alpha), _index_label(e.beta), e.fitted_exponent,
             e.bound, e.max_magnitude, e.passed) for e in report.entries]
    files = [write_csv(out / "order.csv",
                       ["alpha", "beta", "fitted_exponent", "bound",
                        "max_magnitude", "verdict"], rows)]
    results = {
        "symbol": sym.name,
        "declared_order": report.declared_order,
        "fitted_order": report.fitted_order(),
        "passed": report.passed,
    }
    return report.passed, files, results


def run_bounded_test(cfg: ExperimentConfig, out: Path):
    sym = catalog.make_symbol(cfg["symbol"])
    report = boundedness_harness(sym, float(cfg["s"]), cutoffs=cfg["cutoffs"],
                                 trials=cfg["trials"], seed=cfg["seed"])
    files = [write_csv(out / "bounded.csv", ["cutoff", "max_ratio"],
                       [(r.cutoff, r.max_ratio) for r in report.rows])]
    ok = report.variation < BOUNDED_VARIATION_TOL
    results = {
        "symbol": sym.name,
        "s": float(cfg["s"]),
        "max_ratio": report.max_ratio,
        "variation": report.variation,
        "variation_tolerance": BOUNDED_VARIATION_TOL,
        "passed": ok,
    }
    return ok, files, results


def run_elliptic_parametrix(cfg: ExperimentConfig, out: Path):
    sym = catalog.make_symbol(cfg["symbol"])
    grid = TorusGrid(cfg["n"], cfg["M"])
    op = quantize(sym, grid)
    built = parametrix(op, lower_frequency_bound=float(cfg["cutoff"]), seed=cfg["seed"])
    left = parametrix_residual_scan(built, op, side="left")
    right = parametrix_residual_scan(built, op, side="right")
    rows = [(r.frequency, r.residual_norm, left.fitted_slope) for r in left.rows]
    files = [write_csv(out / "parametrix.csv",
                       ["frequency", "residual_norm", "fitted_slope"], rows)]
    ok = left.fitted_slope <= SLOPE_TARGET and right.fitted_slope <= SLOPE_TARGET
    results = {
        "symbol": sym.name,
        "ellipticity_constant": built.ellipticity.constant_estimate,
        "taper_window": [float(cfg["cutoff"]), built.taper_top],
        "left_slope": left.fitted_slope,
        "right_slope": right.fitted_slope,
        "slope_target": SLOPE_TARGET,
        "passed": ok,
    }
    return ok, files, results


def run_roots_check(cfg: ExperimentConfig, out: Path):
    ps = catalog.make_principal(cfg["principal"])
    report = check_hypotheses(ps, dim=cfg["n"], epsilon=float(cfg["epsilon"]),
                              num_angles=cfg["num-angles"], num_x=cfg["num-x"],
                              seed=cfg["seed"])
    payload = {"principal": cfg["principal"], "m": ps.m, **report.as_dict()}
    files = [write_json(out / "hypotheses.json", payload)]
    return report.all_pass, files, payload


def run_reduce(cfg: ExperimentConfig, out: Path):
    ps = catalog.make_principal(cfg["principal"])
    rows = reduction.reduction_table(ps, dim=cfg["n"], num_angles=cfg["num-angles"],
                                     num_x=cfg["num-x"], seed=cfg["seed"])
    files = [write_csv(out / "reduce.csv",
                       ["t", "x", "angle", "branch", "re_lambda", "im_lambda", "resid",
                        "cond"],
                       [(r.t, r.x, r.angle, r.branch, r.re_lambda, r.im_lambda,
                         r.resid, r.cond) for r in rows])]
    max_resid = max((r.resid for r in rows), default=0.0)
    ok = max_resid <= REDUCE_RESID_TOL
    results = {
        "principal": cfg["principal"],
        "m": ps.m,
        "samples": len(rows),
        "max_resid": max_resid,
        "resid_tolerance": REDUCE_RESID_TOL,
        "passed": ok,
    }
    return ok, files, results


def run_carleman_scan(cfg: ExperimentConfig, out: Path):
    # every horizon comes from T-list, so the base horizon is never read
    base = carleman.CarlemanConfig(
        mu=1.0, steps=cfg["K"], paths=cfg["P"],
        grid_points=cfg["M"], dim=cfg["n"], a1=cfg["a1"], b1=cfg["b1"],
        process=cfg["process"], window=cfg["window"], seed=cfg["seed"])
    result = carleman.scan(base, mu_list=cfg.get("mu-list"),
                           T_list=cfg["T-list"], kappa_list=cfg["kappa-list"])
    header = ["mu", "T", "K", "P", "lhs", "rhs", "gap", "se", "verdict",
              "term1", "term2", "term3", "term4", "term5", "term6"]
    rows = [(r.mu, r.horizon, r.steps, r.paths, r.lhs_mean, r.rhs_mean, r.gap,
             r.gap_se, r.verdict, *[float(v) for v in r.term_means])
            for r in result.rows]
    files = [write_csv(out / "scan.csv", header, rows)]
    results = {
        "summary": result.summary,
        "rows": [r.as_dict() for r in result.rows],
        "passed": result.all_pass(),
    }
    return result.all_pass(), files, results


RUNNERS = {
    "symbol-verify": run_symbol_verify,
    "bounded-test": run_bounded_test,
    "elliptic-parametrix": run_elliptic_parametrix,
    "roots-check": run_roots_check,
    "reduce": run_reduce,
    "carleman-scan": run_carleman_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdo-lab",
        description="desk-scale experiments for stochastic pseudo-differential "
                    "operator calculus")
    parser.add_argument("subcommand", choices=sorted(COMMANDS) + sorted(COMMAND_ALIASES))
    parser.add_argument("--config", required=True, help="key = value experiment file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="output directory (default runs/<subcommand>)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    subcommand = COMMAND_ALIASES.get(args.subcommand, args.subcommand)
    out = Path(args.out) if args.out is not None else Path("runs") / subcommand
    out.mkdir(parents=True, exist_ok=True)

    cfg = None
    try:
        cfg = parse_config(args.config)
        if cfg.command != subcommand:
            raise ConfigError(
                f"config command {cfg.command!r} does not match CLI subcommand "
                f"{subcommand!r}", key="command")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative", key="seed")
            cfg.values["seed"] = args.seed
        ok, files, results = RUNNERS[subcommand](cfg, out)
        report = {
            "command": subcommand,
            "config": cfg.echo(),
            "environment": environment_stamp(),
            "results": results,
            "verdict": "pass" if ok else "fail",
        }
        files.append(write_json(out / "report.json", report))
        write_manifest(out, subcommand, cfg.values.get("seed", 0), files)
        return 0 if ok else 1
    except Exception as exc:
        # the run's boundary: any failure still leaves report.json and manifest.json
        if not isinstance(exc, (SpdoLabError, ValueError)):
            traceback.print_exc()
        record = {
            "command": subcommand,
            "config": cfg.echo() if cfg is not None else None,
            "environment": environment_stamp(),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        files = [write_json(out / "report.json", record)]
        seed = cfg.values.get("seed", 0) if cfg is not None else 0
        write_manifest(out, subcommand, seed, files)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""spdolab benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: mc-baseline, xdep-operators,
roots-audit, or `all` for each in turn. The launcher writes the workload's
configs, then runs whole passes, one fresh worker process at a time, and
starts none that would likely end after S seconds; the first two passes
always run. Before each untraced pass it starts one set-up-only interpreter,
so that set-up is sampled across the whole run. Every metric is a median over
the untraced passes of the run. With --trace 1, passes alternate untraced and
traced, and the per-layer figures of the traced passes are reported with the
tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Workers run with one BLAS/OpenMP thread and without SPDO_LAB_THREADS. Outputs,
configs and span files go to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES_PER_PASS = 1
MIN_PASSES = 2
PASS_TIMEOUT_S = 150


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SPDO_LAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(root: Path, workdir: Path, workload: str, seed: int, index: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), str(workdir), workload,
           str(seed), str(index), "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} pass {index} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rate(one_pass: dict, key: str) -> float:
    """Work per second of one pass, over every operation that delivered `key` work."""
    timed = [o for o in one_pass["ops"] if o[key] > 0]
    seconds = sum(o["seconds"] for o in timed)
    return sum(o[key] for o in timed) / seconds if seconds > 0 else 0.0


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Run passes for `seconds`; return the result object and a record of the run."""
    workdir = root / ".perfbench_runs" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "configs").mkdir(parents=True)
    ops = workloads.build(workload, seed, root)
    paths = []
    for op in ops:
        path = op.config_path(workdir)
        if op.config is not None:
            path.write_text(op.config)
        if path is not None:
            paths.append(str(path))
    (workdir / "configs.txt").write_text("\n".join(paths) + "\n")

    setups = []
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        if not trace:
            setups += [run_worker(root, workdir, workload, seed, -1, False)["setup_s"]
                       for _ in range(SETUP_PROBES_PER_PASS)]
        result = run_worker(root, workdir, workload, seed, len(passes), traced)
        result["traced"] = traced
        passes.append(result)
        now = time.perf_counter()
        # start no pass expected to end past the budget; a median needs two
        # passes, and a traced run one of each kind
        if now - start + (now - began) > seconds and len(passes) >= MIN_PASSES:
            break

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(o["failed"] for p in passes for o in p["ops"])
    problems = [f"pass {i} {o['name']}: {msg}" for i, p in enumerate(passes)
                for o in p["ops"] if not o["failed"] for msg in o["problems"]]
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        traced_runs = [p for p in passes if p["traced"]]
        names = list(traced_runs[0]["layers"])
        values = {n: statistics.median(p["layers"][n] for p in traced_runs) for n in names}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced_runs)
                                      - statistics.median(p["wall_s"] for p in untraced))
        declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(p["wall_s"] for p in untraced),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
                  "mc_paths_per_s": statistics.median(rate(p, "paths") for p in untraced),
                  "root_samples_per_s": statistics.median(rate(p, "samples")
                                                          for p in untraced)}
        declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"measured and declared metrics differ: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "blas_threads": BLAS_THREADS, "passes": len(passes), "setup_s": setups,
              "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_paths_per_s": [rate(p, "paths") for p in passes],
              "pass_samples_per_s": [rate(p, "samples") for p in passes],
              "traced_passes": [p["traced"] for p in passes],
              "problems": problems,
              "failed_ops": sorted({o["name"] for p in passes for o in p["ops"] if o["failed"]})}
    (workdir / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def main() -> int:
    # a terminated launcher exits normally, so subprocess.run stops its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "spdolab" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} holds no src/spdolab and configs/; run from the root of a "
              "spdolab checkout",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res, record = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(f"# {name}: seed {args.seed}, {record['passes']} passes, "
              f"{BLAS_THREADS} BLAS thread, attempted {res['attempted']}, failed {res['failed']}"
              + (f" ({', '.join(record['failed_ops'])})" if record["failed_ops"] else ""))
        for metric, entry in res["metrics"].items():
            print(f"#   {metric:36s} {entry['value']:.6g} {entry['unit']}")
        for msg in record["problems"][:20]:
            print(f"# PROBLEM {msg}")
    if args.workload == "all":
        print(json.dumps(results))
        ok = all(r["correct"] for r in results.values())
    else:
        print(json.dumps(results[args.workload]))
        ok = results[args.workload]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

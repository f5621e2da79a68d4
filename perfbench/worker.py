"""One pass over a workload, in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKDIR WORKLOAD SEED PASS TRACE

Measures set-up (import spdolab.cli and parse the workload's configs) from
the first line of this file, so nothing heavy may be imported above that
point. With PASS = -1 it stops after set-up. Otherwise it runs every
operation of the workload in order, checks each output, and prints one JSON
line: set-up and pass wall time, peak resident memory, per-operation outcomes
and, when TRACE is 1, the per-layer figures. Spans go to WORKDIR at the end.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    root, workdir = Path(sys.argv[1]), Path(sys.argv[2])
    workload, seed, index, traced = sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6] == "1"
    sys.path.insert(0, str(root / "src"))

    from spdolab import cli
    from spdolab.config import parse_config

    for line in (workdir / "configs.txt").read_text().splitlines():
        parse_config(line)
    setup_s = time.perf_counter() - START
    if index < 0:
        print(json.dumps({"setup_s": setup_s}))
        return

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from spans import Tracer, install, layer_metrics

    if not cli.__file__.startswith(str(root / "src")):
        raise SystemExit(f"spdolab imported from {cli.__file__}, not from {root / 'src'}")

    tracer = Tracer() if traced else None
    if tracer is not None:
        install(tracer)

    results = []
    for op in workloads.build(workload, seed, root):
        out = workdir / "out" / op.name
        record = {"name": op.name, "seconds": 0.0}
        scope = tracer.span(f"bench.{op.name}") if tracer is not None else contextlib.nullcontext()
        try:
            if op.subcommand is None:
                run = op.study
            else:
                argv = [op.subcommand, "--config", str(op.config_path(workdir)),
                        "--out", str(out)]
                if op.cli_seed is not None:
                    argv += ["--seed", str(op.cli_seed)]
                run = lambda: cli.main(argv)  # noqa: E731
            t0 = time.perf_counter()
            with scope:
                produced = run()
            record["seconds"] = time.perf_counter() - t0
            outcome = op.check(produced, out)
        except Exception:  # a crash is a failed operation, recorded with its traceback
            outcome = workloads.Outcome(failed=True, problems=[traceback.format_exc(limit=3)])
        record.update(failed=outcome.failed, problems=outcome.problems,
                      paths=outcome.paths, samples=outcome.samples)
        results.append(record)

    summary = {
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer)
        tracer.dump(workdir / f"spans-pass{index}.json")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

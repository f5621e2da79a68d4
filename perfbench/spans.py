"""Span tracing around spdolab's public calls, installed from outside the package.

`install()` replaces selected module functions and methods with wrappers that
record one span per call (name, start, end, parent, work) in memory, plus two
plain counters for calls too frequent to span: SpectralField constructions
and the (x, xi) points at which catalog symbols are evaluated. A function that
another module imported by name is replaced in that module as well, so the
program's own call sites reach the wrapper. Nothing in spdolab is edited.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span for the enclosed block; yields its record."""
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record[4] = work(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive time, self time, and work, counting only
        spans whose parent has a different name (outermost of a nested chain)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive": 0.0, "self": 0.0, "work": 0})
        for i, (name, start, end, parent, work) in enumerate(self.spans):
            entry = out[name]
            entry["self"] += (end - start) - child_time[i]
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            entry["calls"] += 1
            entry["inclusive"] += end - start
            entry["work"] += work
        return out


def _columns(args, result):
    values = args[1]
    return int(values.shape[-1]) if values.ndim > 1 else 1


def _file_bytes(args, result):
    return result.stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries. A name the program no longer has is skipped,
    so its figures read 0 instead of the traced run failing."""
    from spdolab import carleman, catalog, cli, config, grid, operators, reduction, reports, symbols

    def patch(name, owners, attr, work=None):
        owners = [o for o in owners if o is not None and hasattr(o, attr)]
        if not owners:
            return
        original = getattr(owners[0], attr)
        wrapped = tracer.wrap(name, original, work)
        for owner in owners:
            if getattr(owner, attr) is original:
                setattr(owner, attr, wrapped)

    def cls(name):
        return getattr(operators, name, None)

    patch("paths.simulate", [carleman], "resolve_process")
    patch("carleman.path_terms", [carleman], "path_terms")
    patch("carleman.cell", [carleman], "verify_inequality")

    patch("operators.apply", [cls("_OperatorBase")], "apply", lambda a, r: 1)
    patch("operators.apply", [cls("LambdaOperator")], "apply", lambda a, r: 1)
    for name in ("SpdoOperator", "MatrixOperator", "LambdaOperator"):
        patch("operators.apply", [cls(name)], "apply_many", _columns)
    patch("operators.dense", [cls("SpdoOperator")], "dense_matrix")
    patch("operators.dense", [cls("SpdoOperator")], "adjoint")
    patch("operators.dense", [cls("LambdaOperator")], "dense_matrix")
    patch("operators.parametrix", [operators, cli], "parametrix")

    patch("symbols.root_solve", [symbols, reduction], "characteristic_roots")
    patch("symbols.audit", [symbols, cli], "verify_symbol_order")
    patch("symbols.ellipticity", [symbols, operators, cli], "check_elliptic")

    patch("reduction.diagonalize", [reduction], "diagonalize")
    patch("reduction.table", [reduction], "reduction_table")

    patch("config.parse", [config, cli], "parse_config")
    patch("cli.main", [cli], "main")
    for sub, runner in list(cli.RUNNERS.items()):
        cli.RUNNERS[sub] = tracer.wrap("cli.runner", runner)
    # write_manifest calls write_json: only the outer span's bytes count
    for attr in ("write_csv", "write_json", "write_manifest"):
        patch("reports.write", [reports, cli], attr, _file_bytes)

    counters = tracer.counters
    field_cls = getattr(grid, "SpectralField", None)
    if field_cls is not None:
        post_init = field_cls.__post_init__

        def counted_post_init(self):
            counters["grid.fields_created"] += 1
            post_init(self)

        field_cls.__post_init__ = counted_post_init

    make_symbol = catalog.make_symbol

    def counted_make_symbol(selector):
        sym = make_symbol(selector)
        fn = sym.fn

        def counted_fn(t, slc, x, xi):
            shape = np.broadcast_shapes(*(np.shape(c) for c in tuple(x) + tuple(xi)))
            counters["catalog.symbol_points"] += int(np.prod(shape, dtype=np.int64))
            return fn(t, slc, x, xi)

        sym.fn = counted_fn
        return sym

    catalog.make_symbol = counted_make_symbol


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    t = tracer.totals()

    def inc(name):
        return t[name]["inclusive"] if name in t else 0.0

    def calls(name):
        return t[name]["calls"] if name in t else 0

    def per_call(name, scale):
        return inc(name) / calls(name) * scale if calls(name) else 0.0

    return {
        "grid.fields_created": tracer.counters["grid.fields_created"],
        "paths.processes": calls("paths.simulate"),
        "paths.simulate_s": inc("paths.simulate"),
        "paths.simulate_ms_per_path": per_call("paths.simulate", 1e3),
        "carleman.cells": calls("carleman.cell"),
        "carleman.path_terms_s": inc("carleman.path_terms"),
        "carleman.path_terms_ms_per_path": per_call("carleman.path_terms", 1e3),
        "carleman.aggregate_s": t["carleman.cell"]["self"] if "carleman.cell" in t else 0.0,
        "operators.applies": calls("operators.apply"),
        "operators.columns_applied": t["operators.apply"]["work"] if "operators.apply" in t else 0,
        "operators.apply_s": inc("operators.apply"),
        "operators.dense_builds": calls("operators.dense"),
        "operators.dense_build_s": inc("operators.dense"),
        "operators.parametrix_s": inc("operators.parametrix"),
        "catalog.symbol_points": tracer.counters["catalog.symbol_points"],
        "symbols.root_solves": calls("symbols.root_solve"),
        "symbols.root_solve_s": inc("symbols.root_solve"),
        "symbols.root_solve_us_per_call": per_call("symbols.root_solve", 1e6),
        "symbols.audit_s": inc("symbols.audit"),
        "symbols.ellipticity_s": inc("symbols.ellipticity"),
        "reduction.diagonalizations": calls("reduction.diagonalize"),
        "reduction.diagonalize_s": inc("reduction.diagonalize"),
        "reduction.table_s": t["reduction.table"]["self"] if "reduction.table" in t else 0.0,
        "config.parse_s": inc("config.parse"),
        "cli.runs": calls("cli.main"),
        "cli.runner_s": inc("cli.runner"),
        "reports.write_s": inc("reports.write"),
        "reports.bytes_written": t["reports.write"]["work"] if "reports.write" in t else 0,
    }

#!/usr/bin/env python3
"""Hypothesis margins and branch structure for every catalog principal symbol."""

from spdolab import check_hypotheses, split_roots
from spdolab.errors import BranchCrossingError
from spdolab.catalog import make_principal
from spdolab.reduction import branch_flags

GALLERY = [
    "wave:1",
    "wave:2",
    "laplace",
    "mixed-cubic",
    "variable-wave:2,0.5,0",
    "double-root",
    "from-roots:1,-1,2",
]


def fmt(margin):
    return f"{margin:9.3g}" if margin != float("inf") else "   vacuous"


def main():
    print(f"{'principal':<24} {'m':>2} {'h1':>9} {'h2':>10} {'h3':>9}  branches")
    for selector in GALLERY:
        ps = make_principal(selector)
        report = check_hypotheses(ps)
        try:
            flags = ",".join(branch_flags(split_roots(ps, 1).table))
        except BranchCrossingError:
            flags = "crossing"
        verdict = "ok " if report.all_pass else "FAIL"
        print(f"{selector:<24} {ps.m:>2} {fmt(report.h1_margin)} "
              f"{fmt(report.h2_margin):>10} {fmt(report.h3_margin)}  "
              f"[{flags}] {verdict}")


if __name__ == "__main__":
    main()

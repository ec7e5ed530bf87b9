#!/usr/bin/env python3
"""Rerun the three study scenarios with every method and tabulate the results.

Writes, per scenario, a moments table (method x snapshot), the relative
errors of each method against the Monte Carlo reference, and a timing
summary.  At --paper-scale this reruns the full-size configurations and
takes several minutes; the default desk scale finishes in about a minute.

Usage:
    python3 scripts/reproduce_tables.py                    # desk scale, all
    python3 scripts/reproduce_tables.py --scenario 2 --paper-scale
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from odlab import fileio
from odlab.analysis import relative_errors, timing_ledger
from odlab.propagators import run
from odlab.scenarios import builtin_scenarios, study_cases


def run_cases(num: int, paper: bool, workers: int):
    rows, ledgers = [], []
    for label, sc in study_cases(builtin_scenarios()[num], paper):
        res = run(sc, workers=workers)
        rows += res.moments(label)
        ledgers.append(timing_ledger(label, res.t_propagation,
                                     res.t_interpolation))
        print(f"  {label}: t_cal = {ledgers[-1].t_cal:.2f} s")
    return rows, ledgers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", default="all", choices=["all", "1", "2", "3"])
    ap.add_argument("--paper-scale", action="store_true",
                    help="full sample counts instead of the reduced desk size")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=None, help="output directory root")
    args = ap.parse_args(argv)

    nums = (1, 2, 3) if args.scenario == "all" else (int(args.scenario),)
    scale = "paper" if args.paper_scale else "desk"
    root = fileio.output_root(args.out) / f"tables-{scale}"
    root.mkdir(parents=True, exist_ok=True)

    for num in nums:
        print(f"scenario {num} ({scale} scale)")
        rows, ledgers = run_cases(num, args.paper_scale, args.workers)
        fileio.write_moments_csv(root / f"moments_s{num}.csv", rows)

        reference = {r.time: r for r in rows if r.method == "MC"}
        err_rows = [(r.method, r.time, relative_errors(reference[r.time], r))
                    for r in rows if r.method != "MC"]
        fileio.write_errors_csv(root / f"errors_s{num}.csv", err_rows)
        fileio.write_timing_json(root / f"timing_s{num}.json", ledgers,
                                 reference_method="MC")
    print(f"tables written to {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

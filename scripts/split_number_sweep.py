#!/usr/bin/env python3
"""Sweep the univariate split count and report library quality.

For each odd N the script prints how well the N-component split library
reproduces the standard normal: weight sum, residual mean, second moment,
sup-norm and L2 distance of the reconstructed density.  With --with-runs
it also propagates scenario 1 at desk scale once per N and reports the
worst moment deviation from a shared Monte Carlo reference, which shows
how library quality translates into propagated-density quality.

Usage:
    python3 scripts/split_number_sweep.py
    python3 scripts/split_number_sweep.py --counts 3 9 19 39 --with-runs
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from odlab.analysis import relative_errors
from odlab.gmmut import build_split_library
from odlab.propagators import run_study
from odlab.scenarios import builtin_scenarios, desk_case


def _normal_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def library_row(n: int) -> dict:
    lib = build_split_library(n)
    xs = np.linspace(-6.0, 6.0, 4001)
    approx = (lib.weights[:, None]
              * _normal_pdf((xs[None, :] - lib.means[:, None]) / lib.sigma)
              / lib.sigma).sum(axis=0)
    return {
        "n": n,
        "sigma": lib.sigma,
        "weight_sum_err": abs(float(lib.weights.sum()) - 1.0),
        "mean_err": abs(float((lib.weights * lib.means).sum())),
        "second_moment_err": abs(float((lib.weights * (lib.sigma ** 2
                                                       + lib.means ** 2)).sum()) - 1.0),
        "sup_norm": float(np.max(np.abs(approx - _normal_pdf(xs)))),
        "l2": lib.l2_distance(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--counts", type=int, nargs="+",
                    default=[1, 3, 5, 7, 11, 15, 19, 25, 31, 39])
    ap.add_argument("--with-runs", action="store_true",
                    help="also propagate scenario 1 at desk scale per N")
    args = ap.parse_args(argv)

    bad = [n for n in args.counts if n < 1 or n % 2 == 0 or n > 39]
    if bad:
        ap.error(f"counts must be odd and within [1, 39], got {bad}")

    print(f"{'N':>3} {'sigma':>10} {'w_sum_err':>10} {'mean_err':>10} "
          f"{'m2_err':>10} {'sup_norm':>10} {'l2':>10}")
    rows = [library_row(n) for n in args.counts]
    for r in rows:
        print(f"{r['n']:>3} {r['sigma']:>10.6f} {r['weight_sum_err']:>10.2e} "
              f"{r['mean_err']:>10.2e} {r['second_moment_err']:>10.2e} "
              f"{r['sup_norm']:>10.2e} {r['l2']:>10.2e}")

    if not args.with_runs:
        return 0

    base = builtin_scenarios()[1]
    mc, *runs = run_study([desk_case(base, "mc")] + [
        replace(desk_case(base, "gmmut"), n_1d=n) for n in args.counts])
    reference = {r.time: r for r in mc.moments("MC")}
    print(f"\nscenario 1, desk scale, worst relative moment error vs MC:")
    for n, res in zip(args.counts, runs):
        worst = 0.0
        worst_tag = ""
        for row in res.moments(f"N={n}"):
            err = relative_errors(reference[row.time], row)
            k = int(np.nanargmax(err))
            if err[k] > worst:
                worst = float(err[k])
                worst_tag = (f"t={row.time:g} "
                             + ("mu_phi", "sigma_phi", "mu_e", "sigma_e")[k])
        print(f"  N={n:>2}: {worst:7.2%} at {worst_tag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Fit the univariate split libraries and print the table odlab ships.

Each N-component library splitting N(0, 1) is fixed by two numbers: the
shared component sigma and the spacing of the N symmetric means.  They
minimize the closed-form L2 distance between the mixture and the standard
normal, with the weights from odlab's constrained quadratic solve.  The
pure L2 problem is degenerate (sigma -> 1 with a single surviving weight
is exact), so a small sigma^2 penalty steers the optimum toward genuinely
narrower components.  The fit is a coarse 12 x 12 scan in (log sigma,
log spacing) refined by Nelder-Mead.

Without options the script prints the `_FITTED` literal for
src/odlab/gmmut.py.  With --check it re-fits every library and compares
it with the shipped table; it exits 1 when a (sigma, spacing) pair drifts
by more than 1e-9 relative.

Usage:
    python3 scripts/fit_split_libraries.py
    python3 scripts/fit_split_libraries.py --check
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from odlab.errors import LibraryQualityError
from odlab.gmmut import _FITTED, _l2_sq, _solve_weights, _symmetric_means

# sigma^2 penalty weight: strong enough to pull the optimum away from the
# degenerate sigma = 1 solution, weak enough that the mixture's second
# moment stays within 1e-2 of unity (1e-4 overshoots that bound at N = 3)
_SIGMA_PENALTY = 1e-5
COUNTS = range(3, 40, 2)
TOLERANCE = 1e-9


def fit(n: int) -> tuple[float, float]:
    """(sigma, spacing) of the n-component library."""

    def objective(params):
        log_sigma, log_spacing = params
        sigma = math.exp(log_sigma)
        spacing = math.exp(log_spacing)
        m = _symmetric_means(n, spacing)
        try:
            w = _solve_weights(m, sigma)
        except LibraryQualityError:
            return 1e6
        return _l2_sq(w, m, sigma) + _SIGMA_PENALTY * sigma * sigma

    # coarse scan, then local refinement
    best = None
    span = 7.0 / (n - 1)
    for sigma in np.geomspace(0.05, 0.9, 12):
        for spacing in np.geomspace(0.3 * span, 2.5 * span, 12):
            p = (math.log(sigma), math.log(spacing))
            val = objective(p)
            if best is None or val < best[0]:
                best = (val, p)
    res = minimize(objective, best[1], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    return math.exp(res.x[0]), math.exp(res.x[1])


def worst_drift(table: dict) -> tuple[float, int]:
    """Largest relative drift of a shipped sigma or spacing from a fresh
    fit, and its component count; a missing or NaN entry counts as inf."""
    drifts = []
    for n in COUNTS:
        shipped = table.get(n, (math.nan, math.nan))
        rels = [abs(a - b) / a for a, b in zip(fit(n), shipped)]
        drifts.append((math.inf if any(map(math.isnan, rels)) else max(rels), n))
    return max(drifts, key=lambda d: d[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare the shipped table with a fresh fit")
    args = ap.parse_args(argv)

    if args.check:
        worst, n = worst_drift(_FITTED)
        print(f"largest relative drift {worst:.3g} at N = {n} "
              f"(tolerance {TOLERANCE:g})")
        return 0 if worst <= TOLERANCE else 1
    print("_FITTED = {")
    for n in COUNTS:
        sigma, spacing = fit(n)
        print(f"    {n}: ({sigma!r}, {spacing!r}),")
    print("}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

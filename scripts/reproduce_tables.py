#!/usr/bin/env python3
"""Rerun the three study scenarios with every method and tabulate the results.

Runs ``odlab compare`` once per scenario.  Each run writes, under the output
root, ``compare-s<N>/`` (``compare-s<N>-paper/`` at --paper-scale) holding
a moments table (method x snapshot), the relative errors of each method
against the Monte Carlo reference, and a timing summary.  At --paper-scale
this reruns the full-size configurations and takes several minutes; the
default desk scale finishes in about a minute.

Usage:
    python3 scripts/reproduce_tables.py                    # desk scale, all
    python3 scripts/reproduce_tables.py --scenario 2 --paper-scale
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from odlab import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", default="all", choices=["all", "1", "2", "3"])
    ap.add_argument("--paper-scale", action="store_true",
                    help="full sample counts instead of the reduced desk size")
    ap.add_argument("--out", default=None, help="output directory root")
    args = ap.parse_args(argv)

    nums = ("1", "2", "3") if args.scenario == "all" else (args.scenario,)
    common = []
    if args.paper_scale:
        common.append("--paper-scale")
    if args.out is not None:
        common += ["--out", args.out]
    for num in nums:
        code = cli.main(["compare", "--scenario", num, *common])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

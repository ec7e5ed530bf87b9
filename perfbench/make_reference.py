"""Regenerate the frozen MC reference moments used by ``moment_err.*``.

Runs the paper-scale Monte Carlo preset (n_sam 1e5, seed 42) on scenarios
1-3 and writes (mu_phi, sigma_phi, mu_e, sigma_e) at every snapshot to
``perfbench/reference_moments.json``.  Takes a few minutes on one core.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from odlab.analysis import sample_moments  # noqa: E402
from odlab.propagators import run_mc  # noqa: E402
from odlab.scenarios import builtin_scenarios, paper_case  # noqa: E402

OUT = HERE / "reference_moments.json"


def main() -> int:
    table = {}
    for num, base in builtin_scenarios().items():
        sc = paper_case(base, "mc")
        res = run_mc(sc)
        table[str(num)] = {
            repr(snap.time): list(sample_moments(
                snap.moment_points, snap.moment_weights).as_array())
            for snap in res.snapshots}
        print(f"scenario {num}: {len(res.snapshots)} snapshots", flush=True)
    doc = {"source": "run_mc(paper_case(builtin_scenarios()[n], 'mc')), "
                     "n_sam 100000, seed 42",
           "moments": ["mu_phi", "sigma_phi", "mu_e", "sigma_e"],
           "scenarios": table}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

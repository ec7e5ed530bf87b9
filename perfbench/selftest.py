"""Self-tests of the benchmark itself (not of odlab).

    python3 perfbench/selftest.py                    # all workloads, ~10 min
    python3 perfbench/selftest.py mc-desk gmmut-paper

Checks that the layer wrappers see what the workloads are meant to
exercise, that every count and digest repeats between two traced runs at
one seed, that the seed moves the MC / DEE outputs but not GMM-UT's, and
that the frozen reference moments agree with the acceptance suite's
scenario-1 oracle within criterion 6's bounds.  Exits 1 on any failure.
"""

from __future__ import annotations

import ast
import json
import sys

from run import HERE, ROOT, WORKLOADS, _worker

# criterion 6 bounds on (mu_phi, sigma_phi, mu_e, sigma_e): t <= 1, later
CRITERION_6 = ((0.02, 0.10, 0.02, 0.10), (0.05, 0.20, 0.05, 0.20))

results: list[bool] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    results.append(bool(ok))
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""),
          flush=True)


def one_pass(workload: str, seed: int, trace: int) -> dict:
    return _worker(["--workload", workload, "--seed", str(seed),
                    "--seconds", "0", "--trace", str(trace)])


def acceptance_table() -> dict:
    """REFERENCE_S1_MC as written in tests/test_acceptance.py."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", "") == "REFERENCE_S1_MC" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("REFERENCE_S1_MC not found")


def check_reference() -> None:
    frozen = json.loads((HERE / "reference_moments.json").read_text())
    ours = frozen["scenarios"]["1"]
    worst = 0.0
    for t, want in acceptance_table().items():
        got = ours[repr(float(t))]
        bounds = CRITERION_6[0] if t <= 1.0 else CRITERION_6[1]
        for g, w, b in zip(got, want, bounds):
            worst = max(worst, abs(g - w) / abs(w) / b)
            decimals = len(repr(w).split(".")[1])
            if round(g, decimals) != w:
                print(f"      t={t:g}: frozen {g:.{decimals}f} vs table {w} "
                      f"({(g - w) / w:+.2%})")
    check("frozen scenario-1 moments within criterion 6 of REFERENCE_S1_MC",
          worst <= 1.0, f"worst {worst:.0%} of its bound; the digit "
          "differences listed above are sampling noise between two RNGs")


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    check_reference()
    for name in names:
        a, b = one_pass(name, 1, 1), one_pass(name, 1, 1)
        check(f"{name}: no failed runs", a["failed"] == b["failed"] == 0,
              "; ".join(a["failures"] + b["failures"]))
        check(f"{name}: layer counts repeat across two traced runs",
              a["layer_counts"] == b["layer_counts"]
              and a["counts_repeat"] and b["counts_repeat"])
        check(f"{name}: digest repeats across two runs",
              a["digest"] == b["digest"])
        counts = a["layer_counts"]
        if name in ("mc-desk", "gmmut-paper"):
            check(f"{name}: geometry.delaunay_calls == 0",
                  counts["geometry.delaunay_calls"] == 0)
        if name in ("dee-desk-t0", "dee-1e5-t0"):
            check(f"{name}: odeint.steps_accepted == 0",
                  counts["odeint.steps_accepted"] == 0)
        other = one_pass(name, 2, 0)
        moved = other["digest"] != a["digest"]
        if name == "gmmut-paper":
            check(f"{name}: seed leaves the digest unchanged", not moved)
        else:
            check(f"{name}: seed changes the digest", moved)
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

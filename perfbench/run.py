"""odlab benchmark: run one workload (or all) and print the metrics.

    python3 perfbench/run.py --workload mc-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload gmmut-paper --seed 1 --trace 1

Each workload runs in a fresh worker process (``worker.py``) with BLAS and
OpenMP pinned to one thread.  ``setup_s`` is the median over several
process starts, each timed from before the spawn to the worker's ready
timestamp.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Full records go
to ``.perfbench_out/`` in the working tree.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
WORKLOADS = ("mc-desk", "dee-desk-t0", "gmmut-paper", "dee-desk", "dee-1e5-t0")
# worker processes started only to time set-up, besides the measuring one
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}
# units of the per-layer metrics that are not seconds
PER_LAYER_UNITS = {
    "dynamics.field_calls": "count", "dynamics.field_rows": "count",
    "dynamics.ns_per_row": "ns",
    "odeint.trajectories": "count", "odeint.steps_accepted": "count",
    "odeint.steps_rejected": "count", "odeint.accept_ratio": "ratio",
    "odeint.steps_per_traj": "count", "odeint.us_per_traj_step": "us",
    "odeint.failed": "count", "odeint.clamped": "count",
    "geometry.delaunay_calls": "count", "geometry.vertices": "count",
    "geometry.triangles": "count", "geometry.grid_nodes": "count",
    "geometry.in_hull_frac": "ratio", "geometry.grid_bytes": "B",
    "histogram.points_binned": "count", "histogram.mass_residual_max": "ratio",
    "propagators.node_bytes": "B",
    "gmmut.components": "count", "gmmut.sigma_points": "count",
    "moment_err.max": "ratio", "moment_err.mean": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    return env


def _worker(args: list[str]) -> dict:
    """Run worker.py and return its JSON record (last stdout line)."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few passes for a tail percentile"
    v = sorted(values)
    return f"n={n}, p{100 * (n - 10) / n:.0f}={v[n - 11]:.4f} s"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result object run.py prints."""
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        setups.append(_worker(common + ["--setup-only"])["ready"] - spawned)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    spawned = time.monotonic()
    rec = _worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                            "--spans", str(OUT_DIR / f"spans-{stem}.json")])
    setups.append(rec["ready"] - spawned)
    rec["setup_samples"] = setups

    attempted, failed = rec["attempted"], rec["failed"]
    errs_ok = math.isfinite(rec["moment_err_max"])
    correct = (failed == 0 and rec["digests_agree"] and errs_ok
               and rec.get("counts_repeat", True))
    summary = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rec["walls"]),
        "wall_norm_s": statistics.median(rec["norm_walls"]),
        "peak_rss_mb": rec["peak_rss_mb"],
        "fail_frac": failed / attempted,
        "moment_err.max": rec["moment_err_max"],
        "moment_err.mean": rec["moment_err_mean"],
    }
    if trace:
        values = {**rec["layer_times"], **rec["layer_counts"],
                  "moment_err.max": summary["moment_err.max"],
                  "moment_err.mean": summary["moment_err.mean"],
                  "trace.overhead_s": rec["overhead_s"]}
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "s")}
                   for k, v in values.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u}
                   for k, u in END_TO_END.items()}
    rec["summary"] = summary
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(rec, indent=1))
    report(name, rec, summary, metrics, trace)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(name: str, rec: dict, summary: dict, metrics: dict,
           trace: int) -> None:
    env = rec["env"]
    print(f"== {name}  seed {rec['seed']}  trace {trace}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}  src/odlab "
          f"{env['odlab_src_lines']} lines")
    print(f"  setup_s          {summary['setup_s']:.4f} s  (median of "
          f"{len(rec['setup_samples'])} process starts)")
    print(f"  wall_s           {summary['wall_s']:.4f} s  (median; "
          f"{tail(rec['walls'])})")
    print(f"  wall_norm_s      {summary['wall_norm_s']:.4f} s  (median; "
          f"{tail(rec['norm_walls'])}; host probe median "
          f"{1e3 * statistics.median(rec['probes']):.2f} ms)")
    print(f"  peak_rss_mb      {summary['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac        {summary['fail_frac']:.4g}  "
          f"({rec['failed']}/{rec['attempted']} runs)")
    print(f"  moment_err.max   {summary['moment_err.max']:.4f}  "
          f"(relative, {rec['moment_err_count']} moments)")
    print(f"  moment_err.mean  {summary['moment_err.mean']:.4f}")
    print(f"  digest           {rec['digest'][:16]}  "
          f"(passes agree: {rec['digests_agree']})")
    for failure in rec["failures"]:
        print(f"  FAILED           {failure}")
    if trace:
        print(f"  traced passes {rec['traced_passes']}, untraced "
              f"{len(rec['walls'])}; traced wall "
              f"{statistics.median(rec['traced_walls']):.4f} s, overhead "
              f"{rec['overhead_s']:+.4f} s; counts repeat across passes: "
              f"{rec['counts_repeat']}")
        for key in sorted(metrics):
            m = metrics[key]
            print(f"  {key:30s} {m['value']:.6g} {m['unit']}")
        print("  span self times over all traced passes "
              "(name: calls, total s, self s)")
        for key in sorted(rec["span_total_s"]):
            print(f"    {key:28s} {rec['span_calls'][key]:8d} "
                  f"{rec['span_total_s'][key]:10.4f} "
                  f"{rec['span_self_s'][key]:10.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="odlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "odlab" / "__init__.py").is_file():
        print(f"odlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

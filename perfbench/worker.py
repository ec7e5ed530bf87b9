"""Run one workload in this process and print its record as one JSON line.

Started by ``run.py`` in a fresh process per workload, so peak RSS and the
split-library memo never leak between workloads.  Set-up (imports, the
workload's seeded scenario configs and, for GMM-UT, the split library)
ends at the ``ready`` timestamp, taken on the system-wide monotonic clock
so the parent can measure from before the process started.  Passes then
repeat until ``--seconds`` would be exceeded, with a host-speed probe
before the first pass and after each one.  With ``--trace 1`` the
passes alternate untraced / traced, which gives both the per-layer metrics
and the tracing overhead from one process.

    python3 perfbench/worker.py --workload mc-desk --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import odlab.errors  # noqa: E402
import odlab.gmmut  # noqa: E402
import odlab.propagators  # noqa: E402
from odlab.analysis import MomentSummary, relative_errors, sample_moments  # noqa: E402
from tracer import Tracer, layer_metrics, span_totals  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

ODLAB_ERRORS = tuple(
    obj for obj in vars(odlab.errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception)
    and obj.__module__ == "odlab.errors")
# criterion 7: MC and DEE joint grids integrate to one within this bound
MASS_TOL = 1e-12
# Host-speed probe: fixed work in the three styles odlab's time goes to,
# numpy on 10^4-row arrays (integrator), numpy on 200-row arrays (sigma
# points) and pure-Python float and list code (triangulation).  On a
# shared VM the host has fast and slow phases lasting minutes that stretch
# every workload by up to 1.6x; the probe's time follows them, so pass
# times divided by it repeat across runs.  wall_norm_s is scaled to a
# probe time of PROBE_REF_S.
PROBE_X = np.linspace(0.05, 0.6, 10_000)
PROBE_Y = PROBE_X[::-1].copy()
PROBE_REF_S = 0.02


def _run(case):
    """Call the public pipeline entry point for the case's method."""
    if case.method == "mc":
        return odlab.propagators.run_mc(case.config)
    if case.method == "dee":
        return odlab.propagators.run_dee(case.config)
    return odlab.gmmut.run_gmmut(case.config)


def moments(case, res) -> list[MomentSummary]:
    """Per-snapshot (mu_phi, sigma_phi, mu_e, sigma_e), as the CLI reports them."""
    if case.method == "gmmut":
        return [MomentSummary(time=s.time, method="GMM-UT",
                              mu_phi=float(s.mean[0]),
                              sigma_phi=float(math.sqrt(s.cov[0, 0])),
                              mu_e=float(s.mean[1]),
                              sigma_e=float(math.sqrt(s.cov[1, 1])))
                for s in res.snapshots]
    return [sample_moments(s.moment_points, s.moment_weights,
                           method=case.method, time=s.time)
            for s in res.snapshots]


def output_problems(case, res) -> list[str]:
    """Why a run's densities are unusable (empty when they are fine)."""
    out = []
    for s in res.snapshots:
        for name, arr in (("joint", s.joint.values),
                          ("marginal_phi", s.marginal_phi.values),
                          ("marginal_e", s.marginal_e.values)):
            if not np.all(np.isfinite(arr)):
                out.append(f"{case.label} t={s.time:g} {name} non-finite")
            elif np.any(arr < 0.0):
                out.append(f"{case.label} t={s.time:g} {name} negative")
        if case.method != "gmmut":
            residual = abs(s.joint.total_mass - 1.0)
            if residual > MASS_TOL:
                out.append(f"{case.label} t={s.time:g} joint mass off by "
                           f"{residual:.3e}")
    return out


def digest_update(h, case, res) -> None:
    for s in res.snapshots:
        h.update(f"{case.label} t={s.time!r}".encode())
        for arr in (s.joint.grid.edges1, s.joint.grid.edges2, s.joint.values,
                    s.marginal_phi.values, s.marginal_e.values):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def moment_errors(case, rows, reference) -> list[float]:
    ref = reference[str(case.scenario)]
    errs = []
    for row in rows:
        vals = ref.get(repr(float(row.time)))
        if vals is not None:
            errs.extend(relative_errors(
                MomentSummary(row.time, "MC-ref", *vals), row).tolist())
    return errs


def run_pass(cases, reference, tracer: Tracer | None, tag: str) -> dict:
    """One pass over the workload's runs; only the library calls are timed."""
    wall = 0.0
    failures: list[str] = []
    failed: set[str] = set()
    errs: list[float] = []
    digest = hashlib.sha256()
    run_times = dict.fromkeys(
        ("propagate_s", "reconstruct_s", "gmm_propagate_s"), 0.0)
    for case in cases:
        if tracer is not None:
            tracer.run_id = f"{tag}/{case.label}"
        start = time.perf_counter()
        try:
            res = _run(case)
            rows = (moments(case, res) if tracer is None
                    else tracer.call("analysis.moments", moments, case, res))
        except ODLAB_ERRORS as exc:
            wall += time.perf_counter() - start
            failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
            failed.add(case.label)
            continue
        wall += time.perf_counter() - start
        problems = output_problems(case, res)
        if problems:
            failures.extend(problems)
            failed.add(case.label)
        errs.extend(moment_errors(case, rows, reference))
        digest_update(digest, case, res)
        if case.method == "gmmut":
            run_times["gmm_propagate_s"] += res.t_propagation
            if tracer is not None:
                tracer.counts["gmmut.components"] += res.snapshots[0].mixture.n
                tracer.counts["gmmut.sigma_points"] += res.n_sigma_points
        else:
            run_times["propagate_s"] += res.t_propagation
            run_times["reconstruct_s"] += res.t_interpolation
        del res
    return {"wall": wall, "attempted": len(cases), "failed": len(failed),
            "failures": failures, "moment_errs": errs,
            "digest": digest.hexdigest(), "run_times": run_times}


def _probe_kernel() -> None:
    for n, steps in ((10_000, 60), (200, 400)):
        x, y = PROBE_X[:n].copy(), PROBE_Y[:n].copy()
        for _ in range(steps):
            one = 1.0 - np.minimum(x * x + y * y, 0.99)
            g = 0.409 / (one * one) - 1.0
            v = np.stack((0.15 * np.sqrt(one) + y * g, -x * g), axis=-1)
            x = x + 1e-4 * v[:, 0]
            y = y + 1e-4 * v[:, 1]
    pts = list(zip(PROBE_X[:3000].tolist(), PROBE_Y[:3000].tolist()))
    tris, edges = [], {}
    for i in range(2, len(pts)):
        (ax, ay), (bx, by), (cx, cy) = pts[i - 2], pts[i - 1], pts[i]
        ccw = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0
        tris.append((i - 2, i - 1, i) if ccw else (i, i - 1, i - 2))
    for t in tris:
        edges[t[0], t[1]] = edges[t[1], t[2]] = edges[t[2], t[0]] = t


def host_probe() -> float:
    """Median time of three runs of the fixed probe kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    lines = sum(len(p.read_text().splitlines())
                for p in (ROOT / "src" / "odlab").glob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "odlab_src_lines": lines,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and print the ready time")
    ap.add_argument("--spans", help="write the traced spans to this file")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    cases = build(args.workload, args.seed)
    for n_1d in sorted({c.config.n_1d for c in cases if c.method == "gmmut"}):
        odlab.gmmut.build_split_library(n_1d)  # memoized for the process
    reference = json.loads(
        (HERE / "reference_moments.json").read_text())["scenarios"]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    setup_spans = []
    if tracer is not None:
        setup_spans = tracer.spans
    min_passes = 2 if tracer is not None else 1
    passes, layers, pass_spans = [], [], []
    walls = {False: [], True: []}  # raw pass times, untraced / traced
    norms = {False: [], True: []}  # the same scaled by the host probe
    start = time.perf_counter()
    probes = [host_probe()]
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            if traced:
                tracer.install()
                tracer.spans = []
                tracer.counts.clear()
                tracer.peaks.clear()
            else:
                tracer.uninstall()
        rec = run_pass(cases, reference, tracer if traced else None,
                       f"pass{len(passes)}")
        passes.append(rec)
        probes.append(host_probe())
        walls[traced].append(rec["wall"])
        norms[traced].append(rec["wall"] * PROBE_REF_S
                             / statistics.fmean(probes[-2:]))
        if traced:
            pass_spans.append(tracer.spans)
            layers.append(layer_metrics(tracer.spans, tracer.counts,
                                        tracer.peaks, rec["run_times"]))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    first = passes[0]
    errs = first["moment_errs"]
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ready": ready,
        "walls": walls[False], "traced_walls": walls[True],
        "norm_walls": norms[False], "norm_traced_walls": norms[True],
        "probes": probes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "moment_err_max": max(errs) if errs else math.nan,
        "moment_err_mean": statistics.fmean(errs) if errs else math.nan,
        "moment_err_count": len(errs),
        "digest": first["digest"],
        "digests_agree": len({p["digest"] for p in passes}) == 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if tracer is not None:
        times = {k: statistics.median(t[k] for t, _ in layers)
                 for k in layers[0][0]}
        lib_total, _, _ = span_totals(setup_spans)
        times["gmmut.library_s"] = lib_total.get("gmmut.build_split_library",
                                                 0.0)
        total, self_time, calls = Counter(), Counter(), Counter()
        for spans in pass_spans:
            t, s, c = span_totals(spans)
            total.update(t)
            self_time.update(s)
            calls.update(c)
        out.update(
            layer_times=times, layer_counts=layers[0][1],
            counts_repeat=all(c == layers[0][1] for _, c in layers),
            overhead_s=(statistics.median(norms[True])
                        - statistics.median(norms[False])),
            span_total_s=dict(total), span_self_s=dict(self_time),
            span_calls=dict(calls), traced_passes=len(layers))
        if args.spans:
            def rows(spans):
                return [[n, a - start, b - start, p, r]
                        for n, a, b, p, r in spans]
            Path(args.spans).write_text(json.dumps({
                "fields": ["name", "start_s", "end_s", "parent", "run_id"],
                "setup": rows(setup_spans),
                "passes": [rows(spans) for spans in pass_spans]}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: portrait, run, compare, split-lib, validate.  All numeric
output goes through the fileio writers, so reruns with the same config
and seed produce byte-identical CSV payloads; wall-clock times appear
only in manifest/timing JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import subprocess
import sys
import time
from pathlib import Path

from . import analysis, fileio
from .dynamics import OrbitParams, PolarPhaseState
from .errors import (ConfigError, GeometryError, LibraryQualityError,
                     PropagationError)
from .gmmut import build_split_library, save_split_library
from .propagators import run, run_study
from .scenarios import ScenarioConfig, builtin_scenarios, study_cases


def _override(args, sc: ScenarioConfig) -> ScenarioConfig:
    """One case with --config and --seed applied.

    A config may restate the case's method but not change it: the case
    would then run one method and record another.
    """
    if args.config:
        overrides = fileio.load_config(args.config)
        if overrides.get("method", sc.method) != sc.method:
            raise ConfigError(f"config sets method {overrides['method']!r} "
                              f"but this case runs {sc.method!r}")
        sc = ScenarioConfig.from_dict({**sc.to_dict(), **overrides})
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    return sc


def _snapshot_stem(t: float) -> str:
    return f"t{t:g}"


def cmd_run(args) -> int:
    base = builtin_scenarios()[args.scenario]
    # at paper scale, dee runs its first study case (DEE-961)
    sc = _override(args, next(case for _, case in
                              study_cases(base, args.paper_scale)
                              if case.method == args.method))
    t0 = time.perf_counter()
    res = run(sc)
    rows = res.moments(res.method)
    wall = time.perf_counter() - t0
    # made after the run returns, so a failed run leaves no directory
    out = fileio.output_root(args.out) / f"run-s{args.scenario}-{args.method}"
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_moments_csv(out / "moments.csv", rows)
    for snap in res.snapshots:
        stem = _snapshot_stem(snap.time)
        tag = dict(method=res.method, time=snap.time)
        fileio.write_joint_csv(out / f"joint_{stem}.csv", snap.joint, **tag)
        fileio.write_marginal_csv(out / f"marginal_phi_{stem}.csv",
                                  snap.marginal_phi, **tag)
        fileio.write_marginal_csv(out / f"marginal_e_{stem}.csv",
                                  snap.marginal_e, **tag)
    fileio.write_timing_json(out / "timing.json", [(res.method, res)])
    fileio.write_manifest(out / "manifest.json", sc,
                          command="run", extra={"counters": res.counters()},
                          timings={"total_s": wall,
                                   "propagation_s": res.t_propagation,
                                   "interpolation_s": res.t_interpolation})
    for r in rows:
        print(f"t={r.time:g}: mu_phi={r.mu_phi:.5f} sigma_phi={r.sigma_phi:.5f}"
              f" mu_e={r.mu_e:.5f} sigma_e={r.sigma_e:.5f}")
    print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    labels, cases = zip(*[(label, _override(args, sc)) for label, sc in
                          study_cases(builtin_scenarios()[args.scenario], args.paper_scale)])
    t_start = time.perf_counter()
    runs = list(zip(labels, run_study(list(cases))))
    all_rows = [row for label, res in runs for row in res.moments(label)]
    wall = time.perf_counter() - t_start
    suffix = "-paper" if args.paper_scale else ""
    out = fileio.output_root(args.out) / f"compare-s{args.scenario}{suffix}"
    out.mkdir(parents=True, exist_ok=True)

    reference = {r.time: r for r in all_rows if r.method == "MC"}
    err_rows = [(r.method, r.time,
                 analysis.relative_errors(reference[r.time], r))
                for r in all_rows if r.method != "MC" and r.time in reference]
    fileio.write_moments_csv(out / "moments.csv", all_rows)
    fileio.write_errors_csv(out / "errors.csv", err_rows)
    fileio.write_timing_json(out / "timing.json", runs, reference_method="MC")
    fileio.write_manifest(out / "manifest.json", cases[0],
                          command="compare",
                          timings={"total_s": wall},
                          extra={"cases": list(labels), "counters": {
                              label: res.counters() for label, res in runs}})
    for label, res in runs:
        print(f"{label}: t_cal={res.t_total:.2f}s"
              f" (prop {res.t_propagation:.2f} + int {res.t_interpolation:.2f})")
    print(f"wrote {out}")
    return 0


def cmd_portrait(args) -> int:
    p = OrbitParams(C=args.C, W=args.W)
    points = analysis.find_stationary_points(p)
    saddles = [q for q in points if q.kind == "saddle"]
    levels = [1.0 + p.W / 3.0]
    if saddles:
        levels.append(saddles[0].hamiltonian)
    contours = [(lvl, analysis.level_curves(p, lvl)) for lvl in levels]
    labels = []
    for sc in builtin_scenarios().values():
        state = PolarPhaseState(phi=sc.phi0, e=sc.e0)
        labels.append((sc.phi0, sc.e0,
                       analysis.classify_subdomain(state, points, p)))

    # made once everything is computed, so a failure leaves no directory
    out = fileio.output_root(args.out) / "portrait"
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_stationary_csv(out / "stationary_points.csv", points)
    fileio.write_contours_csv(out / "contours.csv", contours)
    fileio.write_labels_csv(out / "labels.csv", labels)

    for q in points:
        print(f"phi={q.phi:.6f} e={q.e:.6f} H={q.hamiltonian:.6f} {q.kind}")
    print(f"wrote {out}")
    return 0


def cmd_split_lib(args) -> int:
    lib = build_split_library(args.n_components)
    out = fileio.output_root(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"split_library_{args.n_components}.csv"
    save_split_library(lib, path)
    print(f"N={args.n_components} sigma={lib.sigma:.6f} wrote {path}")
    return 0


def cmd_validate(args) -> int:
    root = Path(__file__).resolve().parents[2]
    suite = root / "tests" / "test_acceptance.py"
    if not suite.exists():
        print("acceptance suite not found (expected at "
              f"{suite}); run from a source checkout", file=sys.stderr)
        return 2
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-v", str(suite)],
        cwd=str(root)).returncode


def _add_common(sub, *, method: bool) -> None:
    sub.add_argument("--scenario", type=int, choices=(1, 2, 3), default=1)
    if method:
        sub.add_argument("--method", choices=("mc", "dee", "gmmut"),
                         required=True)
    sub.add_argument("--config", default=None,
                     help="YAML file overriding scenario fields")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--paper-scale", action="store_true",
                     help="use the published case sizes instead of desk scale")
    sub.add_argument("--out", default=None,
                     help="output root (default $ODL_OUT_DIR or ./out)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="odlab",
        description="Phase-space density propagation for high "
                    "area-to-mass-ratio orbits")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="one method on one scenario")
    _add_common(run_p, method=True)
    run_p.set_defaults(func=cmd_run)

    cmp_p = subs.add_parser("compare",
                            help="all methods on one scenario plus error and "
                                 "timing tables")
    _add_common(cmp_p, method=False)
    cmp_p.set_defaults(func=cmd_compare)

    por_p = subs.add_parser("portrait",
                            help="stationary points, contours, region labels")
    por_p.add_argument("--C", type=float, default=0.15)
    por_p.add_argument("--W", type=float, default=0.409)
    por_p.add_argument("--out", default=None)
    por_p.set_defaults(func=cmd_portrait)

    lib_p = subs.add_parser("split-lib", help="build a univariate split library")
    lib_p.add_argument("--n-components", type=int, default=39)
    lib_p.add_argument("--out", default=None)
    lib_p.set_defaults(func=cmd_split_lib)

    val_p = subs.add_parser("validate", help="run the acceptance suite")
    val_p.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid parameters ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 2
    except (GeometryError, LibraryQualityError, PropagationError) as exc:
        print(f"run failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

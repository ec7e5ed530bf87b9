"""CSV and JSON writers for run outputs.

Every numeric cell is written with 17 significant digits so byte-level
diffs of two runs are meaningful regression evidence.  Timing values are
the one exception: they land only in the manifest and timing JSON, which
reproducibility checks must exclude.
"""

from __future__ import annotations

import csv
import json
import os
import re
from pathlib import Path

import numpy as np

from .analysis import MomentSummary, RunResult, StationaryPoint
from .errors import ConfigError
from .histogram import AXES, JointDensityGrid, MarginalDensity
from .scenarios import ScenarioConfig

__all__ = [
    "fmt",
    "output_root",
    "write_joint_csv",
    "write_marginal_csv",
    "write_moments_csv",
    "write_errors_csv",
    "write_timing_json",
    "write_stationary_csv",
    "write_contours_csv",
    "write_labels_csv",
    "write_manifest",
    "load_config",
]

ENV_OUT_DIR = "ODL_OUT_DIR"
# keys write_manifest adds beside the "scenario" block of manifest.json
_MANIFEST_KEYS = ("command", "timings_s", "cases", "counters")


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def output_root(explicit: str | None = None) -> Path:
    """--out flag if given, else $ODL_OUT_DIR, else ./out."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_OUT_DIR)
    return Path(env) if env else Path("out")


def _write_table(path, header: list[str], rows, comments: tuple[str, ...] = ()
                 ) -> None:
    """Write "# " comment lines, the header, then the rows; float cells
    (numpy floats included) go through fmt, other cells as they are."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([fmt(c) if isinstance(c, float) else c for c in row]
                    for row in rows)


def write_joint_csv(path, joint: JointDensityGrid, *, method: str,
                    time: float) -> None:
    """Long-format grid: one row per bin with centers, edges, and density."""
    g = joint.grid
    c1, c2, e1, e2 = g.centers1, g.centers2, g.edges1, g.edges2
    a1, a2 = AXES
    _write_table(
        path, [f"{a1}_center", f"{a2}_center", f"{a1}_lo", f"{a1}_hi",
               f"{a2}_lo", f"{a2}_hi", "density"],
        ((c1[i], c2[j], e1[i], e1[i + 1], e2[j], e2[j + 1], joint.values[i, j])
         for i in range(g.n1) for j in range(g.n2)),
        (f"method = {method}", f"time = {fmt(time)}", f"axes = {a1},{a2}"))


def write_marginal_csv(path, marg: MarginalDensity, *, method: str,
                       time: float) -> None:
    half = 0.5 * marg.width
    _write_table(
        path, [f"{marg.label}_center", f"{marg.label}_lo", f"{marg.label}_hi",
               "density"],
        ((c, c - half, c + half, v) for c, v in zip(marg.centers, marg.values)),
        (f"method = {method}", f"time = {fmt(time)}"))


def write_moments_csv(path, rows: list[MomentSummary]) -> None:
    """One row per (method, snapshot): the moment-table layout."""
    _write_table(path, ["method", "time", "mu_phi", "sigma_phi", "mu_e", "sigma_e"],
                 ((r.method, r.time, r.mu_phi, r.sigma_phi, r.mu_e, r.sigma_e)
                  for r in rows))


def write_errors_csv(path, rows: list[tuple[str, float, np.ndarray]]) -> None:
    """Relative errors vs the reference method, one row per snapshot.

    Each row is (method, time, 4-vector of errors); nan marks components
    whose reference value is zero.
    """
    _write_table(path, ["method", "time", "err_mu_phi", "err_sigma_phi",
                        "err_mu_e", "err_sigma_e"],
                 ((method, t, *e) for method, t, e in rows))


def write_timing_json(path, runs: list[tuple[str, RunResult]],
                      reference_method: str | None = None) -> None:
    """Two-part wall-time table of (label, run) pairs plus ratios,
    normalized to the run labelled reference_method."""
    ref = next((res.t_total for label, res in runs
                if label == reference_method), None)
    entries = []
    for label, res in runs:
        total = res.t_total
        row = {
            "method": label,
            "t_propagation_s": res.t_propagation,
            "t_interpolation_s": res.t_interpolation,
            "t_calculation_s": total,
            "propagation_share": res.t_propagation / total if total > 0 else 0.0,
            "interpolation_share":
                res.t_interpolation / total if total > 0 else 0.0,
        }
        if ref:
            row["normalized_t_calculation"] = total / ref
        entries.append(row)
    payload = {"reference_method": reference_method, "cases": entries}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_stationary_csv(path, points: tuple[StationaryPoint, ...]) -> None:
    _write_table(path, ["phi", "e", "hamiltonian", "kind"],
                 ((q.phi, q.e, q.hamiltonian, q.kind) for q in points))


def write_contours_csv(path, levels: list[tuple[float, list[np.ndarray]]]) -> None:
    """Contour polylines: (level, polyline id, vertex order, phi, e) rows."""
    _write_table(path, ["level", "polyline", "vertex", "phi", "e"],
                 ((level, pid, vid, phi, e) for level, polys in levels
                  for pid, poly in enumerate(polys)
                  for vid, (phi, e) in enumerate(poly)))


def write_labels_csv(path, rows: list[tuple[float, float, str]]) -> None:
    """Sub-domain labels of probe states: (phi, e, label) rows."""
    _write_table(path, ["phi", "e", "label"], rows)


def write_manifest(path, scenario: ScenarioConfig, *, command: str,
                   timings: dict[str, float], extra: dict | None = None) -> None:
    """Echo the full effective config so a run can be re-created exactly:
    load_config reads the manifest back as that config.  A compare manifest
    echoes only its first (MC) case; its other cases differ in method and
    size."""
    payload = {
        "command": command,
        "scenario": scenario.to_dict(),
        "timings_s": timings,
    }
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_config(path) -> dict:
    """Parse a YAML/JSON config document into a flat field dict.

    Accepts either top-level scenario fields or a `scenario:` block with
    the fields nested one level down.  Beside a block with `command` and
    `timings_s`, the keys write_manifest adds are skipped, so a run's
    manifest.json is a config.
    """
    import yaml

    # YAML 1.1 floats need a dot; also read 1e-8 and JSON's 1e-08 as floats
    loader = type("ConfigLoader", (yaml.SafeLoader,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    if isinstance(data.get("scenario"), dict):
        fields = data.pop("scenario")
        if {"command", "timings_s"} <= data.keys():  # a run's manifest.json
            data = {k: v for k, v in data.items() if k not in _MANIFEST_KEYS}
        return {**fields, **data}
    return data

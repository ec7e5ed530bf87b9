"""Monte Carlo and characteristic-transport density pipelines.

Both pipelines draw the same initial cloud for a given seed and integrate
it, as one batch that odeint cuts into row shares on forked processes,
along the same trajectories.  The Monte Carlo estimator bins bare samples
per snapshot; the transport pipeline weights every sample with the
log-density the flow carries to it, in closed form by Liouville's
theorem, and rebuilds the density field on a uniform grid through
Delaunay interpolation, leaving out triangles that span voids of the
cloud.  The grid is never held whole: the covered node extent, which
fixes the bins, is searched first, and then bands of whole grid rows are
rasterised in row order and binned by grid-line index, each band's
weights added into running per-bin sums, so memory follows the band and
every bit is that of binning the whole grid at once.  Wall time is
accounted in two slots, propagation and reconstruction, so runs can be
compared at the phase level.  run_study() runs a list of cases, GMM-UT
included: MC and DEE cases that share a cloud share one integration, and
each is charged the cloud's full time.  run() is a study of one case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import dynamics
from .analysis import MomentSummary, RunResult, sample_moments
from .dynamics import wrap_angle
from .errors import (DegenerateInputError, GeometryError,
                     InvalidParameterError, PropagationError)
# interp_to_grid is not called here; perfbench/tracer.py wraps it by this name
from .geometry import GridRaster, delaunay, interp_to_grid, longest_edges  # noqa: F401
from .gmmut import run_gmmut
from .histogram import (JointDensityGrid, MarginalDensity, dee_joint,
                        make_edges, marginal, mc_joint)
from .odeint import integrate_batch
from .scenarios import ScenarioConfig
from .stochastics import RngStream

__all__ = [
    "SnapshotResult",
    "initial_cloud",
    "run",
    "run_study",
    "run_mc",
    "run_dee",
]

# a propagation run is unusable when more than this fraction of samples fails
_MAX_FAILURE_FRACTION = 1e-3
# ScenarioConfig fields only the estimators read; any other field picks the cloud
_ESTIMATOR_FIELDS = frozenset({"name", "method", "n_1d", "n_grid", "n_bins1",
                               "n_bins2", "jacobian_correction"})
# a triangle whose longest edge exceeds this multiple of the snapshot's
# median longest edge spans a void of the cloud rather than sampled density
# (alpha-shape style trimming, Edelsbrunner, Kirkpatrick & Seidel 1983)
_VOID_EDGE_FACTOR = 10.0


@dataclass(frozen=True)
class SnapshotResult:
    """Density estimate of one method at one output time.

    samples holds the propagated (phi, e) positions wrapped into the
    scenario branch; sample_weights the transported (phi, e)-density
    weights for the characteristic pipeline (None for Monte Carlo).
    moment_points / moment_weights are the inputs from which summary
    moments should be computed: raw samples for Monte Carlo, the emitted
    density grid (bin centers weighted by probability mass) for the
    transport pipeline.  The two marginals integrate the joint.
    """

    time: float
    samples: np.ndarray
    sample_weights: np.ndarray | None
    joint: JointDensityGrid
    moment_points: np.ndarray
    moment_weights: np.ndarray | None
    marginal_phi: MarginalDensity = field(init=False)
    marginal_e: MarginalDensity = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "marginal_phi", marginal(self.joint, 1))
        object.__setattr__(self, "marginal_e", marginal(self.joint, 2))

    def moments(self, label: str) -> MomentSummary:
        return sample_moments(self.moment_points, self.moment_weights,
                              method=label, time=self.time)


def run(scenario: ScenarioConfig) -> RunResult:
    """Run the scenario's method, "mc", "dee" or "gmmut", as a study of one."""
    return run_study([scenario])[0]


def run_study(scenarios: list[ScenarioConfig]) -> list[RunResult]:
    """Run the cases in order; MC and DEE cases equal outside _ESTIMATOR_FIELDS
    share one sampled and integrated cloud, each charged its full time as
    t_propagation.  Every result is bitwise that of a lone run(case)."""
    keys = [None if sc.method == "gmmut" else tuple(
        getattr(sc, f.name) for f in fields(sc) if f.name not in _ESTIMATOR_FIELDS)
        for sc in scenarios]
    clouds, results = {}, []
    for sc, key in zip(scenarios, keys):
        if key is None:
            results.append(run_gmmut(sc))
            continue
        if key not in clouds:
            clouds[key] = _cloud(sc, ", ".join(
                other.method.upper() for other, k in zip(scenarios, keys) if k == key))
        estimate = _mc_estimate if sc.method == "mc" else _dee_estimate
        results.append(estimate(sc, clouds[key]))
    return results


def initial_cloud(scenario: ScenarioConfig) -> np.ndarray:
    """The scenario's initial (phi, e) samples.

    Deterministic per (seed, n_sam): every pipeline run with the same
    scenario starts from bitwise-identical positions.  Raises DomainError
    when a sample starts at e <= 0 or on or past the disk edge.
    """
    rng = RngStream(seed=scenario.seed)
    samples = scenario.initial_gaussian().sample(scenario.n_sam, rng)
    dynamics.check_start_domain(samples[:, 1], "initial cloud")
    return samples


def _positions(states: np.ndarray, branch_start: float) -> np.ndarray:
    """(x1, x2) rows back to (phi, e) with phi wrapped into the branch."""
    phi = wrap_angle(np.arctan2(states[:, 0], states[:, 1]), branch_start)
    ecc = np.hypot(states[:, 0], states[:, 1])
    return np.column_stack([phi, ecc])


def _ln_u(e: np.ndarray) -> np.ndarray:
    """ln u with u = sqrt(1 - e^2), the momentum conjugate to phi."""
    return 0.5 * np.log1p(-e * e)


def _check_failures(failed: np.ndarray, cases: str) -> int:
    n_failed = int(failed.sum())
    if n_failed > _MAX_FAILURE_FRACTION * len(failed):
        idx = np.flatnonzero(failed)
        shown = ", ".join(str(i) for i in idx[:10])
        more = "" if len(idx) <= 10 else f" (+{len(idx) - 10} more)"
        raise PropagationError(
            f"{cases}: {n_failed}/{len(failed)} trajectories failed "
            f"integration; sample indices {shown}{more}")
    return n_failed


def _cloud(scenario: ScenarioConfig, cases: str):
    """(samples, states, counts, seconds) of one cloud; samples and states
    keep only the rows that integrated, and seconds times sampling and
    integration.  cases names the cases the cloud serves in a PropagationError."""
    t_start = time.perf_counter()
    samples = initial_cloud(scenario)
    res = integrate_batch(dynamics.cartesian_field(scenario.orbit_params()),
                          dynamics.cartesian_rows(samples),
                          scenario.snapshot_times(), scenario.rel_tol, scenario.abs_tol,
                          clamp_disk=True)
    n_failed = _check_failures(res.failed, cases)
    kept = ~res.failed if n_failed else slice(None)
    samples, states = samples[kept], res.states[:, kept]
    counts = dict(n_failed=n_failed, n_clamped=int(res.clamped.sum()),
                  steps_accepted=res.steps_accepted, steps_rejected=res.steps_rejected)
    return samples, states, counts, time.perf_counter() - t_start


def run_mc(scenario: ScenarioConfig) -> RunResult:
    """Monte Carlo density run: sample, propagate, bin per snapshot."""
    return _mc_estimate(scenario, _cloud(scenario, "MC"))


def _mc_estimate(scenario: ScenarioConfig, cloud) -> RunResult:
    _, snap_states, counts, t_propagation = cloud
    t_start = time.perf_counter()
    snaps = []
    for t, states in zip(scenario.snapshot_times(), snap_states):
        pts = _positions(states, scenario.branch_start)
        joint = mc_joint(pts, make_edges(pts, scenario.n_bins1, scenario.n_bins2))
        snaps.append(SnapshotResult(time=float(t), samples=pts, sample_weights=None,
                                    joint=joint, moment_points=pts, moment_weights=None))
    return RunResult(scenario=scenario, method="MC", snapshots=tuple(snaps),
                     t_propagation=t_propagation,
                     t_interpolation=time.perf_counter() - t_start, **counts)


def _bin_bands(raster: GridRaster, n_b1: int, n_b2: int,
               t: float) -> JointDensityGrid:
    """Weight-mean density of the grid nodes the raster covers.

    The bins span exactly the covered node extent, which raster.extent()
    finds before any band is built.  Grid line i of the extent r0..r1 falls
    in bin min(n_b1 - 1, (i - r0) * n_b1 // (r1 - r0)), in integer
    arithmetic, and columns alike, so a line on a bin edge goes to the upper
    bin whatever its coordinate's round-off.  Each band's covered nodes add
    their weights in row-major order into running per-bin sums; np.add.at
    adds in index order, so the sums are those of one bincount over every
    covered node, bit for bit.
    """
    ext = raster.extent()
    if ext is None or (ext[0] == ext[1] and ext[2] == ext[3]):
        raise InvalidParameterError(
            f"snapshot t={t:g}: fewer than 2 grid nodes to bin")
    r0, r1, c0, c1 = ext
    xs, ys = raster.xs, raster.ys
    # raises DegenerateInputError on a one-row or one-column extent
    grid = make_edges(np.array([[xs[r0], ys[c0]], [xs[r1], ys[c1]]]), n_b1, n_b2)
    row_bins = np.minimum(n_b1 - 1, np.arange(r1 - r0 + 1) * n_b1 // (r1 - r0)) * n_b2
    col_bins = np.minimum(n_b2 - 1, np.arange(c1 - c0 + 1) * n_b2 // (c1 - c0))
    sums = np.zeros(grid.n1 * grid.n2)
    counts = np.zeros(grid.n1 * grid.n2, dtype=np.int64)
    for b0, values, mask in raster.bands(r0, r1 + 1):
        sub = mask[:, c0:c1 + 1]
        bins = np.broadcast_to(row_bins[b0 - r0:b0 - r0 + len(sub), None],
                               sub.shape)[sub]
        bins += np.broadcast_to(col_bins, sub.shape)[sub]
        np.add.at(sums, bins, values[:, c0:c1 + 1][sub])
        counts += np.bincount(bins, minlength=len(counts))
    return dee_joint(sums, counts, grid)


def _dee_snapshot(t: float, pts: np.ndarray, weights: np.ndarray,
                  scenario: ScenarioConfig) -> SnapshotResult:
    """Rebuild one snapshot's density from transported weights.

    The samples are triangulated and the weights linearly interpolated onto
    an n_grid x n_grid uniform grid, one band of whole grid rows at a time
    (geometry.GridRaster), so memory follows the band, not the grid.  Grid
    nodes that fall outside the hull, or inside a triangle whose longest
    edge exceeds _VOID_EDGE_FACTOR times the median longest edge, carry no
    density: such a triangle spans a void between filament arms.  The
    remaining nodes' extent, which fixes the bins, is searched from the
    few triangles that reach furthest each way, and the nodes are then
    binned band by band (_bin_bands).
    """
    try:
        tri = delaunay(pts)
    except DegenerateInputError as exc:
        raise GeometryError(f"snapshot t={t:g}: {exc}") from exc
    edges = longest_edges(tri)
    raster = GridRaster(tri, weights, scenario.n_grid, scenario.n_grid,
                        keep=edges <= _VOID_EDGE_FACTOR * np.median(edges))
    joint = _bin_bands(raster, scenario.n_bins1, scenario.n_bins2, t)
    grid = joint.grid
    # summary moments come from the emitted density grid itself, so the
    # numbers reported downstream are a functional of the published product
    c1, c2 = np.meshgrid(grid.centers1, grid.centers2, indexing="ij")
    return SnapshotResult(time=t, samples=pts, sample_weights=weights, joint=joint,
                          moment_points=np.column_stack([c1.ravel(), c2.ravel()]),
                          moment_weights=joint.values.ravel() * grid.bin_area)


def run_dee(scenario: ScenarioConfig) -> RunResult:
    """Characteristic-transport density run.

    The samples ride the Monte Carlo trajectories: equal (seed, n_sam) give
    bitwise-equal positions.  The flow is Hamiltonian in (phi, u) with
    u = sqrt(1 - e^2), so by Liouville's theorem the Cartesian-chart
    log-density is ln n(t) = ln n(0) + ln u(0) - ln u(t), computed from the
    states.  A weight is a function of its reported position: a row clamped
    onto the disk edge gets the weight of its clamped state.  Each snapshot
    triangulates the wrapped (phi, e) positions, linearly interpolates the
    weights onto an n_grid x n_grid uniform grid, and bins the nodes inside
    the hull that no void-spanning triangle covers.
    """
    return _dee_estimate(scenario, _cloud(scenario, "DEE"))


def _dee_estimate(scenario: ScenarioConfig, cloud) -> RunResult:
    # loaded untimed: geometry.delaunay needs it and its import takes ~0.4 s
    import scipy.spatial  # noqa: F401
    samples, snap_states, counts, t_cloud = cloud
    t_start = time.perf_counter()
    ln_n0 = scenario.initial_gaussian().log_pdf(samples)
    if scenario.jacobian_correction:
        # the flow transports the Cartesian-chart density, ln pdf(phi, e) - ln e
        ln_n0 = ln_n0 - np.log(samples[:, 1])
    t_mid = time.perf_counter()

    positions = [_positions(s, scenario.branch_start) for s in snap_states]
    ln_u0 = _ln_u(positions[0][:, 1])
    snaps = []
    for t, pts in zip(scenario.snapshot_times(), positions):
        # the bracket is exactly 0 at t = 0, so snapshot 0 carries ln_n0
        ln_n = ln_n0 + (ln_u0 - _ln_u(pts[:, 1]))
        if scenario.jacobian_correction:
            # ln_n is Cartesian-chart density; restore the (phi, e) density
            # for triangulated reconstruction
            weights = np.exp(ln_n + np.log(pts[:, 1]))
        else:
            weights = np.exp(ln_n)
        snaps.append(_dee_snapshot(float(t), pts, weights, scenario))
    return RunResult(scenario=scenario, method="DEE", snapshots=tuple(snaps),
                     t_propagation=t_cloud + t_mid - t_start,
                     t_interpolation=time.perf_counter() - t_mid, **counts)

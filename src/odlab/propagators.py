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
rasterised in row order and binned from their grid lines, each band's
weights added into running per-bin sums, so memory follows the band and
every bit is that of binning the whole grid at once.  Wall time is
accounted in two slots, propagation and reconstruction, so runs can be
compared at the phase level.  run() dispatches a scenario to its method,
GMM-UT included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .analysis import MomentSummary, RunResult, sample_moments
from .dynamics import wrap_angle
from .errors import (DegenerateInputError, GeometryError,
                     InvalidParameterError, PropagationError, SingularityError)
# interp_to_grid is not called here; perfbench/tracer.py wraps it by this name
from .geometry import GridRaster, delaunay, interp_to_grid, longest_edges  # noqa: F401
from .gmmut import run_gmmut
from .histogram import (JointDensityGrid, MarginalDensity, add_to_bins,
                        axis_bins, dee_joint, make_edges, marginal, mc_joint)
from .odeint import integrate_batch
from .scenarios import ScenarioConfig
from .stochastics import Gaussian2D, RngStream

__all__ = [
    "SnapshotResult",
    "initial_cloud",
    "dee_initial_weights",
    "run",
    "run_mc",
    "run_dee",
]

# a propagation run is unusable when more than this fraction of samples fails
_MAX_FAILURE_FRACTION = 1e-3
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
    transport pipeline.
    """

    time: float
    samples: np.ndarray
    sample_weights: np.ndarray | None
    joint: JointDensityGrid
    marginal_phi: MarginalDensity
    marginal_e: MarginalDensity
    moment_points: np.ndarray
    moment_weights: np.ndarray | None

    def moments(self, label: str) -> MomentSummary:
        return sample_moments(self.moment_points, self.moment_weights,
                              method=label, time=self.time)


def run(scenario: ScenarioConfig) -> RunResult:
    """Run the scenario's method: "mc", "dee" or "gmmut".

    MC and DEE integrate a cloud of at least 2 * odeint._MIN_SHARE samples
    in row shares on forked processes, one per usable CPU, with results bit
    for bit those of one process.
    """
    if scenario.method == "mc":
        return run_mc(scenario)
    if scenario.method == "dee":
        return run_dee(scenario)
    return run_gmmut(scenario)


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


def _check_failures(failed: np.ndarray, method: str) -> int:
    n_failed = int(failed.sum())
    if n_failed > _MAX_FAILURE_FRACTION * len(failed):
        idx = np.flatnonzero(failed)
        shown = ", ".join(str(i) for i in idx[:10])
        more = "" if len(idx) <= 10 else f" (+{len(idx) - 10} more)"
        raise PropagationError(
            f"{method}: {n_failed}/{len(failed)} trajectories failed "
            f"integration; sample indices {shown}{more}")
    return n_failed


def _trajectories(samples: np.ndarray, scenario: ScenarioConfig, method: str):
    """(states, counts, failed) of the flow from the (phi, e) samples: the
    (x1, x2) rows per snapshot time, the rows flagged in the (n,) mask failed
    left out, and the integrator counts of RunResult.counters()."""
    res = integrate_batch(dynamics.cartesian_field(scenario.orbit_params()),
                          dynamics.cartesian_rows(samples),
                          scenario.snapshot_times(), scenario.rel_tol, scenario.abs_tol,
                          clamp_disk=True)
    n_failed = _check_failures(res.failed, method)
    states = res.states[:, ~res.failed, :] if n_failed else res.states
    counts = dict(n_failed=n_failed, n_clamped=int(res.clamped.sum()),
                  steps_accepted=res.steps_accepted, steps_rejected=res.steps_rejected)
    return states, counts, res.failed


def _mc_snapshot(t: float, pts: np.ndarray, scenario: ScenarioConfig) -> SnapshotResult:
    grid = make_edges(pts, scenario.n_bins1, scenario.n_bins2)
    joint = mc_joint(pts, grid)
    return SnapshotResult(time=t, samples=pts, sample_weights=None, joint=joint,
                          marginal_phi=marginal(joint, 1),
                          marginal_e=marginal(joint, 2),
                          moment_points=pts, moment_weights=None)


def run_mc(scenario: ScenarioConfig) -> RunResult:
    """Monte Carlo density run: sample, propagate, bin per snapshot."""
    t_start = time.perf_counter()
    snap_states, counts, _ = _trajectories(initial_cloud(scenario), scenario, "MC")
    t_mid = time.perf_counter()

    snaps = tuple(
        _mc_snapshot(float(t), _positions(states, scenario.branch_start), scenario)
        for t, states in zip(scenario.snapshot_times(), snap_states))
    t_end = time.perf_counter()
    return RunResult(scenario=scenario, method="MC", snapshots=snaps,
                     t_propagation=t_mid - t_start,
                     t_interpolation=t_end - t_mid, **counts)


def dee_initial_weights(samples: np.ndarray, g: Gaussian2D,
                        jacobian_correction: bool = True) -> np.ndarray:
    """Initial log-density weight of each (phi, e) sample.

    With the Jacobian correction on, the (phi, e) density is converted to
    the Cartesian-chart density transported by the continuity equation:
    ln n = ln pdf(phi, e) - ln e.
    """
    pts = np.asarray(samples, dtype=float)
    ln_n = g.log_pdf(pts)
    if jacobian_correction:
        e = pts[:, 1]
        if np.any(e <= 0.0):
            raise SingularityError(
                "Jacobian correction requires positive eccentricity")
        ln_n = ln_n - np.log(e)
    return ln_n


def _bin_bands(raster: GridRaster, n_b1: int, n_b2: int,
               t: float) -> JointDensityGrid:
    """Weight-mean density of the grid nodes the raster covers.

    The bins span exactly the covered node extent, which raster.extent()
    finds before any band is built.  The bands then run in row order over
    that extent.  A node's bin on each axis depends only on its grid row or
    column, so each grid line is binned once, and each band's covered nodes
    add their weights in row-major order into running per-bin sums: the
    sums of one bincount over every covered node, bit for bit.
    """
    ext = raster.extent()
    if ext is None or (ext[0] == ext[1] and ext[2] == ext[3]):
        raise InvalidParameterError(
            f"snapshot t={t:g}: fewer than 2 grid nodes to bin")
    r0, r1, c0, c1 = ext
    xs, ys = raster.xs, raster.ys
    grid = make_edges(np.array([[xs[r0], ys[c0]], [xs[r1], ys[c1]]]), n_b1, n_b2)
    row_bins = axis_bins(grid, 1, xs[r0:r1 + 1]) * grid.n2
    col_bins = axis_bins(grid, 2, ys[c0:c1 + 1])
    sums = np.zeros(grid.n1 * grid.n2)
    counts = np.zeros(grid.n1 * grid.n2, dtype=np.int64)
    for b0, values, mask in raster.bands(r0, r1 + 1):
        sub = mask[:, c0:c1 + 1]
        bins = np.broadcast_to(row_bins[b0 - r0:b0 - r0 + len(sub), None],
                               sub.shape)[sub]
        bins += np.broadcast_to(col_bins, sub.shape)[sub]
        add_to_bins(sums, counts, values[:, c0:c1 + 1][sub], bins)
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
    return SnapshotResult(time=t, samples=pts, sample_weights=weights,
                          joint=joint,
                          marginal_phi=marginal(joint, 1),
                          marginal_e=marginal(joint, 2),
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
    # loaded untimed: geometry.delaunay needs it and its import takes ~0.4 s
    import scipy.spatial  # noqa: F401
    t_start = time.perf_counter()
    samples = initial_cloud(scenario)
    ln_n0 = dee_initial_weights(samples, scenario.initial_gaussian(),
                                scenario.jacobian_correction)
    snap_states, counts, failed = _trajectories(samples, scenario, "DEE")
    t_mid = time.perf_counter()

    positions = [_positions(s, scenario.branch_start) for s in snap_states]
    ln_n0, ln_u0 = ln_n0[~failed], _ln_u(positions[0][:, 1])
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
    t_end = time.perf_counter()
    return RunResult(scenario=scenario, method="DEE", snapshots=tuple(snaps),
                     t_propagation=t_mid - t_start,
                     t_interpolation=t_end - t_mid, **counts)

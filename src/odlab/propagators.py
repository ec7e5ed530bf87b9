"""Monte Carlo and characteristic-transport density pipelines.

Both pipelines draw the same initial cloud for a given seed and integrate
it, as one batch that odeint cuts into threaded row blocks, along the same
trajectories.  The Monte Carlo estimator bins bare samples per snapshot;
the transport pipeline weights every sample with the log-density the flow
carries to it, in closed form by Liouville's theorem, and rebuilds the
density field on a uniform grid through Delaunay interpolation, leaving
out triangles that span voids of the cloud.  The in-hull grid nodes are
binned from their grid lines: each row and column gets its bin once, and
no per-node coordinate array is built.  Wall time is
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
from .geometry import InterpGrid, delaunay, interp_to_grid, longest_edges
from .gmmut import run_gmmut
from .histogram import (JointDensityGrid, MarginalDensity, axis_bins,
                        dee_joint, make_edges, marginal, mc_joint)
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

    MC and DEE integrate a cloud larger than one odeint row block on every
    usable CPU.
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


def _to_cartesian_cloud(samples: np.ndarray) -> np.ndarray:
    return np.column_stack([samples[:, 1] * np.sin(samples[:, 0]),
                            samples[:, 1] * np.cos(samples[:, 0])])


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


def _trajectories(y0: np.ndarray, scenario: ScenarioConfig, method: str):
    """(states, failed, n_clamped) of the flow's trajectories from y0.

    states holds one (n_kept, 2) array per snapshot time, the rows flagged
    in the (n,) mask failed left out.
    """
    res = integrate_batch(dynamics.cartesian_field(scenario.orbit_params()), y0,
                          scenario.snapshot_times(), scenario.rel_tol, scenario.abs_tol,
                          clamp_disk=True)
    n_failed = _check_failures(res.failed, method)
    states = res.states[:, ~res.failed, :] if n_failed else res.states
    return states, res.failed, int(res.clamped.sum())


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
    snap_states, failed, n_clamped = _trajectories(
        _to_cartesian_cloud(initial_cloud(scenario)), scenario, "MC")
    t_mid = time.perf_counter()

    snaps = tuple(
        _mc_snapshot(float(t), _positions(states, scenario.branch_start), scenario)
        for t, states in zip(scenario.snapshot_times(), snap_states))
    t_end = time.perf_counter()
    return RunResult(scenario=scenario, method="MC", snapshots=snaps,
                     t_propagation=t_mid - t_start,
                     t_interpolation=t_end - t_mid,
                     n_failed=int(failed.sum()), n_clamped=n_clamped)


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


def _bin_grid(field: InterpGrid, n_b1: int, n_b2: int,
              t: float) -> JointDensityGrid:
    """Weight-mean density of the grid nodes inside field.mask.

    The bins span exactly the in-hull node extent.  A node's bin on each
    axis depends only on its grid row or column, so each in-hull grid line
    is binned once, and the nodes of the in-hull sub-block enter dee_joint
    in row-major order, the order of field.values.ravel().
    """
    inside = field.mask
    if np.count_nonzero(inside) < 2:
        raise InvalidParameterError(
            f"snapshot t={t:g}: fewer than 2 grid nodes to bin")
    rows = np.flatnonzero(inside.any(axis=1))
    cols = np.flatnonzero(inside.any(axis=0))
    block = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    sub = inside[block]
    node_w = field.values[block][sub]
    xs, ys = field.xs[block[0]], field.ys[block[1]]
    grid = make_edges(np.array([[xs[0], ys[0]], [xs[-1], ys[-1]]]), n_b1, n_b2)
    bins = np.broadcast_to(axis_bins(grid, 1, xs)[:, None] * grid.n2,
                           sub.shape)[sub]
    bins += np.broadcast_to(axis_bins(grid, 2, ys), sub.shape)[sub]
    return dee_joint(node_w, bins, grid)


def _dee_snapshot(t: float, pts: np.ndarray, weights: np.ndarray,
                  scenario: ScenarioConfig) -> SnapshotResult:
    """Rebuild one snapshot's density from transported weights.

    The samples are triangulated and the weights linearly interpolated onto
    an n_grid x n_grid uniform grid.  Grid nodes that fall outside the hull,
    or inside a triangle whose longest edge exceeds _VOID_EDGE_FACTOR times
    the median longest edge, carry no density: such a triangle spans a void
    between filament arms.  The remaining nodes are binned.
    """
    try:
        tri = delaunay(pts)
    except DegenerateInputError as exc:
        raise GeometryError(f"snapshot t={t:g}: {exc}") from exc
    edges = longest_edges(tri)
    field = interp_to_grid(tri, weights, scenario.n_grid, scenario.n_grid,
                           keep=edges <= _VOID_EDGE_FACTOR * np.median(edges))
    joint = _bin_grid(field, scenario.n_bins1, scenario.n_bins2, t)
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
    snap_states, failed, n_clamped = _trajectories(
        _to_cartesian_cloud(samples), scenario, "DEE")
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
                     t_interpolation=t_end - t_mid,
                     n_failed=int(failed.sum()), n_clamped=n_clamped)

"""Gaussian-mixture propagation with the unscented transformation.

The initial Gaussian is split once, using a precomputed univariate library
that approximates the standard normal by N equally spaced, equal-variance
components.  The split axis, solar angle or eccentricity, is the one along
which the flow is more nonlinear, measured on the sigma points of the
unsplit Gaussian (Vittaldev, Russell & Linares, JGCD 39(12), 2016).  Each
component is carried through the flow by 2*Nvar+1 (x1, x2) sigma points;
those of both candidate splits ride in one integrator batch with the
unsplit ones, and the run keeps the chosen split's rows.  At every snapshot
one unscented pass over all components' point sets, in (phi, e), gives
their means and covariances, and the mixture moments and densities follow
in closed form.  Component weights stay constant.  A mixture is held as
three arrays: weights (k,), means (k, 2) and covariances (k, 2, 2).

The univariate library is fitted offline, as in the method, by
scripts/fit_split_libraries.py: it minimizes the closed-form L2 distance
between the mixture and the standard normal, plus a small sigma^2 penalty,
over the shared standard deviation and the spacing of the means.  Those two
numbers per component count are shipped in _FITTED.  At run time the
means follow from the spacing and the weights from a small quadratic solve
(summing to 1, non-negative), so no optimizer is loaded.
"""

from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .analysis import MomentSummary, RunResult
# angle_tracking_field is not called here; perfbench/tracer.py wraps it by this name
from .dynamics import (TWO_PI, angle_tracking_field, check_start_domain,  # noqa: F401
                       wrap_angle)
from .errors import (InvalidParameterError, InvalidScalingError,
                     LibraryQualityError, PropagationError)
from .histogram import BinGrid, JointDensityGrid, MarginalDensity, make_edges
from .odeint import integrate_batch
from .scenarios import N_1D_MAX, ScenarioConfig
from .stochastics import Gaussian2D, normal2d_pdf, sqrt_spd2

_SQRT2PI = math.sqrt(2.0 * math.pi)
# query points per mixture block (scattered points, or whole rows of a bin
# grid): a (39, block) temporary takes 80 kB, below glibc's 128 kB mmap
# threshold, so the pass is not bound by mapping and trimming memory;
# 2**8 beat 2**7, 2**9 and 2**10 on 50 x 50 bin grids of scattered points
_QUERY_BLOCK = 1 << 8


# --- univariate split library ---------------------------------------------


@dataclass(frozen=True)
class SplitLibrary1D:
    """Means, weights, and the shared sigma splitting a standard normal."""

    means: np.ndarray
    weights: np.ndarray
    sigma: float

    @property
    def n(self) -> int:
        return len(self.means)

    def l2_distance(self) -> float:
        return math.sqrt(max(_l2_sq(self.weights, self.means, self.sigma), 0.0))


def _norm_pdf(x, sigma2):
    return np.exp(-0.5 * x * x / sigma2) / (_SQRT2PI * math.sqrt(sigma2))


def _l2_sq(w, m, sigma):
    """Closed-form squared L2 distance between the mixture and N(0,1)."""
    a = _norm_pdf(m[:, None] - m[None, :], 2.0 * sigma * sigma)
    b = _norm_pdf(m, 1.0 + sigma * sigma)
    c = 1.0 / (2.0 * math.sqrt(math.pi))
    return float(w @ a @ w - 2.0 * b @ w + c)


def _solve_weights(m: np.ndarray, sigma: float):
    """min w'Aw - 2b'w  s.t.  sum w = 1, w >= 0  (small active-set solve)."""
    n = len(m)
    a = _norm_pdf(m[:, None] - m[None, :], 2.0 * sigma * sigma)
    a = a + 1e-13 * np.eye(n)
    b = _norm_pdf(m, 1.0 + sigma * sigma)
    support = np.ones(n, dtype=bool)
    w = np.zeros(n)
    for _ in range(3 * n + 10):
        idx = np.nonzero(support)[0]
        k = len(idx)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * a[np.ix_(idx, idx)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([2.0 * b[idx], [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        wk, nu = sol[:k], sol[k]
        if wk.min() < -1e-12:
            support[idx[np.argmin(wk)]] = False
            continue
        w = np.zeros(n)
        w[idx] = np.maximum(wk, 0.0)
        # dual feasibility of the dropped components
        grad = 2.0 * (a @ w - b) + nu
        off = ~support
        if np.any(off) and grad[off].min() < -1e-10:
            cand = np.nonzero(off)[0]
            support[cand[np.argmin(grad[off])]] = True
            continue
        break
    total = w.sum()
    if total <= 0:
        raise LibraryQualityError("weight solve collapsed")
    return w / total


def _symmetric_means(n: int, spacing: float) -> np.ndarray:
    return spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)


# (sigma, spacing) of each n-component library, as printed by
# scripts/fit_split_libraries.py; --check there re-fits and compares
_FITTED = {
    3: (0.8429729150705896, 0.8591299342484838),
    5: (0.7135240000939694, 0.8179117678707646),
    7: (0.5492635698454001, 0.7447093256209243),
    9: (0.4515332756757627, 0.644688400920005),
    11: (0.38392147994254, 0.561457089208187),
    13: (0.33461326193763985, 0.4950774855305197),
    15: (0.29704083716201957, 0.4419890588108024),
    17: (0.2674218458989079, 0.3989205383119748),
    19: (0.24344427743262406, 0.3634195627940819),
    21: (0.22361668619316544, 0.33371332048089636),
    23: (0.20693125401769902, 0.30851855349414536),
    25: (0.19268479585201073, 0.28689243523766383),
    27: (0.18037092986133874, 0.2681337696311666),
    29: (0.1696148956906926, 0.2517113434116323),
    31: (0.16013402364100737, 0.23721529266425692),
    33: (0.1517118526295699, 0.2243269911510303),
    35: (0.14417533745188357, 0.21279146373770064),
    37: (0.1373903826431584, 0.20240661866435702),
    39: (0.13124744057643947, 0.19300760337082568),
}


@functools.cache
def build_split_library(n_1d: int) -> SplitLibrary1D:
    """Split N(0,1) into n_1d equally spaced, equal-sigma components.

    Rebuilt from the fitted (sigma, spacing) in _FITTED: the means are
    symmetric about 0 and the weights solve the constrained L2 problem,
    mirrored exactly.  Deterministic in n_1d; built once per process.
    """
    if n_1d < 1 or n_1d > N_1D_MAX or n_1d % 2 == 0:
        raise InvalidParameterError(
            f"component count must be odd and in [1, {N_1D_MAX}]")
    if n_1d == 1:
        return SplitLibrary1D(means=np.zeros(1), weights=np.ones(1), sigma=1.0)
    sigma, spacing = _FITTED[n_1d]
    means = _symmetric_means(n_1d, spacing)
    weights = _solve_weights(means, sigma)
    weights = 0.5 * (weights + weights[::-1])  # enforce exact mirror symmetry
    weights = weights / weights.sum()
    lib = SplitLibrary1D(means=means, weights=weights, sigma=sigma)
    validate_library(lib)
    return lib


def validate_library(lib: SplitLibrary1D) -> None:
    """Check the mixture invariants; raise LibraryQualityError on failure."""
    w, m, s = lib.weights, lib.means, lib.sigma
    # every comparison below is false for NaN, so non-finite input stops here
    if not (np.isfinite([s, *m, *w]).all() and s > 0.0):
        raise LibraryQualityError("sigma, means and weights must be finite, "
                                  "sigma positive")
    problems = []
    if abs(w.sum() - 1.0) > 1e-12:
        problems.append("weights do not sum to 1")
    if np.any(w <= 0.0) or np.any(w > 1.0):
        problems.append("weights outside (0, 1]")
    if np.max(np.abs(m + m[::-1])) > 1e-10:
        problems.append("means not antisymmetric")
    if np.max(np.abs(w - w[::-1])) > 1e-12:
        problems.append("weights not symmetric")
    if abs(float(w @ m)) > 1e-10:
        problems.append("first moment nonzero")
    if abs(float(w @ (s * s + m * m)) - 1.0) > 1e-2:
        problems.append("second moment off by more than 1e-2")
    if problems:
        raise LibraryQualityError("; ".join(problems))


def save_split_library(lib: SplitLibrary1D, path) -> None:
    """Write the library as index, mean, weight rows under a sigma comment;
    every number is its repr, which parses back bit for bit."""
    # imported here: fileio loads json, which import odlab never needs
    from .fileio import _write_table
    _write_table(path, ["index", "mean", "weight"],
                 ([i, repr(float(m)), repr(float(w))]
                  for i, (m, w) in enumerate(zip(lib.means, lib.weights), start=1)),
                 (f"sigma = {lib.sigma!r}",))


# --- mixtures ---------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMixture:
    """k bivariate components: weights (k,), means (k, 2), covs (k, 2, 2).

    Every covariance is checked once, here, to be finite, symmetric and SPD.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        p = np.asarray(self.covs, dtype=float)
        k = len(w)
        if w.shape != (k,) or m.shape != (k, 2) or p.shape != (k, 2, 2):
            raise InvalidParameterError(
                "mixture needs weights (k,), means (k, 2) and covs (k, 2, 2); "
                f"got {w.shape}, {m.shape}, {p.shape}")
        sqrt_spd2(p)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", p)

    @property
    def n(self) -> int:
        return len(self.weights)


def split_gaussian(g: Gaussian2D, lib: SplitLibrary1D, direction: int
                   ) -> GaussianMixture:
    """Split a 2-D Gaussian with diagonal covariance along coordinate axis
    `direction` (1-based), scaling that axis's variance by sigma^2.
    """
    if direction not in (1, 2):
        raise InvalidParameterError("direction must be 1 or 2")
    if g.cov[0, 1] != 0.0 or g.cov[1, 0] != 0.0:
        raise InvalidParameterError("split needs a diagonal covariance")
    k = direction - 1
    means = np.repeat(g.mean[None], lib.n, axis=0)
    means[:, k] += math.sqrt(g.cov[k, k]) * lib.means
    cov = g.cov.copy()
    cov[k, k] = lib.sigma ** 2 * g.cov[k, k]
    return GaussianMixture(weights=lib.weights, means=means,
                           covs=np.repeat(cov[None], lib.n, axis=0))


def merge_moments(mix: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    """Overall mean and covariance of a mixture."""
    w = mix.weights
    total = w.sum()
    if total <= 0:
        raise InvalidParameterError("mixture weights sum to zero")
    w = w / total
    means = mix.means
    covs = mix.covs
    m_c = w @ means
    second = np.einsum("k,kij->ij", w, covs + np.einsum("ki,kj->kij", means, means))
    p_c = second - np.outer(m_c, m_c)
    return m_c, 0.5 * (p_c + p_c.T)


def _component_sum(terms: np.ndarray) -> np.ndarray:
    """terms (k, ...) added over k in component order: np.add.reduce adds
    whole rows in turn, but sums a lone column pairwise, which moves bits."""
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _mixture_sum(mix: GaussianMixture, x0, x1) -> np.ndarray:
    """Mixture density at points (x0, x1), which broadcast against each
    other: one pass over all components, whose weighted densities are added
    in component order."""
    lead = (-1,) + (1,) * np.broadcast(x0, x1).ndim
    pdf = normal2d_pdf(x0, x1, mix.means.reshape(lead + (2,)),
                       mix.covs.reshape(lead + (2, 2)))
    pdf *= mix.weights.reshape(lead)
    return _component_sum(pdf)


def mixture_pdf(mix: GaussianMixture, query: np.ndarray) -> np.ndarray | float:
    """Joint mixture density at query point(s) of shape (..., 2).

    The points are taken in blocks of at most _QUERY_BLOCK, each evaluated
    against all components in one (k, block) pass.
    """
    q = np.asarray(query, dtype=float)
    points = q.reshape(-1, 2)
    out = np.zeros(len(points))
    for lo in range(0, len(points), _QUERY_BLOCK):
        block = points[lo:lo + _QUERY_BLOCK]
        out[lo:lo + _QUERY_BLOCK] = _mixture_sum(mix, block[:, 0], block[:, 1])
    if q.ndim == 1:
        return float(out[0])
    return out.reshape(q.shape[:-1])


def mixture_marginal(mix: GaussianMixture, axis: int, query) -> np.ndarray | float:
    """1-D mixture marginal along axis (1-based) at scalar or array query."""
    if axis not in (1, 2):
        raise InvalidParameterError("axis must be 1 or 2")
    q = np.asarray(query, dtype=float)
    shape = (-1,) + (1,) * q.ndim  # components on a new leading axis
    mean = mix.means[:, axis - 1].reshape(shape)
    var = mix.covs[:, axis - 1, axis - 1].reshape(shape)
    out = _component_sum(mix.weights.reshape(shape) * np.exp(
        -0.5 * (q - mean) ** 2 / var) / (_SQRT2PI * np.sqrt(var)))
    if np.ndim(query) == 0:
        return float(out)
    return out


# --- unscented transformation -------------------------------------------------


# scaled unscented transform parameters (Julier, ACC 2002); with them
# nvar + zeta = 0.64 * nvar, so the point spread is positive for nvar >= 1
_ALPHA, _BETA, _ETA = 0.8, 0.0, 2.0


def _zeta(nvar: int) -> float:
    return _ALPHA ** 2 * (nvar + _BETA) - nvar


def ut_weights(nvar: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance weights for the 2*nvar+1 symmetric point set."""
    if nvar < 1:
        raise InvalidScalingError("nvar must be >= 1")
    zeta = _zeta(nvar)
    denom = nvar + zeta
    w_m = np.full(2 * nvar + 1, 1.0 / (2.0 * denom))
    w_p = w_m.copy()
    w_m[0] = zeta / denom
    w_p[0] = zeta / denom + 1.0 - _ALPHA ** 2 + _ETA
    return w_m, w_p


def sigma_points(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The symmetric scaled sigma-point set: center, then +columns, then -;
    stacked means (..., nvar) and covs give sets (..., 2*nvar+1, nvar)."""
    mean = np.asarray(mean, dtype=float)[..., None, :]
    nvar = mean.shape[-1]
    chol = sqrt_spd2(np.asarray(cov, dtype=float))
    # row i: column i
    offsets = math.sqrt(nvar + _zeta(nvar)) * np.swapaxes(chol, -1, -2)
    return np.concatenate([mean, mean + offsets, mean - offsets], axis=-2)


def ut_transform(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean/covariance of transformed sigma points.

    points has shape (..., 2*nvar+1, dim): one set, or a stack of sets that
    each get their own mean (..., dim) and covariance (..., dim, dim).
    """
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise PropagationError("sigma points contain non-finite values")
    if pts.ndim < 2 or pts.shape[-2] % 2 != 1:
        raise InvalidParameterError("expected 2*nvar+1 sigma points")
    w_m, w_p = ut_weights((pts.shape[-2] - 1) // 2)
    mean = w_m @ pts
    dev = pts - mean[..., None, :]
    cov = np.swapaxes(w_p[:, None] * dev, -1, -2) @ dev
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


# --- end-to-end mixture propagation -------------------------------------------


@dataclass(frozen=True)
class GmmSnapshot:
    """Mixture state at one snapshot time, plus densities on a grid."""

    time: float
    mixture: GaussianMixture
    mean: np.ndarray
    cov: np.ndarray
    joint: JointDensityGrid
    marginal_phi: MarginalDensity
    marginal_e: MarginalDensity

    def moments(self, label: str) -> MomentSummary:
        sd = np.sqrt(np.diag(self.cov))
        return MomentSummary(time=self.time, method=label,
                             mu_phi=float(self.mean[0]), sigma_phi=float(sd[0]),
                             mu_e=float(self.mean[1]), sigma_e=float(sd[1]))


def _sigma_set_points(states: np.ndarray) -> np.ndarray:
    """Propagated (x1, x2) sigma-point sets (..., 2*nvar+1, 2) back to
    (phi, e), not wrapped into a branch: every point goes on the 2*pi sheet
    nearest its center's arctan2 angle, so no set straddles the branch cut.
    """
    x1, x2 = states[..., 0], states[..., 1]
    raw = np.arctan2(x1, x2)
    phi = raw + TWO_PI * np.round((raw[..., :1] - raw) / TWO_PI)
    return np.stack([phi, np.hypot(x1, x2)], axis=-1)


def _split_direction(probe: np.ndarray) -> int:
    """Axis (1 = solar angle, 2 = eccentricity) to split the initial Gaussian.

    probe holds the (x1, x2) snapshots (n_snapshots, 5, 2) of the 2*2+1
    sigma points of the unsplit initial Gaussian.  For axis j the second
    difference x+j + x-j - 2*x0, whitened by the Cholesky factor of the
    propagated UT covariance, is zero for a linear flow and grows with its
    curvature along that axis.  The axis with the larger maximum over the
    snapshots after t = 0 wins; ties and a lone t = 0 snapshot keep the
    solar angle.  The scenario covariance is diagonal, so sigma-point pair
    j lies along axis j.
    """
    worst = np.zeros(2)
    for states in probe[1:]:
        pts = _sigma_set_points(states)
        _, cov = ut_transform(pts)
        bend = pts[1:3] + pts[3:5] - 2.0 * pts[0]
        worst = np.maximum(worst, np.linalg.norm(
            np.linalg.solve(sqrt_spd2(cov), bend.T), axis=0))
    return 2 if worst[1] > worst[0] else 1


def density_grid_for_mixture(mix: GaussianMixture, grid: BinGrid
                             ) -> JointDensityGrid:
    """Mixture joint density sampled at bin centers.

    The grid is the outer product of the centers, taken in blocks of whole
    rows of at most _QUERY_BLOCK nodes; the terms in one coordinate are
    computed per row or per column, not per node.
    """
    c1, c2 = grid.centers1, grid.centers2
    rows = max(1, _QUERY_BLOCK // len(c2))
    values = np.empty((len(c1), len(c2)))
    for lo in range(0, len(c1), rows):
        values[lo:lo + rows] = _mixture_sum(mix, c1[lo:lo + rows, None], c2)
    return JointDensityGrid(grid=grid, values=values)


def _default_grid(mix: GaussianMixture, n1: int, n2: int) -> BinGrid:
    """Bins covering +-6 sigma of every component."""
    sds = np.sqrt(mix.covs[:, (0, 1), (0, 1)])
    lo = (mix.means - 6.0 * sds).min(axis=0)
    hi = (mix.means + 6.0 * sds).max(axis=0)
    corners = np.array([lo, hi])
    return make_edges(corners, n1, n2)


def run_gmmut(scenario: ScenarioConfig) -> RunResult:
    """Split, propagate sigma points, and re-merge moments per snapshot.

    One batch of the Cartesian field, at the scenario tolerance, carries
    the (x1, x2) rows of the 2*2+1 sigma points of the unsplit initial
    Gaussian (the split-axis probe) and of every component of both splits
    by the n_1d-component library.  Step control is per row, so no row's
    bits depend on its batchmates.
    The probe picks the split axis (_split_direction) and only that split's
    rows are kept; a failed probe or kept row raises PropagationError.  At
    each snapshot one unscented pass over the stacked (k, 5, 2) (phi, e)
    point sets gives the component means and covariances, the means wrapped
    into the scenario branch, and the mixture density is evaluated on a
    grid covering +-6 sigma of every component.  The split library is
    precomputed, as in the method: it is rebuilt from the shipped fitted
    table once per process, outside t_propagation.
    """
    lib = build_split_library(scenario.n_1d)
    t_start = _time.perf_counter()
    g = scenario.initial_gaussian()
    splits = [split_gaussian(g, lib, direction) for direction in (1, 2)]
    probe = sigma_points(g.mean, g.cov)
    sets = np.stack([sigma_points(mix.means, mix.covs)
                     for mix in splits])  # (2, k, 5, 2)
    start = np.concatenate([probe, sets.reshape(-1, 2)])
    check_start_domain(start[:, 1], "sigma points")

    times = scenario.snapshot_times()
    res = integrate_batch(dynamics.cartesian_field(scenario.orbit_params()),
                          dynamics.cartesian_rows(start), times, scenario.rel_tol,
                          scenario.abs_tol, clamp_disk=True)
    failed, states = res.failed, res.states
    n_probe, n_set = len(probe), sets.shape[1] * sets.shape[2]
    if failed[:n_probe].any():
        raise PropagationError("split-axis probe failed to integrate")
    direction = _split_direction(states[:, :n_probe])
    chosen = slice(n_probe + (direction - 1) * n_set, n_probe + direction * n_set)
    if failed[chosen].any():
        raise PropagationError(
            f"{int(failed[chosen].sum())} sigma points failed to integrate")
    mix0, states = splits[direction - 1], states[:, chosen]
    t_prop = _time.perf_counter() - t_start

    t_eval_start = _time.perf_counter()
    snapshots = []
    for t, snap_states in zip(times, states):
        pts = _sigma_set_points(snap_states.reshape(sets.shape[1:]))
        means, covs = ut_transform(pts)
        means[:, 0] = wrap_angle(means[:, 0], scenario.branch_start)
        mix_t = GaussianMixture(weights=mix0.weights, means=means, covs=covs)
        mean_t, cov_t = merge_moments(mix_t)
        grid = _default_grid(mix_t, scenario.n_bins1, scenario.n_bins2)
        joint = density_grid_for_mixture(mix_t, grid)
        marg1 = MarginalDensity(grid, 1, mixture_marginal(mix_t, 1, grid.centers1))
        marg2 = MarginalDensity(grid, 2, mixture_marginal(mix_t, 2, grid.centers2))
        snapshots.append(GmmSnapshot(time=float(t), mixture=mix_t,
                                     mean=mean_t, cov=cov_t, joint=joint,
                                     marginal_phi=marg1, marginal_e=marg2))
    t_eval = _time.perf_counter() - t_eval_start

    return RunResult(scenario=scenario, method="GMM-UT",
                     snapshots=tuple(snapshots), t_propagation=t_prop, t_interpolation=t_eval,
                     n_clamped=int(res.clamped[chosen].sum()), n_sigma_points=n_set,
                     steps_accepted=res.steps_accepted, steps_rejected=res.steps_rejected)

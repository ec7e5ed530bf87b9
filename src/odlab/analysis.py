"""Run results, moment summaries, stationary points and sub-domain labels.

The phase portrait at (C, W) has three interior equilibria: a maximum of H
on the cos(phi) = 1 axis, a saddle above it, and a minimum at phi = pi.
Together with the degenerate e = 0 circle, whose H value is 1 + W/3
everywhere, the saddle level splits the disk into three labeled regions:
libration about the pi-center (SubD1), circulation around the origin
(SubD2), and libration about the low-e center inside the separatrix loop
(SubD3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TWO_PI, OrbitParams, PolarPhaseState, hamiltonian
from .errors import DegenerateInputError, InvalidParameterError
from .scenarios import ScenarioConfig

__all__ = [
    "MomentSummary",
    "RunResult",
    "StationaryPoint",
    "sample_moments",
    "relative_errors",
    "gradient_H",
    "find_stationary_points",
    "classify_subdomain",
    "level_curves",
]

# ties against a sub-domain boundary level are reported, not assigned
BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class MomentSummary:
    """First two moments per axis at one snapshot time."""

    time: float
    method: str
    mu_phi: float
    sigma_phi: float
    mu_e: float
    sigma_e: float

    def as_array(self) -> np.ndarray:
        return np.array([self.mu_phi, self.sigma_phi, self.mu_e, self.sigma_e])


@dataclass(frozen=True)
class RunResult:
    """All snapshots of one pipeline run plus its two-part wall-time split.

    method is "MC", "DEE" or "GMM-UT".  The snapshots are the pipeline's
    own type (propagators.SnapshotResult or gmmut.GmmSnapshot); each one
    summarizes itself through moments(label).  n_sigma_points counts the
    propagated GMM-UT sigma points and is 0 for the sampling pipelines.
    MC and DEE cases of one run_study on one cloud share its integration,
    and each is charged its full time in t_propagation.
    """

    scenario: ScenarioConfig
    method: str
    snapshots: tuple
    t_propagation: float
    t_interpolation: float
    n_failed: int = 0
    n_clamped: int = 0
    n_sigma_points: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0

    @property
    def t_total(self) -> float:
        return self.t_propagation + self.t_interpolation

    def counters(self) -> dict[str, int]:
        """The integrator counts by name, as manifest.json records them."""
        return {k: getattr(self, k) for k in
                ("n_failed", "n_clamped", "steps_accepted", "steps_rejected")}

    def moments(self, label: str) -> list[MomentSummary]:
        """Per-snapshot moment summaries tagged with label."""
        return [snap.moments(label) for snap in self.snapshots]


@dataclass(frozen=True)
class StationaryPoint:
    phi: float
    e: float
    hamiltonian: float
    kind: str  # "center" | "saddle"


def sample_moments(points: np.ndarray, weights: np.ndarray | None = None, *,
                   method: str = "", time: float = 0.0) -> MomentSummary:
    """Weighted mean and population standard deviation per axis.

    Callers supply phi already wrapped into the scenario branch; no angle
    arithmetic happens here.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise InvalidParameterError("points must have shape (n >= 2, 2)")
    if weights is None:
        mu = pts.mean(axis=0)
        sd = pts.std(axis=0)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(pts),):
            raise InvalidParameterError("weights must match points in length")
        if np.any(w < 0):
            raise InvalidParameterError("weights must be non-negative")
        total = w.sum()
        if total <= 0.0:
            raise DegenerateInputError("weights sum to zero")
        mu = (w[:, None] * pts).sum(axis=0) / total
        sd = np.sqrt((w[:, None] * (pts - mu) ** 2).sum(axis=0) / total)
    return MomentSummary(time=time, method=method,
                         mu_phi=float(mu[0]), sigma_phi=float(sd[0]),
                         mu_e=float(mu[1]), sigma_e=float(sd[1]))


def relative_errors(ref: MomentSummary, test: MomentSummary) -> np.ndarray:
    """|test - ref| / |ref| per component (mu_phi, sigma_phi, mu_e, sigma_e).

    Components with a zero reference value are returned as nan: the
    relative error is undefined there.
    """
    r = ref.as_array()
    t = test.as_array()
    out = np.full(4, np.nan)
    ok = r != 0.0
    out[ok] = np.abs(t[ok] - r[ok]) / np.abs(r[ok])
    return out


# --- Stationary points -------------------------------------------------------


def gradient_H(phi, e, p: OrbitParams) -> np.ndarray:
    """(dH/dphi, dH/de) of the reduced Hamiltonian; phi and e may be arrays."""
    u = np.sqrt(1.0 - e * e)
    return np.array([
        -p.C * e * np.sin(phi),
        -e / u + p.C * np.cos(phi) + p.W * e * u ** -5,
    ])


def _hessian_H(phi: float, e: float, p: OrbitParams) -> np.ndarray:
    u2 = 1.0 - e * e
    u = math.sqrt(u2)
    h_pp = -p.C * e * math.cos(phi)
    h_pe = -p.C * math.sin(phi)
    h_ee = (-1.0 / u - e * e / u ** 3
            + p.W * u ** -5 + 5.0 * p.W * e * e * u ** -7)
    return np.array([[h_pp, h_pe], [h_pe, h_ee]])


_E_CAP = 0.95  # above this the W term dominates and no equilibria exist
_N_SCAN = 4001  # e nodes of the bracket scans for equilibria and level curves


def _polish(f, a: float, b: float) -> float:
    """Root of f bracketed by [a, b], to the last bits of a double."""
    # imported here: scipy.optimize takes ~0.4 s to load, and only the
    # portrait needs it
    from scipy.optimize import brentq
    # the tightest tolerances brentq accepts
    return brentq(f, a, b, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def find_stationary_points(p: OrbitParams) -> tuple[StationaryPoint, ...]:
    """All solutions of grad H = 0 over phi in [0, 2*pi], sorted by (phi, e).

    dH/dphi = -C e sin(phi), and at e = 0 the Cartesian gradient is (0, C),
    so for C > 0 every equilibrium lies on phi in {0, pi, 2*pi}.  On those
    lines dH/de depends on e alone: its sign changes are bracketed on a
    dense e grid over (1e-4, _E_CAP) and polished with Brent's method.
    Both phi = 0 and 2*pi are kept, matching a portrait drawn on a closed
    rectangle.  With C = 0, H does not depend on phi and the equilibria
    form circles e = const rather than points, so none are returned.
    """
    if p.C == 0.0:
        return ()
    es = np.linspace(1e-4, _E_CAP, _N_SCAN)
    points = []
    for phi in (0.0, math.pi, 2.0 * math.pi):
        g = gradient_H(phi, es, p)[1]
        for i in np.flatnonzero(np.signbit(g[:-1]) != np.signbit(g[1:])):
            e = _polish(lambda x: gradient_H(phi, x, p)[1], es[i], es[i + 1])
            det = np.linalg.det(_hessian_H(phi, e, p))
            kind = "center" if det > 0 else "saddle"
            h = hamiltonian(PolarPhaseState(phi=phi, e=e), p)
            points.append(StationaryPoint(phi=phi, e=e, hamiltonian=h, kind=kind))
    return tuple(points)


# --- Sub-domain classification ----------------------------------------------


def _portrait_levels(points: tuple[StationaryPoint, ...], p: OrbitParams
                     ) -> tuple[float, float, float, float, float]:
    """Levels (H_min_center, H_zero, H_saddle, H_max_center) and e_saddle."""
    saddles = [q for q in points if q.kind == "saddle"]
    centers = [q for q in points if q.kind == "center"]
    if not saddles or len(centers) < 2:
        raise InvalidParameterError(
            "portrait lacks the saddle / two-center structure needed "
            "for sub-domain labels")
    h_sep = saddles[0].hamiltonian
    e_saddle = saddles[0].e
    h_vals = [q.hamiltonian for q in centers]
    return min(h_vals), 1.0 + p.W / 3.0, h_sep, max(h_vals), e_saddle


def classify_subdomain(s: PolarPhaseState,
                       points: tuple[StationaryPoint, ...],
                       p: OrbitParams) -> str:
    """Label a state SubD1 / SubD2 / SubD3, "boundary", or "outside".

    Labels are constant along trajectories because they depend on the state
    only through the conserved H (plus the e-side of the saddle, which a
    trajectory cannot change without crossing the separatrix):

    - SubD1: H below the degenerate e = 0 level 1 + W/3 (libration about
      the phi = pi center),
    - SubD2: H between the e = 0 level and the saddle level (circulation),
    - SubD3: H between the saddle level and the low-e center's level with
      e on the low side of the saddle (libration inside the separatrix).

    States within BOUNDARY_TOL of any dividing level are reported as
    "boundary" rather than silently assigned.
    """
    h_lo, h_zero, h_sep, h_hi, e_saddle = _portrait_levels(points, p)
    h = hamiltonian(s, p)
    if any(abs(h - lvl) <= BOUNDARY_TOL for lvl in (h_lo, h_zero, h_sep, h_hi)):
        return "boundary"
    if h_lo < h < h_zero:
        return "SubD1"
    if h_zero < h < h_sep:
        return "SubD2"
    if h_sep < h < h_hi and s.e < e_saddle:
        return "SubD3"
    return "outside"


# --- Level curves ------------------------------------------------------------


def level_curves(p: OrbitParams, level: float) -> list[np.ndarray]:
    """Polylines of {H = level} in [0, 2*pi] x [1e-4, _E_CAP], each of
    shape (k, 2) holding (phi, e) rows, longest first.

    H is affine in cos(phi), so on each e of the scan the level holds at
    cos(phi) = x(e) = (level - u - (W/3) u^-3) / (C e).  Each run of scan
    nodes with |x| <= 1 is extended to the roots of |x| = 1 beside it and
    traced on both branches, phi = arccos(x) and 2*pi - arccos(x).  The
    branches meet at phi = pi where x = -1: a run with one such end is one
    polyline, and a run with two is a closed loop that repeats its first
    vertex at the end.  Ends with x = +1 lie on the phi = 0 and 2*pi edges.
    """
    if p.C <= 0.0:
        raise InvalidParameterError("level curves need C > 0")

    def x_of(e):
        # correctly rounded operations only, so a scalar e gives the bits
        # of the same e in the scan array
        u2 = 1.0 - e * e
        u = np.sqrt(u2)
        return (level - u - (p.W / 3.0) / (u2 * u)) / (p.C * e)

    es = np.linspace(1e-4, _E_CAP, _N_SCAN)
    x = x_of(es)
    inside = np.concatenate(([False], np.abs(x) <= 1.0, [False]))
    polylines = []
    # each run of inside nodes is es[lo:hi]
    for lo, hi in np.flatnonzero(inside[1:] != inside[:-1]).reshape(-1, 2):
        e_run, x_run = list(es[lo:hi]), list(x[lo:hi])
        if lo > 0:
            s = math.copysign(1.0, x[lo - 1])
            e_run.insert(0, _polish(lambda e: x_of(e) - s, es[lo - 1], es[lo]))
            x_run.insert(0, s)
        if hi < len(es):
            s = math.copysign(1.0, x[hi])
            e_run.append(_polish(lambda e: x_of(e) - s, es[hi - 1], es[hi]))
            x_run.append(s)
        a = np.column_stack((np.arccos(x_run), e_run))
        b = np.column_stack((TWO_PI - a[:, 0], e_run))[::-1]
        if x_run[-1] == -1.0:  # a ends where b starts, at phi = pi
            polylines.append(np.concatenate((a, b[1:])))
        elif x_run[0] == -1.0:  # b ends where a starts
            polylines.append(np.concatenate((b, a[1:])))
        else:
            polylines.extend((a, b))
    # longest first so the separatrix leads the output
    polylines.sort(key=len, reverse=True)
    return polylines

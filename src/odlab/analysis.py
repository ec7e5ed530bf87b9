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

from .dynamics import OrbitParams, PolarPhaseState, hamiltonian
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
    "hamiltonian_grid",
    "contour_polylines",
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
    """

    scenario: ScenarioConfig
    method: str
    snapshots: tuple
    t_propagation: float
    t_interpolation: float
    n_failed: int = 0
    n_clamped: int = 0
    n_sigma_points: int = 0

    @property
    def t_total(self) -> float:
        return self.t_propagation + self.t_interpolation

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
_N_SCAN = 4001  # e nodes of the bracket scan on each phi line


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
    if p.C < 0 or p.W < 0:
        raise InvalidParameterError("C and W must be non-negative")
    if p.C == 0.0:
        return ()
    # imported here: scipy.optimize takes ~0.4 s to load, and only this search needs it
    from scipy.optimize import brentq
    es = np.linspace(1e-4, _E_CAP, _N_SCAN)
    points = []
    for phi in (0.0, math.pi, 2.0 * math.pi):
        g = gradient_H(phi, es, p)[1]
        for i in np.flatnonzero(np.signbit(g[:-1]) != np.signbit(g[1:])):
            # the tightest tolerances brentq accepts: e to the last bits
            e = brentq(lambda x: gradient_H(phi, x, p)[1], es[i], es[i + 1],
                       xtol=1e-300, rtol=4 * np.finfo(float).eps)
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


# --- Portrait grids and contours ----------------------------------------------


def hamiltonian_grid(p: OrbitParams, n_phi: int = 400, n_e: int = 400,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phis, es, H) with H[i, j] = H(phis[i], es[j]) on [0, 2*pi] x [1e-4, 0.95]."""
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi)
    es = np.linspace(1e-4, _E_CAP, n_e)
    pg, eg = np.meshgrid(phis, es, indexing="ij")
    u2 = 1.0 - eg ** 2
    h = np.sqrt(u2) + p.C * eg * np.cos(pg) + (p.W / 3.0) * u2 ** -1.5
    return phis, es, h


def contour_polylines(phis: np.ndarray, es: np.ndarray, h: np.ndarray,
                      level: float) -> list[np.ndarray]:
    """Marching-squares polylines of {H = level}, each of shape (k, 2).

    Segment endpoints are linearly interpolated on cell edges and chained
    into polylines; closed loops repeat their first vertex at the end.
    """
    above = h >= level

    def edge_point(i0, j0, i1, j1):
        v0, v1 = h[i0, j0], h[i1, j1]
        t = 0.5 if v1 == v0 else (level - v0) / (v1 - v0)
        return (phis[i0] + t * (phis[i1] - phis[i0]),
                es[j0] + t * (es[j1] - es[j0]))

    def edge_key(i0, j0, i1, j1):
        return (i0, j0, i1, j1)

    links: dict[tuple, list[tuple]] = {}
    pts: dict[tuple, tuple] = {}
    for i in range(h.shape[0] - 1):
        for j in range(h.shape[1] - 1):
            corners = (above[i, j], above[i + 1, j],
                       above[i + 1, j + 1], above[i, j + 1])
            idx = (corners[0] | corners[1] << 1
                   | corners[2] << 2 | corners[3] << 3)
            if idx in (0, 15):
                continue
            # edges of a cell: bottom (j fixed), right, top, left
            eb = edge_key(i, j, i + 1, j)
            er = edge_key(i + 1, j, i + 1, j + 1)
            et = edge_key(i, j + 1, i + 1, j + 1)
            el = edge_key(i, j, i, j + 1)
            cut = {
                1: (el, eb), 2: (eb, er), 3: (el, er), 4: (er, et),
                5: None, 6: (eb, et), 7: (el, et), 8: (et, el),
                9: (et, eb), 10: None, 11: (et, er), 12: (er, el),
                13: (er, eb), 14: (eb, el),
            }[idx]
            pairs = []
            if cut is None:
                # ambiguous saddle cell: resolve by center value
                center = 0.25 * (h[i, j] + h[i + 1, j]
                                 + h[i + 1, j + 1] + h[i, j + 1])
                if (center >= level) == corners[0]:
                    pairs = [(el, eb), (er, et)] if idx == 5 else [(eb, er), (et, el)]
                else:
                    pairs = [(el, et), (eb, er)] if idx == 5 else [(eb, el), (er, et)]
            else:
                pairs = [cut]
            for a, b in pairs:
                for k, (i0, j0, i1, j1) in ((a, a), (b, b)):
                    if k not in pts:
                        pts[k] = edge_point(i0, j0, i1, j1)
                links.setdefault(a, []).append(b)
                links.setdefault(b, []).append(a)

    # chain segments into polylines
    visited: set[tuple[tuple, tuple]] = set()
    polylines = []
    for start in list(links):
        for nxt in links[start]:
            if (start, nxt) in visited:
                continue
            chain = [start, nxt]
            visited.add((start, nxt))
            visited.add((nxt, start))
            while True:
                cur, prev = chain[-1], chain[-2]
                ext = [q for q in links[cur]
                       if q != prev and (cur, q) not in visited]
                if not ext:
                    break
                chain.append(ext[0])
                visited.add((cur, ext[0]))
                visited.add((ext[0], cur))
            polylines.append(np.array([pts[k] for k in chain]))
    # longest first so the separatrix loop leads the output
    polylines.sort(key=len, reverse=True)
    return polylines


"""Adaptive explicit integration with exact snapshot output.

The scheme is the Dormand-Prince embedded 5(4) pair (FSAL) with a PI
step-size controller.  The engine operates on a batch of trajectories at
once, but every control decision (error norm, step size, acceptance) is
made per trajectory from that trajectory's own history, so results are
bitwise identical no matter how trajectories are grouped into batches.

Snapshots are produced exactly at t0 + k*dt_snap by clipping the step to
the next boundary and assigning the boundary time on acceptance.

Internally the state, the stages and the error estimate are (dim, n)
arrays, one contiguous row per state component, so the stage arithmetic
runs over long rows.  Fields keep the (n, d) contract: they receive the
transpose of a row array, an (n, d) view in column-major order that they
must neither keep nor write to, and return (n, d) rates; a column-major
result (as the dynamics fields return) is taken back without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import InvalidParameterError, StepBudgetError

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
# fifth-order minus fourth-order weights (error estimate)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_SAFETY = 0.9
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_FAC_MIN, _FAC_MAX = 0.2, 10.0
# spacing of doubles relative to their magnitude
_ROUNDOFF = float(np.finfo(float).eps)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step limits for the embedded pair."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_max: float = 0.05
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "h_init", "h_max"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParameterError(f"{name} must be finite and positive")
        if self.max_steps < 1:
            raise InvalidParameterError("max_steps must be at least 1")


@dataclass(frozen=True)
class SnapshotPlan:
    """Equally spaced output times t0 + k*dt_snap, k = 0..K."""

    t0: float
    t_end: float
    dt_snap: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.t0, self.t_end, self.dt_snap)):
            raise InvalidParameterError("plan times must be finite")
        if self.t_end <= self.t0:
            raise InvalidParameterError("t_end must exceed t0")
        if self.dt_snap <= 0.0:
            raise InvalidParameterError("dt_snap must be positive")
        k = (self.t_end - self.t0) / self.dt_snap
        if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
            raise InvalidParameterError("(t_end - t0) must be an integer multiple of dt_snap")

    @property
    def n_snapshots(self) -> int:
        return int(round((self.t_end - self.t0) / self.dt_snap)) + 1

    def times(self) -> np.ndarray:
        return self.t0 + self.dt_snap * np.arange(self.n_snapshots)


@dataclass
class BatchResult:
    """States of a trajectory batch at every snapshot time.

    states has shape (n_snapshots, n_traj, dim).  failed marks trajectories
    that exhausted the step budget, underflowed the step size or asked for
    a tolerance below the rounding unit of their state; t_reached records
    how far each one got.  clamped marks trajectories that were
    pulled back onto the unit disk at least once.
    """

    times: np.ndarray
    states: np.ndarray
    failed: np.ndarray
    clamped: np.ndarray
    t_reached: np.ndarray
    steps_accepted: int
    steps_rejected: int


def integrate_batch(field, y0, plan: SnapshotPlan, cfg: IntegratorConfig = IntegratorConfig(),
                    clamp_disk: bool = False) -> BatchResult:
    """Propagate a batch of states through all snapshot times.

    field(t, y) takes t of shape (n,) and y of shape (n, d) and returns
    (n, d) rates.  y may be in any memory order and may be a view of an
    array the integrator reuses, so a field must neither keep nor write to
    it.  Returning a column-major (Fortran-ordered) array avoids a copy;
    any other (n, d) array-like is accepted.  With clamp_disk=True accepted
    states whose first two components leave the unit disk are rescaled
    onto its edge and flagged.
    A trajectory whose error scale abs_tol + rel_tol * |y| drops below the
    rounding unit of a state component fails at once: rounding alone moves
    that state by more than the tolerance, so it would only creep on in
    tiny steps until the step budget runs out.  This needs rel_tol below
    that unit.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim == 1:
        y0 = y0[None, :]
    n, dim = y0.shape
    times = plan.times()
    n_snap = len(times)
    out = np.empty((n_snap, n, dim))
    out[0] = y0

    def rates(t, y):
        # (dim, n) rows in and out; the field sees and returns (n, d)
        return np.ascontiguousarray(np.asarray(field(t, y.T), dtype=float).T)

    y = np.array(y0.T, order="C")
    t = np.full(n, float(plan.t0))
    h = np.full(n, min(cfg.h_init, cfg.h_max, plan.dt_snap))
    err_prev = np.ones(n)
    snap_idx = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    clamped = np.zeros(n, dtype=bool)
    attempts = np.zeros(n, dtype=np.int64)
    acc_total = 0
    rej_total = 0
    check_floor = cfg.rel_tol < _ROUNDOFF

    k1 = rates(t, y)

    while active.any():
        target = times[np.minimum(snap_idx, n_snap - 1)]
        room = target - t
        h_try = np.minimum(h, cfg.h_max)
        boundary = h_try >= room
        h_try = np.where(boundary, room, h_try)
        h_try = np.where(active, h_try, 0.0)

        y2 = y + h_try * (_A21 * k1)
        k2 = rates(t + _C2 * h_try, y2)
        y3 = y + h_try * (_A31 * k1 + _A32 * k2)
        k3 = rates(t + _C3 * h_try, y3)
        y4 = y + h_try * (_A41 * k1 + _A42 * k2 + _A43 * k3)
        k4 = rates(t + _C4 * h_try, y4)
        y5 = y + h_try * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
        k5 = rates(t + _C5 * h_try, y5)
        y6 = y + h_try * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
        k6 = rates(t + h_try, y6)
        y_new = y + h_try * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = rates(t + h_try, y_new)

        err_vec = h_try * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        mag = np.maximum(np.abs(y), np.abs(y_new))
        scale = cfg.abs_tol + cfg.rel_tol * mag
        err_norm = np.sqrt(np.add.reduce((err_vec / scale) ** 2, axis=0) / dim)

        attempts += active
        accept = active & (err_norm <= 1.0)

        n_acc = int(np.count_nonzero(accept))
        n_rej = int(np.count_nonzero(active)) - n_acc
        acc_total += n_acc
        rej_total += n_rej
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fac_acc = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        # fmax maps NaN to the lower limit, fmin maps +inf to the upper one
        fac_acc = np.fmin(np.fmax(fac_acc, _FAC_MIN), _FAC_MAX)
        h = np.where(accept, h_try * fac_acc, h)
        # most iterations reject no step; the shrink factor is then unused
        if n_rej:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                fac_rej = _SAFETY * err_norm ** -0.2
            fac_rej = np.fmin(np.fmax(fac_rej, 0.1), 1.0)
            h = np.where(active & ~accept, h_try * fac_rej, h)
        t = np.where(accept, np.where(boundary, target, t + h_try), t)
        y = np.where(accept, y_new, y)
        k1 = np.where(accept, k7, k1)
        err_prev = np.where(accept, np.maximum(err_norm, 1e-10), err_prev)

        if clamp_disk:
            r2 = y[0] * y[0] + y[1] * y[1]
            over = accept & (r2 > dynamics.DISK_EDGE_R2)
            if over.any():
                shrink = np.sqrt(dynamics.DISK_EDGE_R2 / r2[over])
                y[0, over] *= shrink
                y[1, over] *= shrink
                clamped |= over
                k1[:, over] = rates(t[over], y[:, over])

        hit = accept & boundary
        if hit.any():
            cols = np.nonzero(hit)[0]
            out[snap_idx[cols], cols] = y[:, cols].T
            snap_idx[cols] += 1
            done = hit & (snap_idx >= n_snap)
            if done.any():
                active &= ~done

        dead = active & ((attempts >= cfg.max_steps)
                         | (h <= 1e-15 * (1.0 + np.abs(t))))
        if check_floor:
            dead |= active & np.any(scale < _ROUNDOFF * mag, axis=0)
        if dead.any():
            failed |= dead
            active &= ~dead

    return BatchResult(times=times, states=out, failed=failed, clamped=clamped,
                       t_reached=t, steps_accepted=acc_total, steps_rejected=rej_total)


def integrate(field, y0, plan: SnapshotPlan,
              cfg: IntegratorConfig = IntegratorConfig()) -> list[tuple[float, np.ndarray]]:
    """Single-trajectory convenience wrapper: list of (time, state).

    Raises StepBudgetError (carrying the last time reached) when the step
    budget runs out or the step size underflows before t_end.
    """
    res = integrate_batch(field, np.asarray(y0, dtype=float)[None, :], plan, cfg)
    if res.failed[0]:
        raise StepBudgetError(
            f"integration stopped at t = {res.t_reached[0]} before t_end = {plan.t_end}",
            t_reached=float(res.t_reached[0]))
    return [(float(tk), res.states[k, 0].copy()) for k, tk in enumerate(res.times)]


def integrate_characteristic(s0: dynamics.CartesianPhaseState, ln_n0: float,
                             p: dynamics.OrbitParams, plan: SnapshotPlan,
                             cfg: IntegratorConfig = IntegratorConfig()
                             ) -> list[tuple[float, dynamics.CartesianPhaseState, float]]:
    """Carry (state, ln density) along one characteristic of the flow.

    The log-density is integrated as an extra state component, which keeps
    the reconstructed density positive by construction.
    """
    y0 = np.array([s0.x1, s0.x2, ln_n0], dtype=float)
    field = dynamics.characteristic_field(p)
    res = integrate_batch(field, y0[None, :], plan, cfg, clamp_disk=True)
    if res.failed[0]:
        raise StepBudgetError(
            f"integration stopped at t = {res.t_reached[0]} before t_end = {plan.t_end}",
            t_reached=float(res.t_reached[0]))
    return [(float(tk), dynamics.CartesianPhaseState(res.states[k, 0, 0], res.states[k, 0, 1]),
             float(res.states[k, 0, 2])) for k, tk in enumerate(res.times)]

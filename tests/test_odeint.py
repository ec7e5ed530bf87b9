import math

import numpy as np
import pytest

from odlab import dynamics, odeint
from odlab.dynamics import (CartesianPhaseState, OrbitParams, PolarPhaseState,
                            angle_tracking_field, cartesian_field,
                            characteristic_field, hamiltonian_cartesian,
                            to_cartesian)
from odlab.errors import InvalidParameterError, StepBudgetError
from odlab.odeint import (IntegratorConfig, SnapshotPlan, integrate,
                          integrate_batch, integrate_characteristic)
from odlab.propagators import initial_cloud
from odlab.scenarios import builtin_scenarios, desk_case


def rotation_field(t, y):
    # a user field returning a C-ordered array, unlike the library fields
    out = np.empty(y.shape)
    out[:, 0] = y[:, 1]
    out[:, 1] = -y[:, 0]
    return out


def integrate_batch_rows(field, y0, plan, cfg=IntegratorConfig(), clamp_disk=False):
    """Reference: the integrator loop on (n, dim) state arrays.

    The same arithmetic as integrate_batch in the same order, on the
    layout it used before its state moved to (dim, n) rows.
    """
    o = odeint
    y = np.array(y0, dtype=float, copy=True)
    n, dim = y.shape
    times = plan.times()
    n_snap = len(times)
    out = np.empty((n_snap, n, dim))
    out[0] = y

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
    check_floor = cfg.rel_tol < o._ROUNDOFF

    k1 = np.asarray(field(t, y), dtype=float)

    while active.any():
        target = times[np.minimum(snap_idx, n_snap - 1)]
        room = target - t
        h_try = np.minimum(h, cfg.h_max)
        boundary = h_try >= room
        h_try = np.where(boundary, room, h_try)
        h_try = np.where(active, h_try, 0.0)
        ht = h_try[:, None]

        y2 = y + ht * (o._A21 * k1)
        k2 = np.asarray(field(t + o._C2 * h_try, y2), dtype=float)
        y3 = y + ht * (o._A31 * k1 + o._A32 * k2)
        k3 = np.asarray(field(t + o._C3 * h_try, y3), dtype=float)
        y4 = y + ht * (o._A41 * k1 + o._A42 * k2 + o._A43 * k3)
        k4 = np.asarray(field(t + o._C4 * h_try, y4), dtype=float)
        y5 = y + ht * (o._A51 * k1 + o._A52 * k2 + o._A53 * k3 + o._A54 * k4)
        k5 = np.asarray(field(t + o._C5 * h_try, y5), dtype=float)
        y6 = y + ht * (o._A61 * k1 + o._A62 * k2 + o._A63 * k3 + o._A64 * k4
                       + o._A65 * k5)
        k6 = np.asarray(field(t + h_try, y6), dtype=float)
        y_new = y + ht * (o._B1 * k1 + o._B3 * k3 + o._B4 * k4 + o._B5 * k5
                          + o._B6 * k6)
        k7 = np.asarray(field(t + h_try, y_new), dtype=float)

        err_vec = ht * (o._E1 * k1 + o._E3 * k3 + o._E4 * k4 + o._E5 * k5
                        + o._E6 * k6 + o._E7 * k7)
        mag = np.maximum(np.abs(y), np.abs(y_new))
        scale = cfg.abs_tol + cfg.rel_tol * mag
        err_norm = np.sqrt(np.add.reduce((err_vec / scale) ** 2, axis=-1) / dim)

        attempts += active
        accept = active & (err_norm <= 1.0)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fac_acc = o._SAFETY * err_norm ** (-o._PI_ALPHA) * err_prev ** o._PI_BETA
            fac_rej = o._SAFETY * err_norm ** -0.2
        fac_acc = np.fmin(np.fmax(fac_acc, o._FAC_MIN), o._FAC_MAX)
        fac_rej = np.fmin(np.fmax(fac_rej, 0.1), 1.0)

        h = np.where(accept, h_try * fac_acc,
                     np.where(active, h_try * fac_rej, h))
        t = np.where(accept, np.where(boundary, target, t + h_try), t)
        y = np.where(accept[:, None], y_new, y)
        k1 = np.where(accept[:, None], k7, k1)
        err_prev = np.where(accept, np.maximum(err_norm, 1e-10), err_prev)
        n_acc = int(np.count_nonzero(accept))
        acc_total += n_acc
        rej_total += int(np.count_nonzero(active)) - n_acc

        if clamp_disk:
            r2 = y[:, 0] * y[:, 0] + y[:, 1] * y[:, 1]
            over = accept & (r2 > dynamics.DISK_EDGE_R2)
            if over.any():
                shrink = np.sqrt(dynamics.DISK_EDGE_R2 / r2[over])
                y[over, 0] *= shrink
                y[over, 1] *= shrink
                clamped |= over
                k1[over] = np.asarray(field(t[over], y[over]), dtype=float)

        hit = accept & boundary
        if hit.any():
            cols = np.nonzero(hit)[0]
            out[snap_idx[cols], cols] = y[cols]
            snap_idx[cols] += 1
            done = hit & (snap_idx >= n_snap)
            if done.any():
                active &= ~done

        dead = active & ((attempts >= cfg.max_steps)
                         | (h <= 1e-15 * (1.0 + np.abs(t))))
        if check_floor:
            dead |= active & np.any(scale < o._ROUNDOFF * mag, axis=-1)
        if dead.any():
            failed |= dead
            active &= ~dead

    return odeint.BatchResult(times=times, states=out, failed=failed,
                              clamped=clamped, t_reached=t,
                              steps_accepted=acc_total, steps_rejected=rej_total)


class TestSnapshotPlan:
    def test_times_exact(self):
        plan = SnapshotPlan(0.0, 2.0, 0.5)
        assert plan.n_snapshots == 5
        np.testing.assert_array_equal(plan.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_non_divisible_rejected(self):
        with pytest.raises(InvalidParameterError):
            SnapshotPlan(0.0, 1.0, 0.3)

    def test_backward_rejected(self):
        with pytest.raises(InvalidParameterError):
            SnapshotPlan(1.0, 0.0, 0.5)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(max_steps=0)


class TestAccuracy:
    def test_rotation_analytic(self):
        # five full turns of the circle field against the exact rotation
        t_end = 10.0 * math.pi
        plan = SnapshotPlan(0.0, t_end, t_end / 4.0)
        out = integrate(rotation_field, [1.0, 0.0], plan)
        for t, y in out:
            exact = np.array([math.cos(t), -math.sin(t)])
            assert np.abs(y - exact).max() < 1e-7

    def test_tolerance_ordering(self):
        t_end = 10.0 * math.pi
        plan = SnapshotPlan(0.0, t_end, t_end)
        errs = []
        for rel in (1e-6, 1e-9, 1e-12):
            cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
            (_, y_end), = integrate(rotation_field, [1.0, 0.0], plan, cfg)[-1:]
            errs.append(abs(y_end[0] - 1.0) + abs(y_end[1]))
        assert errs[0] > errs[2]
        assert errs[2] < 1e-10

    def test_hamiltonian_drift_two_years(self, params):
        s0 = to_cartesian(PolarPhaseState(phi=2.2069, e=0.145))
        plan = SnapshotPlan(0.0, 2.0, 0.5)
        out = integrate(cartesian_field(params), [s0.x1, s0.x2], plan)
        h0 = hamiltonian_cartesian(s0, params)
        for _, y in out:
            h = hamiltonian_cartesian(CartesianPhaseState(*y), params)
            assert abs(h - h0) / abs(h0) < 1e-10

    def test_snapshot_times_bitwise(self):
        plan = SnapshotPlan(0.0, 3.0, 0.5)
        res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]), plan)
        np.testing.assert_array_equal(res.times, plan.times())


class TestBatchSemantics:
    def test_batch_matches_single(self):
        y0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.3, -0.4]])
        plan = SnapshotPlan(0.0, 2.0, 1.0)
        full = integrate_batch(rotation_field, y0, plan)
        for k in range(3):
            solo = integrate_batch(rotation_field, y0[k:k + 1], plan)
            np.testing.assert_array_equal(full.states[:, k], solo.states[:, 0])

    def test_chunk_concat_bitwise(self):
        rng = np.random.default_rng(7)
        y0 = rng.normal(size=(40, 2)) * 0.3
        plan = SnapshotPlan(0.0, 1.0, 0.5)
        full = integrate_batch(rotation_field, y0, plan)
        halves = [integrate_batch(rotation_field, y0[:17], plan),
                  integrate_batch(rotation_field, y0[17:], plan)]
        glued = np.concatenate([h.states for h in halves], axis=1)
        np.testing.assert_array_equal(full.states, glued)

    def test_deterministic_rerun(self, params):
        y0 = np.array([[0.3, 0.1], [0.1, -0.55]])
        plan = SnapshotPlan(0.0, 2.0, 0.5)
        a = integrate_batch(cartesian_field(params), y0, plan)
        b = integrate_batch(cartesian_field(params), y0, plan)
        np.testing.assert_array_equal(a.states, b.states)


class TestFailureHandling:
    def test_step_budget_flags_trajectory(self):
        cfg = IntegratorConfig(max_steps=5)
        plan = SnapshotPlan(0.0, 10.0, 10.0)
        res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]), plan, cfg)
        assert res.failed[0]
        assert res.t_reached[0] < 10.0

    def test_step_budget_raises_for_single(self):
        cfg = IntegratorConfig(max_steps=5)
        plan = SnapshotPlan(0.0, 10.0, 10.0)
        with pytest.raises(StepBudgetError) as err:
            integrate(rotation_field, [1.0, 0.0], plan, cfg)
        assert 0.0 <= err.value.t_reached < 10.0

    def test_budget_failure_does_not_poison_batch(self):
        # one stiff trajectory exhausts its budget; its neighbor is unaffected
        def mixed(t, y):
            out = np.zeros_like(y)
            out[:, 1] = np.where(np.abs(y[:, 0]) > 0.5,
                                 4000.0 * np.sin(4000.0 * t), 1.0)
            return out

        cfg = IntegratorConfig(max_steps=60)
        plan = SnapshotPlan(0.0, 1.0, 1.0)
        res = integrate_batch(mixed, np.array([[0.6, 0.0], [0.0, 0.0]]), plan, cfg)
        assert res.failed[0] and not res.failed[1]
        np.testing.assert_allclose(res.states[-1, 1], [0.0, 1.0], atol=1e-9)


class TestDiskClamp:
    def test_outward_field_clamped(self):
        def outward(t, y):
            return y.copy()

        plan = SnapshotPlan(0.0, 2.0, 2.0)
        res = integrate_batch(outward, np.array([[0.5, 0.5]]), plan,
                              clamp_disk=True)
        assert res.clamped[0]
        r2 = res.states[-1, 0, 0] ** 2 + res.states[-1, 0, 1] ** 2
        assert r2 < 1.0

    def test_interior_flow_not_clamped(self, params):
        s0 = to_cartesian(PolarPhaseState(phi=0.3004, e=0.23))
        plan = SnapshotPlan(0.0, 2.0, 0.5)
        res = integrate_batch(cartesian_field(params),
                              np.array([[s0.x1, s0.x2]]), plan,
                              clamp_disk=True)
        assert not res.clamped[0]


class TestCharacteristic:
    def test_matches_batch(self, params):
        s0 = to_cartesian(PolarPhaseState(phi=2.2069, e=0.145))
        plan = SnapshotPlan(0.0, 1.0, 0.5)
        rows = integrate_characteristic(s0, -1.25, params, plan)
        assert len(rows) == 3
        from odlab.dynamics import characteristic_field
        res = integrate_batch(characteristic_field(params),
                              np.array([[s0.x1, s0.x2, -1.25]]), plan,
                              clamp_disk=True)
        for k, (t, state, ln_n) in enumerate(rows):
            assert t == res.times[k]
            assert state.x1 == res.states[k, 0, 0]
            assert state.x2 == res.states[k, 0, 1]
            assert ln_n == res.states[k, 0, 2]

    def test_density_weight_moves(self, params):
        # radiation pressure compresses/expands the flow except at x1 = 0
        s0 = CartesianPhaseState(x1=0.3, x2=0.1)
        plan = SnapshotPlan(0.0, 0.5, 0.5)
        rows = integrate_characteristic(s0, 0.0, params, plan)
        assert rows[-1][2] != 0.0


def _desk_s1_cloud(n):
    sc = desk_case(builtin_scenarios()[1], "mc")
    ph = initial_cloud(sc)[:n]
    return sc, np.column_stack([ph[:, 1] * np.sin(ph[:, 0]),
                                ph[:, 1] * np.cos(ph[:, 0])])


def _rows_case(name):
    """(field, y0, plan, cfg, clamp_disk, what the case must exercise)."""
    if name == "cartesian-desk-s1":
        sc, y0 = _desk_s1_cloud(300)
        return (cartesian_field(sc.orbit_params()), y0, sc.snapshot_plan(),
                sc.integrator_config(), True, "rejected")
    if name == "characteristic-clamped":
        # with W = 0 and C = 2 all but the row circling the fixed point
        # (0, C / sqrt(1 + C^2)) run into the disk edge
        y0 = np.array([[0.0, -0.5, 0.0], [0.3, -0.4, 0.5], [0.01, 0.894, -1.0]])
        return (characteristic_field(OrbitParams(C=2.0, W=0.0)), y0,
                SnapshotPlan(0.0, 1.0, 0.25), IntegratorConfig(), True, "clamped")
    if name == "angle-tracking":
        sc, xy = _desk_s1_cloud(40)
        y0 = np.column_stack([xy, np.arctan2(xy[:, 0], xy[:, 1])])
        return (angle_tracking_field(sc.orbit_params()), y0,
                SnapshotPlan(0.0, 1.0, 0.5), IntegratorConfig(), True, "accepted")
    if name == "max-steps":
        sc, y0 = _desk_s1_cloud(20)
        return (cartesian_field(sc.orbit_params()), y0, sc.snapshot_plan(),
                IntegratorConfig(max_steps=690), True, "failed")
    if name == "tolerance-floor":
        # only the state at the origin stays within rounding of 1e-30
        y0 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2e-4]])
        return (rotation_field, y0, SnapshotPlan(0.0, 1.0, 0.5),
                IntegratorConfig(rel_tol=1e-30, abs_tol=1e-30), False, "failed")
    assert name == "rotation-c-ordered"
    y0 = np.random.default_rng(3).normal(size=(25, 2))
    return (rotation_field, y0, SnapshotPlan(0.0, 2.0, 0.5),
            IntegratorConfig(h_init=0.05), False, "rejected")


class TestRowLayoutReference:
    @pytest.mark.parametrize("name", ["cartesian-desk-s1", "characteristic-clamped",
                                      "angle-tracking", "max-steps",
                                      "tolerance-floor", "rotation-c-ordered"])
    def test_bitwise_equal_to_rows_loop(self, name):
        field, y0, plan, cfg, clamp, exercised = _rows_case(name)
        ref = integrate_batch_rows(field, y0, plan, cfg, clamp_disk=clamp)
        res = integrate_batch(field, y0, plan, cfg, clamp_disk=clamp)
        for attr in ("times", "failed", "clamped", "t_reached"):
            a, b = getattr(res, attr), getattr(ref, attr)
            assert a.shape == b.shape and a.dtype == b.dtype, attr
            assert a.tobytes() == b.tobytes(), attr
        # a failed row's snapshots after its last reached time are never written
        written = ref.times[:, None] <= ref.t_reached[None, :]
        assert res.states.shape == ref.states.shape
        assert res.states[written].tobytes() == ref.states[written].tobytes()
        assert res.steps_accepted == ref.steps_accepted
        assert res.steps_rejected == ref.steps_rejected
        assert ref.steps_accepted > 0
        if exercised == "rejected":
            assert ref.steps_rejected > 0
        elif exercised == "clamped":
            assert ref.clamped.any() and not ref.clamped.all()
        elif exercised == "failed":
            assert ref.failed.any() and not ref.failed.all()

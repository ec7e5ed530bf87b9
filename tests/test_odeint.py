import dataclasses
import math
import os
import threading

import numpy as np
import pytest
from conftest import field_rates
from scipy.integrate import solve_ivp

from odlab import dynamics, odeint
from odlab.dynamics import (CartesianPhaseState, OrbitParams, PolarPhaseState,
                            angle_tracking_field, cartesian_field,
                            characteristic_field, hamiltonian_cartesian,
                            to_cartesian)
from odlab.errors import InvalidParameterError
from odlab.odeint import integrate_batch
from odlab.propagators import initial_cloud
from odlab.scenarios import builtin_scenarios, desk_case


# the tolerances MC and DEE integrate at
TOL = (1e-12, 1e-14)


def snap_times(t_end, dt):
    """Output times k * dt, k = 0..t_end / dt, as a scenario forms them."""
    return dt * np.arange(round(t_end / dt) + 1)


def rotation_field(y, out):
    out[0] = y[1]
    np.negative(y[0], out=out[1])


def weighted_rows(k, coeffs):
    total = None
    for j, a in coeffs:
        total = a * k[j] if total is None else total + a * k[j]
    return total


def integrate_batch_rows(field, y0, times, rel_tol, abs_tol, clamp_disk=False):
    """Reference: the integrator loop on (n, dim) state arrays.

    The same arithmetic as integrate_batch in the same order, written
    out of place on (n, dim) arrays, with every control factor computed on
    every iteration.
    """
    o = odeint
    y = np.array(y0, dtype=float, copy=True)
    n, dim = y.shape
    times = np.asarray(times, dtype=float)
    n_snap = len(times)
    out = np.full((n_snap, n, dim), np.nan)
    out[0] = y

    t = np.full(n, times[0])
    h = np.full(n, min(o._H_INIT, times[1] - times[0]))
    err_prev = np.ones(n)
    snap_idx = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    clamped = np.zeros(n, dtype=bool)
    attempts = np.zeros(n, dtype=np.int64)
    acc_total = 0
    rej_total = 0
    check_floor = rel_tol < o._ROUNDOFF

    def f(y):
        return field_rates(field, y)

    k1 = f(y)

    while active.any():
        target = times[np.minimum(snap_idx, n_snap - 1)]
        room = target - t
        boundary = o._STRETCH * h >= room
        h_try = np.where(boundary, room, h)
        h_try = np.where(active, h_try, 0.0)
        ht = h_try[:, None]

        k = [k1]
        for row in o._A[1:]:
            k.append(f(y + ht * weighted_rows(k, row)))
        b_sum = weighted_rows(k, o._B)
        y_new = y + ht * b_sum
        k_new = f(y_new)

        mag = np.maximum(np.abs(y), np.abs(y_new))
        scale = abs_tol + rel_tol * mag
        e5_sq = np.add.reduce((weighted_rows(k, o._E5) / scale) ** 2, axis=-1)
        e3_sq = np.add.reduce(((b_sum - weighted_rows(k, o._BHH)) / scale) ** 2,
                              axis=-1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            err_norm = np.where(e5_sq == 0.0, 0.0,
                                h_try * e5_sq / np.sqrt(dim * (e5_sq + 0.01 * e3_sq)))

        attempts += active
        accept = active & (err_norm <= 1.0)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fac_acc = o._SAFETY * err_norm ** (-o._PI_ALPHA) * err_prev ** o._PI_BETA
            fac_rej = o._SAFETY * err_norm ** o._REJECT_EXPONENT
        fac_acc = np.fmin(np.fmax(fac_acc, o._FAC_MIN), o._FAC_MAX)
        fac_rej = np.fmin(np.fmax(fac_rej, 0.1), 1.0)

        h = np.where(accept, h_try * fac_acc,
                     np.where(active, h_try * fac_rej, h))
        t = np.where(accept, np.where(boundary, target, t + h_try), t)
        y = np.where(accept[:, None], y_new, y)
        k1 = np.where(accept[:, None], k_new, k1)
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
                k1[over] = f(y[over])

        hit = accept & boundary
        if hit.any():
            cols = np.nonzero(hit)[0]
            out[snap_idx[cols], cols] = y[cols]
            snap_idx[cols] += 1
            done = hit & (snap_idx >= n_snap)
            if done.any():
                active &= ~done

        dead = active & ((attempts >= o._MAX_STEPS)
                         | (h <= 1e-15 * (1.0 + np.abs(t))))
        if check_floor:
            dead |= active & np.any(scale < o._ROUNDOFF * mag, axis=-1)
        if dead.any():
            failed |= dead
            active &= ~dead

    return odeint.BatchResult(states=out, failed=failed,
                              clamped=clamped, t_reached=t,
                              steps_accepted=acc_total, steps_rejected=rej_total)


class TestContract:
    @pytest.mark.parametrize("times", [[], [0.0, 0.5, 0.5], [0.0, 1.0, 0.5],
                                       [0.0, np.nan, 1.0], [[0.0, 0.5]]],
                             ids=["empty", "repeated", "decreasing", "nan", "2-d"])
    def test_bad_times_rejected(self, times):
        with pytest.raises(InvalidParameterError, match="times"):
            integrate_batch(rotation_field, np.array([[1.0, 0.0]]), times, *TOL)

    @pytest.mark.parametrize("rel_tol, abs_tol", [(0.0, 1e-14), (1e-12, math.inf)],
                             ids=["rel_tol-zero", "abs_tol-inf"])
    def test_bad_tolerances_rejected(self, rel_tol, abs_tol):
        with pytest.raises(InvalidParameterError, match="must be finite and positive"):
            integrate_batch(rotation_field, np.array([[1.0, 0.0]]), [0.0, 1.0],
                            rel_tol, abs_tol)

    def test_single_time_returns_start(self):
        def untouchable(y, out):
            raise AssertionError("field called")

        y0 = np.random.default_rng(2).normal(size=(5, 3))
        res = integrate_batch(untouchable, y0, [0.25], *TOL, clamp_disk=True)
        assert res.states.shape == (1, 5, 3)
        assert res.states[0].tobytes() == y0.tobytes()
        assert (res.steps_accepted, res.steps_rejected) == (0, 0)
        assert not res.failed.any() and not res.clamped.any()
        np.testing.assert_array_equal(res.t_reached, 0.25)


class TestAccuracy:
    def test_rotation_analytic(self):
        # five full turns of the circle field against the exact rotation
        t_end = 10.0 * math.pi
        times = snap_times(t_end, t_end / 4.0)
        res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]), times, *TOL)
        assert not res.failed[0]
        for t, y in zip(times, res.states[:, 0]):
            exact = np.array([math.cos(t), -math.sin(t)])
            assert np.abs(y - exact).max() < 1e-7

    def test_tolerance_ordering(self):
        t_end = 10.0 * math.pi
        errs = []
        for rel in (1e-6, 1e-9, 1e-12):
            res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]),
                                  [0.0, t_end], rel, rel * 1e-2)
            assert not res.failed[0]
            y_end = res.states[-1, 0]
            errs.append(abs(y_end[0] - 1.0) + abs(y_end[1]))
        assert errs[0] > errs[2]
        assert errs[2] < 1e-10

    def test_hamiltonian_drift_two_years(self, params):
        s0 = to_cartesian(PolarPhaseState(phi=2.2069, e=0.145))
        res = integrate_batch(cartesian_field(params), np.array([[s0.x1, s0.x2]]),
                              snap_times(2.0, 0.5), *TOL)
        assert not res.failed[0]
        h0 = hamiltonian_cartesian(s0, params)
        for y in res.states[:, 0]:
            h = hamiltonian_cartesian(CartesianPhaseState(*y), params)
            assert abs(h - h0) / abs(h0) < 1e-10

    def test_snapshot_times_bitwise(self):
        times = snap_times(3.0, 0.5)
        res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]), times, *TOL)
        # one snapshot per time, and the last one lands on times[-1] exactly
        assert res.states.shape == (len(times), 1, 2)
        assert res.t_reached.tobytes() == times[-1:].tobytes()

    def test_uneven_times_from_nonzero_start(self):
        # the rotation is autonomous: from t0 = 1 it turns by t - 1
        times = np.array([1.0, 1.3, 2.5, 4.0])
        res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]), times, *TOL)
        assert not res.failed[0] and res.t_reached[0] == 4.0
        exact = np.column_stack([np.cos(times - 1.0), -np.sin(times - 1.0)])
        assert np.abs(res.states[:, 0] - exact).max() < 1e-10


class TestScheme:
    def test_tableau_matches_scipy(self):
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

        def dense(rows, size):
            v = np.zeros(size)
            for j, a in rows:
                v[j] = a
            return v

        np.testing.assert_array_equal(
            np.array([dense(row, 12) for row in odeint._A]), ref.A[:12, :12])
        # the fields are autonomous, so the stage nodes c are only implied:
        # each is its row sum, up to the rounding of the coefficients
        np.testing.assert_allclose([math.fsum(a for _, a in row) for row in odeint._A],
                                   ref.C[:12], rtol=0.0, atol=1e-14)
        b = dense(odeint._B, 12)
        np.testing.assert_array_equal(b, ref.B)
        np.testing.assert_array_equal(dense(odeint._E5, 13), ref.E5)
        e3 = np.zeros(13)
        e3[:12] = b - dense(odeint._BHH, 12)
        np.testing.assert_array_equal(e3, ref.E3)

    def test_error_control_alone_sizes_steps(self):
        # the error estimate of a field at rest is exactly 0, so each step
        # is _FAC_MAX times the last until the output time clips it: 1e-3,
        # 1e-2, 0.1 and the remaining 0.389, with no cap in between
        def at_rest(y, out):
            out.fill(0.0)

        res = integrate_batch(at_rest, np.ones((1, 2)), [0.0, 0.5], *TOL)
        assert not res.failed[0] and res.steps_rejected == 0
        assert res.steps_accepted <= 5
        assert res.t_reached[0] == 0.5 and (res.states[-1] == 1.0).all()

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_desk_trajectories_match_solve_ivp(self, number):
        # the oracle integrates the 100 trajectories as one stacked system;
        # the Dormand-Prince 5(4) pair at rel_tol 1e-10 misses the bound
        # on scenario 2 (8.9e-11)
        sc, y0 = _desk_cloud(100, number)
        n = len(y0)
        field = cartesian_field(sc.orbit_params())
        times = sc.snapshot_times()
        sol = solve_ivp(lambda t, y: field_rates(field, y.reshape(n, 2)).ravel(),
                        (times[0], times[-1]), y0.ravel(), method="DOP853",
                        t_eval=times, rtol=1e-13, atol=1e-15)
        assert sol.success
        res = integrate_batch(field, y0, times, sc.rel_tol, sc.abs_tol, clamp_disk=True)
        assert not res.failed.any() and not res.clamped.any()
        err = np.abs(res.states - sol.y.T.reshape(-1, n, 2)).max()
        assert err < 5e-11


class TestBatchSemantics:
    def test_batch_matches_single(self):
        y0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.3, -0.4]])
        times = snap_times(2.0, 1.0)
        full = integrate_batch(rotation_field, y0, times, *TOL)
        for k in range(3):
            solo = integrate_batch(rotation_field, y0[k:k + 1], times, *TOL)
            np.testing.assert_array_equal(full.states[:, k], solo.states[:, 0])

    def test_chunk_concat_bitwise(self):
        rng = np.random.default_rng(7)
        y0 = rng.normal(size=(40, 2)) * 0.3
        times = snap_times(1.0, 0.5)
        full = integrate_batch(rotation_field, y0, times, *TOL)
        halves = [integrate_batch(rotation_field, y0[:17], times, *TOL),
                  integrate_batch(rotation_field, y0[17:], times, *TOL)]
        glued = np.concatenate([h.states for h in halves], axis=1)
        np.testing.assert_array_equal(full.states, glued)

    def test_deterministic_rerun(self, params):
        y0 = np.array([[0.3, 0.1], [0.1, -0.55]])
        times = snap_times(2.0, 0.5)
        a = integrate_batch(cartesian_field(params), y0, times, *TOL)
        b = integrate_batch(cartesian_field(params), y0, times, *TOL)
        np.testing.assert_array_equal(a.states, b.states)


def turning_field(y, out):
    """Rows (x1, x2, w, a) turn at rate w and grow at rate a."""
    np.multiply(y[2], y[1], out=out[0])
    out[0] += y[3] * y[0]
    np.multiply(-y[2], y[0], out=out[1])
    out[1] += y[3] * y[1]
    out[2:] = 0.0


def turning_rows():
    """24 rows for turning_field.  Faster rows take more steps and store
    their last snapshot later, the NaN rate fails row 5 in its first steps
    and a = 1 runs row 13 into the disk edge, so live rows shrink unevenly."""
    rng = np.random.default_rng(5)
    n = 24
    y0 = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)),
                          rng.uniform(0.5, 20.0, n), np.zeros(n)])
    y0[5, 2] = np.nan
    y0[13, 3] = 1.0
    return y0


def assert_results_bitwise_equal(a, b):
    for f in dataclasses.fields(odeint.BatchResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.shape, x.dtype) == (y.shape, y.dtype), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


class TestBlockThreads:
    def test_field_error_in_later_block_propagates(self, monkeypatch):
        # only the rows of the last of three blocks make the field raise
        def picky(y, out):
            if (y[0] > 100.0).any():
                raise ValueError("field rejects this row")
            rotation_field(y, out)

        monkeypatch.setattr(odeint, "_BLOCK", 4)
        y0 = np.zeros((12, 2))
        y0[8:, 0] = 1000.0
        with pytest.raises(ValueError, match="field rejects this row"):
            integrate_batch(picky, y0, snap_times(1.0, 0.5), *TOL)

    def test_field_contract_while_rows_leave(self, monkeypatch):
        widths = []

        def checked(y, out):
            assert y.shape == out.shape and y.shape[0] == 4
            assert y.flags.c_contiguous and out.flags.c_contiguous
            assert not np.shares_memory(y, out)
            widths.append(y.shape[1])
            turning_field(y, out)

        y0 = turning_rows()
        monkeypatch.setattr(odeint, "_BLOCK", 8)
        times = snap_times(1.0, 0.25)
        res = integrate_batch(checked, y0, times, *TOL, clamp_disk=True)
        ref = integrate_batch_rows(checked, y0, times, *TOL, clamp_disk=True)
        np.testing.assert_array_equal(np.flatnonzero(res.failed), [5])
        np.testing.assert_array_equal(np.flatnonzero(res.clamped), [13])
        assert res.t_reached[5] < 0.25
        assert len(set(widths)) > 3
        assert res.states.tobytes() == ref.states.tobytes()
        for attr in ("failed", "clamped", "t_reached"):
            assert getattr(res, attr).tobytes() == getattr(ref, attr).tobytes(), attr
        assert (res.steps_accepted, res.steps_rejected) == (ref.steps_accepted,
                                                            ref.steps_rejected)


class TestForkedShares:
    """Row shares in forked children, with shares of at least 4 rows run
    in blocks of 3, so the 24 turning rows make up to six shares."""

    @pytest.fixture(autouse=True)
    def small_shares(self, monkeypatch):
        monkeypatch.setattr(odeint, "_MIN_SHARE", 4)
        monkeypatch.setattr(odeint, "_BLOCK", 3)

    @staticmethod
    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def field_pids(tmp_path):
        """Integrate the turning rows with a field that logs the pid of
        every call; returns the result and the set of pids."""
        log = tmp_path / "pids"

        def recording(y, out):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            turning_field(y, out)

        res = integrate_batch(recording, turning_rows(), snap_times(1.0, 0.25), *TOL,
                              clamp_disk=True)
        return res, set(map(int, log.read_text().split()))

    @pytest.mark.skipif(odeint._usable_cpus() < 2,
                        reason="the process may use only one CPU")
    def test_shares_run_in_several_processes(self, tmp_path):
        res, pids = self.field_pids(tmp_path)
        assert os.getpid() in pids and len(pids) >= 2
        np.testing.assert_array_equal(np.flatnonzero(res.failed), [5])
        self.no_child_left()

    def test_caller_alone_beside_another_thread(self, tmp_path, monkeypatch):
        # a fork would copy the other thread's locks in whatever state
        monkeypatch.setattr(odeint, "_usable_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            _, pids = self.field_pids(tmp_path)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pids == {os.getpid()}

    def test_caller_alone_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(odeint, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        _, pids = self.field_pids(tmp_path)
        assert pids == {os.getpid()}

    def test_any_share_count_bitwise(self, monkeypatch):
        # the failing row 5 and the clamped row 13 fall in different
        # shares for two and three CPUs
        y0, times = turning_rows(), snap_times(1.0, 0.25)
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(odeint, "_usable_cpus", lambda cpus=cpus: cpus)
            results.append(integrate_batch(turning_field, y0, times, *TOL, clamp_disk=True))
        np.testing.assert_array_equal(np.flatnonzero(results[0].failed), [5])
        np.testing.assert_array_equal(np.flatnonzero(results[0].clamped), [13])
        for res in results[1:]:
            assert_results_bitwise_equal(res, results[0])
        self.no_child_left()

    def test_field_error_in_child_share_reaches_caller(self, monkeypatch):
        # only rows of the second share make the field raise, and the
        # caller, rerunning that share, raises the same error
        def picky(y, out):
            if (y[0] > 100.0).any():
                raise ValueError("field rejects this row")
            rotation_field(y, out)

        monkeypatch.setattr(odeint, "_usable_cpus", lambda: 2)
        y0 = np.zeros((12, 2))
        y0[8:, 0] = 1000.0
        with pytest.raises(ValueError, match="field rejects this row"):
            integrate_batch(picky, y0, snap_times(1.0, 0.5), *TOL)
        self.no_child_left()

    def test_killed_child_costs_no_bit(self, monkeypatch):
        # every child dies on its first field call; the caller integrates
        # their shares itself
        caller = os.getpid()

        def dying(y, out):
            if os.getpid() != caller:
                os._exit(3)
            turning_field(y, out)

        y0, times = turning_rows(), snap_times(1.0, 0.25)
        monkeypatch.setattr(odeint, "_usable_cpus", lambda: 1)
        ref = integrate_batch(turning_field, y0, times, *TOL, clamp_disk=True)
        monkeypatch.setattr(odeint, "_usable_cpus", lambda: 3)
        res = integrate_batch(dying, y0, times, *TOL, clamp_disk=True)
        assert_results_bitwise_equal(res, ref)
        self.no_child_left()


class TestFailureHandling:
    def test_step_budget_flags_trajectory(self, monkeypatch):
        monkeypatch.setattr(odeint, "_MAX_STEPS", 5)
        res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]), [0.0, 10.0], *TOL)
        assert res.failed[0]
        assert res.t_reached[0] < 10.0

    def test_capped_steps_reach_snapshot(self, monkeypatch):
        # ten steps of 0.05 from t = 0 end one ulp short of 0.5; no sliver
        # of a step may be left there to fail as a step underflow.  A
        # constant field's error estimate is at rounding level, so the
        # controller grows each step by _FAC_MAX, here 1
        def constant(y, out):
            out.fill(1.0)

        monkeypatch.setattr(odeint, "_H_INIT", 0.05)
        monkeypatch.setattr(odeint, "_FAC_MAX", 1.0)
        times = snap_times(1.0, 0.5)
        res = integrate_batch(constant, np.zeros((1, 1)), times, *TOL)
        assert not res.failed[0]
        np.testing.assert_allclose(res.states[:, 0, 0], times,
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("max_steps, failed, t_reached", [(10, False, 0.5),
                                                              (9, True, 0.45)])
    def test_done_on_last_allowed_step(self, max_steps, failed, t_reached, monkeypatch):
        # ten steps of 0.05 (a rounding-level error estimate grows a step by
        # _FAC_MAX, here 1) reach the last snapshot: a row that finishes on
        # its last allowed step is done, one step fewer is a budget failure
        def constant(y, out):
            out.fill(1.0)

        for name, value in (("_H_INIT", 0.05), ("_FAC_MAX", 1.0), ("_MAX_STEPS", max_steps)):
            monkeypatch.setattr(odeint, name, value)
        res = integrate_batch(constant, np.zeros((2, 1)), [0.0, 0.5], *TOL)
        assert (res.failed == failed).all()
        np.testing.assert_allclose(res.t_reached, t_reached, rtol=0.0, atol=1e-15)
        assert np.isfinite(res.states[-1]).all() != failed

    def test_step_budget_raises_for_single(self, monkeypatch):
        # a lone row that runs out of steps is flagged, not raised
        monkeypatch.setattr(odeint, "_MAX_STEPS", 5)
        res = integrate_batch(rotation_field, np.array([[1.0, 0.0]]), [0.0, 10.0], *TOL)
        assert res.failed[0]
        assert 0.0 <= res.t_reached[0] < 10.0
        assert np.isnan(res.states[-1, 0]).all()

    def test_budget_failure_does_not_poison_batch(self, monkeypatch):
        # one stiff trajectory exhausts its budget; its neighbor is unaffected.
        # The third component is a clock: rate 1 from 0, so it reads t
        def mixed(y, out):
            out[0] = 0.0
            out[1] = np.where(np.abs(y[0]) > 0.5, 4000.0 * np.sin(4000.0 * y[2]), 1.0)
            out[2] = 1.0

        monkeypatch.setattr(odeint, "_MAX_STEPS", 60)
        res = integrate_batch(mixed, np.array([[0.6, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                              [0.0, 1.0], *TOL)
        assert res.failed[0] and not res.failed[1]
        np.testing.assert_allclose(res.states[-1, 1], [0.0, 1.0, 1.0], atol=1e-9)


class TestDiskClamp:
    def test_outward_field_clamped(self):
        def outward(y, out):
            out[...] = y

        res = integrate_batch(outward, np.array([[0.5, 0.5]]), [0.0, 2.0], *TOL,
                              clamp_disk=True)
        assert res.clamped[0]
        r2 = res.states[-1, 0, 0] ** 2 + res.states[-1, 0, 1] ** 2
        assert r2 < 1.0

    def test_interior_flow_not_clamped(self, params):
        s0 = to_cartesian(PolarPhaseState(phi=0.3004, e=0.23))
        res = integrate_batch(cartesian_field(params),
                              np.array([[s0.x1, s0.x2]]), snap_times(2.0, 0.5), *TOL,
                              clamp_disk=True)
        assert not res.clamped[0]


class TestCharacteristic:
    def test_density_weight_moves(self, params):
        # radiation pressure compresses/expands the flow except at x1 = 0
        res = integrate_batch(characteristic_field(params),
                              np.array([[0.3, 0.1, 0.0]]), [0.0, 0.5], *TOL,
                              clamp_disk=True)
        assert not res.failed[0]
        assert res.states[-1, 0, 2] != 0.0


def _desk_cloud(n, number=1):
    sc = desk_case(builtin_scenarios()[number], "mc")
    ph = initial_cloud(sc)[:n]
    return sc, np.column_stack([ph[:, 1] * np.sin(ph[:, 0]),
                                ph[:, 1] * np.cos(ph[:, 0])])


def _rows_case(name, monkeypatch):
    """(field, y0, times, (rel_tol, abs_tol), clamp_disk, what the case must
    exercise); a case with other step limits patches them in odeint."""
    if name == "cartesian-desk-s1":
        sc, y0 = _desk_cloud(300)
        return (cartesian_field(sc.orbit_params()), y0, sc.snapshot_times(),
                (sc.rel_tol, sc.abs_tol), True, "rejected")
    if name == "characteristic-clamped":
        # with W = 0 and C = 2 all but the row circling the fixed point
        # (0, C / sqrt(1 + C^2)) run into the disk edge
        y0 = np.array([[0.0, -0.5, 0.0], [0.3, -0.4, 0.5], [0.01, 0.894, -1.0]])
        return (characteristic_field(OrbitParams(C=2.0, W=0.0)), y0,
                snap_times(1.0, 0.25), TOL, True, "clamped")
    if name == "angle-tracking":
        sc, xy = _desk_cloud(40)
        y0 = np.column_stack([xy, np.arctan2(xy[:, 0], xy[:, 1])])
        return (angle_tracking_field(sc.orbit_params()), y0,
                snap_times(1.0, 0.5), TOL, True, "accepted")
    if name == "max-steps":
        sc, y0 = _desk_cloud(20)
        monkeypatch.setattr(odeint, "_MAX_STEPS", 150)
        return (cartesian_field(sc.orbit_params()), y0, sc.snapshot_times(),
                TOL, True, "failed")
    if name == "tolerance-floor":
        # only the state at the origin stays within rounding of 1e-30
        y0 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2e-4]])
        return (rotation_field, y0, snap_times(1.0, 0.5), (1e-30, 1e-30), False,
                "failed")
    assert name == "rotation-c-ordered"
    y0 = np.random.default_rng(3).normal(size=(25, 2))
    monkeypatch.setattr(odeint, "_H_INIT", 0.5)
    return (rotation_field, y0, snap_times(2.0, 0.5), TOL, False, "rejected")


ROWS_CASES = ["cartesian-desk-s1", "characteristic-clamped", "angle-tracking",
              "max-steps", "tolerance-floor", "rotation-c-ordered"]


class TestRowLayoutReference:
    @pytest.mark.parametrize("name", ROWS_CASES)
    def test_bitwise_equal_to_rows_loop(self, name, monkeypatch):
        self.check_against_rows_loop(name, monkeypatch)

    @pytest.mark.parametrize("name", ROWS_CASES)
    def test_row_blocks_bitwise_equal_to_rows_loop(self, name, monkeypatch):
        # blocks of 7 rows: every case (3 to 300 rows) crosses a block boundary
        monkeypatch.setattr(odeint, "_BLOCK", 7)
        self.check_against_rows_loop(name, monkeypatch)

    @staticmethod
    def check_against_rows_loop(name, monkeypatch):
        field, y0, times, tol, clamp, exercised = _rows_case(name, monkeypatch)
        ref = integrate_batch_rows(field, y0, times, *tol, clamp_disk=clamp)
        res = integrate_batch(field, y0, times, *tol, clamp_disk=clamp)
        for attr in ("failed", "clamped", "t_reached"):
            a, b = getattr(res, attr), getattr(ref, attr)
            assert a.shape == b.shape and a.dtype == b.dtype, attr
            assert a.tobytes() == b.tobytes(), attr
        assert res.states.shape == ref.states.shape
        assert res.states.tobytes() == ref.states.tobytes()
        assert res.steps_accepted == ref.steps_accepted
        assert res.steps_rejected == ref.steps_rejected
        assert ref.steps_accepted > 0
        if exercised == "rejected":
            assert ref.steps_rejected > 0
        elif exercised == "clamped":
            assert ref.clamped.any() and not ref.clamped.all()
        elif exercised == "failed":
            assert ref.failed.any() and not ref.failed.all()

    def test_field_sees_live_rows_only(self, monkeypatch):
        # one start call, then twelve evaluations per attempted step: a row
        # that has stored its last snapshot or failed is stepped no more
        field, y0, times, tol, clamp, _ = _rows_case("cartesian-desk-s1", monkeypatch)
        rows = []

        def counting(y, out):
            rows.append(y.shape[1])
            field(y, out)

        res = integrate_batch(counting, y0, times, *tol, clamp_disk=clamp)
        assert not res.failed.any() and not res.clamped.any()
        assert sum(rows) == len(y0) + 12 * (res.steps_accepted + res.steps_rejected)

    def test_failed_rows_nan_past_t_reached(self, monkeypatch):
        field, y0, times, tol, clamp, _ = _rows_case("max-steps", monkeypatch)
        res = integrate_batch(field, y0, times, *tol, clamp_disk=clamp)
        assert res.failed.any()
        unreached = times[:, None] > res.t_reached[None, :]
        assert unreached[:, res.failed].any() and not unreached[:, ~res.failed].any()
        assert np.isnan(res.states[unreached]).all()
        assert np.isfinite(res.states[~unreached]).all()

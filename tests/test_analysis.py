import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odlab.analysis import (MomentSummary, RunResult, classify_subdomain,
                            find_stationary_points, gradient_H, level_curves,
                            relative_errors, sample_moments)
from odlab.dynamics import OrbitParams, PolarPhaseState, hamiltonian
from odlab.errors import DegenerateInputError, InvalidParameterError
from odlab.fileio import write_timing_json
from odlab.scenarios import builtin_scenarios

TWO_PI = 2.0 * math.pi

# portrait landmarks for C = 0.15, W = 0.409, frozen from a separate
# bisection of dphi/dt = 0 slices at phi = 0 and phi = pi
SADDLE = (0.0, 0.5099352593)
CENTER_LOW_E = (0.0, 0.2770904247)
CENTER_PI = (math.pi, 0.6412041856)


class TestMoments:
    def test_hand_case_population_convention(self):
        pts = np.array([[1.0, 0.1], [3.0, 0.3]])
        m = sample_moments(pts, method="mc", time=2.0)
        assert (m.mu_phi, m.mu_e) == (2.0, 0.2)
        assert m.sigma_phi == pytest.approx(1.0, abs=1e-15)
        assert m.sigma_e == pytest.approx(0.1, abs=1e-15)
        assert m.method == "mc" and m.time == 2.0
        np.testing.assert_allclose(m.as_array(), [2.0, 1.0, 0.2, 0.1],
                                   atol=1e-15)

    def test_weighted_equals_replicated(self, rng):
        pts = rng.uniform(size=(40, 2))
        counts = rng.integers(1, 5, size=40)
        expanded = np.repeat(pts, counts, axis=0)
        a = sample_moments(expanded)
        b = sample_moments(pts, counts.astype(float))
        np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-13)

    def test_uniform_weights_equal_unweighted(self, rng):
        pts = rng.normal(size=(300, 2))
        a = sample_moments(pts)
        b = sample_moments(pts, np.full(300, 0.37))
        np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_property_scale_equivariance(self, seed, scale):
        pts = np.random.default_rng(seed).normal(size=(50, 2))
        a = sample_moments(pts).as_array()
        b = sample_moments(pts * scale).as_array()
        np.testing.assert_allclose(b, a * scale, rtol=1e-12,
                                   atol=1e-12 * scale)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            sample_moments(np.zeros((1, 2)))
        with pytest.raises(InvalidParameterError):
            sample_moments(np.zeros((5, 3)))
        pts = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(InvalidParameterError):
            sample_moments(pts, -np.ones(5))
        with pytest.raises(DegenerateInputError):
            sample_moments(pts, np.zeros(5))

    def test_relative_errors(self):
        ref = MomentSummary(0.0, "mc", 2.0, 0.5, 0.2, 0.05)
        test = MomentSummary(0.0, "dee", 2.1, 0.4, 0.2, 0.06)
        err = relative_errors(ref, test)
        np.testing.assert_allclose(err, [0.05, 0.2, 0.0, 0.2], atol=1e-14)

    def test_relative_errors_zero_reference(self):
        ref = MomentSummary(0.0, "mc", 0.0, 0.5, 0.2, 0.05)
        test = MomentSummary(0.0, "dee", 0.1, 0.5, 0.2, 0.05)
        err = relative_errors(ref, test)
        assert np.isnan(err[0])
        np.testing.assert_allclose(err[1:], 0.0, atol=1e-14)


class TestStationaryPoints:
    def test_count_and_locations(self, params):
        pts = find_stationary_points(params)
        assert len(pts) == 5
        kinds = [p.kind for p in pts]
        assert kinds.count("saddle") == 2  # phi = 0 repeated at 2*pi
        assert kinds.count("center") == 3
        want = [
            (0.0, CENTER_LOW_E[1], "center"),
            (0.0, SADDLE[1], "saddle"),
            (math.pi, CENTER_PI[1], "center"),
            (TWO_PI, CENTER_LOW_E[1], "center"),
            (TWO_PI, SADDLE[1], "saddle"),
        ]
        for wp, we, wkind in want:
            near = [p for p in pts
                    if abs(p.phi - wp) < 1e-8 and abs(p.e - we) < 1e-8]
            assert len(near) == 1, f"no unique match at ({wp:.3f}, {we:.3f})"
            assert near[0].kind == wkind

    def test_gradient_vanishes(self, params):
        for p in find_stationary_points(params):
            g = gradient_H(p.phi, p.e, params)
            assert math.hypot(g[0], g[1]) <= 1e-10

    def test_hamiltonian_field_recorded(self, params):
        for p in find_stationary_points(params):
            h = hamiltonian(PolarPhaseState(p.phi, p.e), params)
            assert p.hamiltonian == pytest.approx(h, rel=1e-14)

    def test_no_radiation_degenerates(self):
        # without the radiation term the portrait loses the saddle pair
        weak = OrbitParams(C=0.0, W=0.409)
        pts = find_stationary_points(weak)
        assert all(p.kind != "saddle" for p in pts)

    def test_phi_exactly_on_axes_and_sorted(self, params):
        pts = find_stationary_points(params)
        assert all(p.phi in (0.0, math.pi, TWO_PI) for p in pts)
        keys = [(p.phi, p.e) for p in pts]
        assert keys == sorted(keys)

    # (C, W) -> (phi, e, kind) in output order, e to 1e-6
    @pytest.mark.parametrize("cw, want", [
        ((0.05, 1.0), [(math.pi, 0.277156, "center")]),
        ((0.3, 0.1), [(0.0, 0.324286, "center"), (0.0, 0.800556, "saddle"),
                      (math.pi, 0.842797, "center"),
                      (TWO_PI, 0.324286, "center"),
                      (TWO_PI, 0.800556, "saddle")]),
        ((1.0, 0.0), [(0.0, 0.707107, "center"), (TWO_PI, 0.707107, "center")]),
        ((0.01, 0.409), [(0.0, 0.016925, "center"), (0.0, 0.596762, "saddle"),
                         (math.pi, 0.603861, "center"),
                         (TWO_PI, 0.016925, "center"),
                         (TWO_PI, 0.596762, "saddle")]),
    ])
    def test_portrait_families(self, cw, want):
        pts = find_stationary_points(OrbitParams(C=cw[0], W=cw[1]))
        assert [(p.phi, p.kind) for p in pts] == [(w[0], w[2]) for w in want]
        np.testing.assert_allclose([p.e for p in pts], [w[1] for w in want],
                                   atol=1e-6)


@pytest.fixture(scope="module")
def landmarks(params):
    return find_stationary_points(params)


class TestClassification:
    def test_scenario_means(self, params, landmarks):
        cases = [
            ((2.2069, 0.145), "SubD1"),
            ((0.5419, 0.095), "SubD2"),
            ((0.3004, 0.23), "SubD3"),
        ]
        for (phi, e), want in cases:
            got = classify_subdomain(PolarPhaseState(phi, e), landmarks, params)
            assert got == want, f"({phi}, {e}) -> {got}, wanted {want}"

    def test_wrapped_angle_same_label(self, params, landmarks):
        a = classify_subdomain(PolarPhaseState(2.2069, 0.145), landmarks,
                               params)
        b = classify_subdomain(PolarPhaseState(2.2069 - TWO_PI, 0.145),
                               landmarks, params)
        assert a == b

    def test_separatrix_is_boundary(self, params, landmarks):
        s = PolarPhaseState(0.0, SADDLE[1])
        assert classify_subdomain(s, landmarks, params) == "boundary"

    def test_outside_region(self, params, landmarks):
        s = PolarPhaseState(0.0, 0.95)
        assert classify_subdomain(s, landmarks, params) == "outside"

    def test_labels_constant_along_flow(self, params, landmarks):
        # transport a point for two years; the label must not change
        from odlab.dynamics import (CartesianPhaseState, cartesian_field,
                                    to_cartesian, to_polar)
        from odlab.odeint import integrate_batch
        for phi, e in [(2.2069, 0.145), (0.5419, 0.095), (0.3004, 0.23)]:
            s0 = to_cartesian(PolarPhaseState(phi, e))
            res = integrate_batch(cartesian_field(params),
                                  np.array([[s0.x1, s0.x2]]),
                                  0.25 * np.arange(9), 1e-12, 1e-14)
            labels = set()
            for row in res.states[:, 0, :]:
                labels.add(classify_subdomain(
                    to_polar(CartesianPhaseState(*row)), landmarks, params))
            assert len(labels) == 1


class TestContours:
    def test_polylines_lie_on_level(self, params):
        level = hamiltonian(PolarPhaseState(0.0, SADDLE[1]), params)
        lines = level_curves(params, level)
        assert lines, "separatrix level produced no polylines"
        worst = 0.0
        for line in lines:
            assert line.shape[1] == 2
            for phi, e in line:
                hv = hamiltonian(PolarPhaseState(phi, e), params)
                worst = max(worst, abs(hv - level) / abs(level))
        # phi = arccos(x) solves H = level exactly, up to rounding
        assert worst <= 1e-12

    def test_closed_loop_detected(self, params):
        level = hamiltonian(PolarPhaseState(math.pi, 0.5), params)
        lines = level_curves(params, level)
        closed = [ln for ln in lines
                  if np.array_equal(ln[0], ln[-1]) and len(ln) > 3]
        assert closed, "expected a closed loop around the pi-center"

    def test_empty_level(self, params):
        assert level_curves(params, 99.0) == []

    def test_zero_C_rejected(self):
        # with C = 0, H does not depend on phi: level sets are e circles
        with pytest.raises(InvalidParameterError):
            level_curves(OrbitParams(C=0.0, W=0.409), 1.1)


class TestTiming:
    def test_ledger_math(self, tmp_path):
        scenario = builtin_scenarios()[1]

        def run(method, t_prop, t_int):
            return RunResult(scenario=scenario, method=method, snapshots=(),
                             t_propagation=t_prop, t_interpolation=t_int)

        mc, dee = run("MC", 5.0, 0.0), run("DEE", 2.0, 0.5)
        assert dee.t_total == 2.5
        path = tmp_path / "timing.json"
        write_timing_json(path, [("MC", mc), ("DEE", dee)],
                          reference_method="MC")
        rows = {r["method"]: r
                for r in json.loads(path.read_text())["cases"]}
        row = rows["DEE"]
        assert row["t_calculation_s"] == 2.5
        assert (row["propagation_share"], row["interpolation_share"]) \
            == pytest.approx((0.8, 0.2))
        assert row["normalized_t_calculation"] == pytest.approx(0.5)
        assert rows["MC"]["normalized_t_calculation"] == pytest.approx(1.0)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import field_rates
from hypothesis import strategies as st

from odlab.dynamics import (EARTH_RADIUS, TWO_PI, CartesianPhaseState,
                            OrbitParams, PolarPhaseState, angle_tracking_field,
                            area_to_mass_for_C, cartesian_field,
                            characteristic_field, compute_CW,
                            critical_eccentricity, density_log_rate,
                            eom_cartesian, eom_polar, hamiltonian,
                            hamiltonian_cartesian, to_cartesian, to_polar,
                            wrap_angle)
from odlab.errors import DomainError, InvalidParameterError

A_REF = 2.5 * EARTH_RADIUS

interior_states = st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 0.95))


class TestParameters:
    def test_W_at_reference_altitude(self):
        # frozen from the standard constants; O(0.05%) from the rounded 0.409
        am = area_to_mass_for_C(A_REF, 0.15)
        p = compute_CW(A_REF, am)
        assert p.W == 0.40919800473609536
        assert abs(p.W - 0.409) / 0.409 < 5e-3

    def test_C_roundtrip(self):
        for c_target in (0.05, 0.15, 1.2):
            am = area_to_mass_for_C(A_REF, c_target)
            p = compute_CW(A_REF, am)
            assert abs(p.C - c_target) < 1e-12

    def test_area_to_mass_magnitude(self):
        # high area-to-mass regime: tens of m^2/kg = 1e-5 km^2/kg
        am = area_to_mass_for_C(A_REF, 0.15)
        assert 1e-6 < am < 1e-4

    def test_critical_eccentricity_exact(self):
        assert critical_eccentricity(A_REF) == 0.6

    def test_critical_eccentricity_monotone(self):
        assert critical_eccentricity(2.0 * EARTH_RADIUS) == 0.5

    def test_low_orbit_rejected(self):
        with pytest.raises(InvalidParameterError):
            critical_eccentricity(0.5 * EARTH_RADIUS)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            OrbitParams(C=-0.1, W=0.4)
        with pytest.raises(InvalidParameterError):
            compute_CW(-1.0, 1e-5)


class TestStates:
    def test_conversion_hand_case(self):
        s = to_cartesian(PolarPhaseState(phi=math.pi / 2.0, e=0.6))
        assert abs(s.x1 - 0.6) < 1e-15 and abs(s.x2) < 1e-15

    @given(interior_states)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, pe):
        phi, e = pe
        s = PolarPhaseState(phi=phi, e=e)
        back = to_polar(to_cartesian(s))
        assert abs(back.e - e) < 1e-14
        assert abs(wrap_angle(back.phi - phi)) < 1e-12 or \
            abs(wrap_angle(back.phi - phi) - TWO_PI) < 1e-12

    @given(st.floats(-50.0, 50.0), st.floats(-10.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_wrap_angle_branch(self, phi, start):
        w = wrap_angle(phi, start)
        assert start <= w < start + TWO_PI
        assert abs(math.remainder(w - phi, TWO_PI)) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            PolarPhaseState(phi=0.0, e=1.0)
        with pytest.raises(DomainError):
            PolarPhaseState(phi=0.0, e=-0.01)
        with pytest.raises(DomainError):
            CartesianPhaseState(x1=0.8, x2=0.7)


class TestEquationsOfMotion:
    def test_rates_hand_case(self, params):
        # at phi = pi/2, e = 0.6: de/dt = 2*pi*C*sqrt(1-e^2),
        # dphi/dt = 2*pi*(W/(1-e^2)^2 - 1)
        dphi, de = eom_polar(PolarPhaseState(phi=math.pi / 2.0, e=0.6), params)
        assert abs(de - TWO_PI * 0.15 * 0.8) < 1e-14
        assert abs(dphi - TWO_PI * (0.409 / 0.4096 - 1.0)) < 1e-14

    def test_axis_fixed_points(self, params):
        # the e rate vanishes on the cos axis (up to sin(pi) rounding)
        _, de0 = eom_polar(PolarPhaseState(phi=0.0, e=0.3), params)
        assert de0 == 0.0
        _, depi = eom_polar(PolarPhaseState(phi=math.pi, e=0.3), params)
        assert abs(depi) < 1e-15

    @given(interior_states)
    @settings(max_examples=80, deadline=None)
    def test_polar_cartesian_chain_rule(self, pe):
        phi, e = pe
        p = OrbitParams(C=0.15, W=0.409)
        s = PolarPhaseState(phi=phi, e=e)
        c = to_cartesian(s)
        dphi, de = eom_polar(s, p)
        dx1, dx2 = eom_cartesian(c, p)
        # x1 = e sin phi, x2 = e cos phi
        assert abs(dx1 - (de * math.sin(phi) + e * math.cos(phi) * dphi)) < 1e-10
        assert abs(dx2 - (de * math.cos(phi) - e * math.sin(phi) * dphi)) < 1e-10

    @given(interior_states)
    @settings(max_examples=80, deadline=None)
    def test_hamiltonian_chart_agreement(self, pe):
        phi, e = pe
        p = OrbitParams(C=0.15, W=0.409)
        s = PolarPhaseState(phi=phi, e=e)
        assert abs(hamiltonian(s, p)
                   - hamiltonian_cartesian(to_cartesian(s), p)) < 1e-13

    def test_hamiltonian_hand_case(self, params):
        # sqrt(1-0.36) + 0 + (0.409/3)/0.8^3
        h = hamiltonian(PolarPhaseState(phi=math.pi / 2.0, e=0.6), params)
        assert abs(h - (0.8 + 0.409 / (3.0 * 0.512))) < 1e-15

    def test_angle_tracking_matches_polar_rate(self, params):
        f = angle_tracking_field(params)
        for phi, e in ((0.3, 0.2), (2.0, 0.55), (4.5, 0.8)):
            s = PolarPhaseState(phi=phi, e=e)
            c = to_cartesian(s)
            dy = field_rates(f, [[c.x1, c.x2, phi]])
            dphi, de = eom_polar(s, p=params)
            assert abs(dy[0, 2] - dphi) < 1e-12

    def test_fields_vectorize_consistently(self, params):
        states = [(0.1, 0.3), (1.2, 0.6), (5.9, 0.15)]
        y = np.array([[e * math.sin(f), e * math.cos(f), f] for f, e in states])
        out = field_rates(cartesian_field(params), y[:, :2])
        for k, (phi, e) in enumerate(states):
            dx1, dx2 = eom_cartesian(CartesianPhaseState(*y[k, :2]), params)
            assert out[k, 0] == dx1 and out[k, 1] == dx2
        # each field fills every entry of out, leaves y as it is and puts
        # the Cartesian rates first
        for build, d in ((cartesian_field, 2), (characteristic_field, 3),
                         (angle_tracking_field, 3)):
            rows = np.ascontiguousarray(y[:, :d].T)
            before = rows.copy()
            rates = np.full((d, 3), np.nan)
            assert build(params)(rows, rates) is None
            assert np.isfinite(rates).all()
            assert rows.tobytes() == before.tobytes()
            assert rates[:2].tobytes() == np.ascontiguousarray(out.T).tobytes()


class TestDensityRate:
    def test_hand_value(self, params):
        r = density_log_rate(CartesianPhaseState(x1=0.6, x2=0.0), params)
        assert abs(r - TWO_PI * 0.15 * 0.6 / 0.8) < 1e-14

    def test_oblateness_independence_bitwise(self):
        # the divergence depends only on the radiation term
        for x1, x2 in ((0.6, 0.0), (-0.2, 0.5), (0.05, -0.9)):
            s = CartesianPhaseState(x1=x1, x2=x2)
            a = density_log_rate(s, OrbitParams(C=0.15, W=0.0))
            b = density_log_rate(s, OrbitParams(C=0.15, W=0.409))
            assert a == b

    @given(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)).filter(
        lambda q: q[0] ** 2 + q[1] ** 2 < 0.9))
    @settings(max_examples=60, deadline=None)
    def test_matches_negative_divergence(self, q):
        # d(ln n)/dt = -div v, checked by fourth-order central differences
        # (the three-point stencil's truncation error alone reaches 2e-6
        # near the r^2 = 0.9 edge, where the field bends sharply)
        p = OrbitParams(C=0.15, W=0.409)
        x1, x2 = q
        h = 3e-5
        f = cartesian_field(p)

        def v(a, b):
            return field_rates(f, [[a, b]])[0]

        def d(k, dx, dy):
            return (8.0 * (v(x1 + dx, x2 + dy)[k] - v(x1 - dx, x2 - dy)[k])
                    - (v(x1 + 2 * dx, x2 + 2 * dy)[k]
                       - v(x1 - 2 * dx, x2 - 2 * dy)[k])) / (12.0 * h)

        div = d(0, h, 0.0) + d(1, 0.0, h)
        rate = density_log_rate(CartesianPhaseState(x1=x1, x2=x2), p)
        assert abs(rate + div) < 1e-6 * max(1.0, abs(rate))

    def test_characteristic_field_appends_rate(self, params):
        f = characteristic_field(params)
        y = np.array([[0.6, 0.0, -1.0], [0.1, 0.2, 0.5]])
        out = field_rates(f, y)
        plain = field_rates(cartesian_field(params), y[:, :2])
        np.testing.assert_array_equal(out[:, :2], plain)
        for k in range(2):
            s = CartesianPhaseState(x1=y[k, 0], x2=y[k, 1])
            assert out[k, 2] == density_log_rate(s, params)

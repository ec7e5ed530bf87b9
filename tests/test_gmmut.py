import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odlab.dynamics import (TWO_PI, angle_tracking_field, cartesian_field,
                            cartesian_rows, wrap_angle)
from odlab.errors import (DecompositionError, InvalidParameterError,
                          InvalidScalingError, LibraryQualityError,
                          PropagationError)
from odlab.gmmut import (GaussianMixture, SplitLibrary1D, _component_sum,
                         _default_grid, _sigma_set_points, _split_direction,
                         build_split_library, density_grid_for_mixture,
                         merge_moments, mixture_marginal,
                         mixture_pdf, run_gmmut, save_split_library,
                         sigma_points, split_gaussian, ut_transform,
                         ut_weights, validate_library)
from odlab.histogram import make_edges
from odlab.odeint import integrate_batch
from odlab.scenarios import builtin_scenarios, desk_case, paper_case
from odlab.stochastics import (Gaussian2D, normal2d_exponent_at, normal2d_terms,
                               sqrt_spd2)


@pytest.fixture(scope="module")
def lib39():
    return build_split_library(39)


def _correlated_mixture(lib: SplitLibrary1D, axis: int) -> GaussianMixture:
    """lib's weights with means spread mostly along axis (1-based) and
    correlated covariances that differ from component to component."""
    spread = np.array([0.3, 0.005]) if axis == 1 else np.array([0.005, 0.05])
    covs = (np.array([[0.09, 0.004], [0.004, 0.0025]])
            * np.linspace(0.5, 1.0, lib.n)[:, None, None])
    return GaussianMixture(weights=lib.weights,
                           means=np.array([2.0, 0.2]) + lib.means[:, None] * spread,
                           covs=covs)


class TestUTWeights:
    def test_hand_values_default_config(self):
        # alpha 0.8, beta 0, eta 2, two variables: zeta = -0.72
        w_m, w_p = ut_weights(2)
        assert len(w_m) == 5 and len(w_p) == 5
        assert abs(w_m[0] - (-0.5625)) < 1e-12
        np.testing.assert_allclose(w_m[1:], 0.390625, atol=1e-12)
        assert abs(w_p[0] - 1.7975) < 1e-12
        np.testing.assert_allclose(w_p[1:], 0.390625, atol=1e-12)
        assert abs(w_m.sum() - 1.0) < 1e-12

    def test_center_point_and_symmetry(self):
        mean = np.array([1.5, -0.25])
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        pts = sigma_points(mean, cov)
        assert pts.shape == (5, 2)
        np.testing.assert_array_equal(pts[0], mean)
        np.testing.assert_allclose(pts[1:3] + pts[3:5],
                                   np.tile(2.0 * mean, (2, 1)), atol=1e-14)

    def test_identity_roundtrip(self):
        mean = np.array([0.3, 0.8])
        cov = np.array([[0.25, -0.06], [-0.06, 0.16]])
        m, p = ut_transform(sigma_points(mean, cov))
        np.testing.assert_allclose(m, mean, atol=1e-12)
        np.testing.assert_allclose(p, cov, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_affine_exactness(self, seed):
        r = np.random.default_rng(seed)
        mean = r.normal(size=2)
        root = r.normal(size=(2, 2)) + 2.0 * np.eye(2)
        cov = root @ root.T
        a = r.normal(size=(2, 2))
        b = r.normal(size=2)
        pts = sigma_points(mean, cov)
        m, p = ut_transform(pts @ a.T + b)
        scale = np.abs(cov).max() * (1.0 + np.abs(a).max() ** 2)
        np.testing.assert_allclose(m, a @ mean + b, atol=1e-10 * (1 + scale))
        np.testing.assert_allclose(p, a @ cov @ a.T, atol=1e-10 * (1 + scale))

    def test_stacked_sets_match_single_calls(self):
        pts = np.random.default_rng(7).normal(size=(6, 5, 2))
        means, covs = ut_transform(pts)
        assert means.shape == (6, 2) and covs.shape == (6, 2, 2)
        for i, one in enumerate(pts):
            m, p = ut_transform(one)
            np.testing.assert_array_equal(means[i], m)
            np.testing.assert_array_equal(covs[i], p)
        sets = sigma_points(means, covs)
        assert sets.shape == (6, 5, 2)
        for i in range(6):
            one = sigma_points(means[i], covs[i])
            assert sets[i].tobytes() == one.tobytes()

    def test_validation(self):
        with pytest.raises(InvalidScalingError):
            ut_weights(0)
        with pytest.raises(InvalidParameterError):
            ut_transform(np.zeros((4, 2)))
        with pytest.raises(PropagationError):
            ut_transform(np.full((5, 2), np.nan))


class TestSplitLibrary:
    def test_trivial_library(self):
        lib = build_split_library(1)
        assert lib.n == 1
        assert lib.sigma == 1.0
        assert lib.weights[0] == 1.0
        assert lib.l2_distance() < 1e-12

    @pytest.mark.parametrize("n", range(1, 40, 2))
    def test_moment_invariants(self, n):
        lib = build_split_library(n)
        assert abs(lib.weights.sum() - 1.0) < 1e-12
        assert abs(lib.weights @ lib.means) < 1e-10
        second = lib.weights @ (lib.means ** 2) + lib.sigma ** 2
        assert abs(second - 1.0) <= 1e-2

    def test_frozen_shapes(self, lib39):
        lib3 = build_split_library(3)
        assert lib3.sigma == pytest.approx(0.842973, abs=2e-4)
        assert lib39.sigma == pytest.approx(0.131247, abs=2e-4)
        assert lib39.l2_distance() < 2e-4

    def test_mixture_tracks_standard_normal(self, lib39):
        xs = np.linspace(-6.0, 6.0, 4001)
        mix = np.zeros_like(xs)
        for w, m in zip(lib39.weights, lib39.means):
            mix += w * np.exp(-0.5 * ((xs - m) / lib39.sigma) ** 2) \
                / (math.sqrt(2 * math.pi) * lib39.sigma)
        target = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
        assert np.abs(mix - target).max() <= 1e-3

    def test_component_count_validation(self):
        for bad in (0, 2, 41, -3):
            with pytest.raises(InvalidParameterError):
                build_split_library(bad)

    def test_validate_rejects_corrupt(self, lib39):
        bad = SplitLibrary1D(means=lib39.means,
                             weights=lib39.weights * 1.5,
                             sigma=lib39.sigma)
        with pytest.raises(LibraryQualityError):
            validate_library(bad)

    def test_library_built_once(self):
        assert build_split_library(39) is build_split_library(39)

    @pytest.mark.parametrize("sigma, mean, weight", [
        (math.nan, 0.0, 1.0),
        (-1.0, 0.0, 1.0),
        (1.0, 0.0, math.nan),
        (1.0, math.nan, 1.0),
    ], ids=["nan-sigma", "negative-sigma", "nan-weight", "nan-mean"])
    def test_load_rejects_non_finite(self, sigma, mean, weight):
        # non-finite values and a non-positive sigma fail validation
        lib = SplitLibrary1D(means=np.array([mean]), weights=np.array([weight]),
                             sigma=sigma)
        with pytest.raises(LibraryQualityError):
            validate_library(lib)

    def test_save_load_roundtrip(self, lib39, tmp_path):
        # the written sigma, means and weights parse back bit for bit
        path = tmp_path / "lib39.csv"
        save_split_library(lib39, path)
        header, columns, *rows = path.read_text().splitlines()
        assert header.startswith("# sigma = ") and columns == "index,mean,weight"
        assert float(header.split("=", 1)[1]) == lib39.sigma
        cells = [row.split(",") for row in rows]
        assert [int(c[0]) for c in cells] == list(range(1, lib39.n + 1))
        np.testing.assert_array_equal([float(c[1]) for c in cells], lib39.means)
        np.testing.assert_array_equal([float(c[2]) for c in cells], lib39.weights)
        # the bytes: a "# " comment line, then CRLF rows of repr cells
        assert path.read_bytes() == (
            f"# sigma = {lib39.sigma!r}\nindex,mean,weight\r\n" + "".join(
                f"{i},{float(m)!r},{float(w)!r}\r\n"
                for i, (m, w) in enumerate(zip(lib39.means, lib39.weights), start=1))
        ).encode()


class TestMixture:
    def test_merge_hand_case(self):
        mix = GaussianMixture(weights=np.array([0.25, 0.75]),
                              means=np.array([[0.0, 0.0], [4.0, 0.0]]),
                              covs=np.array([np.eye(2), 2.0 * np.eye(2)]))
        m, p = merge_moments(mix)
        np.testing.assert_allclose(m, [3.0, 0.0], atol=1e-14)
        # E[x1^2] = .25*(1+0) + .75*(2+16) = 13.75; var = 13.75 - 9 = 4.75
        np.testing.assert_allclose(p, [[4.75, 0.0], [0.0, 1.75]], atol=1e-14)

    def test_mixture_validation(self):
        w, m, p = np.ones(2) / 2, np.zeros((2, 2)), np.array([np.eye(2)] * 2)
        with pytest.raises(InvalidParameterError):
            GaussianMixture(weights=np.ones(3) / 3, means=m, covs=p)
        with pytest.raises(InvalidParameterError):
            GaussianMixture(weights=w, means=np.zeros((2, 3)), covs=p)
        with pytest.raises(InvalidParameterError):
            GaussianMixture(weights=w, means=m, covs=np.ones((2, 2)))
        # one bad member of the stack raises what a single call on it does
        for bad, error in (([[np.nan, 0.0], [0.0, 1.0]], InvalidParameterError),
                           ([[1.0, 0.5], [0.4, 1.0]], InvalidParameterError),
                           ([[-1.0, 0.0], [0.0, 1.0]], DecompositionError),
                           ([[1.0, 1.0], [1.0, 1.0]], DecompositionError)):
            covs = p.copy()
            covs[1] = bad
            with pytest.raises(error):
                GaussianMixture(weights=w, means=m, covs=covs)

    def test_split_preserves_moments(self, lib39):
        g = Gaussian2D(mean=np.array([2.0, 0.5]),
                       cov=np.array([[0.09, 0.0], [0.0, 0.0004]]))
        mix = split_gaussian(g, lib39, direction=1)
        assert mix.n == 39
        m, p = merge_moments(mix)
        np.testing.assert_allclose(m, g.mean, atol=1e-12)
        # library second moment holds to 1e-2, scaled by the split eigenvalue
        assert abs(p[0, 0] - g.cov[0, 0]) <= 1e-2 * g.cov[0, 0]
        assert abs(p[1, 1] - g.cov[1, 1]) < 1e-15

    @pytest.mark.parametrize("direction", [1, 2])
    def test_split_scenario1_exact(self, lib39, direction):
        # the split scales the configured variance and nothing else
        g = builtin_scenarios()[1].initial_gaussian()
        mix = split_gaussian(g, lib39, direction)
        k, other = direction - 1, 2 - direction
        want = g.cov.copy()
        want[k, k] = lib39.sigma ** 2 * g.cov[k, k]
        for cov in mix.covs:
            assert cov.tobytes() == want.tobytes()
        want_means = g.mean[k] + math.sqrt(g.cov[k, k]) * lib39.means
        assert mix.means[:, k].tobytes() == want_means.tobytes()
        assert np.all(mix.means[:, other] == g.mean[other])

    def test_split_rejects_correlated(self, lib39):
        g = Gaussian2D(mean=np.array([2.0, 0.2]),
                       cov=np.array([[0.09, 0.004], [0.004, 0.0025]]))
        for direction in (1, 2):
            with pytest.raises(InvalidParameterError):
                split_gaussian(g, lib39, direction)

    def test_split_direction_selection(self, lib39):
        g = Gaussian2D(mean=np.zeros(2),
                       cov=np.array([[4.0, 0.0], [0.0, 1.0]]))
        means1 = split_gaussian(g, lib39, direction=1).means
        assert np.ptp(means1[:, 0]) > 0.0
        np.testing.assert_array_equal(means1[:, 1], 0.0)
        means2 = split_gaussian(g, lib39, direction=2).means
        assert np.ptp(means2[:, 1]) > 0.0
        np.testing.assert_array_equal(means2[:, 0], 0.0)

    def test_single_component_pdf_matches_gaussian(self):
        g = Gaussian2D(mean=np.array([0.5, -1.0]),
                       cov=np.array([[0.3, 0.1], [0.1, 0.5]]))
        mix = GaussianMixture(weights=np.ones(1), means=g.mean[None],
                              covs=g.cov[None])
        q = np.array([[0.5, -1.0], [0.0, 0.0], [1.2, -0.3]])
        np.testing.assert_allclose(mixture_pdf(mix, q), g.pdf(q),
                                   rtol=1e-14)

    def test_pdf_bitwise_equal_to_component_loop(self, lib39):
        # the reference adds w * pdf component by component over the whole
        # query; the query crosses query-block boundaries unevenly
        mix = _correlated_mixture(lib39, axis=2)
        pts = np.random.default_rng(11).normal(size=(3, 3001, 2)) * [0.5, 0.08] + [2.0, 0.2]
        want = 0.0
        for w, mean, cov in zip(mix.weights, mix.means, mix.covs):
            want = want + w * Gaussian2D(mean, cov).pdf(pts)
        got = mixture_pdf(mix, pts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert mixture_pdf(mix, pts[1, 7]) == want[1, 7]

    @pytest.mark.parametrize("query", [[0.0, 0.0, 5.0, 5.0], np.zeros((3, 4)),
                                       np.zeros((2, 3)), 0.0],
                             ids=["4", "3x4", "2x3", "scalar"])
    def test_pdf_query_without_last_axis_2_rejected(self, lib39, query):
        mix = _correlated_mixture(lib39, axis=1)
        with pytest.raises(InvalidParameterError, match=r"\(\.\.\., 2\)"):
            mixture_pdf(mix, query)

    def test_grid_bitwise_equal_to_scattered_pdf(self, lib39):
        # 37 columns take 6 rows per block, so the 50 rows end in a short
        # block; the grid reaches lanes whose exponent lies below -746 (left
        # at 0) and in the subnormal band (-746, -708)
        mix = _correlated_mixture(lib39, axis=2)
        grid = make_edges(np.array([[-1.0, -2.0], [5.0, 2.5]]), 50, 37)
        nodes = np.stack(np.meshgrid(grid.centers1, grid.centers2, indexing="ij"), axis=-1)
        t = normal2d_terms(mix.means[:, None], mix.covs[:, None])
        arg = normal2d_exponent_at(t, nodes.reshape(-1, 2))
        assert (arg < -746.0).any() and ((arg > -746.0) & (arg < -708.0)).any()
        got = density_grid_for_mixture(mix, grid).values
        want = mixture_pdf(mix, nodes)
        assert got.shape == (50, 37) and got.tobytes() == want.tobytes()

    def test_marginal_matches_quadrature(self, lib39):
        g = Gaussian2D(mean=np.array([1.0, 0.3]),
                       cov=np.array([[0.04, 0.0], [0.0, 0.01]]))
        mix = split_gaussian(g, lib39, direction=2)
        xs = np.linspace(-0.3, 0.9, 241)
        got = mixture_marginal(mix, 2, xs)
        # integrate the joint over a wide phi window
        ys = np.linspace(-1.0, 3.0, 2001)
        grid = np.stack(np.meshgrid(ys, xs, indexing="ij"), axis=-1)
        joint = mixture_pdf(mix, grid.reshape(-1, 2)).reshape(len(ys), len(xs))
        want = np.trapezoid(joint, ys, axis=0)
        np.testing.assert_allclose(got, want, atol=1e-8)
        assert abs(np.trapezoid(got, xs) - 1.0) < 1e-6

    def test_marginal_bitwise_equal_to_component_loop(self, lib39):
        mix = _correlated_mixture(lib39, axis=1)
        rng = np.random.default_rng(5)
        for axis, scale, center in ((1, 0.5, 2.0), (2, 0.08, 0.2)):
            q = rng.normal(size=(4, 25)) * scale + center
            want = np.zeros_like(q)
            for w, mean, var in zip(mix.weights, mix.means[:, axis - 1],
                                    mix.covs[:, axis - 1, axis - 1]):
                want = want + w * np.exp(-0.5 * (q - mean) ** 2 / var) \
                    / (math.sqrt(2.0 * math.pi) * math.sqrt(var))
            got = mixture_marginal(mix, axis, q)
            assert got.shape == q.shape and got.tobytes() == want.tobytes()
            for x, y in zip(q[0, :5], want[0, :5]):
                got = mixture_marginal(mix, axis, float(x))
                assert isinstance(got, float) and got == y

    def test_marginal_axis_validation(self, lib39):
        g = Gaussian2D(mean=np.zeros(2), cov=np.eye(2))
        mix = split_gaussian(g, lib39, direction=1)
        with pytest.raises(InvalidParameterError):
            mixture_marginal(mix, 0, 0.0)


@pytest.mark.parametrize("shape", [(39, 5, 50), (39, 256), (39, 50), (39, 1), (39,)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_component_sum_is_the_running_sum(shape):
    # terms spread over many magnitudes, so any other order moves bits
    terms = np.random.default_rng(3).lognormal(sigma=4.0, size=shape)
    want = terms[0]
    for term in terms[1:]:
        want = want + term
    got = _component_sum(terms)
    assert np.shape(got) == shape[1:] and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("center", [math.pi - 0.01, -math.pi + 0.01, 0.3],
                         ids=["below-pi", "above-minus-pi", "inside"])
def test_sigma_set_across_the_branch_cut_stays_contiguous(center):
    spread = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.02],
                       [-0.05, 0.0], [0.0, -0.02]])
    pts = np.array([center, 0.4]) + spread
    sets = np.stack([pts, pts + [0.5, 0.0]])  # a stack of two sets
    got = _sigma_set_points(cartesian_rows(sets.reshape(-1, 2)).reshape(sets.shape))
    # each set keeps its center's raw angle and the points around it
    shift = np.round(sets[:, :1, 0] / TWO_PI) * TWO_PI
    np.testing.assert_allclose(got[..., 0], sets[..., 0] - shift, atol=1e-14)
    np.testing.assert_allclose(got[..., 1], sets[..., 1], rtol=1e-15)
    assert np.ptp(got[..., 0], axis=-1).max() < 0.11


def _tracked_set_points(states):
    """(x1, x2, theta) sigma-point sets to (phi, e), each point on the 2*pi
    sheet nearest its center's tracked angle theta."""
    x1, x2 = states[..., 0], states[..., 1]
    raw = np.arctan2(x1, x2)
    phi = raw + TWO_PI * np.round((states[..., :1, 2] - raw) / TWO_PI)
    return np.stack([phi, np.hypot(x1, x2)], axis=-1)


def _angle_tracking_reference(sc):
    """Split axis and merged moments per snapshot with every sigma point
    integrated as an (x1, x2, theta) row of angle_tracking_field, theta the
    unwrapped solar angle that places each set on its 2*pi sheet."""
    g = sc.initial_gaussian()
    field = angle_tracking_field(sc.orbit_params())
    times = sc.snapshot_times()

    def integrate(pts):
        y0 = np.column_stack([cartesian_rows(pts), pts[:, 0]])
        res = integrate_batch(field, y0, times, sc.rel_tol, sc.abs_tol, clamp_disk=True)
        assert not res.failed.any()
        return res.states

    worst = np.zeros(2)
    for states in integrate(sigma_points(g.mean, g.cov))[1:]:
        pts = _tracked_set_points(states)
        _, cov = ut_transform(pts)
        bend = pts[1:3] + pts[3:5] - 2.0 * pts[0]
        worst = np.maximum(worst, np.linalg.norm(
            np.linalg.solve(np.linalg.cholesky(cov), bend.T), axis=0))
    direction = 2 if worst[1] > worst[0] else 1
    mix0 = split_gaussian(g, build_split_library(sc.n_1d), direction)
    sets = sigma_points(mix0.means, mix0.covs)
    moments = []
    for states in integrate(sets.reshape(-1, 2)):
        means, covs = ut_transform(_tracked_set_points(states.reshape(*sets.shape[:2], 3)))
        means[:, 0] = wrap_angle(means[:, 0], sc.branch_start)
        mean, cov = merge_moments(GaussianMixture(mix0.weights, means, covs))
        moments.append([mean[0], math.sqrt(cov[0, 0]), mean[1], math.sqrt(cov[1, 1])])
    return direction, moments


@pytest.mark.parametrize("num", [1, 2, 3])
def test_matches_angle_tracking_reference(num):
    # the (x1, x2) rows and the center's raw angle give the split axis and,
    # to well inside the preset tolerance's own error, the moments of the
    # integrated angle theta
    sc = desk_case(builtin_scenarios()[num], "gmmut")
    direction, want = _angle_tracking_reference(sc)
    res = run_gmmut(sc)
    assert np.argmax(np.ptp(res.snapshots[0].mixture.means, axis=0)) == direction - 1
    got = [[m.mu_phi, m.sigma_phi, m.mu_e, m.sigma_e] for m in res.moments("GMM-UT")]
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)


def _split_direction_loop(probe):
    """The split axis from one unscented transform and solve per snapshot."""
    worst = np.zeros(2)
    for states in probe[1:]:
        pts = _sigma_set_points(states)
        _, cov = ut_transform(pts)
        bend = pts[1:3] + pts[3:5] - 2.0 * pts[0]
        worst = np.maximum(worst, np.linalg.norm(
            np.linalg.solve(sqrt_spd2(cov), bend.T), axis=0))
    return 2 if worst[1] > worst[0] else 1


def _probe(rng, n_snapshots, tie):
    """(x1, x2) probe snapshots of sheared, bent (phi, e) sigma-point sets.
    With tie, each set maps onto itself when phi and e swap, so the two
    axes' whitened bends are equal but for round-off."""
    sets = []
    for _ in range(n_snapshots):
        if tie:
            h, (p, q) = rng.uniform(0.01, 0.05), rng.normal(size=2) * 0.01
            c = np.full(2, rng.uniform(0.2, 0.6))
            offsets = np.array([[h, 0.0], [0.0, h]])
            bends = np.array([[p, q], [q, p]])
        else:
            c = np.array([rng.uniform(-3.0, 3.0), rng.uniform(0.2, 0.6)])
            offsets = rng.normal(size=(2, 2)) * 0.03  # sheared: any two directions
            bends = rng.normal(size=(2, 2)) * rng.uniform(0.0, 0.02)
        sets.append(np.concatenate([c[None], c + offsets + bends / 2,
                                    c - offsets + bends / 2]))
    sets = np.array(sets)
    return cartesian_rows(sets.reshape(-1, 2)).reshape(sets.shape)


@pytest.mark.parametrize("tie", [False, True], ids=["sheared", "near-tie"])
def test_stacked_split_direction_matches_snapshot_loop(tie):
    rng = np.random.default_rng(17)
    seen = set()
    for n_snapshots in list(range(1, 18)) * 12:
        probe = _probe(rng, n_snapshots, tie)
        want = _split_direction_loop(probe)
        assert _split_direction(probe) == want
        seen.add(want)
    assert seen == {1, 2}


class TestSplitAxis:
    # scenario 1's flow bends the initial Gaussian far more along e than
    # along phi; scenarios 2 and 3 bend it most along phi
    @pytest.mark.parametrize("num, t_final, axis", [
        (1, None, 2), (2, None, 1), (3, None, 1),
        (1, 0.0, 1),  # no flow to measure: the solar angle is kept
    ])
    def test_preset_split_axis(self, num, t_final, axis):
        sc = paper_case(builtin_scenarios()[num], "gmmut")
        if t_final is not None:
            sc = replace(sc, t_final=t_final)
        means = run_gmmut(sc).snapshots[0].mixture.means
        split, kept = means[:, axis - 1], means[:, 2 - axis]
        sd = math.sqrt(sc.initial_gaussian().cov[axis - 1, axis - 1])
        assert np.ptp(split) > 2.0 * sd
        assert np.ptp(kept) <= 1e-12 * abs(kept[0])


class TestPresetTolerance:
    """The GMM-UT presets integrate at a looser tolerance than the paper MC
    and DEE presets; against the 1e-12 / 1e-14 run, the merged moments move
    far less than the unscented transform's own error and the split axis is
    the same."""

    @staticmethod
    def _split_axis(res):
        return int(np.argmax(np.ptp(res.snapshots[0].mixture.means, axis=0)))

    @pytest.mark.parametrize("num", [1, 2, 3])
    def test_moments_match_tight_tolerance(self, num):
        sc = desk_case(builtin_scenarios()[num], "gmmut")
        got = run_gmmut(sc)
        tight = run_gmmut(replace(sc, rel_tol=1e-12, abs_tol=1e-14))
        assert self._split_axis(got) == self._split_axis(tight)
        rows, tight_rows = got.moments("GMM-UT"), tight.moments("GMM-UT")
        assert len(rows) == len(tight_rows)
        for a, b in zip(rows, tight_rows):
            np.testing.assert_allclose(
                [a.mu_phi, a.sigma_phi, a.mu_e, a.sigma_e],
                [b.mu_phi, b.sigma_phi, b.mu_e, b.sigma_e], rtol=1e-6, atol=0)


def _two_pass_reference(sc):
    """Mixtures, clamped count and sigma-point count of the two-call path:
    the unsplit sigma points alone at rel_tol 1e-6 pick the split axis,
    then the chosen split's sigma points alone at the scenario tolerance."""
    g = sc.initial_gaussian()
    field = cartesian_field(sc.orbit_params())
    probe = integrate_batch(field, cartesian_rows(sigma_points(g.mean, g.cov)),
                            sc.snapshot_times(), 1e-6, 1e-8, clamp_disk=True)
    assert not probe.failed.any()
    mix0 = split_gaussian(g, build_split_library(sc.n_1d), _split_direction(probe.states))
    sets = np.stack([sigma_points(m, p) for m, p in zip(mix0.means, mix0.covs)])
    res = integrate_batch(field, cartesian_rows(sets.reshape(-1, 2)), sc.snapshot_times(),
                          sc.rel_tol, sc.abs_tol, clamp_disk=True)
    assert not res.failed.any()
    mixtures = []
    for states in res.states:
        means, covs = ut_transform(_sigma_set_points(states.reshape(sets.shape)))
        means[:, 0] = wrap_angle(means[:, 0], sc.branch_start)
        mixtures.append(GaussianMixture(weights=mix0.weights, means=means, covs=covs))
    return mixtures, int(res.clamped.sum()), sets.shape[0] * sets.shape[1]


class TestOneBatch:
    @pytest.mark.parametrize("num", [1, 2, 3])
    def test_bitwise_equal_to_two_pass_path(self, num):
        sc = desk_case(builtin_scenarios()[num], "gmmut")
        mixtures, n_clamped, n_sigma = _two_pass_reference(sc)
        res = run_gmmut(sc)
        assert (res.n_clamped, res.n_sigma_points) == (n_clamped, n_sigma)
        assert len(res.snapshots) == len(mixtures)
        for snap, mix in zip(res.snapshots, mixtures):
            for got, want in ((snap.mixture.weights, mix.weights),
                              (snap.mixture.means, mix.means),
                              (snap.mixture.covs, mix.covs)):
                assert got.tobytes() == want.tobytes()
            mean, cov = merge_moments(mix)
            assert snap.mean.tobytes() == mean.tobytes()
            assert snap.cov.tobytes() == cov.tobytes()
            grid = _default_grid(mix, sc.n_bins1, sc.n_bins2)
            assert snap.joint.grid.edges1.tobytes() == grid.edges1.tobytes()
            assert snap.joint.grid.edges2.tobytes() == grid.edges2.tobytes()
            joint = density_grid_for_mixture(mix, grid)
            assert snap.joint.values.tobytes() == joint.values.tobytes()
            assert snap.marginal_phi.values.tobytes() == \
                mixture_marginal(mix, 1, grid.centers1).tobytes()
            assert snap.marginal_e.values.tobytes() == \
                mixture_marginal(mix, 2, grid.centers2).tobytes()
            # the marginals read their bin centers and width from the grid
            np.testing.assert_array_equal(snap.marginal_phi.centers, grid.centers1)
            np.testing.assert_array_equal(snap.marginal_e.centers, grid.centers2)
            assert snap.marginal_phi.width == grid.width1
            assert snap.marginal_e.width == grid.width2

    @staticmethod
    def _flag_rows(monkeypatch, failed=(), clamped=()):
        """Run run_gmmut's real integrator, then mark rows as failed (NaN
        after t0) or clamped.  A row is (part, index) with part "probe",
        "chosen" or "other" (the split not chosen)."""
        def flagged(field, y0, *args, **kwargs):
            res = integrate_batch(field, y0, *args, **kwargs)
            n_set = (len(y0) - 5) // 2
            direction = _split_direction(res.states[:, :5])
            start = {"probe": 0, "chosen": 5 + (direction - 1) * n_set,
                     "other": 5 + (2 - direction) * n_set}
            for part, i in failed:
                res.failed[start[part] + i] = True
                res.states[1:, start[part] + i] = np.nan
            for part, i in clamped:
                res.clamped[start[part] + i] = True
            return res
        monkeypatch.setattr("odlab.gmmut.integrate_batch", flagged)

    def test_failed_probe_row_raises(self, monkeypatch):
        self._flag_rows(monkeypatch, failed=[("probe", 4)])
        with pytest.raises(PropagationError, match="split-axis probe failed"):
            run_gmmut(desk_case(builtin_scenarios()[1], "gmmut"))

    def test_failed_chosen_rows_raise(self, monkeypatch):
        self._flag_rows(monkeypatch, failed=[("chosen", 0), ("chosen", 194)])
        with pytest.raises(PropagationError, match="^2 sigma points failed"):
            run_gmmut(desk_case(builtin_scenarios()[1], "gmmut"))

    @pytest.mark.parametrize("num", [1, 2])  # split axes e and phi
    def test_only_chosen_rows_fail_or_count_as_clamped(self, monkeypatch, num):
        sc = desk_case(builtin_scenarios()[num], "gmmut")
        want = run_gmmut(sc)
        assert want.n_clamped == 0  # no desk row clamps on its own
        self._flag_rows(monkeypatch, failed=[("other", i) for i in range(195)],
                        clamped=[("probe", 0), ("other", 3),
                                 ("chosen", 0), ("chosen", 194)])
        got = run_gmmut(sc)
        assert (got.n_clamped, got.n_sigma_points) == (2, 195)
        for a, b in zip(got.snapshots, want.snapshots):
            assert a.mixture.means.tobytes() == b.mixture.means.tobytes()
            assert a.mixture.covs.tobytes() == b.mixture.covs.tobytes()

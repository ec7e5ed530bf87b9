import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odlab.errors import (DegenerateInputError, InvalidParameterError,
                          OutOfRangeError)
from odlab.histogram import (BinGrid, bin_indices, dee_joint, make_edges,
                             marginal, mc_joint)


def flat_bins(grid: BinGrid, points: np.ndarray) -> np.ndarray:
    """Row-major flat bin index i1 * n2 + i2 of each point."""
    i1, i2 = bin_indices(grid, points)
    return i1 * grid.n2 + i2


def weight_mean(weights, bins, grid: BinGrid):
    """dee_joint of the weights' per-bin sums and counts."""
    nbins = grid.n1 * grid.n2
    return dee_joint(np.bincount(bins, weights, nbins),
                     np.bincount(bins, minlength=nbins), grid)


@pytest.fixture
def cloud(rng):
    return rng.normal(loc=[2.0, 0.5], scale=[0.7, 0.08], size=(4000, 2))


class TestGrid:
    def test_edges_span_data(self, cloud):
        grid = make_edges(cloud, 12, 9)
        assert grid.n1 == 12 and grid.n2 == 9
        assert grid.edges1[0] == cloud[:, 0].min()
        assert grid.edges1[-1] == pytest.approx(cloud[:, 0].max(), rel=1e-15)
        assert grid.bin_area == pytest.approx(grid.width1 * grid.width2)
        np.testing.assert_allclose(np.diff(grid.centers1), grid.width1)

    def test_validation(self, cloud):
        with pytest.raises(InvalidParameterError):
            make_edges(cloud, 0, 5)
        with pytest.raises(InvalidParameterError):
            make_edges(cloud[:1], 5, 5)
        flat = np.column_stack([np.arange(9.0), np.full(9, 2.0)])
        with pytest.raises(DegenerateInputError):
            make_edges(flat, 3, 3)

    def test_monotone_edges_required(self):
        with pytest.raises(InvalidParameterError):
            BinGrid(edges1=np.array([0.0, 1.0, 0.5]),
                    edges2=np.array([0.0, 1.0]))

    def test_indices_hand_case(self):
        grid = BinGrid(edges1=np.linspace(0.0, 1.0, 5),
                       edges2=np.linspace(0.0, 2.0, 3))
        pts = np.array([[0.0, 0.0], [0.25, 1.0], [0.999, 1.999], [1.0, 2.0]])
        i1, i2 = bin_indices(grid, pts)
        np.testing.assert_array_equal(i1, [0, 1, 3, 3])  # top edge closed
        np.testing.assert_array_equal(i2, [0, 1, 1, 1])

    def test_indices_out_of_range(self):
        grid = BinGrid(edges1=np.linspace(0.0, 1.0, 5),
                       edges2=np.linspace(0.0, 1.0, 5))
        with pytest.raises(OutOfRangeError):
            bin_indices(grid, np.array([[1.5, 0.5]]))
        with pytest.raises(OutOfRangeError):
            bin_indices(grid, np.array([[0.5, -0.1]]))


class TestJoints:
    def test_mc_counts_hand_case(self):
        grid = BinGrid(edges1=np.array([0.0, 1.0, 2.0]),
                       edges2=np.array([0.0, 1.0]))
        pts = np.array([[0.5, 0.5], [0.4, 0.2], [1.5, 0.5], [0.1, 0.9]])
        joint = mc_joint(pts, grid)
        # three of four points in the left cell of two unit cells
        np.testing.assert_allclose(joint.values, [[0.75], [0.25]])

    def test_mc_normalized(self, cloud):
        grid = make_edges(cloud, 50, 50)
        joint = mc_joint(cloud, grid)
        assert abs(joint.total_mass - 1.0) < 1e-12

    def test_dee_mean_convention(self):
        # two points in one cell average, not add: f proportional to means
        grid = BinGrid(edges1=np.array([0.0, 1.0, 2.0]),
                       edges2=np.array([0.0, 1.0]))
        pts = np.array([[0.5, 0.5], [0.5, 0.25], [1.5, 0.5]])
        joint = weight_mean(np.array([4.0, 2.0, 1.0]), flat_bins(grid, pts), grid)
        np.testing.assert_allclose(joint.values, [[0.75], [0.25]])

    def test_dee_normalized(self, cloud, rng):
        grid = make_edges(cloud, 30, 40)
        w = rng.uniform(0.1, 3.0, size=len(cloud))
        joint = weight_mean(w, flat_bins(grid, cloud), grid)
        assert abs(joint.total_mass - 1.0) < 1e-12

    def test_dee_validation(self, cloud):
        grid = make_edges(cloud, 5, 5)
        with pytest.raises(DegenerateInputError):
            weight_mean(np.zeros(len(cloud)), flat_bins(grid, cloud), grid)
        with pytest.raises(InvalidParameterError):
            dee_joint(np.ones(24), np.ones(25, dtype=np.int64), grid)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12))
    def test_property_both_joints_normalized(self, seed, n1, n2):
        r = np.random.default_rng(seed)
        pts = r.normal(size=(200, 2))
        grid = make_edges(pts, n1, n2)
        assert abs(mc_joint(pts, grid).total_mass - 1.0) < 1e-12
        w = r.uniform(0.0, 1.0, size=200) + 1e-6
        assert abs(weight_mean(w, flat_bins(grid, pts), grid).total_mass
                   - 1.0) < 1e-12


class TestMarginals:
    def test_consistent_with_joint(self, cloud):
        grid = make_edges(cloud, 25, 35)
        joint = mc_joint(cloud, grid)
        m1 = marginal(joint, 1)
        m2 = marginal(joint, 2)
        assert abs(m1.total_mass - 1.0) < 1e-12
        assert abs(m2.total_mass - 1.0) < 1e-12
        np.testing.assert_allclose(m1.values,
                                   joint.values.sum(axis=1) * grid.width2)
        assert m1.label == "phi" and m2.label == "e"
        assert m1.grid is grid and m2.grid is grid
        np.testing.assert_array_equal(m1.centers, grid.centers1)
        np.testing.assert_array_equal(m2.centers, grid.centers2)
        assert m1.width == grid.width1 and m2.width == grid.width2

    def test_marginal_matches_direct_1d_histogram(self, cloud):
        grid = make_edges(cloud, 25, 35)
        m1 = marginal(mc_joint(cloud, grid), 1)
        counts, _ = np.histogram(cloud[:, 0], bins=grid.edges1)
        want = counts / (len(cloud) * grid.width1)
        np.testing.assert_allclose(m1.values, want, atol=1e-12)

    def test_axis_validation(self, cloud):
        joint = mc_joint(cloud, make_edges(cloud, 5, 5))
        with pytest.raises(InvalidParameterError):
            marginal(joint, 3)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from conftest import sliver_case
from odlab import geometry
from odlab.errors import DegenerateInputError, GeometryError, OutOfRangeError
from odlab.geometry import (_RASTER_SLACK, Triangulation, _blocks, _dedup,
                            _expand, _grid_range, _inside, delaunay,
                            interp_linear, interp_to_grid, locate_many,
                            longest_edges, vertex_values)


def _cross(tri: Triangulation) -> np.ndarray:
    """Twice the signed area of every triangle (positive when CCW)."""
    v = tri.vertices
    a = v[tri.triangles[:, 0]]
    b = v[tri.triangles[:, 1]]
    c = v[tri.triangles[:, 2]]
    return ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def assert_empty_circumcircles(tri: Triangulation) -> None:
    """Brute-force Delaunay check: no vertex strictly inside any circumcircle.

    In-circle determinants within a 1e-12 relative band of their permanent
    count as cocircular.
    """
    v = tri.vertices
    for a, b, c in tri.triangles:
        adx, ady = (v[a] - v).T
        bdx, bdy = (v[b] - v).T
        cdx, cdy = (v[c] - v).T
        terms = ((adx * adx + ady * ady, bdx * cdy, cdx * bdy),
                 (bdx * bdx + bdy * bdy, cdx * ady, adx * cdy),
                 (cdx * cdx + cdy * cdy, adx * bdy, bdx * ady))
        det = sum(lift * (p - q) for lift, p, q in terms)
        permanent = sum(lift * (np.abs(p) + np.abs(q)) for lift, p, q in terms)
        inside = np.flatnonzero(det > 1e-12 * permanent)
        assert len(inside) == 0, \
            f"vertex {inside[0]} inside circumcircle of ({a},{b},{c})"


def dedup_loop(pts: np.ndarray, tol: float = 1e-12):
    """Reference for _dedup: the same merge rule as a per-point loop."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    group_of = np.empty(len(pts), dtype=np.int64)
    groups: list[int] = []  # representative = smallest original index
    last = -1
    for i in order:
        if last >= 0 and abs(pts[i, 0] - pts[last, 0]) <= tol \
                and abs(pts[i, 1] - pts[last, 1]) <= tol:
            group_of[i] = group_of[last]
            groups[group_of[i]] = min(groups[group_of[i]], i)
        else:
            group_of[i] = len(groups)
            groups.append(i)
        last = i
    reps = np.array(groups, dtype=np.int64)
    vert_order = np.argsort(reps, kind="stable")
    vertex_of_group = np.empty(len(reps), dtype=np.int64)
    vertex_of_group[vert_order] = np.arange(len(reps))
    return pts[reps[vert_order]], vertex_of_group[group_of]


def assert_is_triangulation(tri: Triangulation) -> None:
    """Euler count, edges shared by at most two triangles, CCW triangles.

    Hull edges are the triangle edges used by exactly one triangle.
    """
    n = len(tri.vertices)
    t = tri.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    _, uses = np.unique(edges, axis=0, return_counts=True)
    assert uses.max() <= 2
    hull_edges = int(np.count_nonzero(uses == 1))
    assert tri.n_triangles == 2 * (n - 1) - hull_edges
    assert np.all(_cross(tri) > 0.0)


class TestDelaunay:
    def test_square_with_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [0.5, 0.5]])
        tri = delaunay(pts)
        assert tri.n_triangles == 4
        assert_is_triangulation(tri)
        assert_empty_circumcircles(tri)

    def test_random_clouds(self, rng):
        for n in (10, 57, 200):
            pts = rng.normal(size=(n, 2))
            tri = delaunay(pts)
            assert_is_triangulation(tri)
            assert_empty_circumcircles(tri)

    def test_grid_cloud_with_cocircular_quads(self):
        # regular grid: every unit cell is cocircular, the degenerate case
        xs, ys = np.meshgrid(np.arange(7.0), np.arange(6.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        tri = delaunay(pts)
        assert_is_triangulation(tri)
        assert_empty_circumcircles(tri)

    def test_duplicate_points_merged(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                        [0.0, 0.0]])
        tri = delaunay(pts)
        assert len(tri.vertices) == 3
        np.testing.assert_array_equal(tri.point_vertex, [0, 1, 2, 1, 0])
        # within 1e-12 per coordinate counts as the same point
        near = np.array([[0.0, 0.0], [1.0, 0.0], [1.0 + 5e-13, -5e-13],
                         [0.0, 1.0], [5e-13, 1.0 - 5e-13]])
        tri = delaunay(near)
        np.testing.assert_array_equal(tri.vertices, near[[0, 1, 3]])
        np.testing.assert_array_equal(tri.point_vertex, [0, 1, 1, 2, 2])
        # a duplicate-free cloud keeps its order: the identity mapping
        pts = np.random.default_rng(5).normal(size=(300, 2))
        tri = delaunay(pts)
        np.testing.assert_array_equal(tri.vertices, pts)
        np.testing.assert_array_equal(tri.point_vertex, np.arange(300))

    def test_dedup_matches_loop_reference(self, rng):
        base = rng.normal(size=(400, 2))
        picks = rng.integers(0, 400, size=200)
        chain = np.column_stack([np.arange(50) * 6e-13, np.zeros(50)])
        clouds = [
            base,
            np.vstack([base, base[picks]]),
            np.vstack([base, base[picks] + rng.uniform(-1e-12, 1e-12, (200, 2))]),
            np.round(rng.uniform(size=(400, 2)) * 8) / 8,  # many exact ties
            chain[rng.permutation(50)],  # merged link by link
        ]
        for pts in clouds:
            verts, mapping = _dedup(pts)
            want_verts, want_mapping = dedup_loop(pts)
            assert verts.tobytes() == want_verts.tobytes()
            np.testing.assert_array_equal(mapping, want_mapping)

    def test_longest_edges_match_corner_array_reference(self, rng):
        # the (m, 3, 2) corner array and its einsum, bit for bit
        for pts in (rng.normal(size=(2000, 2)) * [3.0, 0.02],
                    rng.uniform(size=(500, 2))):
            tri = delaunay(pts)
            corners = tri.vertices[tri.triangles]
            edges = corners - corners[:, (1, 2, 0)]
            want = np.sqrt(np.einsum("tkd,tkd->tk", edges, edges).max(axis=1))
            assert longest_edges(tri).tobytes() == want.tobytes()

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            delaunay(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(DegenerateInputError):
            delaunay(np.column_stack([np.arange(9.0), 2.0 * np.arange(9.0)]))
        with pytest.raises(DegenerateInputError):
            delaunay(np.array([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]]))
        # far from the origin Qhull leaves most of this cloud out of every
        # triangle; that must not pass as a triangulation
        far = np.random.default_rng(0).uniform(size=(200, 2)) + 1e6
        with pytest.raises(GeometryError):
            delaunay(far)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=5, max_value=40))
    def test_property_random_cloud_is_delaunay(self, seed, n):
        pts = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, 2))
        tri = delaunay(pts)
        assert_is_triangulation(tri)
        assert_empty_circumcircles(tri)


class TestInterpolation:
    def linear_field(self, pts):
        return 0.7 - 1.3 * pts[:, 0] + 2.9 * pts[:, 1]

    def test_linear_exact_at_queries(self, rng):
        pts = rng.uniform(size=(80, 2))
        tri = delaunay(pts)
        vals = self.linear_field(pts)
        for q in rng.uniform(0.2, 0.8, size=(40, 2)):
            got = interp_linear(tri, vals, q)
            want = 0.7 - 1.3 * q[0] + 2.9 * q[1]
            assert abs(got - want) < 1e-12

    def test_linear_exact_on_grid(self, rng):
        pts = rng.uniform(size=(120, 2))
        tri = delaunay(pts)
        field = interp_to_grid(tri, self.linear_field(pts), 41, 37)
        gx, gy = np.meshgrid(field.xs, field.ys, indexing="ij")
        want = 0.7 - 1.3 * gx + 2.9 * gy
        assert np.abs(field.values[field.mask] - want[field.mask]).max() < 1e-12
        assert np.all(field.values[~field.mask] == 0.0)

    def test_grid_matches_pointwise_location(self, rng):
        # scan conversion must give every node the triangle and weights
        # locate_many finds; a thin anisotropic cloud has long hull slivers
        pts = rng.normal(size=(400, 2)) * [1.0, 0.02]
        vals = rng.uniform(size=400)
        tri = delaunay(pts)
        keep = rng.uniform(size=tri.n_triangles) < 0.8
        field = interp_to_grid(tri, vals, 83, 71, keep=keep)
        gx, gy = np.meshgrid(field.xs, field.ys, indexing="ij")
        t_idx, bary = locate_many(tri, np.column_stack([gx.ravel(), gy.ravel()]))
        inside = t_idx >= 0
        want = np.zeros(len(t_idx))
        tv = tri.triangles[t_idx[inside]]
        want[inside] = (bary[inside, 0] * vals[tv[:, 0]]
                        + bary[inside, 1] * vals[tv[:, 1]]
                        + bary[inside, 2] * vals[tv[:, 2]])
        want[inside] *= keep[t_idx[inside]]
        np.testing.assert_array_equal(field.mask.ravel(),
                                      inside & keep[t_idx])
        np.testing.assert_array_equal(field.values.ravel(), want)

    def test_lowest_triangle_index_on_shared_edges(self):
        # on a 7 x 6 lattice every half-integer node is a vertex or an edge
        # midpoint, so most lie in two or more triangles
        xs, ys = np.meshgrid(np.arange(7.0), np.arange(6.0), indexing="ij")
        tri = delaunay(np.column_stack([xs.ravel(), ys.ravel()]))
        gx, gy = np.meshgrid(np.linspace(0, 6, 13), np.linspace(0, 5, 11),
                             indexing="ij")
        q = np.column_stack([gx.ravel(), gy.ravel()])
        # edge functions are exact here: inside means all three >= 0
        a, b, c = (tri.vertices[tri.triangles[:, k]] for k in range(3))

        def edge(u, v):
            d = v - u
            return (d[None, :, 0] * (q[:, None, 1] - u[None, :, 1])
                    - d[None, :, 1] * (q[:, None, 0] - u[None, :, 0]))

        inside = (edge(a, b) >= 0) & (edge(b, c) >= 0) & (edge(c, a) >= 0)
        assert inside.any(axis=1).all()
        assert np.count_nonzero(inside.sum(axis=1) >= 2) == 119
        t_idx, bary = locate_many(tri, q)
        np.testing.assert_array_equal(t_idx, inside.argmax(axis=1))
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, atol=1e-15)
        # a NaN at one vertex poisons exactly the nodes whose chosen
        # triangle has that corner, even at barycentric weight 0
        for v in range(len(tri.vertices)):
            vals = np.zeros(len(tri.vertices))
            vals[v] = np.nan
            field = interp_to_grid(tri, vals, 13, 11)
            np.testing.assert_array_equal(
                np.isnan(field.values.ravel()),
                (tri.triangles[t_idx] == v).any(axis=1))

    def test_outside_hull_raises(self, rng):
        pts = rng.uniform(size=(30, 2))
        tri = delaunay(pts)
        with pytest.raises(OutOfRangeError):
            interp_linear(tri, self.linear_field(pts), np.array([5.0, 5.0]))

    def test_grid_masks_outside(self):
        # triangle hull: grid corners away from the hypotenuse are outside
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.3]])
        tri = delaunay(pts)
        field = interp_to_grid(tri, np.ones(4), 21, 21)
        assert not field.mask[20, 20]
        assert field.mask[0, 0]
        assert field.values[20, 20] == 0.0

    def test_vertex_values_averages_duplicates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        tri = delaunay(pts)
        vals = vertex_values(tri, np.array([2.0, 5.0, 7.0, 4.0]))
        assert vals[tri.point_vertex[0]] == 3.0
        assert vals[tri.point_vertex[1]] == 5.0

    def test_locate_barycentric_partition(self, rng):
        pts = rng.normal(size=(60, 2))
        tri = delaunay(pts)
        q = rng.normal(size=(25, 2)) * 0.3
        t_idx, bary = locate_many(tri, q)
        inside = t_idx >= 0
        assert inside.any()
        np.testing.assert_allclose(bary[inside].sum(axis=1), 1.0, atol=1e-12)
        assert (bary[inside] >= -1e-12).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_property_affine_reproduction(self, seed, a, b, c):
        pts = np.random.default_rng(seed).uniform(size=(25, 2))
        tri = delaunay(pts)
        vals = a + b * pts[:, 0] + c * pts[:, 1]
        q = np.mean(pts, axis=0)  # centroid is always in the hull
        got = interp_linear(tri, vals, q)
        want = a + b * q[0] + c * q[1]
        scale = 1.0 + abs(a) + abs(b) + abs(c)
        assert abs(got - want) < 1e-11 * scale


def interp_to_grid_reference(tri: Triangulation, node_values, n1: int, n2: int,
                             keep=None):
    """(values, mask) of interp_to_grid on the per-candidate path: edge terms
    per (triangle, row) pair, corners gathered per candidate through
    tri.vertices[tri.triangles[cand]], flat node ids and np.unique."""
    vals = vertex_values(tri, node_values)
    v = tri.vertices
    xs = np.linspace(v[:, 0].min(), v[:, 0].max(), n1)
    ys = np.linspace(v[:, 1].min(), v[:, 1].max(), n2)
    step_x = (xs[-1] - xs[0]) / (n1 - 1)
    step_y = (ys[-1] - ys[0]) / (n2 - 1)
    values = np.zeros(n1 * n2)
    mask = np.zeros(n1 * n2, dtype=bool)
    ids = np.arange(tri.n_triangles) if keep is None else np.flatnonzero(keep)
    corners = v[tri.triangles[ids]]
    cx, cy = corners[:, :, 0], corners[:, :, 1]
    r_lo, r_hi = _grid_range(cx.min(axis=1), cx.max(axis=1), xs[0], step_x, n1)
    n_rows = np.maximum(r_hi - r_lo + 1, 0)
    for t0, t1 in _blocks(n_rows, geometry._RASTER_BLOCK):
        owner, rows = _expand(r_lo[t0:t1], n_rows[t0:t1])
        owner += t0
        ax, ay = cx[owner], cy[owner]
        bx, by = ax[:, (1, 2, 0)], ay[:, (1, 2, 0)]
        half = _RASTER_SLACK * step_x
        x_lo = np.maximum(np.minimum(ax, bx), xs[rows, None] - half)
        x_hi = np.minimum(np.maximum(ax, bx), xs[rows, None] + half)
        e_lo, e_hi = np.minimum(ay, by), np.maximum(ay, by)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (by - ay) / (bx - ax)
            y1 = np.clip(ay + (x_lo - ax) * slope, e_lo, e_hi)
            y2 = np.clip(ay + (x_hi - ax) * slope, e_lo, e_hi)
        vertical = ax == bx
        y_lo = np.where(vertical, e_lo, np.minimum(y1, y2))
        y_hi = np.where(vertical, e_hi, np.maximum(y1, y2))
        crosses = x_lo <= x_hi
        j_lo, j_hi = _grid_range(np.where(crosses, y_lo, np.inf).min(axis=1),
                                 np.where(crosses, y_hi, -np.inf).max(axis=1),
                                 ys[0], step_y, n2)
        n_cols = np.maximum(j_hi - j_lo + 1, 0)
        for p0, p1 in _blocks(n_cols, geometry._RASTER_BLOCK):
            pair, cols = _expand(j_lo[p0:p1], n_cols[p0:p1])
            pair += p0
            cand, nodes = ids[owner[pair]], rows[pair] * n2 + cols
            c = v[tri.triangles[cand]]
            dx = c[:, :, 0] - xs[nodes // n2][:, None]
            dy = c[:, :, 1] - ys[nodes % n2][:, None]
            w0 = dx[:, 1] * dy[:, 2] - dy[:, 1] * dx[:, 2]
            w1 = dx[:, 2] * dy[:, 0] - dy[:, 2] * dx[:, 0]
            w2 = dx[:, 0] * dy[:, 1] - dy[:, 0] * dx[:, 1]
            hit = np.flatnonzero(_inside(w0, w1, w2) & ~mask[nodes])
            sel = hit[np.unique(nodes[hit], return_index=True)[1]]
            tv = tri.triangles[cand[sel]]
            den = w0[sel] + w1[sel] + w2[sel]
            values[nodes[sel]] = (w0[sel] / den * vals[tv[:, 0]]
                                  + w1[sel] / den * vals[tv[:, 1]]
                                  + w2[sel] / den * vals[tv[:, 2]])
            mask[nodes[sel]] = True
    return values.reshape(n1, n2), mask.reshape(n1, n2)


class TestRasterOracle:
    """interp_to_grid bit for bit against the per-candidate reference."""

    @staticmethod
    def assert_bitwise(tri, vals, n1, n2, keep=None):
        field = interp_to_grid(tri, vals, n1, n2, keep=keep)
        values, mask = interp_to_grid_reference(tri, vals, n1, n2, keep)
        assert field.values.tobytes() == values.tobytes()
        np.testing.assert_array_equal(field.mask, mask)
        return field

    @pytest.fixture(params=[None, 64], ids=["one-block", "small-blocks"])
    def block(self, request, monkeypatch):
        # small blocks put many triangles' rows and nodes across block
        # boundaries, where the lowest-index rule must still hold
        if request.param:
            monkeypatch.setattr(geometry, "_RASTER_BLOCK", request.param)

    def test_random_cloud_with_duplicates(self, rng, block):
        pts = rng.uniform(size=(300, 2))
        pts = np.concatenate([pts, pts[:40], pts[40:60] + 1e-13])
        tri = delaunay(pts)
        assert len(tri.vertices) == 300
        self.assert_bitwise(tri, rng.uniform(size=len(pts)), 67, 45)

    def test_thin_cloud_with_holes(self, rng, block):
        pts = rng.normal(size=(500, 2)) * [1.0, 0.01]
        tri = delaunay(pts)
        keep = rng.uniform(size=tri.n_triangles) < 0.7
        field = self.assert_bitwise(tri, rng.normal(size=500), 120, 41, keep)
        full = interp_to_grid(tri, np.ones(500), 120, 41)
        assert (full.mask & ~field.mask).any()

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_lattice_nodes_on_shared_edges(self, block, scale):
        # lattice vertices, edges and edge midpoints fall on grid nodes (up
        # to rounding at scale 0.1), so most nodes are in the 1e-12 band of
        # two or more triangles; lattice columns give vertical edges.  A
        # NaN at a vertex marks the nodes whose chosen triangle has it.
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(6.0), indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()]) * scale + 0.3
        tri = delaunay(pts)
        vals = np.random.default_rng(3).uniform(size=len(pts))
        vals[::7] = np.nan
        field = self.assert_bitwise(tri, vals, 33, 21)
        assert field.mask.all()

    @pytest.mark.parametrize("rows", [1, 3], ids=["1-row", "3-rows"])
    def test_band_heights(self, rng, rows, monkeypatch):
        # the grid is assembled from bands of whole rows: short bands cut
        # triangles, lattice edges and a sliver (first covered row inside
        # its candidate range) across band boundaries
        pts = rng.normal(size=(500, 2)) * [1.0, 0.01]
        tri = delaunay(pts)
        keep = rng.uniform(size=tri.n_triangles) < 0.7
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(6.0), indexing="ij")
        lattice = delaunay(np.column_stack([xs.ravel(), ys.ravel()]))
        sliver, sliver_vals, sliver_keep = sliver_case()
        for case, n1, n2 in (((tri, rng.normal(size=500), keep), 120, 41),
                             ((lattice, rng.uniform(size=54), None), 33, 21),
                             ((sliver, sliver_vals, sliver_keep), 10, 12)):
            monkeypatch.setattr(geometry, "_BAND_NODES", rows * n2)
            field = self.assert_bitwise(case[0], case[1], n1, n2, case[2])
            assert field.mask.any()

    def test_vertical_edges(self, rng, block):
        # columns of points at shared abscissae, jittered in y only
        x = np.repeat(np.linspace(-1.0, 2.0, 7), 9)
        y = np.tile(np.linspace(0.0, 1.0, 9), 7) + rng.uniform(-0.03, 0.03, 63)
        tri = delaunay(np.column_stack([x, y]))
        a = tri.vertices[tri.triangles]
        assert (a[:, :, 0] == a[:, (1, 2, 0), 0]).any()
        self.assert_bitwise(tri, rng.normal(size=63), 43, 97)


class TestHullArea:
    def test_triangulation_covers_hull(self, rng):
        # triangle areas over the whole triangulation sum to the hull area
        pts = rng.uniform(size=(70, 2))
        tri = delaunay(pts)
        areas = 0.5 * np.abs(_cross(tri))
        assert areas.sum() == pytest.approx(ConvexHull(pts).volume, rel=1e-12)

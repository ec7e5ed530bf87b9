"""Delaunay triangulation and linear interpolation on scattered data.

Construction hands the deduplicated points to SciPy's Qhull (Barber,
Dobkin & Huhdanpaa 1996).  Input that Qhull cannot triangulate with every
vertex in a counter-clockwise triangle of nonzero area is rejected with a
typed error rather than returned with points silently left out.

Scattered queries are located by testing each one against every
triangle.  Interpolation onto a uniform grid scan-converts the triangles
instead, so its cost follows the number of covered nodes.  Both apply the
same inclusion test, and a point inside two triangles takes the lower index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, GeometryError, OutOfRangeError

# (triangle, point) pairs tested per block by locate_many and interp_to_grid
_RASTER_BLOCK = 1 << 14
# slack, in grid steps, around the extents interp_to_grid scans
_RASTER_SLACK = 1e-3


# --- triangulation ------------------------------------------------------------


@dataclass
class Triangulation:
    """Triangles over the convex hull of a deduplicated point set.

    point_vertex maps each input point to its vertex row (duplicates within
    1e-12 share a vertex).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    point_vertex: np.ndarray

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def _dedup(pts: np.ndarray, tol: float = 1e-12):
    """Merge points closer than tol (per coordinate).

    In lexicographic order, a point joins the group of its predecessor when
    both coordinates differ by at most tol.  Each group is represented by
    its smallest input index and vertices are ordered by representative,
    so without duplicates the vertex array equals the input and the mapping
    is the identity.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    step = np.abs(np.diff(pts[order], axis=0))
    new_group = np.concatenate(([True], (step > tol).any(axis=1)))
    reps = np.minimum.reduceat(order, np.flatnonzero(new_group))
    group_of = np.empty(len(pts), dtype=np.int64)
    group_of[order] = np.cumsum(new_group) - 1
    vert_order = np.argsort(reps, kind="stable")
    vertex_of_group = np.empty(len(reps), dtype=np.int64)
    vertex_of_group[vert_order] = np.arange(len(reps))
    mapping = vertex_of_group[group_of]
    return pts[reps[vert_order]], mapping


def delaunay(points: np.ndarray) -> Triangulation:
    """Delaunay triangulation of a 2-D point cloud.

    Raises DegenerateInputError when fewer than 3 distinct points remain
    after merging duplicates, or when all points are collinear, and
    GeometryError when Qhull leaves a vertex out of every triangle or
    returns a triangle that is not counter-clockwise with nonzero area.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegenerateInputError("points must have shape (n, 2)")
    if len(pts) < 3:
        raise DegenerateInputError("need at least 3 points")
    if not np.all(np.isfinite(pts)):
        raise DegenerateInputError("points must be finite")

    verts, point_vertex = _dedup(pts)
    if len(verts) < 3:
        raise DegenerateInputError("fewer than 3 distinct points")
    # imported here: scipy.spatial takes ~0.5 s to load, and only Qhull needs it
    from scipy.spatial import Delaunay, QhullError
    try:
        qh = Delaunay(verts)
    except QhullError as exc:
        raise DegenerateInputError(
            "points are collinear; no triangulation exists") from exc
    if len(qh.coplanar):
        raise GeometryError(
            f"{len(qh.coplanar)} vertices left out of the triangulation")

    # SciPy orients 2-D simplices counter-clockwise
    tri = qh.simplices.astype(np.int32)
    a, b, c = verts[tri[:, 0]], verts[tri[:, 1]], verts[tri[:, 2]]
    cross = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
             - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    if np.any(cross <= 0.0):
        raise GeometryError(
            "triangulation contains non-CCW or degenerate triangles")
    return Triangulation(vertices=verts, triangles=tri,
                         point_vertex=point_vertex)


# --- point location and interpolation ----------------------------------------


def _bary(tri: Triangulation, cand: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Barycentric numerators of points (px, py) in triangles cand."""
    corners = tri.vertices[tri.triangles[cand]]  # (m, 3, 2)
    dx = corners[:, :, 0] - px[:, None]
    dy = corners[:, :, 1] - py[:, None]
    w0 = dx[:, 1] * dy[:, 2] - dy[:, 1] * dx[:, 2]
    w1 = dx[:, 2] * dy[:, 0] - dy[:, 2] * dx[:, 0]
    w2 = dx[:, 0] * dy[:, 1] - dy[:, 0] * dx[:, 1]
    return w0, w1, w2


def _inside(w0, w1, w2) -> np.ndarray:
    """Barycentric inclusion test on the numerators from _bary.

    A point is inside when every numerator is at least -1e-12 times their
    absolute sum and that sum is positive, so a point within the band of a
    shared edge is inside both triangles.
    """
    scale = np.abs(w0) + np.abs(w1) + np.abs(w2)
    tol = -1e-12 * scale
    return (w0 >= tol) & (w1 >= tol) & (w2 >= tol) & (scale > 0.0)


def locate_many(tri: Triangulation, pts: np.ndarray):
    """Containing triangle and barycentric coordinates of each query point.

    Each query is tested against every triangle, in blocks of about
    _RASTER_BLOCK (query, triangle) pairs, so a point inside two triangles
    takes the lower index, as in interp_to_grid.  Returns (tri_idx, bary)
    where tri_idx is -1 outside the hull and bary holds normalized
    barycentric coordinates (zeros when outside).
    """
    pts = np.asarray(pts, dtype=float)
    n_tri = tri.n_triangles
    out_tri = np.full(len(pts), -1, dtype=np.int64)
    out_bary = np.zeros((len(pts), 3))
    per_block = max(1, _RASTER_BLOCK // n_tri)
    for q0 in range(0, len(pts), per_block):
        q = pts[q0:q0 + per_block]
        w0, w1, w2 = _bary(tri, np.tile(np.arange(n_tri), len(q)),
                           np.repeat(q[:, 0], n_tri), np.repeat(q[:, 1], n_tri))
        hit = _inside(w0, w1, w2).reshape(len(q), n_tri)
        first = hit.argmax(axis=1)
        rows = np.flatnonzero(hit.any(axis=1))
        pick = rows * n_tri + first[rows]
        den = w0[pick] + w1[pick] + w2[pick]
        out_tri[q0 + rows] = first[rows]
        out_bary[q0 + rows] = np.column_stack((w0[pick], w1[pick],
                                               w2[pick])) / den[:, None]
    return out_tri, out_bary


def longest_edges(tri: Triangulation) -> np.ndarray:
    """Length of each triangle's longest edge."""
    corners = tri.vertices[tri.triangles]
    edges = corners - corners[:, (1, 2, 0)]
    return np.sqrt(np.einsum("tkd,tkd->tk", edges, edges).max(axis=1))


def vertex_values(tri: Triangulation, point_values: np.ndarray) -> np.ndarray:
    """Per-vertex values from per-point values (duplicates averaged)."""
    point_values = np.asarray(point_values, dtype=float)
    nv = len(tri.vertices)
    if len(point_values) == nv and np.array_equal(tri.point_vertex, np.arange(nv)):
        return point_values
    sums = np.zeros(nv)
    counts = np.zeros(nv)
    np.add.at(sums, tri.point_vertex, point_values)
    np.add.at(counts, tri.point_vertex, 1.0)
    return sums / counts


def interp_linear(tri: Triangulation, node_values: np.ndarray, q: np.ndarray) -> float:
    """Barycentric-linear interpolation at one query point.

    Raises OutOfRangeError outside the convex hull.
    """
    vals = vertex_values(tri, node_values)
    t_idx, bary = locate_many(tri, np.asarray(q, dtype=float)[None, :])
    if t_idx[0] < 0:
        raise OutOfRangeError("query point outside the convex hull")
    tv = tri.triangles[t_idx[0]]
    return float(bary[0, 0] * vals[tv[0]] + bary[0, 1] * vals[tv[1]]
                 + bary[0, 2] * vals[tv[2]])


@dataclass
class InterpGrid:
    """Uniform grid over the vertex bounding box with a hull mask.

    values[i, j] is the interpolant at (xs[i], ys[j]); mask[i, j] is False
    outside the convex hull and where only triangles left out by
    interp_to_grid's keep cover the node (those values are 0).
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    mask: np.ndarray


def _blocks(counts: np.ndarray, size: int):
    """Consecutive (start, stop) item ranges holding at most size units.

    An item larger than size forms a range of its own.
    """
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + size, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _expand(first: np.ndarray, counts: np.ndarray):
    """(owner, value) for the integer runs first[i] .. first[i] + counts[i] - 1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, first[owner] + offset


def _grid_range(lo, hi, origin: float, step: float, n: int):
    """Index range of grid nodes origin + k*step within [lo, hi] plus slack."""
    k_lo = np.clip(np.ceil((lo - origin) / step - _RASTER_SLACK), 0, n)
    k_hi = np.clip(np.floor((hi - origin) / step + _RASTER_SLACK), -1, n - 1)
    return k_lo.astype(np.int64), k_hi.astype(np.int64)


def _raster_candidates(tri: Triangulation, ids: np.ndarray, xs: np.ndarray,
                       ys: np.ndarray):
    """Yield (triangle, flat node index) candidate blocks in the order of ids.

    Triangle ids[i] is a candidate for every grid row within its x-extent
    and, on each such row, for the nodes within the y-extent of its part of
    the slab |x - row| <= _RASTER_SLACK grid steps.  That slack, in both
    directions, absorbs the rounding of these extents and the 1e-12 band
    of the inclusion test along the triangle's edges.
    """
    n1, n2 = len(xs), len(ys)
    step_x = (xs[-1] - xs[0]) / (n1 - 1)
    step_y = (ys[-1] - ys[0]) / (n2 - 1)
    corners = tri.vertices[tri.triangles[ids]]
    cx, cy = corners[:, :, 0], corners[:, :, 1]
    r_lo, r_hi = _grid_range(cx.min(axis=1), cx.max(axis=1), xs[0], step_x, n1)
    n_rows = np.maximum(r_hi - r_lo + 1, 0)
    for t0, t1 in _blocks(n_rows, _RASTER_BLOCK):
        owner, rows = _expand(r_lo[t0:t1], n_rows[t0:t1])
        owner += t0
        # y-extent of each edge's part inside the slab around the row
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
        for p0, p1 in _blocks(n_cols, _RASTER_BLOCK):
            pair, cols = _expand(j_lo[p0:p1], n_cols[p0:p1])
            pair += p0
            yield ids[owner[pair]], rows[pair] * n2 + cols


def interp_to_grid(tri: Triangulation, node_values: np.ndarray, n1: int,
                   n2: int, keep: np.ndarray | None = None) -> InterpGrid:
    """Interpolate onto an n1 x n2 uniform grid spanning the vertex bbox.

    The triangles are scan-converted onto the grid and each candidate node
    gets the inclusion test and barycentric weights of locate_many, so both
    give a node the same value; a node inside the band of two triangles (on
    a shared edge) takes the lower triangle index.
    keep, when given, is a per-triangle boolean: only triangles with keep
    True are scanned, so nodes that no kept triangle covers are treated
    like nodes outside the hull.
    """
    if n1 < 2 or n2 < 2:
        raise DegenerateInputError("grid needs at least 2 nodes per axis")
    vals = vertex_values(tri, node_values)
    v = tri.vertices
    xs = np.linspace(v[:, 0].min(), v[:, 0].max(), n1)
    ys = np.linspace(v[:, 1].min(), v[:, 1].max(), n2)
    values = np.zeros(n1 * n2)
    mask = np.zeros(n1 * n2, dtype=bool)
    ids = np.arange(tri.n_triangles) if keep is None else np.flatnonzero(keep)
    tv = tri.triangles
    for cand, nodes in _raster_candidates(tri, ids, xs, ys):
        w0, w1, w2 = _bary(tri, cand, xs[nodes // n2], ys[nodes % n2])
        hit = np.flatnonzero(_inside(w0, w1, w2) & ~mask[nodes])
        # candidates come in triangle order: first occurrence = lowest index
        sel = hit[np.unique(nodes[hit], return_index=True)[1]]
        ti = cand[sel]
        den = w0[sel] + w1[sel] + w2[sel]
        values[nodes[sel]] = (w0[sel] / den * vals[tv[ti, 0]]
                              + w1[sel] / den * vals[tv[ti, 1]]
                              + w2[sel] / den * vals[tv[ti, 2]])
        mask[nodes[sel]] = True
    return InterpGrid(xs=xs, ys=ys, values=values.reshape(n1, n2),
                      mask=mask.reshape(n1, n2))

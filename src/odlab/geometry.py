"""Delaunay triangulation and linear interpolation on scattered data.

Construction hands the deduplicated points to SciPy's Qhull (Barber,
Dobkin & Huhdanpaa 1996).  Input that Qhull cannot triangulate with every
vertex in a counter-clockwise triangle of nonzero area is rejected with a
typed error rather than returned with points silently left out.

Scattered queries are located by testing each one against every
triangle.  Interpolation onto a uniform grid scan-converts the triangles
instead, so its cost follows the number of covered nodes.  Every function
that needs the triangles' corners (the orientation check, longest_edges,
locate_many, interp_to_grid) gathers them once per call into (3, m)
columns, one row per corner; the last two compute barycentric numerators
from those rows.  The scan
conversion computes each edge's extents and slope once per triangle and
yields (triangle, grid row, grid column) candidates.  Both apply the same
inclusion test, and a point inside two triangles takes the lower index.
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
    is the identity; that case returns before any grouping.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    step = np.abs(np.diff(pts[order], axis=0))
    new_group = np.concatenate(([True], (step > tol).any(axis=1)))
    if new_group.all():
        return pts.copy(), np.arange(len(pts))
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
    tri = Triangulation(vertices=verts, triangles=qh.simplices.astype(np.int32),
                        point_vertex=point_vertex)
    (x0, x1, x2), (y0, y1, y2) = _corner_columns(tri, slice(None),
                                                 verts[:, 0], verts[:, 1])
    if np.any((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) <= 0.0):
        raise GeometryError(
            "triangulation contains non-CCW or degenerate triangles")
    return tri


# --- point location and interpolation ----------------------------------------


def _corner_columns(tri: Triangulation, ids, *per_vertex: np.ndarray):
    """Each per-vertex array at the corners of triangles ids, as (3, m)
    contiguous rows: row k holds corner k of every triangle."""
    corner = np.ascontiguousarray(tri.triangles[ids].T)
    return tuple(a[corner] for a in per_vertex)


def _bary(cx: np.ndarray, cy: np.ndarray, pos, px: np.ndarray, py: np.ndarray):
    """Barycentric numerators of points (px, py) in the triangles at
    positions pos (an index or slice) of the corner columns cx, cy."""
    dx0, dx1, dx2 = (c[pos] - px for c in cx)
    dy0, dy1, dy2 = (c[pos] - py for c in cy)
    w0 = dx1 * dy2 - dy1 * dx2
    w1 = dx2 * dy0 - dy2 * dx0
    w2 = dx0 * dy1 - dy0 * dx1
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
    cx, cy = _corner_columns(tri, slice(None), tri.vertices[:, 0],
                             tri.vertices[:, 1])
    out_tri = np.full(len(pts), -1, dtype=np.int64)
    out_bary = np.zeros((len(pts), 3))
    per_block = max(1, _RASTER_BLOCK // n_tri)
    for q0 in range(0, len(pts), per_block):
        q = pts[q0:q0 + per_block]
        # (query, triangle) numerators, one row per query
        w0, w1, w2 = _bary(cx, cy, slice(None), q[:, :1], q[:, 1:])
        hit = _inside(w0, w1, w2)
        rows = np.flatnonzero(hit.any(axis=1))
        first = hit[rows].argmax(axis=1)
        w = np.column_stack((w0[rows, first], w1[rows, first], w2[rows, first]))
        out_tri[q0 + rows] = first
        out_bary[q0 + rows] = w / (w[:, 0] + w[:, 1] + w[:, 2])[:, None]
    return out_tri, out_bary


def longest_edges(tri: Triangulation) -> np.ndarray:
    """Length of each triangle's longest edge."""
    cx, cy = _corner_columns(tri, slice(None), tri.vertices[:, 0],
                             tri.vertices[:, 1])
    # edge k runs from corner k to corner k + 1
    dx, dy = cx - np.roll(cx, -1, axis=0), cy - np.roll(cy, -1, axis=0)
    return np.sqrt((dx * dx + dy * dy).max(axis=0))


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
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return owner, np.arange(len(owner)) + shift


def _grid_range(lo, hi, origin: float, step: float, n: int):
    """Index range of grid nodes origin + k*step within [lo, hi] plus slack."""
    k_lo = np.clip(np.ceil((lo - origin) / step - _RASTER_SLACK), 0, n)
    k_hi = np.clip(np.floor((hi - origin) / step + _RASTER_SLACK), -1, n - 1)
    return k_lo.astype(np.int64), k_hi.astype(np.int64)


def _slab_columns(ax: np.ndarray, ay: np.ndarray, owner: np.ndarray,
                  x_row: np.ndarray, half: float, ys: np.ndarray,
                  step_y: float):
    """Grid column range of the part of triangle owner[i] inside the slab
    |x - x_row[i]| <= half, for the triangles with corner rows ax, ay.

    Edge k runs from corner k to corner k + 1.  Its extents and slope are
    computed once per triangle and gathered per (triangle, row) pair.  The
    temporaries die on return, so _raster_candidates does not hold them
    while its candidates are processed.
    """
    bx, by = np.roll(ax, -1, axis=0), np.roll(ay, -1, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (by - ay) / (bx - ax)
    px, py, s, e_lo, e_hi, x_lo, x_hi, vert = (
        a.take(owner, axis=1) for a in (
            ax, ay, slope, np.minimum(ay, by), np.maximum(ay, by),
            np.minimum(ax, bx), np.maximum(ax, bx), ax == bx))
    # y-extent of each edge's part inside the slab
    x_lo = np.maximum(x_lo, x_row - half)
    x_hi = np.minimum(x_hi, x_row + half)
    with np.errstate(invalid="ignore"):
        y1 = np.clip(py + (x_lo - px) * s, e_lo, e_hi)
        y2 = np.clip(py + (x_hi - px) * s, e_lo, e_hi)
    y_lo = np.where(vert, e_lo, np.minimum(y1, y2))
    y_hi = np.where(vert, e_hi, np.maximum(y1, y2))
    crosses = x_lo <= x_hi
    return _grid_range(np.where(crosses, y_lo, np.inf).min(axis=0),
                       np.where(crosses, y_hi, -np.inf).max(axis=0),
                       ys[0], step_y, len(ys))


def _raster_candidates(cx: np.ndarray, cy: np.ndarray, xs: np.ndarray,
                       ys: np.ndarray):
    """Yield (triangle position, row, column) candidate blocks in position
    order over the triangles with corner columns cx, cy.

    A triangle is a candidate for every grid row within its x-extent and,
    on each such row, for the nodes within the y-extent of its part of the
    slab |x - row| <= _RASTER_SLACK grid steps.  That slack, in both
    directions, absorbs the rounding of these extents and the 1e-12 band
    of the inclusion test along the triangle's edges.
    """
    n1 = len(xs)
    step_x = (xs[-1] - xs[0]) / (n1 - 1)
    step_y = (ys[-1] - ys[0]) / (len(ys) - 1)
    r_lo, r_hi = _grid_range(cx.min(axis=0), cx.max(axis=0), xs[0], step_x, n1)
    n_rows = np.maximum(r_hi - r_lo + 1, 0)
    for t0, t1 in _blocks(n_rows, _RASTER_BLOCK):
        owner, rows = _expand(r_lo[t0:t1], n_rows[t0:t1])
        j_lo, j_hi = _slab_columns(cx[:, t0:t1], cy[:, t0:t1], owner, xs[rows],
                                   _RASTER_SLACK * step_x, ys, step_y)
        n_cols = np.maximum(j_hi - j_lo + 1, 0)
        for p0, p1 in _blocks(n_cols, _RASTER_BLOCK):
            pair, cols = _expand(j_lo[p0:p1], n_cols[p0:p1])
            pair += p0
            yield owner[pair] + t0, rows[pair], cols


def interp_to_grid(tri: Triangulation, node_values: np.ndarray, n1: int,
                   n2: int, keep: np.ndarray | None = None) -> InterpGrid:
    """Interpolate onto an n1 x n2 uniform grid spanning the vertex bbox.

    The kept triangles' corner coordinates and vertex values are gathered
    once into (3, m) columns.  The triangles are scan-converted onto the
    grid and each candidate node gets the inclusion test and barycentric
    weights of locate_many, so both give a node the same value; a node
    inside the band of two triangles (on a shared edge) takes the lower
    triangle index.
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
    ids = slice(None) if keep is None else np.flatnonzero(keep)
    cx, cy, cv = _corner_columns(tri, ids, v[:, 0], v[:, 1], vals)
    for pos, rows, cols in _raster_candidates(cx, cy, xs, ys):
        nodes = rows * n2 + cols
        w0, w1, w2 = _bary(cx, cy, pos, xs[rows], ys[cols])
        hit = np.flatnonzero(_inside(w0, w1, w2) & ~mask[nodes])
        ph, nh = pos[hit], nodes[hit]
        w0, w1, w2 = w0[hit], w1[hit], w2[hit]
        den = w0 + w1 + w2
        val = w0 / den * cv[0][ph] + w1 / den * cv[1][ph] + w2 / den * cv[2][ph]
        values[nh] = val
        # a node inside the bands of two triangles is hit twice and keeps
        # one of its values, whatever the write order; where those differ
        # in any bit, each node takes its first hit, the lowest triangle
        # index, since candidates come in triangle order
        if np.any(values.view(np.int64)[nh] != val.view(np.int64)):
            first = np.unique(nh, return_index=True)[1]
            values[nh[first]] = val[first]
        mask[nh] = True
    return InterpGrid(xs=xs, ys=ys, values=values.reshape(n1, n2),
                      mask=mask.reshape(n1, n2))

"""Uniform 2-D binning and the count/weight-mean density estimators.

Densities are piecewise constant over bins.  The Monte Carlo estimator is
sample frequency per bin area; the characteristic-weight estimator averages
the transported density weights per bin and renormalizes, so both integrate
to one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError, OutOfRangeError

_EDGE_SLACK = 1e-9  # fraction of a bin width tolerated outside the range
# names of the two binned axes, solar angle and eccentricity
AXES = ("phi", "e")


@dataclass(frozen=True)
class BinGrid:
    """Uniform rectangular bins: edges1/edges2 hold N_b+1 ascending values."""

    edges1: np.ndarray
    edges2: np.ndarray

    def __post_init__(self):
        for name, e in (("edges1", self.edges1), ("edges2", self.edges2)):
            e = np.asarray(e, dtype=float)
            object.__setattr__(self, name, e)
            if e.ndim != 1 or len(e) < 2:
                raise InvalidParameterError(f"{name} needs at least 2 values")
            if not np.all(np.diff(e) > 0):
                raise InvalidParameterError(f"{name} must be strictly increasing")

    @property
    def n1(self) -> int:
        return len(self.edges1) - 1

    @property
    def n2(self) -> int:
        return len(self.edges2) - 1

    @property
    def width1(self) -> float:
        return (self.edges1[-1] - self.edges1[0]) / self.n1

    @property
    def width2(self) -> float:
        return (self.edges2[-1] - self.edges2[0]) / self.n2

    @property
    def bin_area(self) -> float:
        return self.width1 * self.width2

    @property
    def centers1(self) -> np.ndarray:
        return 0.5 * (self.edges1[:-1] + self.edges1[1:])

    @property
    def centers2(self) -> np.ndarray:
        return 0.5 * (self.edges2[:-1] + self.edges2[1:])


@dataclass(frozen=True)
class JointDensityGrid:
    """Piecewise-constant joint density over a BinGrid."""

    grid: BinGrid
    values: np.ndarray  # (n1, n2)

    @property
    def total_mass(self) -> float:
        return float(self.values.sum() * self.grid.bin_area)


@dataclass(frozen=True)
class MarginalDensity:
    """Piecewise-constant 1-D density over the bins of one grid axis."""

    grid: BinGrid
    axis: int
    values: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return self.grid.centers1 if self.axis == 1 else self.grid.centers2

    @property
    def width(self) -> float:
        return self.grid.width1 if self.axis == 1 else self.grid.width2

    @property
    def label(self) -> str:
        return AXES[self.axis - 1]

    @property
    def total_mass(self) -> float:
        return float(self.values.sum() * self.width)


def make_edges(points: np.ndarray, n_b1: int, n_b2: int) -> BinGrid:
    """Bins spanning exactly the per-axis min/max of the points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise InvalidParameterError("points must have shape (n >= 2, 2)")
    if n_b1 < 1 or n_b2 < 1:
        raise InvalidParameterError("bin counts must be >= 1")
    edges = []
    for ax, nb in ((0, n_b1), (1, n_b2)):
        lo = pts[:, ax].min()
        hi = pts[:, ax].max()
        if hi <= lo:
            raise DegenerateInputError(f"axis {ax + 1} has zero range")
        wid = (hi - lo) / nb
        edges.append(lo + wid * np.arange(nb + 1))
    return BinGrid(edges1=edges[0], edges2=edges[1])


def axis_bins(grid: BinGrid, axis: int, x: np.ndarray) -> np.ndarray:
    """Bin index on axis (1 or 2) of each coordinate in x; top edge closed.

    Raises OutOfRangeError when a coordinate lies outside the grid by more
    than a 1e-9 bin-width slack.
    """
    edges, nb, wid = ((grid.edges1, grid.n1, grid.width1) if axis == 1
                      else (grid.edges2, grid.n2, grid.width2))
    lo, hi = edges[0], edges[-1]
    slack = _EDGE_SLACK * wid
    if np.any(x < lo - slack) or np.any(x > hi + slack):
        raise OutOfRangeError(f"points outside bin range on axis {axis}")
    idx = np.floor((x - lo) / wid).astype(np.int64)
    np.clip(idx, 0, nb - 1, out=idx)
    return idx


def bin_indices(grid: BinGrid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis bin index of each point (axis_bins on both columns)."""
    pts = np.asarray(points, dtype=float)
    return axis_bins(grid, 1, pts[:, 0]), axis_bins(grid, 2, pts[:, 1])


def mc_joint(points: np.ndarray, grid: BinGrid) -> JointDensityGrid:
    """Sample-frequency density: f_pk = count_pk / (N_sam * A_pk)."""
    pts = np.asarray(points, dtype=float)
    i1, i2 = bin_indices(grid, pts)
    counts = np.bincount(i1 * grid.n2 + i2, minlength=grid.n1 * grid.n2)
    values = counts.reshape(grid.n1, grid.n2) / (len(pts) * grid.bin_area)
    return JointDensityGrid(grid=grid, values=values)


def add_to_bins(sums: np.ndarray, counts: np.ndarray, weights: np.ndarray,
                bins: np.ndarray) -> None:
    """Add weights into running per-bin sums and counts, in the order given.

    bins holds each weight's row-major flat bin index i1 * n2 + i2 (see
    bin_indices).  np.add.at adds in index order, so chunks added one call
    after another give np.bincount's sums over the joined chunks bit for
    bit.
    """
    w = np.asarray(weights, dtype=float)
    if len(w) != len(bins):
        raise InvalidParameterError("weights and bins must have equal length")
    if np.any(w < 0):
        raise InvalidParameterError("weights must be non-negative")
    added = np.bincount(bins, minlength=len(counts))
    if len(added) != len(counts):
        raise InvalidParameterError("bin index beyond the grid")
    np.add.at(sums, bins, w)
    counts += added


def dee_joint(sums: np.ndarray, counts: np.ndarray, grid: BinGrid
              ) -> JointDensityGrid:
    """Weight-mean density: f_pk = (mean weight in bin / A_pk) / total of means.

    sums and counts hold each bin's weight sum and weight count in
    row-major bin order, as add_to_bins accumulates them.
    """
    nbins = grid.n1 * grid.n2
    if len(sums) != nbins or len(counts) != nbins:
        raise InvalidParameterError("bin sums and counts must match the grid")
    means = np.divide(sums, counts, out=np.zeros(nbins), where=counts > 0)
    total = means.sum()
    if total <= 0.0:
        raise DegenerateInputError("all density weights are zero")
    values = means.reshape(grid.n1, grid.n2) / (grid.bin_area * total)
    return JointDensityGrid(grid=grid, values=values)


def marginal(joint: JointDensityGrid, axis: int) -> MarginalDensity:
    """Integrate out the other axis: f_p = (Sum_k f_pk) * other-axis width."""
    g = joint.grid
    if axis == 1:
        values = joint.values.sum(axis=1) * g.width2
    elif axis == 2:
        values = joint.values.sum(axis=0) * g.width1
    else:
        raise InvalidParameterError("axis must be 1 or 2")
    return MarginalDensity(grid=g, axis=axis, values=values)

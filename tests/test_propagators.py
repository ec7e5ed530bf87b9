import dataclasses
import functools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import odlab
from conftest import hand_triangulation, sliver_case
from odlab import geometry, odeint, propagators
from odlab.dynamics import cartesian_field, characteristic_field
from odlab.errors import DomainError, PropagationError
from odlab.geometry import GridRaster, InterpGrid, delaunay, interp_to_grid
from odlab.gmmut import run_gmmut
from odlab.histogram import JointDensityGrid, dee_joint, make_edges, marginal
from odlab.odeint import integrate_batch
from odlab.propagators import (_bin_bands, _check_failures, _dee_snapshot,
                               initial_cloud, run, run_dee, run_mc, run_study)
from odlab.scenarios import (ScenarioConfig, builtin_scenarios, desk_case,
                             paper_case, study_cases)

TWO_PI = 2.0 * math.pi


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(name="unit", phi0=2.2069, e0=0.145,
                delta_phi=math.pi / 8, delta_e=0.05,
                t_final=1.0, dt_snap=0.5,
                n_sam=400, n_grid=60, n_bins1=12, n_bins2=12, seed=7)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestInitialCloud:
    def test_matches_scenario_gaussian(self):
        sc = small_scenario(n_sam=60_000, t_final=0.0, dt_snap=0.5)
        pts = initial_cloud(sc)
        n = len(pts)
        sd_phi = sc.delta_phi / 2.0
        sd_e = sc.delta_e / 2.0
        # CLT bands at five standard errors
        assert abs(pts[:, 0].mean() - sc.phi0) < 5.0 * sd_phi / math.sqrt(n)
        assert abs(pts[:, 1].mean() - sc.e0) < 5.0 * sd_e / math.sqrt(n)
        assert abs(pts[:, 0].std() / sd_phi - 1.0) < 5.0 / math.sqrt(n)
        assert abs(pts[:, 1].std() / sd_e - 1.0) < 5.0 / math.sqrt(n)
        assert abs(np.corrcoef(pts.T)[0, 1]) < 5.0 / math.sqrt(n)

    def test_seed_shared_across_pipelines(self):
        # DEE rides the MC trajectories: equal positions at every snapshot
        sc = small_scenario()
        mc = run_mc(sc)
        dee = run_dee(sc)
        assert len(mc.snapshots) == len(dee.snapshots) == 3
        for a, b in zip(mc.snapshots, dee.snapshots, strict=True):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_seed_changes_cloud(self):
        a = initial_cloud(small_scenario(seed=1))
        b = initial_cloud(small_scenario(seed=2))
        assert not np.array_equal(a, b)


class TestRunShapes:
    def test_mc_snapshot_structure(self):
        sc = small_scenario()
        res = run_mc(sc)
        assert res.method == "MC"
        assert len(res.snapshots) == 3
        np.testing.assert_array_equal([s.time for s in res.snapshots],
                                      [0.0, 0.5, 1.0])
        for s in res.snapshots:
            assert s.sample_weights is None and s.moment_weights is None
            assert s.samples.shape == (sc.n_sam, 2)
            assert abs(s.joint.total_mass - 1.0) < 1e-12
            assert abs(s.marginal_phi.total_mass - 1.0) < 1e-12
            assert abs(s.marginal_e.total_mass - 1.0) < 1e-12
            lo = sc.branch_start
            assert np.all((s.samples[:, 0] >= lo)
                          & (s.samples[:, 0] < lo + TWO_PI))
        assert res.t_total == res.t_propagation + res.t_interpolation

    def test_dee_snapshot_structure(self):
        sc = small_scenario()
        res = run_dee(sc)
        assert res.method == "DEE"
        for s in res.snapshots:
            assert s.sample_weights is not None
            assert np.all(s.sample_weights >= 0.0)
            assert abs(s.joint.total_mass - 1.0) < 1e-12
            assert abs(s.marginal_phi.total_mass - 1e0) < 1e-12
            assert abs(s.marginal_e.total_mass - 1.0) < 1e-12
            # grid moments: probability-mass weights on bin centers
            assert s.moment_weights is not None
            assert abs(s.moment_weights.sum() - 1.0) < 1e-12

    def test_branch_window_respected(self):
        sc = small_scenario(phi0=0.3004, e0=0.23, branch_start=-math.pi)
        res = run_mc(sc)
        for s in res.snapshots:
            assert np.all(s.samples[:, 0] >= -math.pi)
            assert np.all(s.samples[:, 0] < math.pi)

    def test_zero_horizon_single_snapshot(self):
        sc = small_scenario(t_final=0.0)
        res = run_mc(sc)
        assert len(res.snapshots) == 1
        assert res.snapshots[0].time == 0.0


def assert_same_run(res, ref):
    """Equal methods, moments, counters, bin edges, joints and marginals."""
    assert res.method == ref.method
    assert res.t_total == res.t_propagation + res.t_interpolation
    assert res.moments(res.method) == ref.moments(ref.method)
    assert res.counters() == ref.counters() and res.steps_accepted > 0
    for a, b in zip(res.snapshots, ref.snapshots, strict=True):
        assert a.time == b.time
        for x, y in ((a.joint.grid.edges1, b.joint.grid.edges1),
                     (a.joint.grid.edges2, b.joint.grid.edges2),
                     (a.joint.values, b.joint.values),
                     (a.marginal_phi.values, b.marginal_phi.values),
                     (a.marginal_e.values, b.marginal_e.values)):
            np.testing.assert_array_equal(x, y)


def count_clouds(monkeypatch) -> list:
    """Row counts of the batches run through propagators.integrate_batch."""
    rows = []

    def counted(field, y0, *args, **kwargs):
        rows.append(len(y0))
        return integrate_batch(field, y0, *args, **kwargs)
    monkeypatch.setattr(propagators, "integrate_batch", counted)
    return rows


class TestRunDispatch:
    @pytest.mark.parametrize("method, label, direct", [
        ("mc", "MC", run_mc), ("dee", "DEE", run_dee),
        ("gmmut", "GMM-UT", run_gmmut)])
    def test_matches_direct_call(self, method, label, direct):
        sc = small_scenario(method=method)
        res, ref = run(sc), direct(sc)
        assert res.method == label
        assert_same_run(res, ref)
        if method == "gmmut":
            assert res.n_sigma_points == 5 * res.snapshots[0].mixture.n
            assert res.n_failed == 0

    def test_study_integrates_each_cloud_once(self, monkeypatch):
        base = small_scenario()
        cases = [base,
                 dataclasses.replace(base, method="gmmut", n_1d=5),
                 dataclasses.replace(base, method="dee", n_grid=40, n_bins1=8),
                 dataclasses.replace(base, method="dee", jacobian_correction=False),
                 dataclasses.replace(base, seed=8),
                 dataclasses.replace(base, method="dee", n_sam=300),
                 dataclasses.replace(base, rel_tol=1e-10),
                 dataclasses.replace(base, name="renamed", n_bins2=5)]
        lone = [run(sc) for sc in cases]
        rows = count_clouds(monkeypatch)
        study = run_study(cases)
        # cases 0, 2, 3 and 7 share one cloud; seed, n_sam and rel_tol each
        # pick their own; GMM-UT integrates sigma points through gmmut
        assert rows == [400, 400, 300, 400]
        for res, ref in zip(study, lone, strict=True):
            assert_same_run(res, ref)
        # the shared cloud's time is charged to each of its cases
        assert study[0].t_propagation == study[7].t_propagation
        assert study[2].t_propagation > study[0].t_propagation

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_desk_study_shares_one_cloud(self, number, monkeypatch):
        # desk MC keeps the Jacobian correction and desk DEE drops it
        _, cases = zip(*study_cases(builtin_scenarios()[number], paper=False))
        assert cases[0].jacobian_correction and not cases[1].jacobian_correction
        rows = count_clouds(monkeypatch)
        mc, dee, _ = run_study(list(cases))
        assert rows == [cases[0].n_sam]
        assert mc.counters() == dee.counters()
        for a, b in zip(mc.snapshots, dee.snapshots, strict=True):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_counters_are_the_batch_counts(self):
        sc = small_scenario()
        ph = initial_cloud(sc)
        y0 = np.column_stack([ph[:, 1] * np.sin(ph[:, 0]), ph[:, 1] * np.cos(ph[:, 0])])
        ref = integrate_batch(cartesian_field(sc.orbit_params()), y0, sc.snapshot_times(),
                              sc.rel_tol, sc.abs_tol, clamp_disk=True)
        assert run_mc(sc).counters() == dict(
            n_failed=int(ref.failed.sum()), n_clamped=int(ref.clamped.sum()),
            steps_accepted=ref.steps_accepted, steps_rejected=ref.steps_rejected)
        # no output time past the start: no step
        assert set(run_mc(small_scenario(t_final=0.0)).counters().values()) == {0}


class TestDeterminism:
    def test_rerun_bitwise(self):
        sc = small_scenario()
        a = run_mc(sc)
        b = run_mc(sc)
        for sa, sb in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(sa.samples, sb.samples)
            np.testing.assert_array_equal(sa.joint.values, sb.joint.values)

    @pytest.mark.parametrize("runner", [run_mc, run_dee])
    def test_row_blocks_bitwise(self, runner, monkeypatch):
        # 400 samples in three forked shares of 133 or 134 rows, each in
        # blocks of 64 rows
        sc = small_scenario()
        a = runner(sc)
        monkeypatch.setattr(odeint, "_BLOCK", 64)
        monkeypatch.setattr(odeint, "_MIN_SHARE", 100)
        monkeypatch.setattr(odeint, "_usable_cpus", lambda: 3)
        b = runner(sc)
        assert a.counters() == b.counters()
        for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
            np.testing.assert_array_equal(sa.samples, sb.samples)
            if runner is run_dee:
                np.testing.assert_array_equal(sa.sample_weights, sb.sample_weights)
            for x, y in ((sa.joint.values, sb.joint.values),
                         (sa.marginal_phi.values, sb.marginal_phi.values),
                         (sa.marginal_e.values, sb.marginal_e.values)):
                np.testing.assert_array_equal(x, y)


class TestDeskTolerance:
    """The desk preset integrates at a tolerance sized on MC's sampling
    error; against the 1e-12 / 1e-14 run of the same cloud its moments move
    far less than that error (test_paper_cases pins the paper MC and DEE
    presets at 1e-12 / 1e-14)."""

    @pytest.mark.parametrize("num", [1, 2, 3])
    def test_mc_moments_match_tight_tolerance(self, num):
        sc = desk_case(builtin_scenarios()[num], "mc")
        got = run_mc(sc).moments("MC")
        tight = run_mc(dataclasses.replace(sc, rel_tol=1e-12, abs_tol=1e-14)
                       ).moments("MC")
        assert len(got) == len(tight)
        for a, b in zip(got, tight):
            np.testing.assert_allclose(a.as_array(), b.as_array(), rtol=1e-6, atol=0)


class TestDuplicateSamples:
    def test_exact_duplicates_reconstruct_like_the_deduplicated_cloud(self):
        rng = np.random.default_rng(3)
        pts = rng.normal([2.2, 0.15], [0.3, 0.02], size=(200, 2))
        weights = rng.uniform(0.5, 2.0, 200)
        picks = [5, 77, 140]
        sc = small_scenario()
        dup = _dee_snapshot(0.0, np.vstack([pts, pts[picks]]),
                            np.concatenate([weights, weights[picks]]), sc)
        ref = _dee_snapshot(0.0, pts, weights, sc)
        np.testing.assert_array_equal(dup.joint.values, ref.joint.values)
        np.testing.assert_array_equal(dup.moment_weights, ref.moment_weights)


def node_array_joint(field: InterpGrid, n_b1: int, n_b2: int
                     ) -> JointDensityGrid:
    """Reference for _bin_bands: every in-hull node of the whole grid as an
    (x, y) point, bins spanning the points' min/max, each point binned by
    its grid row and column index, line i of lines lo..hi in bin
    min(n_b - 1, (i - lo) * n_b // (hi - lo)), weights averaged per bin
    with bincount in row-major node order."""
    rows, cols = np.nonzero(field.mask)
    nodes = np.column_stack([field.xs[rows], field.ys[cols]])
    w = field.values[rows, cols]
    grid = make_edges(nodes, n_b1, n_b2)
    flat = np.zeros(len(nodes), dtype=np.int64)
    for idx, nb in ((rows, grid.n1), (cols, grid.n2)):
        lo, hi = idx.min(), idx.max()
        flat = flat * nb + np.minimum(nb - 1, (idx - lo) * nb // (hi - lo))
    nbins = grid.n1 * grid.n2
    sums = np.bincount(flat, weights=w, minlength=nbins)
    counts = np.bincount(flat, minlength=nbins)
    means = np.divide(sums, counts, out=np.zeros(nbins), where=counts > 0)
    values = means.reshape(grid.n1, grid.n2) / (grid.bin_area * means.sum())
    return JointDensityGrid(grid=grid, values=values)


@functools.lru_cache(maxsize=None)
def desk_dee_rasters(number: int):
    """(run, GridRaster arguments of each snapshot) of desk DEE on one
    scenario; the runs are deterministic, so tests share them."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return GridRaster(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagators, "GridRaster", recorded)
        sc = desk_case(builtin_scenarios()[number], "dee")
        return sc, run_dee(sc), calls


def holed_cloud_case():
    """GridRaster arguments of a 3,000-point desk cloud with 40 % of its
    triangles left out, on a 150 x 170 grid."""
    rng = np.random.default_rng(20260816)
    pts = initial_cloud(desk_case(builtin_scenarios()[1], "dee"))[:3000]
    tri = delaunay(pts)
    keep = rng.uniform(size=tri.n_triangles) < 0.6
    return (tri, rng.uniform(0.5, 2.0, len(pts)), 150, 170), {"keep": keep}


class TestBinningOracle:
    """_bin_bands bit for bit against the node-array reference."""

    @staticmethod
    def assert_bitwise(joint: JointDensityGrid, field: InterpGrid, n_b1: int,
                       n_b2: int) -> JointDensityGrid:
        ref = node_array_joint(field, n_b1, n_b2)
        for a, b in ((joint.grid.edges1, ref.grid.edges1),
                     (joint.grid.edges2, ref.grid.edges2),
                     (joint.values, ref.values),
                     (marginal(joint, 1).values, marginal(ref, 1).values),
                     (marginal(joint, 2).values, marginal(ref, 2).values)):
            assert a.tobytes() == b.tobytes()
        return ref

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_desk_runs(self, number):
        sc, res, calls = desk_dee_rasters(number)
        assert [s.time for s in res.snapshots][:3] == [0.0, 0.5, 1.0]
        fields = [interp_to_grid(*args, **kwargs) for args, kwargs in calls]
        for snap, field in zip(res.snapshots, fields, strict=True):
            ref = self.assert_bitwise(snap.joint, field, sc.n_bins1,
                                      sc.n_bins2)
            assert snap.moment_weights.tobytes() == \
                (ref.values.ravel() * ref.grid.bin_area).tobytes()
        if number == 2:
            # at t = 1.5 grid rows fall exactly on interior bin edges
            field, g = fields[3], res.snapshots[3].joint.grid
            assert res.snapshots[3].time == 1.5
            rows = field.xs[field.mask.any(axis=1)]
            q = (rows - g.edges1[0]) / g.width1
            assert np.any((q == np.floor(q)) & (q > 0) & (q < g.n1))

    def test_keep_and_mask_with_holes(self, rng):
        args, kwargs = holed_cloud_case()
        field = interp_to_grid(*args, **kwargs)
        assert 0.1 < field.mask.mean() < 0.6
        self.assert_bitwise(_bin_bands(GridRaster(*args, **kwargs), 13, 11, 0.0),
                            field, 13, 11)
        # holes and isolated nodes at the corners of the grid: a jittered
        # lattice whose corner points are grid corners, a fifth of its
        # triangles kept, and those at the two corners
        xs, ys = np.meshgrid(np.linspace(-1.0, 2.0, 9), np.linspace(0.1, 0.3, 7),
                             indexing="ij")
        inner = np.zeros(xs.shape, dtype=bool)
        inner[1:-1, 1:-1] = True
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        pts[inner.ravel()] += rng.uniform(-0.01, 0.01, (inner.sum(), 2)) * [10, 1]
        tri = delaunay(pts)
        keep = rng.uniform(size=tri.n_triangles) < 0.2
        keep |= (tri.triangles == 0).any(axis=1)
        keep |= (tri.triangles == len(pts) - 1).any(axis=1)
        vals = rng.uniform(size=len(pts))
        holes = interp_to_grid(tri, vals, 40, 30, keep=keep)
        assert holes.mask[0, 0] and holes.mask[-1, -1]
        assert 0.1 < holes.mask.mean() < 0.6
        self.assert_bitwise(_bin_bands(GridRaster(tri, vals, 40, 30, keep=keep),
                                       7, 9, 0.0), holes, 7, 9)

    @pytest.mark.parametrize("rows", [1, 3, None],
                             ids=["1-row", "3-rows", "whole-grid"])
    def test_band_heights(self, rows, monkeypatch):
        # bands of 1 row, 3 rows and the whole grid bin every input alike:
        # a holed cloud, desk scenario 2 at t = 1.5 (grid rows exactly on
        # bin edges) and a sliver whose first covered row lies inside its
        # candidate range
        sc, res, calls = desk_dee_rasters(2)
        assert res.snapshots[3].time == 1.5
        tri, vals, keep = sliver_case()
        cases = [(holed_cloud_case(), 13, 11),
                 (calls[3], sc.n_bins1, sc.n_bins2),
                 (((tri, vals, 10, 12), {"keep": keep}), 3, 4)]
        fields = [interp_to_grid(*args, **kwargs) for (args, kwargs), _, _ in cases]
        np.testing.assert_array_equal(np.flatnonzero(fields[2].mask.any(axis=1)),
                                      [4, 7, 8])
        for ((args, kwargs), n_b1, n_b2), field in zip(cases, fields):
            n1, n2 = args[2], args[3]
            monkeypatch.setattr(geometry, "_BAND_NODES", (rows or n1) * n2)
            raster = GridRaster(*args, **kwargs)
            self.assert_bitwise(_bin_bands(raster, n_b1, n_b2, 0.0), field,
                                n_b1, n_b2)
            band_rows = [len(v) for _, v, _ in raster.bands(0, n1)]
            assert band_rows[0] == min(rows or n1, n1) and sum(band_rows) == n1

    @pytest.mark.parametrize("triangles, covered", [
        ([((3.2, 4.2), (3.8, 4.2), (3.5, 4.8))], 0),
        ([((2.8, 3.8), (3.3, 3.9), (3.0, 4.3))], 1),
        ([((2.9, 3.8), (3.1, 3.8), (3.0, 9.3))], 6),
        ([((1.8, 3.9), (6.2, 3.9), (6.2, 4.1)),
          ((1.8, 3.9), (6.2, 4.1), (1.8, 4.1))], 5)],
        ids=["none", "one", "one-row", "one-column"])
    def test_degenerate_masks_raise_like_reference(self, triangles, covered):
        # kept triangles covering no node, node (3, 4), nodes (3, 4..9) and
        # nodes (2..6, 4) of a 10 x 12 grid with unit steps
        corners = [c for t in triangles for c in t]
        tri = hand_triangulation([(0.0, 0.0), (9.0, 11.0)] + corners,
                                 np.arange(2, 2 + len(corners)).reshape(-1, 3))
        vals = np.ones(len(tri.vertices))
        field = interp_to_grid(tri, vals, 10, 12)
        assert np.count_nonzero(field.mask) == covered
        with pytest.raises(ValueError) as want:
            node_array_joint(field, 5, 5)
        with pytest.raises(ValueError) as got:
            _bin_bands(GridRaster(tri, vals, 10, 12), 5, 5, 0.0)
        assert type(got.value) is type(want.value)


class TestGridLineBins:
    """A node's bin follows from its grid-line index, not from round-off."""

    def test_line_on_interior_edge_goes_up(self, monkeypatch):
        # a 10 x 12 grid over [0, 0.3] x [0, 11] with rows 2..6 and columns
        # 3..5 covered, in 2 x 2 bins: row 4 and column 4 lie exactly on the
        # interior edges, and floor((x - lo) / width) puts row 4 below its
        # edge by round-off
        tri = hand_triangulation([(0.0, 0.0), (0.3, 11.0), (0.05, 2.5),
                                  (0.21, 2.5), (0.21, 5.5), (0.05, 5.5)],
                                 [(2, 3, 4), (2, 4, 5)])
        raster = GridRaster(tri, np.ones(6), 10, 12)
        assert raster.extent() == (2, 6, 3, 5)
        xs = raster.xs
        assert np.floor((xs[4] - xs[2]) / ((xs[6] - xs[2]) / 2)) == 0
        seen = []

        def recorded(sums, counts, grid):
            seen.append(counts.copy())
            return dee_joint(sums, counts, grid)
        monkeypatch.setattr(propagators, "dee_joint", recorded)
        _bin_bands(raster, 2, 2, 0.0)
        # rows 2, 3 | 4, 5, 6 and columns 3 | 4, 5, so the top row and the
        # last column are in the last bins; with row 4 below its edge the
        # counts would read [3, 6, 2, 4]
        np.testing.assert_array_equal(seen, [[2, 4, 3, 6]])

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_moments_stable_under_rescaled_positions(self, number):
        # positions scaled by 1 + 1e-14 move every grid line by round-off
        # alone, so no node changes bin and the moments hold to 1e-12
        sc, res, _ = desk_dee_rasters(number)
        for snap in res.snapshots:
            moved = _dee_snapshot(snap.time, snap.samples * (1.0 + 1e-14),
                                  snap.sample_weights, sc)
            np.testing.assert_allclose(moved.moments("DEE").as_array(),
                                       snap.moments("DEE").as_array(), rtol=1e-12)


class TestPaperMemory:
    def test_snapshot_peak_is_bounded_by_the_band(self, monkeypatch):
        # one paper DEE-1e5 snapshot on its 5000 x 5000 grid: after Qhull,
        # the reconstruction holds per-triangle arrays (corner columns,
        # vertex values, candidate rows; under 200 B per triangle) and one
        # band's buffers (values, mask, weights and bin indices; under 40 B
        # per node), never the grid's 225 MB of values and mask.  tracemalloc
        # sees numpy's buffers, not Qhull's own allocations.
        sc = dataclasses.replace(paper_case(builtin_scenarios()[1], "dee-1e5"),
                                 t_final=0.0)
        pts = initial_cloud(sc)
        weights = np.exp(sc.initial_gaussian().log_pdf(pts))
        real, seen = propagators.delaunay, {}

        def triangulated(p):
            tri = real(p)
            seen["triangles"] = tri.n_triangles
            tracemalloc.reset_peak()
            return tri
        monkeypatch.setattr(propagators, "delaunay", triangulated)
        tracemalloc.start()
        try:
            snap = _dee_snapshot(0.0, pts, weights, sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(snap.joint.total_mass - 1.0) < 1e-12
        bound = 2 * (200 * seen["triangles"] + 40 * geometry._BAND_NODES)
        assert peak < bound < 120e6


class TestVoidTrimming:
    def test_crescent_void_gets_no_mass(self):
        # a thin arch of samples: its convex hull also covers the empty
        # region under the arch, which long triangles span
        rng = np.random.default_rng(11)
        n = 3000
        theta = rng.uniform(0.0, math.pi, n)
        rho = rng.uniform(0.9, 1.1, n)
        pts = np.column_stack([3.0 + rho * np.cos(theta),
                               0.4 + 0.25 * rho * np.sin(theta)])
        weights = np.exp(-((rho - 1.0) / 0.1) ** 2)
        sc = small_scenario(n_grid=200, n_bins1=20, n_bins2=20)
        snap = _dee_snapshot(1.0, pts, weights, sc)

        g = snap.joint.grid
        c1, c2 = np.meshgrid(g.edges1, g.edges2, indexing="ij")
        rho_c = np.hypot(c1 - 3.0, (c2 - 0.4) / 0.25)
        corners = np.stack([rho_c[:-1, :-1], rho_c[1:, :-1],
                            rho_c[:-1, 1:], rho_c[1:, 1:]])
        void = (corners.max(axis=0) < 0.8) & (g.edges2[:-1] > 0.4)[None, :]
        assert void.sum() >= 20
        assert np.all(snap.joint.values[void] == 0.0)
        assert abs(snap.joint.total_mass - 1.0) < 1e-12
        assert abs(snap.marginal_phi.total_mass - 1.0) < 1e-12
        assert abs(snap.marginal_e.total_mass - 1.0) < 1e-12


class TestRadiationOffInvariances:
    def test_mc_eccentricity_frozen(self):
        # with the radiation term off, e is a constant of motion
        sc = small_scenario(C=0.0, n_sam=200)
        res = run_mc(sc)
        e0 = res.snapshots[0].samples[:, 1]
        for s in res.snapshots[1:]:
            np.testing.assert_allclose(s.samples[:, 1], e0, atol=1e-9)

    def test_dee_weights_frozen(self):
        # density rate is proportional to the radiation strength
        sc = small_scenario(C=0.0, n_sam=200)
        res = run_dee(sc)
        w0 = np.sort(res.snapshots[0].sample_weights)
        for s in res.snapshots[1:]:
            np.testing.assert_allclose(np.sort(s.sample_weights), w0,
                                       rtol=1e-9)


class TestJacobianModes:
    def test_modes_produce_different_fields(self):
        sc = small_scenario()
        on = run_dee(dataclasses.replace(sc, jacobian_correction=True))
        off = run_dee(dataclasses.replace(sc, jacobian_correction=False))
        assert not np.allclose(on.snapshots[-1].joint.values,
                               off.snapshots[-1].joint.values)


def _ln_u(e):
    return 0.5 * np.log(1.0 - e * e)


class TestLiouville:
    """The transported log-density is ln n0 + ln u0 - ln u(t), u = sqrt(1-e^2)."""

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_closed_form_matches_integrated_density(self, number):
        sc = desk_case(builtin_scenarios()[number], "dee")
        ph = initial_cloud(sc)[:300]
        y0 = np.column_stack([ph[:, 1] * np.sin(ph[:, 0]),
                              ph[:, 1] * np.cos(ph[:, 0]), np.zeros(len(ph))])
        # at the ScenarioConfig default the paper DEE presets use; the
        # desk preset's looser tolerance is sized on sampling error
        res = integrate_batch(characteristic_field(sc.orbit_params()), y0,
                              sc.snapshot_times(), ScenarioConfig.rel_tol,
                              ScenarioConfig.abs_tol, clamp_disk=True)
        kept = ~res.failed
        assert kept.all()
        states = res.states[:, kept, :]
        ln_u0 = _ln_u(np.hypot(states[0, :, 0], states[0, :, 1]))
        for snap in states:
            closed = ln_u0 - _ln_u(np.hypot(snap[:, 0], snap[:, 1]))
            assert np.max(np.abs(snap[:, 2] - closed)) < 1e-10

    @pytest.mark.parametrize("number", [1, 2, 3])
    @pytest.mark.parametrize("jacobian", [False, True])
    def test_run_dee_weights_are_closed_form(self, number, jacobian):
        sc = dataclasses.replace(desk_case(builtin_scenarios()[number], "dee"),
                                 n_sam=300, n_grid=60,
                                 jacobian_correction=jacobian)
        res = run_dee(sc)
        assert res.n_failed == 0
        # ln n0 is the (phi, e) density, or with the Jacobian correction the
        # Cartesian-chart density ln pdf(phi, e) - ln e
        ph = initial_cloud(sc)
        ln_n0 = sc.initial_gaussian().log_pdf(ph)
        if jacobian:
            ln_n0 = ln_n0 - np.log(ph[:, 1])
        ln_u0 = _ln_u(res.snapshots[0].samples[:, 1])
        for snap in res.snapshots:
            e = snap.samples[:, 1]
            ln_n = ln_n0 + ln_u0 - _ln_u(e)
            expected = np.exp(ln_n + np.log(e)) if jacobian else np.exp(ln_n)
            np.testing.assert_allclose(snap.sample_weights, expected,
                                       rtol=1e-12, atol=0.0)

    def test_clamped_rows_keep_finite_weights(self):
        # with W = 0 and C = 2 trajectories run into the disk edge, where
        # the integrator clamps them; their weights follow the clamped state
        res = run_dee(small_scenario(C=2.0, W=0.0, n_sam=200))
        assert res.n_clamped > 0
        for snap in res.snapshots:
            assert np.all(np.isfinite(snap.sample_weights))
            assert np.all(snap.sample_weights > 0.0)
            assert abs(snap.joint.total_mass - 1.0) < 1e-12


class TestStartDomain:
    @pytest.mark.parametrize("method", ["mc", "dee", "gmmut"])
    @pytest.mark.parametrize("overrides", [dict(e0=0.99, delta_e=0.05),
                                           dict(e0=0.145, delta_e=0.5)],
                             ids=["past-disk-edge", "negative-e"])
    def test_cloud_outside_disk_refused_before_integrating(
            self, method, overrides, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrator called")
        monkeypatch.setattr(propagators, "integrate_batch", no_integration)
        monkeypatch.setattr(odlab.gmmut, "integrate_batch", no_integration)
        sc = small_scenario(method=method, n_1d=5, **overrides)
        with pytest.raises(DomainError, match=r"\d+/\d+ start .* indices \d"):
            run(sc)

    def test_reported_indices_are_the_bad_samples(self):
        sc = small_scenario(delta_e=0.5)
        with pytest.raises(DomainError) as err:
            run_mc(sc)
        rng = odlab.RngStream(seed=sc.seed)
        e = sc.initial_gaussian().sample(sc.n_sam, rng)[:, 1]
        bad = np.flatnonzero(e <= 0.0)
        assert f"{len(bad)}/{sc.n_sam} " in str(err.value)
        assert "indices " + ", ".join(map(str, bad[:10])) in str(err.value)


class TestFailurePolicy:
    def test_check_failures_threshold(self):
        ok = np.zeros(1000, dtype=bool)
        ok[0] = True  # exactly 0.1 percent is tolerated
        assert _check_failures(ok, "MC") == 1
        bad = np.zeros(1000, dtype=bool)
        bad[:2] = True
        with pytest.raises(PropagationError) as err:
            _check_failures(bad, "MC")
        assert "2/1000" in str(err.value)

    def test_impossible_tolerance_aborts(self):
        sc = small_scenario(rel_tol=1e-30, abs_tol=1e-300, n_sam=50)
        with pytest.raises(PropagationError, match=r"^MC: 50/50 trajectories failed"):
            run_mc(sc)
        # a shared cloud's failure names every case it serves
        cases = [dataclasses.replace(sc, method="gmmut", n_1d=1, rel_tol=1e-8), sc,
                 dataclasses.replace(sc, method="dee", n_grid=40)]
        with pytest.raises(PropagationError, match=r"^MC, DEE: 50/50 trajectories failed"):
            run_study(cases)


class TestLazyImports:
    def test_mc_loads_no_thread_pool_or_scipy_submodule(self):
        # scipy.spatial and scipy.optimize take most of a second to import;
        # they load only when Qhull or brentq runs.  Nothing loads
        # concurrent.futures or the logging it imports
        code = ("import sys, odlab\n"
                "odlab.run_mc(odlab.ScenarioConfig.from_dict("
                f"{small_scenario(n_sam=50).to_dict()!r}))\n"
                "print([m for m in ('scipy.spatial', 'scipy.optimize',"
                " 'concurrent.futures') if m in sys.modules])")
        src = str(Path(odlab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_gmmut_loads_no_scipy_optimize(self):
        # the split libraries are rebuilt from a shipped table, not fitted
        code = ("import sys, odlab\n"
                "from odlab.scenarios import builtin_scenarios, desk_case\n"
                "odlab.run_gmmut(desk_case(builtin_scenarios()[3], 'gmmut'))\n"
                "odlab.build_split_library(39)\n"
                "print('scipy.optimize' in sys.modules)")
        src = str(Path(odlab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

"""Span and counter recording around odlab's layers, installed from outside.

The tracer replaces the module attributes the pipelines look up at call
time (``odlab.propagators.delaunay``, ``odlab.geometry.locate_many``, ...)
with wrappers that record a span per call and read counts from the return
values.  Nothing inside ``src/odlab`` changes; ``uninstall`` restores the
original attributes, so untraced passes run the unmodified code.

A span is ``(name, start, end, parent, run_id)`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the top).  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import odlab.dynamics
import odlab.geometry
import odlab.gmmut
import odlab.propagators

# (module, attribute, span name) of every wrapped call; the field factories
# are wrapped separately because the span belongs to the returned closure
_CALLS = (
    (odlab.propagators, "initial_cloud", "stochastics.sample"),
    (odlab.propagators, "integrate_batch", "odeint.integrate_batch"),
    (odlab.propagators, "delaunay", "geometry.delaunay"),
    (odlab.propagators, "interp_to_grid", "geometry.interp_to_grid"),
    (odlab.geometry, "locate_many", "geometry.locate_many"),
    (odlab.propagators, "make_edges", "histogram.make_edges"),
    (odlab.propagators, "mc_joint", "histogram.mc_joint"),
    (odlab.propagators, "dee_joint", "histogram.dee_joint"),
    (odlab.propagators, "marginal", "histogram.marginal"),
    (odlab.gmmut, "integrate_batch", "odeint.integrate_batch"),
    (odlab.gmmut, "build_split_library", "gmmut.build_split_library"),
    (odlab.gmmut, "ut_transform", "gmmut.ut_transform"),
    (odlab.gmmut, "density_grid_for_mixture", "gmmut.density_grid"),
    (odlab.gmmut, "mixture_marginal", "gmmut.mixture_marginal"),
)
_FIELDS = (
    (odlab.dynamics, "cartesian_field"),
    (odlab.dynamics, "characteristic_field"),
    (odlab.gmmut, "angle_tracking_field"),
)
HISTOGRAM_SPANS = ("histogram.make_edges", "histogram.mc_joint",
                   "histogram.dee_joint", "histogram.marginal")
# bytes per in-hull node held by the DEE reconstruction: an (n, 2) float64
# node array plus an (n,) float64 weight array
NODE_BYTES = 24


class Tracer:
    """Collects spans and counts; one instance per worker process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list = []

    # --- recording ------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name and return its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], float(value))

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for mod, attr, name in _CALLS:
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))
        for mod, attr in _FIELDS:
            self._patch(mod, attr, self._wrap_factory(getattr(mod, attr)))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _patch(self, mod, attr, wrapper) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        on_result = getattr(self, "_on_" + name.split(".", 1)[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(out, *args)
            return out

        return wrapper

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            field = factory(*args, **kwargs)

            def traced_field(t, y):
                self.counts["dynamics.field_rows"] += len(y)
                return self.call("dynamics.field", field, t, y)

            return traced_field

        return wrapper

    # --- counts read from return values ---------------------------------

    def _on_integrate_batch(self, res, *_):
        c = self.counts
        c["odeint.trajectories"] += len(res.failed)
        c["odeint.steps_accepted"] += res.steps_accepted
        c["odeint.steps_rejected"] += res.steps_rejected
        c["odeint.failed"] += int(res.failed.sum())
        c["odeint.clamped"] += int(res.clamped.sum())

    def _on_delaunay(self, tri, *_):
        self.counts["geometry.vertices"] += len(tri.vertices)
        self.counts["geometry.triangles"] += tri.n_triangles

    def _on_interp_to_grid(self, grid, *_):
        inside = int(grid.mask.sum())
        self.counts["geometry.grid_nodes"] += grid.mask.size
        self.counts["geometry.in_hull_nodes"] += inside
        self.peak("geometry.grid_bytes", grid.values.nbytes + grid.mask.nbytes
                  + grid.xs.nbytes + grid.ys.nbytes)
        self.peak("propagators.node_bytes", NODE_BYTES * inside)

    def _on_mc_joint(self, joint, points, *_):
        self.counts["histogram.points_binned"] += len(points)
        self.peak("histogram.mass_residual_max", abs(joint.total_mass - 1.0))

    _on_dee_joint = _on_mc_joint


def span_totals(spans) -> tuple[dict, dict, Counter]:
    """Total time, self time and call count per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are single threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
    return dict(total), dict(self_time), calls


def layer_metrics(spans, counts: Counter, peaks: dict, run_times: dict
                  ) -> tuple[dict, dict]:
    """Per-layer metrics of one pass: (times in s, counts).

    run_times holds the pipelines' own propagation / reconstruction
    splits summed over the pass (from RunResult and GmmRunResult).
    """
    total, self_time, calls = span_totals(spans)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    field_s = t("dynamics.field")
    integrate_s = t("odeint.integrate_batch")
    acc = counts["odeint.steps_accepted"]
    rej = counts["odeint.steps_rejected"]
    traj = counts["odeint.trajectories"]
    rows = counts["dynamics.field_rows"]
    nodes = counts["geometry.grid_nodes"]
    bin_s = t(*HISTOGRAM_SPANS)
    geometry_s = t("geometry.delaunay", "geometry.interp_to_grid")
    times = {
        "stochastics.sample_s": t("stochastics.sample"),
        "dynamics.field_s": field_s,
        "dynamics.ns_per_row": 1e9 * field_s / rows if rows else 0.0,
        "odeint.integrate_s": integrate_s,
        "odeint.self_s": self_time.get("odeint.integrate_batch", 0.0),
        "odeint.us_per_traj_step": 1e6 * integrate_s / acc if acc else 0.0,
        "geometry.delaunay_s": t("geometry.delaunay"),
        "geometry.interp_s": t("geometry.interp_to_grid"),
        "geometry.locate_s": t("geometry.locate_many"),
        "histogram.bin_s": bin_s,
        "propagators.propagate_s": run_times["propagate_s"],
        "propagators.reconstruct_s": run_times["reconstruct_s"],
        "propagators.reconstruct_self_s":
            run_times["reconstruct_s"] - geometry_s - bin_s,
        "gmmut.propagate_s": run_times["gmm_propagate_s"],
        "gmmut.ut_s": t("gmmut.ut_transform"),
        "gmmut.eval_s": t("gmmut.density_grid", "gmmut.mixture_marginal"),
        "analysis.moments_s": t("analysis.moments"),
    }
    count_metrics = {
        "dynamics.field_calls": calls["dynamics.field"],
        "dynamics.field_rows": rows,
        "odeint.trajectories": traj,
        "odeint.steps_accepted": acc,
        "odeint.steps_rejected": rej,
        "odeint.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "odeint.steps_per_traj": acc / traj if traj else 0.0,
        "odeint.failed": counts["odeint.failed"],
        "odeint.clamped": counts["odeint.clamped"],
        "geometry.delaunay_calls": calls["geometry.delaunay"],
        "geometry.vertices": counts["geometry.vertices"],
        "geometry.triangles": counts["geometry.triangles"],
        "geometry.grid_nodes": nodes,
        "geometry.in_hull_frac":
            counts["geometry.in_hull_nodes"] / nodes if nodes else 0.0,
        "geometry.grid_bytes": int(peaks.get("geometry.grid_bytes", 0)),
        "histogram.points_binned": counts["histogram.points_binned"],
        "histogram.mass_residual_max":
            peaks.get("histogram.mass_residual_max", 0.0),
        "propagators.node_bytes": int(peaks.get("propagators.node_bytes", 0)),
        "gmmut.components": counts["gmmut.components"],
        "gmmut.sigma_points": counts["gmmut.sigma_points"],
    }
    return times, count_metrics

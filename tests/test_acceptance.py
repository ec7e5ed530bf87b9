"""End-to-end acceptance checks for the density propagation pipeline.

One test per release criterion; each records a single PASS/FAIL line that
pytest prints in the terminal summary (see conftest.record_criterion).
The cross-method comparisons rerun the three study scenarios at full
sample counts, so this module takes several minutes; everything else in
it completes in seconds.
"""

import math
import time

import numpy as np
import pytest
from conftest import field_rates, record_criterion

from odlab.analysis import (MomentSummary, classify_subdomain,
                            find_stationary_points, gradient_H,
                            relative_errors)
from odlab.dynamics import (EARTH_RADIUS, CartesianPhaseState,
                            OrbitParams, PolarPhaseState, area_to_mass_for_C,
                            characteristic_field, cartesian_field, compute_CW,
                            critical_eccentricity, density_log_rate)
from odlab.errors import OutOfRangeError
from odlab.geometry import delaunay, interp_linear, interp_to_grid
from odlab.gmmut import (build_split_library, mixture_pdf, sigma_points,
                         ut_transform, ut_weights)
from odlab.odeint import integrate_batch
from odlab.propagators import initial_cloud, run, run_study
from odlab.scenarios import builtin_scenarios, paper_case, study_cases

PARAMS = OrbitParams(C=0.15, W=0.409)

MOMENT_NAMES = ("mu_phi", "sigma_phi", "mu_e", "sigma_e")
MOMENT_BOUNDS = np.array([0.07, 0.30, 0.07, 0.30])

# Scenario 1 Monte Carlo moments at 1e5 samples from an independent
# implementation of the same dynamics; spot-check oracle for criterion 6.
REFERENCE_S1_MC = {
    0.0: (2.2078, 0.19671, 0.14499, 0.025),
    0.5: (0.95229, 0.07561, 0.54399, 0.0246),
    1.0: (3.57337, 0.58152, 0.78955, 0.01501),
    1.5: (5.26674, 0.14873, 0.49021, 0.04534),
    2.0: (3.32611, 0.86184, 0.14285, 0.04342),
}


# --- shared runs --------------------------------------------------------------


def _study_runs(paper: bool) -> dict[int, dict]:
    """Every study case of each scenario, keyed by scenario and label."""
    out = {}
    for num, base in builtin_scenarios().items():
        labels, cases = zip(*study_cases(base, paper))
        out[num] = dict(zip(labels, run_study(list(cases))))
    return out


@pytest.fixture(scope="module")
def paper_runs():
    """Full-size runs of every method on all three scenarios (minutes)."""
    return _study_runs(paper=True)


@pytest.fixture(scope="module")
def desk_runs():
    """Reduced-size runs of every method, wall-timed as one batch."""
    t0 = time.perf_counter()
    out = _study_runs(paper=False)
    return out, time.perf_counter() - t0


def _hamiltonian_batch(states: np.ndarray, p: OrbitParams) -> np.ndarray:
    r2 = states[..., 0] ** 2 + states[..., 1] ** 2
    u = np.sqrt(1.0 - r2)
    return u + p.C * states[..., 1] + (p.W / 3.0) * u ** -3


# --- criteria -----------------------------------------------------------------


def test_criterion_01_derived_constants():
    t0 = time.perf_counter()
    a = 2.5 * EARTH_RADIUS
    p = compute_CW(a, area_to_mass_for_C(a, 0.15))
    e_cri = critical_eccentricity(a)
    wall = time.perf_counter() - t0

    w_err = abs(p.W - 0.409) / 0.409
    ok = w_err <= 0.005 and e_cri == 0.6 and wall < 1.0
    line = record_criterion(
        1, ok, f"W = {p.W:.8f} is {w_err:.2%} from 0.409, "
               f"e_cri = {e_cri!r} ({wall * 1e3:.1f} ms)")
    assert ok, line


def test_criterion_02_energy_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=100)
    e = rng.uniform(0.05, 0.85, size=100)
    y0 = np.column_stack([e * np.sin(phi), e * np.cos(phi)])
    res = integrate_batch(cartesian_field(PARAMS), y0, 0.25 * np.arange(13),
                          1e-12, 1e-14, clamp_disk=True)
    h = _hamiltonian_batch(res.states, PARAMS)
    drift = float(np.max(np.abs(h - h[0]) / np.abs(h[0])))
    wall = time.perf_counter() - t0

    ok = (not res.failed.any() and not res.clamped.any()
          and drift <= 1e-8 and wall < 10.0)
    line = record_criterion(
        2, ok, f"max |dH|/|H| = {drift:.2e} over 100 trajectories, "
               f"3 yr ({wall:.2f} s)")
    assert ok, line


def test_criterion_03_log_density_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816 + 3)
    n = 50
    # keep |x1| away from zero so the relative comparison stays meaningful
    sign = rng.choice([-1.0, 1.0], size=n)
    phi = sign * rng.uniform(0.35, math.pi - 0.35, size=n)
    e = rng.uniform(0.3, 0.7, size=n)
    y0 = np.column_stack([e * np.sin(phi), e * np.cos(phi), np.zeros(n)])

    h = 1e-4
    field = characteristic_field(PARAMS)
    res = integrate_batch(field, y0, h * np.arange(3), 1e-12, 1e-14)
    fd = (res.states[2][:, 2] - res.states[0][:, 2]) / (2 * h)
    rate = field_rates(field, res.states[1])[:, 2]
    rel = float(np.max(np.abs(fd - rate) / np.abs(rate)))

    # the rate must not depend on the oblateness strength, bit for bit
    other = OrbitParams(C=PARAMS.C, W=0.911)
    col_same = np.array_equal(field_rates(field, y0)[:, 2],
                              field_rates(characteristic_field(other), y0)[:, 2])
    s = CartesianPhaseState(float(y0[0, 0]), float(y0[0, 1]))
    scalar_same = density_log_rate(s, PARAMS) == density_log_rate(s, other)
    wall = time.perf_counter() - t0

    ok = (not res.failed.any() and rel <= 1e-6 and col_same and scalar_same
          and wall < 10.0)
    line = record_criterion(
        3, ok, f"max FD mismatch {rel:.2e} over {n} characteristics, "
               f"W-independent bitwise: {col_same and scalar_same} "
               f"({wall:.2f} s)")
    assert ok, line


def test_criterion_04_initial_mixture_moments():
    t0 = time.perf_counter()
    res = run(paper_case(builtin_scenarios()[1], "gmmut"))
    wall = time.perf_counter() - t0

    snap = res.snapshots[0]
    sd = np.sqrt(np.diag(snap.cov))
    got = np.array([snap.mean[0], sd[0], snap.mean[1], sd[1]])
    want = np.array([2.2069, math.pi / 16.0, 0.145, 0.025])
    err = float(np.max(np.abs(got - want)))

    ok = snap.time == 0.0 and err <= 1e-3 and wall < 5.0
    line = record_criterion(
        4, ok, f"initial mixture moments off by {err:.2e} "
               f"(bound 1e-3, {wall:.2f} s)")
    assert ok, line


def _violations(tag: str, cases: dict, labels: tuple[str, ...]
                ) -> tuple[list[str], int, tuple[float, str]]:
    """Out-of-bound comparisons against MC, the number compared, and the
    largest |error|/bound with the comparison it belongs to."""
    ref = {r.time: r for r in cases["MC"].moments("MC")}
    bad: list[str] = []
    checked = 0
    worst = (-np.inf, "")
    for label in labels:
        for row in cases[label].moments(label):
            err = relative_errors(ref[row.time], row)
            checked += 4
            k = int(np.argmax(err / MOMENT_BOUNDS))
            worst = max(worst, (err[k] / MOMENT_BOUNDS[k],
                                f"{tag} {label} t={row.time:g} {MOMENT_NAMES[k]} "
                                f"{err[k]:.2%} of {MOMENT_BOUNDS[k]:.0%}"))
            for k in range(4):
                if err[k] > MOMENT_BOUNDS[k]:
                    bad.append(f"{tag} {label} t={row.time:g} "
                               f"{MOMENT_NAMES[k]} {err[k]:.1%} > "
                               f"{MOMENT_BOUNDS[k]:.0%}")
    return bad, checked, worst


def test_criterion_05_cross_method_moments(paper_runs, desk_runs):
    bad: list[str] = []
    checked = 0
    worst = (-np.inf, "")
    for num, cases in paper_runs.items():
        b, c, w = _violations(f"paper s{num}", cases, ("DEE-961", "DEE-1E5", "GMM-UT"))
        bad += b
        checked += c
        worst = max(worst, w)
    desk, desk_wall = desk_runs
    for num, cases in desk.items():
        b, c, w = _violations(f"desk s{num}", cases, ("DEE", "GMM-UT"))
        bad += b
        checked += c
        worst = max(worst, w)

    ok = not bad and desk_wall < 60.0
    if bad:
        detail = (f"{len(bad)} of {checked} moment comparisons out of bounds: "
                  + "; ".join(bad) + f"; desk wall {desk_wall:.1f} s")
    else:
        detail = (f"all {checked} moment comparisons within 7% mean / "
                  f"30% spread, worst {worst[1]}, desk wall {desk_wall:.1f} s < 60 s")
    line = record_criterion(5, ok, detail)
    assert ok, line


def test_criterion_06_reference_moments(paper_runs):
    rows = {r.time: r for r in paper_runs[1]["MC"].moments("MC")}
    worst = ""
    worst_margin = -np.inf
    ok = True
    for t, vals in REFERENCE_S1_MC.items():
        ref = MomentSummary(time=t, method="ref", mu_phi=vals[0],
                            sigma_phi=vals[1], mu_e=vals[2], sigma_e=vals[3])
        err = relative_errors(ref, rows[t])
        bounds = np.array([0.02, 0.10, 0.02, 0.10]) if t <= 1.0 \
            else np.array([0.05, 0.20, 0.05, 0.20])
        margins = err / bounds
        k = int(np.argmax(margins))
        if margins[k] > worst_margin:
            worst_margin = float(margins[k])
            worst = f"{MOMENT_NAMES[k]} {err[k]:.2%} of {bounds[k]:.0%} at t={t:g}"
        if np.any(err > bounds):
            ok = False
    line = record_criterion(
        6, ok, f"scenario 1 Monte Carlo vs frozen reference, worst {worst}")
    assert ok, line


def _covering_box_mass(mix) -> float:
    """Midpoint-grid integral of the mixture over its +-6 sigma box.

    The grid step is tied to the narrowest eigen-direction of any
    component: thin rotated components alias on that scale, not on the
    scale of the marginal spreads.
    """
    means = mix.means
    covs = mix.covs
    sds = np.sqrt(covs[:, (0, 1), (0, 1)])
    lo = (means - 6.0 * sds).min(axis=0)
    hi = (means + 6.0 * sds).max(axis=0)
    span = hi - lo
    sd_thin = float(np.sqrt(np.linalg.eigvalsh(covs)[:, 0].min()))
    n = np.clip(np.ceil(1.5 * span / sd_thin).astype(int), 100, 6000)
    xs = lo[0] + (np.arange(n[0]) + 0.5) * span[0] / n[0]
    ys = lo[1] + (np.arange(n[1]) + 0.5) * span[1] / n[1]
    total = 0.0
    for r0 in range(0, int(n[0]), 300):
        gx, gy = np.meshgrid(xs[r0:r0 + 300], ys, indexing="ij")
        total += float(mixture_pdf(
            mix, np.column_stack([gx.ravel(), gy.ravel()])).sum())
    return total * float(span[0] / n[0]) * float(span[1] / n[1])


def test_criterion_07_normalization(paper_runs, desk_runs):
    desk, _ = desk_runs
    worst_exact = 0.0
    for runs in (paper_runs, desk):
        for cases in runs.values():
            for label, res in cases.items():
                if label == "GMM-UT":
                    continue
                for snap in res.snapshots:
                    worst_exact = max(worst_exact,
                                      abs(snap.joint.total_mass - 1.0),
                                      abs(snap.marginal_phi.total_mass - 1.0),
                                      abs(snap.marginal_e.total_mass - 1.0))

    worst_mix = 0.0
    mixtures_match = True
    for num, cases in paper_runs.items():
        for k, snap in enumerate(cases["GMM-UT"].snapshots):
            worst_mix = max(worst_mix, abs(_covering_box_mass(snap.mixture) - 1.0))
            # the reduced desk configuration propagates the same mixture,
            # so one quadrature per snapshot covers both scales
            other = desk[num]["GMM-UT"].snapshots[k]
            if not (np.array_equal(snap.mean, other.mean)
                    and np.array_equal(snap.cov, other.cov)):
                mixtures_match = False

    ok = worst_exact <= 1e-12 and worst_mix <= 1e-3 and mixtures_match
    line = record_criterion(
        7, ok, f"sampled/transported grids off by {worst_exact:.1e} "
               f"(bound 1e-12), mixture box integral by {worst_mix:.1e} "
               f"(bound 1e-3), desk mixtures identical: {mixtures_match}")
    assert ok, line


def _circumcircle_clearance(tri) -> float:
    """Most negative signed clearance (dist^2 - r^2) / r^2 over non-vertices."""
    v = tri.vertices
    t = tri.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    d = 2.0 * (a[:, 0] * (b[:, 1] - c[:, 1]) + b[:, 0] * (c[:, 1] - a[:, 1])
               + c[:, 0] * (a[:, 1] - b[:, 1]))
    a2 = (a ** 2).sum(axis=1)
    b2 = (b ** 2).sum(axis=1)
    c2 = (c ** 2).sum(axis=1)
    ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1])
          + c2 * (a[:, 1] - b[:, 1])) / d
    uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0])
          + c2 * (b[:, 0] - a[:, 0])) / d
    r2 = (a[:, 0] - ux) ** 2 + (a[:, 1] - uy) ** 2
    dist2 = ((v[None, :, 0] - ux[:, None]) ** 2
             + (v[None, :, 1] - uy[:, None]) ** 2)
    clearance = (dist2 - r2[:, None]) / r2[:, None]
    rows = np.arange(len(t))
    for k in range(3):
        clearance[rows, t[:, k]] = np.inf
    return float(clearance.min())


def test_criterion_08_triangulation():
    worst_clear = np.inf
    worst_interp = 0.0
    outside_ok = True
    for num in (1, 2, 3):
        pts = initial_cloud(paper_case(builtin_scenarios()[num], "dee-961"))
        tri = delaunay(pts)
        worst_clear = min(worst_clear, _circumcircle_clearance(tri))

        vals = 0.75 * pts[:, 0] - 1.25 * pts[:, 1] + 3.0
        rng = np.random.default_rng(97 + num)
        picks = rng.integers(0, len(tri.triangles), size=80)
        bary = rng.dirichlet((1.0, 1.0, 1.0), size=80)
        corners = tri.vertices[tri.triangles[picks]]
        queries = np.einsum("qk,qkd->qd", bary, corners)
        for q in queries:
            got = interp_linear(tri, vals, q)
            want = 0.75 * q[0] - 1.25 * q[1] + 3.0
            worst_interp = max(worst_interp, abs(got - want) / max(1.0, abs(want)))

        try:
            interp_linear(tri, vals, pts.max(axis=0) + 1.0)
            outside_ok = False
        except OutOfRangeError:
            pass
        g = interp_to_grid(tri, vals, 40, 40)
        if g.mask.all() or np.any(g.values[~g.mask] != 0.0):
            outside_ok = False

    # the brute-force clearance allows only floating-point noise
    ok = worst_clear >= -1e-9 and worst_interp <= 1e-12 and outside_ok
    line = record_criterion(
        8, ok, f"961-point clouds: worst circumcircle clearance "
               f"{worst_clear:.1e}, worst affine interp error "
               f"{worst_interp:.1e}, outside-hull handling: {outside_ok}")
    assert ok, line


def test_criterion_09_unscented_transform():
    w_m, w_p = ut_weights(2)
    hand = (abs(w_m[0] + 0.5625) <= 1e-12
            and np.all(np.abs(w_m[1:] - 0.390625) <= 1e-12)
            and abs(w_p[0] - 1.7975) <= 1e-12
            and np.all(np.abs(w_p[1:] - 0.390625) <= 1e-12))

    mean = np.array([0.3, -1.2])
    cov = np.array([[2.0, 0.6], [0.6, 1.5]])
    amat = np.array([[1.3, -0.4], [0.7, 2.2]])
    bvec = np.array([0.5, -2.0])
    m2, p2 = ut_transform(sigma_points(mean, cov) @ amat.T + bvec)
    err = max(float(np.max(np.abs(m2 - (amat @ mean + bvec)))),
              float(np.max(np.abs(p2 - amat @ cov @ amat.T))))

    ok = hand and err <= 1e-10
    line = record_criterion(
        9, ok, f"hand weights match to 1e-12: {hand}, affine transport "
               f"off by {err:.1e} (bound 1e-10)")
    assert ok, line


def _normal_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_criterion_10_split_libraries():
    worst = {}
    for n in (1, 3, 39):
        lib = build_split_library(n)
        worst[n] = (abs(float(lib.weights.sum()) - 1.0),
                    abs(float((lib.weights * lib.means).sum())),
                    abs(float((lib.weights * (lib.sigma ** 2
                                              + lib.means ** 2)).sum()) - 1.0))
    xs = np.linspace(-6.0, 6.0, 4001)
    lib = build_split_library(39)
    approx = (lib.weights[:, None]
              * _normal_pdf((xs[None, :] - lib.means[:, None]) / lib.sigma)
              / lib.sigma).sum(axis=0)
    sup = float(np.max(np.abs(approx - _normal_pdf(xs))))

    ok = all(w[0] <= 1e-12 and w[1] <= 1e-10 and w[2] <= 1e-2
             for w in worst.values()) and sup <= 1e-3
    m2 = max(w[2] for w in worst.values())
    line = record_criterion(
        10, ok, f"libraries N in (1, 3, 39): worst weight-sum error "
                f"{max(w[0] for w in worst.values()):.1e}, worst second "
                f"moment error {m2:.1e}, N=39 sup-norm {sup:.1e}")
    assert ok, line


def test_criterion_11_portrait():
    pts = find_stationary_points(PARAMS)
    kinds = sorted(sp.kind for sp in pts)
    grad = max(float(np.linalg.norm(gradient_H(sp.phi, sp.e, PARAMS)))
               for sp in pts)

    labels = [classify_subdomain(PolarPhaseState(s.phi0, s.e0), pts, PARAMS)
              for s in builtin_scenarios().values()]
    ok = (len(pts) == 5 and kinds == ["center"] * 3 + ["saddle"] * 2
          and grad <= 1e-10 and labels == ["SubD1", "SubD2", "SubD3"])
    line = record_criterion(
        11, ok, f"{len(pts)} stationary points ({kinds.count('center')} "
                f"centers, {kinds.count('saddle')} saddles), max |grad H| "
                f"{grad:.1e}, scenario means -> {', '.join(labels)}")
    assert ok, line


def test_criterion_12_timing(paper_runs):
    t = {label: res.t_total for label, res in paper_runs[1].items()}
    ratio = t["GMM-UT"] / t["MC"]
    ok = (t["GMM-UT"] < t["DEE-961"] < t["MC"] < t["DEE-1E5"]
          and ratio <= 0.05)
    line = record_criterion(
        12, ok, f"t_cal: gmmut {t['GMM-UT']:.2f} s < dee-961 "
                f"{t['DEE-961']:.1f} s < mc {t['MC']:.1f} s < dee-1e5 "
                f"{t['DEE-1E5']:.1f} s, gmmut/mc = {ratio:.3f}")
    assert ok, line

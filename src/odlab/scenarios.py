"""Scenario configuration: initial Gaussian, dynamics parameters, run sizes.

The three built-in scenarios place the initial cloud in the three
qualitatively different regions of the phase portrait; presets scale the
sample counts between quick desk runs and the full-size study cases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

from .dynamics import OrbitParams
from .errors import ConfigError
from .stochastics import Gaussian2D

import numpy as np

_METHODS = ("mc", "dee", "gmmut")
# the largest split library gmmut ships (component counts 1, 3, ..., 39)
N_1D_MAX = 39
# size bounds, see ScenarioConfig; n_grid bounds a DEE snapshot's time,
# since its memory follows one band of grid rows
_N_GRID_MAX = 10_000
_N_BINS_MAX = 1_000_000
# value types accepted per field annotation; a bool is no int or float
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool}


@dataclass(frozen=True)
class ScenarioConfig:
    """One propagation experiment: initial Gaussian, horizon, and sizes.

    delta_phi / delta_e are the full 2-sigma spreads, so the initial
    covariance is diag((delta_phi/2)^2, (delta_e/2)^2).  branch_start fixes
    the angle interval [branch_start, branch_start + 2*pi) used for
    reporting and binning.  t_final is a whole number of dt_snap; 0 is
    allowed and means a single snapshot at t = 0.

    Sizes are bounded so that a mistyped value stops here rather than in
    a run that never ends or an allocation: n_grid <= 10,000 (a DEE
    snapshot holds one band of grid rows, but rasterises all 10^8 nodes at
    the bound, 4x the nodes of a paper DEE-1e5 snapshot), n_bins1 * n_bins2
    <= 10^6 (8 MB per joint grid) and n_1d <= N_1D_MAX.
    """

    name: str
    phi0: float
    e0: float
    delta_phi: float
    delta_e: float
    t_final: float
    dt_snap: float
    C: float = 0.15
    W: float = 0.409
    branch_start: float = 0.0
    n_sam: int = 10_000
    n_1d: int = 39
    n_grid: int = 500
    n_bins1: int = 30
    n_bins2: int = 30
    seed: int = 42
    jacobian_correction: bool = True
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    method: str = "mc"

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, _FIELD_TYPES[f.type])
                    and isinstance(v, bool) == (f.type == "bool")):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {v!r}")
            if f.type == "float" and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v!r}")
        if not (0.0 < self.e0 < 1.0):
            raise ConfigError("e0 must lie in (0, 1)")
        if self.delta_phi <= 0 or self.delta_e <= 0:
            raise ConfigError("delta_phi and delta_e must be positive")
        if self.t_final < 0:
            raise ConfigError("t_final must be >= 0")
        if self.dt_snap <= 0:
            raise ConfigError("dt_snap must be positive")
        ratio = self.t_final / self.dt_snap
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("dt_snap must divide t_final")
        if self.t_final > 0 and round(ratio) == 0:
            raise ConfigError("a positive t_final must be at least one dt_snap")
        if self.C < 0 or self.W < 0:
            raise ConfigError("C and W must be non-negative")
        if self.n_1d < 1 or self.n_1d > N_1D_MAX or self.n_1d % 2 == 0:
            raise ConfigError(f"n_1d must be an odd count in [1, {N_1D_MAX}]")
        if self.n_sam < 2:
            raise ConfigError("n_sam must be >= 2")
        if not 2 <= self.n_grid <= _N_GRID_MAX:
            raise ConfigError(f"n_grid must lie in [2, {_N_GRID_MAX}]")
        if self.n_bins1 < 1 or self.n_bins2 < 1:
            raise ConfigError("bin counts must be >= 1")
        if self.n_bins1 * self.n_bins2 > _N_BINS_MAX:
            raise ConfigError(f"n_bins1 * n_bins2 must be <= {_N_BINS_MAX}")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigError("rel_tol and abs_tol must be positive")

    # derived views ------------------------------------------------------

    def initial_gaussian(self) -> Gaussian2D:
        cov = np.diag([(self.delta_phi / 2.0) ** 2, (self.delta_e / 2.0) ** 2])
        return Gaussian2D(mean=np.array([self.phi0, self.e0]), cov=cov)

    def orbit_params(self) -> OrbitParams:
        return OrbitParams(C=self.C, W=self.W)

    def snapshot_times(self) -> np.ndarray:
        """The output times k * dt_snap, k = 0..t_final / dt_snap."""
        return self.dt_snap * np.arange(round(self.t_final / self.dt_snap) + 1)

    # serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        missing = {"name", "phi0", "e0", "delta_phi", "delta_e",
                   "t_final", "dt_snap"} - set(data)
        if missing:
            raise ConfigError(f"missing scenario fields: {sorted(missing)}")
        return cls(**data)


def builtin_scenarios() -> dict[int, ScenarioConfig]:
    """The three standard initial conditions at desk-scale sizes."""
    common = dict(C=0.15, W=0.409)
    return {
        1: ScenarioConfig(name="scenario-1", phi0=2.2069, e0=0.145,
                          delta_phi=math.pi / 8, delta_e=0.05,
                          t_final=2.0, dt_snap=0.5, **common),
        2: ScenarioConfig(name="scenario-2", phi0=0.5419, e0=0.095,
                          delta_phi=math.pi / 40, delta_e=0.01,
                          t_final=3.0, dt_snap=0.5, **common),
        3: ScenarioConfig(name="scenario-3", phi0=0.3004, e0=0.23,
                          delta_phi=math.pi / 32, delta_e=0.02,
                          t_final=2.0, dt_snap=0.5, branch_start=-math.pi,
                          **common),
    }


# GMM-UT integrates its sigma points at this tolerance, at desk and paper
# scale alike.  Its error budget is the unscented transform and the split:
# merged moments sit about 4 % from MC, and the split is sized on that
# error.  At 1e-8 / 1e-10 the merged moments of desk s1-s3 move by at most
# 5e-7 relative against 1e-12 / 1e-14, the split axes do not change, and
# the one integrator pass takes half the accepted steps.  MC and DEE keep
# the ScenarioConfig default.
_GMMUT_TOL = dict(rel_tol=1e-8, abs_tol=1e-10)

# the published moment tables are only reproduced when the transported
# weight is the raw (phi, e) pdf, so the replication presets switch the
# Jacobian correction off; the library default elsewhere keeps it on
_PAPER_CASES = {
    "mc": dict(method="mc", n_sam=100_000, n_bins1=50, n_bins2=50),
    "dee-961": dict(method="dee", n_sam=961, n_grid=1000,
                    n_bins1=20, n_bins2=20, jacobian_correction=False),
    "dee-1e5": dict(method="dee", n_sam=100_000, n_grid=5000,
                    n_bins1=50, n_bins2=50, jacobian_correction=False),
    "gmmut": dict(method="gmmut", n_1d=39, n_bins1=50, n_bins2=50, **_GMMUT_TOL),
}


def paper_case(scenario: ScenarioConfig, case: str) -> ScenarioConfig:
    """Apply one of the four full-size case presets to a scenario."""
    if case not in _PAPER_CASES:
        raise ConfigError(f"unknown case {case!r}; expected one of {list(_PAPER_CASES)}")
    return replace(scenario, **_PAPER_CASES[case])


def desk_case(scenario: ScenarioConfig, method: str) -> ScenarioConfig:
    """Small-size preset for the same pipelines (quick runs, tests)."""
    return replace(scenario, method=method, n_sam=10_000, n_grid=500,
                   n_bins1=30, n_bins2=30,
                   jacobian_correction=(method != "dee"),
                   **(_GMMUT_TOL if method == "gmmut" else {}))


def study_cases(scenario: ScenarioConfig, paper: bool
                ) -> list[tuple[str, ScenarioConfig]]:
    """The (label, config) runs of one cross-method comparison, MC first."""
    if paper:
        return [(label, paper_case(scenario, case)) for label, case in
                (("MC", "mc"), ("DEE-961", "dee-961"), ("DEE-1E5", "dee-1e5"),
                 ("GMM-UT", "gmmut"))]
    return [(label, desk_case(scenario, method)) for label, method in
            (("MC", "mc"), ("DEE", "dee"), ("GMM-UT", "gmmut"))]

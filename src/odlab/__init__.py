"""Density propagation in the (solar angle, eccentricity) phase space.

Three cross-validating propagators for the planar solar-radiation-pressure
plus J2 long-term dynamics of high area-to-mass-ratio Earth satellites:
Monte Carlo binning, transport of density weights along characteristics,
and a split Gaussian mixture pushed through unscented transformations.
"""

from .analysis import (MomentSummary, RunResult, StationaryPoint,
                       classify_subdomain, find_stationary_points,
                       level_curves, relative_errors, sample_moments)
from .dynamics import (CartesianPhaseState, OrbitParams, PolarPhaseState,
                       compute_CW, critical_eccentricity, density_log_rate,
                       eom_cartesian, eom_polar, hamiltonian,
                       hamiltonian_cartesian, to_cartesian, to_polar,
                       wrap_angle)
from .errors import (ConfigError, DecompositionError, DegenerateInputError,
                     DomainError, GeometryError, InvalidParameterError,
                     InvalidScalingError, LibraryQualityError, OutOfRangeError,
                     PropagationError, SingularityError)
from .geometry import (InterpGrid, Triangulation, delaunay, interp_linear,
                       interp_to_grid, vertex_values)
from .gmmut import (GaussianMixture, GmmSnapshot, SplitLibrary1D,
                    build_split_library, merge_moments, mixture_marginal,
                    mixture_pdf, run_gmmut, save_split_library, sigma_points,
                    split_gaussian, ut_transform, ut_weights, validate_library)
from .histogram import (BinGrid, JointDensityGrid, MarginalDensity, dee_joint,
                        make_edges, marginal, mc_joint)
from .odeint import BatchResult, integrate_batch
from .propagators import (SnapshotResult, dee_initial_weights, initial_cloud,
                          run, run_dee, run_mc, run_study)
from .scenarios import (ScenarioConfig, builtin_scenarios, desk_case,
                        paper_case, study_cases)
from .stochastics import Gaussian2D, RngStream

__version__ = "0.1.0"

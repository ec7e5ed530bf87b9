"""Long-term planar dynamics of high area-to-mass-ratio Earth orbits.

Solar radiation pressure and Earth oblateness average to a one-degree-of-
freedom system in the solar angle phi (angle between the orbit's perigee
direction and the Sun line) and the eccentricity e.  Two dimensionless
strengths drive everything: C for radiation pressure and W for oblateness.
Time is measured in years: the Sun's apparent mean motion, TWO_PI per
year, is the rate unit and scales every rate.  The physical constants
that map a semi-major axis and an area-to-mass ratio to C and W are
fixed module constants.

The polar chart (phi, e) is singular at e = 0; the Cartesian chart
x1 = e*sin(phi), x2 = e*cos(phi) is regular on the open unit disk and is
what the integrators use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, SingularityError

TWO_PI = 2.0 * math.pi

# Radius beyond which states are clamped back onto the disk (see odeint).
DISK_EDGE_R2 = 1.0 - 1e-9


# Environment constants in km / kg / s units.  SOLAR_FLUX is the radiation
# flux at 1 AU in W/m^2, which equals kg/s^3 and therefore combines with
# km-based quantities without conversion (the length powers cancel in the
# radiation-strength formula).  N_SUN_PHYS is the Sun's apparent mean
# motion in rad/s (2*pi per year).
MU = 398600.4418            # km^3/s^2
EARTH_RADIUS = 6378.137     # km
J2 = 1.08263e-3
LIGHT_SPEED = 299792.458    # km/s
SOLAR_FLUX = 1361.0         # W/m^2 == kg/s^3
N_SUN_PHYS = TWO_PI / (365.25 * 86400.0)  # rad/s


@dataclass(frozen=True)
class OrbitParams:
    """Dimensionless dynamics parameters for one semi-major axis.

    C scales the radiation-pressure terms, W the oblateness term.  Time is
    in years, so every rate carries the Sun's mean motion TWO_PI (rad per
    year) as its factor.
    """

    C: float
    W: float

    def __post_init__(self):
        if not (math.isfinite(self.C) and math.isfinite(self.W)):
            raise InvalidParameterError("C and W must be finite")
        if self.C < 0.0 or self.W < 0.0:
            raise InvalidParameterError("C and W must be non-negative")


@dataclass(frozen=True)
class PolarPhaseState:
    """(solar angle phi [rad], eccentricity e), 0 <= e < 1."""

    phi: float
    e: float

    def __post_init__(self):
        if not (math.isfinite(self.phi) and math.isfinite(self.e)):
            raise DomainError("phi and e must be finite")
        if not (0.0 <= self.e < 1.0):
            raise DomainError(f"eccentricity {self.e} outside [0, 1)")


@dataclass(frozen=True)
class CartesianPhaseState:
    """(x1, x2) = (e sin phi, e cos phi) on the open unit disk."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise DomainError("x1 and x2 must be finite")
        if self.x1 * self.x1 + self.x2 * self.x2 >= 1.0:
            raise DomainError("state outside the open unit disk (e >= 1)")


def compute_CW(a: float, area_to_mass: float) -> OrbitParams:
    """Dimensionless strengths for semi-major axis a [km] and the effective
    area-to-mass ratio area_to_mass [km^2/kg] (reflectivity already folded in).

    C = (3/2) * sigma * n_s / N_SUN_PHYS with sigma = flux * a^2 * tau / (mu * c),
    W = (3/2) * J2 * (R_E / a)^2 * n_s / N_SUN_PHYS, where n_s = sqrt(mu / a^3)
    is the orbital mean motion; the physical values are the module
    constants.  Both strengths are rate ratios, so they hold unchanged in
    the yearly time unit the rates use.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise InvalidParameterError("semi-major axis must be finite and positive")
    if not (math.isfinite(area_to_mass) and area_to_mass >= 0.0):
        raise InvalidParameterError("area-to-mass ratio must be finite and non-negative")
    n_s = math.sqrt(MU / a ** 3)
    ratio = n_s / N_SUN_PHYS
    sigma = SOLAR_FLUX * a * a * area_to_mass / (MU * LIGHT_SPEED)
    c_val = 1.5 * sigma * ratio
    w_val = 1.5 * J2 * (EARTH_RADIUS / a) ** 2 * ratio
    return OrbitParams(C=c_val, W=w_val)


def area_to_mass_for_C(a: float, C: float) -> float:
    """Invert compute_CW: the area-to-mass ratio [km^2/kg] that yields C at a."""
    if not (math.isfinite(C) and C >= 0.0):
        raise InvalidParameterError("C must be finite and non-negative")
    n_s = math.sqrt(MU / a ** 3)
    sigma = C * N_SUN_PHYS / (1.5 * n_s)
    return sigma * MU * LIGHT_SPEED / (SOLAR_FLUX * a * a)


def critical_eccentricity(a: float) -> float:
    """Eccentricity at which perigee reaches the Earth's surface: 1 - R_E/a."""
    if a <= EARTH_RADIUS:
        raise InvalidParameterError("semi-major axis must exceed the Earth radius")
    return 1.0 - EARTH_RADIUS / a


# --- charts -----------------------------------------------------------------


def wrap_angle(phi, start: float = 0.0):
    """Wrap angle(s) into [start, start + 2*pi)."""
    w = phi - TWO_PI * np.floor((phi - start) / TWO_PI)
    # rounding can land exactly on the excluded upper edge (e.g. a tiny
    # negative phi with start 0), or just below start when the quotient
    # underflows to -0.0 (a subnormal negative phi); either way the true
    # value is within rounding of start, so fold it onto the lower edge
    out = (w >= start + TWO_PI) | (w < start)
    return np.where(out, start, w) if np.ndim(w) else (start if out else w)


def check_start_domain(e: np.ndarray, what: str) -> None:
    """Raise DomainError when any start eccentricity lies outside the open
    disk the integrators carry: e <= 0 folds a polar state onto another
    angle, and e^2 >= DISK_EDGE_R2 starts on or past the clamping edge.
    """
    bad = np.flatnonzero((e <= 0.0) | (e * e >= DISK_EDGE_R2))
    if len(bad):
        shown = ", ".join(str(i) for i in bad[:10])
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise DomainError(
            f"{what}: {len(bad)}/{len(e)} start at e <= 0 or at "
            f"e^2 >= {DISK_EDGE_R2!r}; indices {shown}{more}")


def cartesian_rows(pts: np.ndarray) -> np.ndarray:
    """(phi, e) rows (n, 2) to the (x1, x2) rows the integrators carry."""
    return np.column_stack([pts[:, 1] * np.sin(pts[:, 0]),
                            pts[:, 1] * np.cos(pts[:, 0])])


def to_cartesian(s: PolarPhaseState) -> CartesianPhaseState:
    return CartesianPhaseState(s.e * math.sin(s.phi), s.e * math.cos(s.phi))


def to_polar(s: CartesianPhaseState, branch_start: float = 0.0) -> PolarPhaseState:
    """Inverse chart; phi reported in [branch_start, branch_start + 2*pi)."""
    e = math.hypot(s.x1, s.x2)
    phi = math.atan2(s.x1, s.x2)
    return PolarPhaseState(float(wrap_angle(phi, branch_start)), e)


# --- rates and invariants ----------------------------------------------------


def eom_polar(s: PolarPhaseState, p: OrbitParams) -> tuple[float, float]:
    """(dphi/dt, de/dt) in the polar chart.  Singular at e = 0."""
    if s.e == 0.0:
        raise SingularityError("polar rates are singular at e = 0")
    u = math.sqrt(1.0 - s.e * s.e)
    dedt = TWO_PI * p.C * u * math.sin(s.phi)
    dphidt = TWO_PI * (p.C * u * math.cos(s.phi) / s.e
                        + p.W / (1.0 - s.e * s.e) ** 2 - 1.0)
    return dphidt, dedt


def eom_cartesian(s: CartesianPhaseState, p: OrbitParams) -> tuple[float, float]:
    """(dx1/dt, dx2/dt); smooth on the whole open unit disk."""
    r2 = s.x1 * s.x1 + s.x2 * s.x2
    u = math.sqrt(1.0 - r2)
    g = p.W / ((1.0 - r2) * (1.0 - r2)) - 1.0
    v1 = TWO_PI * (p.C * u + s.x2 * g)
    v2 = -TWO_PI * s.x1 * g
    return v1, v2


def hamiltonian(s: PolarPhaseState, p: OrbitParams) -> float:
    """Conserved quantity sqrt(1-e^2) + C e cos(phi) + (W/3)(1-e^2)^(-3/2)."""
    u2 = 1.0 - s.e * s.e
    return math.sqrt(u2) + p.C * s.e * math.cos(s.phi) + (p.W / 3.0) * u2 ** -1.5


def hamiltonian_cartesian(s: CartesianPhaseState, p: OrbitParams) -> float:
    u2 = 1.0 - (s.x1 * s.x1 + s.x2 * s.x2)
    return math.sqrt(u2) + p.C * s.x2 + (p.W / 3.0) * u2 ** -1.5


def density_log_rate(s: CartesianPhaseState, p: OrbitParams) -> float:
    """d(ln n)/dt along a trajectory, n the phase-space density in (x1, x2).

    Equals minus the velocity divergence; the oblateness terms cancel
    exactly, so the rate is independent of W.  It is -d(ln u)/dt with
    u = sqrt(1 - r^2): by Liouville's theorem in the canonical pair
    (phi, u) it integrates to ln n(t) = ln n(0) + ln u(0) - ln u(t).
    """
    r2 = s.x1 * s.x1 + s.x2 * s.x2
    return TWO_PI * p.C * s.x1 / math.sqrt(1.0 - r2)


# --- vectorized field builders (used by the integrators) ---------------------


def _rates_into(out: np.ndarray, x1: np.ndarray, x2: np.ndarray, p: OrbitParams):
    """Vectorized Cartesian rates, written into out[0] and out[1], with the
    radius clipped to the disk edge; returns the clipped r2, u = sqrt(1 - r2)
    and g = W / (1 - r2)^2 - 1 for the fields that extend the state.

    Trial stages of an adaptive step may momentarily leave the disk; clipping
    keeps the evaluation finite there.  Accepted states are clamped and
    flagged by the integrator itself.
    """
    r2 = x1 * x1
    r2 += x2 * x2
    np.minimum(r2, DISK_EDGE_R2, out=r2)
    g = 1.0 - r2
    u = np.sqrt(g)
    g *= g
    np.divide(p.W, g, out=g)
    g -= 1.0
    v1 = np.multiply(p.C, u, out=out[0])
    v1 += np.multiply(x2, g, out=out[1])
    v1 *= TWO_PI
    np.multiply(-TWO_PI, x1, out=out[1])
    out[1] *= g
    return r2, u, g


# Each field is field(y, out): it writes the rates of the (d, m) rows y
# into the (d, m) rows out, every rate with the operation order of its
# scalar formula.  Both arrays belong to the integrator, which reuses them,
# so a field writes only to out and keeps neither.


def cartesian_field(p: OrbitParams):
    """field(y, out) for rows y = (x1, x2) of shape (2, m)."""

    def field(y, out):
        _rates_into(out, y[0], y[1], p)

    return field


def characteristic_field(p: OrbitParams):
    """field for rows (x1, x2, ln n): transports log-density along
    trajectories, the integrated reference for the closed form in
    density_log_rate."""

    def field(y, out):
        x1 = y[0]
        _, u, _ = _rates_into(out, x1, y[1], p)
        vll = np.multiply(TWO_PI * p.C, x1, out=out[2])
        vll /= u

    return field


def angle_tracking_field(p: OrbitParams):
    """field for rows (x1, x2, theta) where theta integrates dphi/dt
    continuously.

    theta equals the solar angle unwrapped along the trajectory (no 2*pi
    jumps), which makes multi-revolution motion unambiguous.  Undefined at
    e = 0, like the polar chart.  No pipeline calls it.
    """

    def field(y, out):
        x2 = y[1]
        r2, u, g = _rates_into(out, y[0], x2, p)
        vth = np.multiply(TWO_PI * p.C, u, out=out[2])
        vth *= x2
        vth /= r2
        vth += TWO_PI * g

    return field

"""Deterministic random streams and small Gaussian utilities.

The random stream is counter based: output k depends only on (seed, k), so
any contiguous slice of the stream can be generated independently and
concurrent consumers stay reproducible as long as they use disjoint counter
ranges.  Standard normals come from the Box-Muller transform, two uniforms
per pair, so sample i of a 2-D draw consumes counters 2i and 2i+1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionError, InvalidParameterError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 state array (wraps mod 2**64)."""
    z = (state ^ (state >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class RngStream:
    """Value-semantics random stream: (seed, counter) fully determine output.

    Methods never mutate; the stream after n draws is RngStream(seed,
    counter + n).
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        if not (0 <= self.counter):
            raise InvalidParameterError("counter must be non-negative")

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), from counters [counter, counter + n)."""
        if n < 0:
            raise InvalidParameterError("n must be non-negative")
        k = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        state = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF) + k * _GOLDEN
        z = _splitmix64(state)
        return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal_pairs(self, n: int) -> np.ndarray:
        """n independent standard-normal pairs, shape (n, 2).

        Pair i consumes the two uniforms at counters (2i, 2i+1) relative to
        this stream, so the draw costs 2n counters.
        """
        u = self.uniforms(2 * n)
        u1, u2 = u[0::2], u[1::2]
        # 1 - u1 lies in (0, 1], keeping the log argument away from zero
        r = np.sqrt(-2.0 * np.log1p(-u1))
        ang = (2.0 * math.pi) * u2
        return np.column_stack((r * np.cos(ang), r * np.sin(ang)))


# --- 2x2 Cholesky factor ---------------------------------------------------


def sqrt_spd2(m: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L @ L.T = m of a 2x2 SPD matrix or a
    stack (..., 2, 2).  Each check runs over the whole stack in turn, so a
    stack raises the error of the first check any member fails."""
    m = np.asarray(m, dtype=float)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    if np.any(np.abs(b - m[..., 1, 0]) > 1e-12 * (1.0 + np.abs(b))):
        raise InvalidParameterError("matrix must be symmetric")
    if np.any(a <= 0.0):
        raise DecompositionError("matrix is not positive definite (m[0,0] <= 0)")
    l11 = np.sqrt(a)
    l21 = b / l11
    rem = c - l21 * l21
    if np.any(rem <= 0.0):
        raise DecompositionError("matrix is not positive definite (Schur complement <= 0)")
    out = np.zeros(m.shape)
    out[..., 0, 0], out[..., 1, 0], out[..., 1, 1] = l11, l21, np.sqrt(rem)
    return out


# --- Bivariate Gaussian -----------------------------------------------------


def as_points(x) -> np.ndarray:
    """x as a float array of points (..., 2); any other shape raises."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise InvalidParameterError(f"points need shape (..., 2); got {x.shape}")
    return x


# density terms of mean (..., 2) and SPD cov (..., 2, 2), once per Gaussian, each
# of their leading shape: b2 = 2b, neg2det = -2 det, norm = 2 pi sqrt(det)
NormalTerms = namedtuple("NormalTerms", "m0 m1 a b2 c det neg2det norm")


def normal2d_terms(mean: np.ndarray, cov: np.ndarray) -> NormalTerms:
    a, b, c = cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 1]
    det = a * c - b * b
    return NormalTerms(mean[..., 0], mean[..., 1], a, 2.0 * b, c, det,
                       -2.0 * det, 2.0 * math.pi * np.sqrt(det))


def normal2d_exponent(t: NormalTerms, cd0, bd0, d1, ad1, out=None) -> np.ndarray:
    """-(x - m)' cov^-1 (x - m) / 2 = (c d0^2 - (2b d0) d1 + a d1^2) / (-2 det)
    for d = x - m from cd0 = c d0^2, bd0 = 2b d0 and ad1 = a d1^2, in one
    array (out, or new).  The division is -0.5 (q / det) bit for bit: a
    power-of-two scale rounds alike, and a subnormal q only feeds exp(+-tiny)."""
    q = np.multiply(bd0, d1, out=out)
    np.subtract(cd0, q, out=q)
    q += ad1
    q /= t.neg2det
    return q


def normal2d_exponent_at(t: NormalTerms, pts: np.ndarray) -> np.ndarray:
    """normal2d_exponent at points pts (n, 2), broadcast against the terms."""
    d0, d1 = np.subtract(pts[:, 0], t.m0), np.subtract(pts[:, 1], t.m1)
    bd0, ad1 = t.b2 * d0, np.square(d1)
    ad1 *= t.a
    np.multiply(np.square(d0, out=d0), t.c, out=d0)
    return normal2d_exponent(t, d0, bd0, d1, ad1, out=bd0)


def normal2d_pdf(t: NormalTerms, arg: np.ndarray) -> np.ndarray:
    """The density exp(arg) / (2 pi sqrt(det)) from the exponent arg.

    np.exp's cost per lane depends on arg; with numpy 2.4 on an AVX-512
    x86-64 core, about 1 ns for arg >= -707, 13-16 ns at -708 and 95-175 ns
    from -709 to -745, where the result is subnormal.  exp rounds to 0
    below about -745.13, so lanes below -746 stay 0 unevaluated; NaN lanes
    still get exp.  The subnormal band (17,415 of 1,657,500 lanes in a
    gmmut-paper pass) is evaluated, as scaled by 1 / (2 pi sqrt(det)) it
    reaches the CSVs.  Measured slower, not to be retried: exp of clamped
    arguments plus a fix-up of the band (42.8 vs 23.8 ms per 17 grids),
    gathering the live lanes first (32.3 vs 29.1 ms), and exp in place
    with the far lanes zeroed after it (19.4-20.5 vs 18.6-19.4 ms).
    """
    out = np.zeros(arg.shape)
    np.exp(arg, out=out, where=~(arg < -746.0))
    out /= t.norm
    return out


@dataclass(frozen=True)
class Gaussian2D:
    """Bivariate normal with mean (2,) and SPD covariance (2, 2)."""

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _terms: NormalTerms = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidParameterError("mean and covariance must be finite")
        object.__setattr__(self, "_chol", sqrt_spd2(cov))  # validates SPD
        object.__setattr__(self, "_terms", normal2d_terms(mean, cov))

    def _exponent(self, x) -> np.ndarray:
        x = as_points(x)
        return normal2d_exponent_at(self._terms, x.reshape(-1, 2)).reshape(x.shape[:-1])

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density at points x of shape (..., 2)."""
        return normal2d_pdf(self._terms, self._exponent(x))[()]  # one point: a scalar

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at points x of shape (..., 2); finite far into the tails."""
        arg = self._exponent(x)
        arg -= math.log(2.0 * math.pi)
        arg -= 0.5 * math.log(self._terms.det)
        return arg[()]

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n samples, shape (n, 2); consumes 2n counters of rng."""
        z = rng.normal_pairs(n)
        return self.mean + z @ self._chol.T

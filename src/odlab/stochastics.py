"""Deterministic random streams and small Gaussian utilities.

The random stream is counter based: output k depends only on (seed, k), so
any contiguous slice of the stream can be generated independently and
concurrent consumers stay reproducible as long as they use disjoint counter
ranges.  Standard normals come from the Box-Muller transform, two uniforms
per pair, so sample i of a 2-D draw consumes counters 2i and 2i+1.
"""

from __future__ import annotations

import math
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


def _quad_form(x0, x1, mean: np.ndarray, cov: np.ndarray):
    """(x - mean)' cov^-1 (x - mean) at points x = (x0, x1), and det(cov).

    x0 and x1 broadcast against each other and against the leading axes of
    mean (..., 2) and cov (..., 2, 2), e.g. one per mixture component.  A
    term in one coordinate is computed on that coordinate's shape, so on a
    grid of x0 (n1, 1) and x1 (n2,) only the cross term takes n1 x n2.
    """
    d0 = x0 - mean[..., 0]
    d1 = x1 - mean[..., 1]
    a, b, c = cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 1]
    det = a * c - b * b
    quad = (c * d0 ** 2 - 2.0 * b * d0 * d1 + a * d1 ** 2) / det
    return quad, det


def normal2d_pdf(x0, x1, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Bivariate normal density at points (x0, x1).

    The coordinates, mean and cov broadcast as in _quad_form.  cov must
    already be known to be SPD; nothing is checked here.
    """
    quad, det = _quad_form(x0, x1, mean, cov)
    return np.exp(-0.5 * quad) / (2.0 * math.pi * np.sqrt(det))


@dataclass(frozen=True)
class Gaussian2D:
    """Bivariate normal with mean (2,) and SPD covariance (2, 2)."""

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidParameterError("mean and covariance must be finite")
        object.__setattr__(self, "_chol", sqrt_spd2(cov))  # validates SPD

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density at points x of shape (..., 2)."""
        x = np.asarray(x, dtype=float)
        return normal2d_pdf(x[..., 0], x[..., 1], self.mean, self.cov)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at points x of shape (..., 2); finite far into the tails."""
        x = np.asarray(x, dtype=float)
        quad, det = _quad_form(x[..., 0], x[..., 1], self.mean, self.cov)
        return -0.5 * quad - math.log(2.0 * math.pi) - 0.5 * math.log(det)

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n samples, shape (n, 2); consumes 2n counters of rng."""
        z = rng.normal_pairs(n)
        return self.mean + z @ self._chol.T

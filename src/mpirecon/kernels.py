"""Langevin-model convolution kernels.

The magnetization response is the Langevin function L(z) = coth(z) - 1/z.
The matrix kernel is the gradient of y -> L(|y|/h) y/|y|,

    K_h(y) = (1/h) f1(|y|/h) I + (1/h) f2(|y|/h) (y/|y|)(y/|y|)^T,

with f1(z) = L(z)/z and f2(z) = L'(z) - f1(z).  Its pointwise trace in
the plane is kappa_h(y) = (1/h) f(|y|/h) with f = 2*f1 + f2.

All coefficient functions switch to Taylor series below ``SERIES_THRESHOLD``:
the closed forms lose roughly 2*log10(1/z) digits to cancellation near zero
while the series truncation error is far below machine epsilon there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Switch point between closed forms and series.  At z = 1e-2 the two
# branches agree to ~2e-12 (cancellation) while the series is accurate to
# ~1e-15 (truncation); smaller thresholds let cancellation error through.
SERIES_THRESHOLD = 1e-2


@dataclass(frozen=True)
class KernelParams:
    """Resolution parameter 0 < h < inf."""

    h: float

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix by construction (a21 == a12)."""

    a11: float
    a12: float
    a22: float

    def trace(self) -> float:
        return self.a11 + self.a22

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])


def _langevin_arr(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)  # dummy value avoids 0/0 in the closed branch
    closed = 1.0 / np.tanh(zs) - 1.0 / zs
    z2 = z * z
    series = z * (1.0 / 3.0 - z2 / 45.0 + 2.0 * z2 * z2 / 945.0)
    return np.where(small, series, closed)


def _f1_arr(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)
    closed = (1.0 / np.tanh(zs) - 1.0 / zs) / zs
    z2 = z * z
    series = 1.0 / 3.0 - z2 / 45.0 + 2.0 * z2 * z2 / 945.0
    return np.where(small, series, closed)


def _f2_arr(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)
    # L'(z) = 1/z^2 - csch^2(z); sinh overflows harmlessly to inf for large z
    with np.errstate(over="ignore"):
        dlan = 1.0 / (zs * zs) - 1.0 / np.sinh(zs) ** 2
    closed = dlan - (1.0 / np.tanh(zs) - 1.0 / zs) / zs
    z2 = z * z
    series = z2 * (-2.0 / 45.0 + 8.0 * z2 / 945.0)
    return np.where(small, series, closed)


def langevin(z):
    """L(z) = coth(z) - 1/z, odd, with series z/3 - z^3/45 + 2z^5/945 near 0."""
    out = _langevin_arr(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def f1(z):
    """f1(z) = L(z)/z; series 1/3 - z^2/45 + 2z^4/945 near 0."""
    out = _f1_arr(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def f2(z):
    """f2(z) = L'(z) - f1(z); series -2z^2/45 + 8z^4/945 near 0."""
    out = _f2_arr(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def kernel_matrix_components(yx, yy, params: KernelParams):
    """Entries (k11, k12, k22) of K_h at points (yx, yy), vectorized.

    The rank-one term uses f2, which vanishes quadratically at the origin, so
    the unit vector ambiguity at y = 0 is harmless; there K_h = I/(3h).
    """
    yx = np.asarray(yx, dtype=float)
    yy = np.asarray(yy, dtype=float)
    r = np.hypot(yx, yy)
    z = r / params.h
    g1 = _f1_arr(z) / params.h
    g2 = _f2_arr(z) / params.h
    rsafe = np.where(r == 0.0, 1.0, r)
    ux = yx / rsafe
    uy = yy / rsafe
    k11 = g1 + g2 * ux * ux
    k12 = g2 * ux * uy
    k22 = g1 + g2 * uy * uy
    return k11, k12, k22


def kernel_matrix(y, params: KernelParams) -> SymMat2:
    """Matrix kernel K_h(y) for a single 2-vector y."""
    k11, k12, k22 = kernel_matrix_components(y[0], y[1], params)
    return SymMat2(float(k11), float(k12), float(k22))


def kernel_trace(y, params: KernelParams):
    """Trace kernel kappa_h(y) = (1/h) f(|y|/h); radially symmetric, positive.

    Accepts a single 2-vector or a pair of coordinate arrays as y = (yx, yy).
    """
    yx = np.asarray(y[0], dtype=float)
    yy = np.asarray(y[1], dtype=float)
    z = np.hypot(yx, yy) / params.h
    out = (2 * _f1_arr(z) + _f2_arr(z)) / params.h
    return out if out.ndim else float(out)

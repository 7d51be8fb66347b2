"""Image quality scores (PSNR, SSIM) and the ground-truth trace tr A.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5) with stabilizers
C1 = (0.01 peak)^2, C2 = (0.03 peak)^2, averaged over all positions where
the full window fits.

The window is the outer product of a normalized 1D Gaussian g, so the
windowed mean of an (nx, ny) image X at every valid position is
T_nx X T_ny^T, where T_n is the banded (n - 10) x n matrix whose row i holds
g on columns i..i+10.  SSIM applies T along each axis of a stack of four
images, a, b, a*a + b*b and a*b, as batched GEMMs: one per block of b <= 32
output rows, each reading only the block's band of b + 10 rows through the
cached T_{b+10} (T is Toeplitz, so every full block shares T_42).  The score needs the variances of a and b only
through their sum, so these four windowed moments give mu_a, mu_b,
var_a + var_b and cov.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import MatrixField, ScalarField, resample_bilinear

SSIM_WINDOW = 11  # side of the SSIM window, the smallest image SSIM scores
# Output rows per windowing GEMM.  A dense T_n per axis costs O(n^3) and at
# 1024^2 is slower than an FFT convolution; blocks of 16-48 rows measured
# alike from 100^2 to 1024^2 on one BLAS thread.
_BLOCK = 32


def ideal_trace(A: MatrixField, nx: int, ny: int) -> ScalarField:
    """kappa_h * rho, resampled to the (nx, ny) grid, from the core response.

    A = K_h * rho on the fine grid and tr K_h = kappa_h, so tr A is the
    ideal trace; no second convolution is needed.
    """
    return resample_bilinear(A.trace(), nx, ny)


def psnr(x: ScalarField, y: ScalarField, peak: float) -> float:
    """10 log10(peak^2 / MSE); +inf for identical images."""
    if x.values.shape != y.values.shape:
        raise ValueError("psnr needs images of identical shape")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((x.values - y.values) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


@functools.lru_cache(maxsize=16)
def _window_matrix(n: int) -> np.ndarray:
    """Read-only (n - 10) x n matrix T with row i = g on columns i..i+10.

    g is the 1D Gaussian (sigma 1.5) normalized to sum 1, so T X is the
    window's mean along axis 0 of X at every position where it fits.
    """
    half = (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-((np.arange(SSIM_WINDOW) - half) ** 2) / (2.0 * 1.5 * 1.5))
    g /= g.sum()
    rows = np.arange(n - SSIM_WINDOW + 1)[:, None]
    t = np.zeros((len(rows), n))
    t[rows, rows + np.arange(SSIM_WINDOW)] = g
    t.flags.writeable = False
    return t


def _window_means(s: np.ndarray) -> np.ndarray:
    """T s along axis 1 of the stack s, a GEMM per block of output rows.

    T is Toeplitz, so each block of b output rows reads only its band of
    b + 10 input rows, through the same matrix T_{b+10}.
    """
    m = s.shape[1] - SSIM_WINDOW + 1
    out = np.empty((s.shape[0], m, s.shape[2]))
    for r in range(0, m, _BLOCK):
        b = min(_BLOCK, m - r)
        np.matmul(_window_matrix(b + SSIM_WINDOW - 1), s[:, r:r + b + SSIM_WINDOW - 1],
                  out=out[:, r:r + b])
    return out


def ssim(x: ScalarField, y: ScalarField, peak: float) -> float:
    """Mean local SSIM over full 11x11 windows (population statistics)."""
    if x.values.shape != y.values.shape:
        raise ValueError("ssim needs images of identical shape")
    if min(x.values.shape) < SSIM_WINDOW:
        raise ValueError(f"ssim needs images of size >= {SSIM_WINDOW} per axis")
    if peak <= 0:
        raise ValueError("peak must be positive")
    a, b = x.values, y.values
    along_x = _window_means(np.stack([a, b, a * a + b * b, a * b]))
    mu_a, mu_b, sq, ab = _window_means(along_x.swapaxes(1, 2)).swapaxes(1, 2)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu_ab = mu_a * mu_b
    mu_sq = mu_a ** 2 + mu_b ** 2
    num = (2 * mu_ab + c1) * (2 * (ab - mu_ab) + c2)
    den = (mu_sq + c1) * (sq - mu_sq + c2)
    return float(np.mean(num / den))


def score_pair(recon: ScalarField, gt: ScalarField) -> tuple[float, float]:
    """(PSNR, SSIM) with peak = dynamic range of the ground truth."""
    peak = float(gt.values.max() - gt.values.min())
    if peak == 0.0:
        peak = 1.0
    return psnr(recon, gt, peak), ssim(recon, gt, peak)

"""Image quality scores (PSNR, SSIM) and the ground-truth trace tr A.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5) with stabilizers
C1 = (0.01 peak)^2, C2 = (0.03 peak)^2, averaged over all positions where
the full window fits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import fftconvolve

from .fields import MatrixField, ScalarField, resample_bilinear

SSIM_WINDOW = 11  # side of the SSIM window, the smallest image SSIM scores


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


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = 1.5) -> np.ndarray:
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def ssim(x: ScalarField, y: ScalarField, peak: float) -> float:
    """Mean local SSIM over full 11x11 windows (population statistics)."""
    if x.values.shape != y.values.shape:
        raise ValueError("ssim needs images of identical shape")
    if min(x.values.shape) < SSIM_WINDOW:
        raise ValueError(f"ssim needs images of size >= {SSIM_WINDOW} per axis")
    if peak <= 0:
        raise ValueError("peak must be positive")
    w = _gaussian_window()
    a, b = x.values, y.values

    def win(img):
        return fftconvolve(img, w, mode="valid")

    mu_a = win(a)
    mu_b = win(b)
    var_a = win(a * a) - mu_a ** 2
    var_b = win(b * b) - mu_b ** 2
    cov = win(a * b) - mu_a * mu_b
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def score_pair(recon: ScalarField, gt: ScalarField) -> tuple[float, float]:
    """(PSNR, SSIM) with peak = dynamic range of the ground truth."""
    peak = float(gt.values.max() - gt.values.min())
    if peak == 0.0:
        peak = 1.0
    return psnr(recon, gt, peak), ssim(recon, gt, peak)

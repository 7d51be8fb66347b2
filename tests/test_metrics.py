import math

import numpy as np
import pytest

from mpirecon.fields import ScalarField, cell_centers, resample_bilinear
from mpirecon.forward import convolve_same, core_response_field, offset_grids, quadrant_spectrum
from mpirecon.kernels import KernelParams, kernel_trace
from mpirecon.metrics import _window_matrix, ideal_trace, psnr, ssim
from mpirecon.phantom import disk, rasterize
from mpirecon.spectral import _cell_basis, basis_matrix_1d

PARAMS = KernelParams(h=0.05)


def test_ideal_trace_zero():
    u = ideal_trace(core_response_field(ScalarField.zeros(64, 64), PARAMS), 16, 16)
    assert np.all(u.values == 0.0)


def test_ideal_trace_matches_matrix_trace():
    # tr A against the scalar convolution kappa_h * rho, resampled
    rho = rasterize(disk(radius=0.4), 128, 128)
    u = ideal_trace(core_response_field(rho, PARAMS), 32, 32)
    kappa = kernel_trace(offset_grids(128, 128), PARAMS)
    conv = ScalarField(convolve_same(rho.values, quadrant_spectrum(kappa)) * rho.cell_area)
    tr = resample_bilinear(conv, 32, 32)
    assert np.max(np.abs(u.values - tr.values)) < 1e-10 * np.max(np.abs(u.values))


def test_ideal_trace_linear():
    rng = np.random.default_rng(0)
    r1 = ScalarField(rng.uniform(size=(64, 64)))
    u1 = ideal_trace(core_response_field(r1, PARAMS), 16, 16)
    u2 = ideal_trace(core_response_field(ScalarField(3.0 * r1.values), PARAMS), 16, 16)
    np.testing.assert_allclose(u2.values, 3.0 * u1.values, rtol=1e-12)


def test_psnr_contracts():
    rng = np.random.default_rng(1)
    x = ScalarField(rng.normal(size=(16, 16)))
    assert psnr(x, x, peak=1.0) == math.inf
    y = ScalarField(x.values + 0.1)  # MSE = 0.01
    assert psnr(x, y, peak=1.0) == pytest.approx(20.0)
    # scale invariance: doubling both images and the peak
    x2 = ScalarField(2.0 * x.values)
    y2 = ScalarField(2.0 * y.values)
    assert psnr(x2, y2, peak=2.0) == pytest.approx(psnr(x, y, peak=1.0))
    # symmetry
    assert psnr(y, x, peak=1.0) == psnr(x, y, peak=1.0)
    with pytest.raises(ValueError):
        psnr(x, ScalarField(np.zeros((8, 8))), peak=1.0)
    with pytest.raises(ValueError):
        psnr(x, y, peak=0.0)


def test_psnr_monotone_in_noise():
    rng = np.random.default_rng(2)
    x = ScalarField(rng.normal(size=(32, 32)))
    noise = rng.normal(size=(32, 32))
    scores = [psnr(x, ScalarField(x.values + amp * noise), peak=1.0)
              for amp in (0.01, 0.03, 0.1, 0.3, 1.0)]
    assert all(a > b for a, b in zip(scores, scores[1:]))


def ssim_oracle(a, b, peak):
    """Direct windowed-sum SSIM over full 11x11 windows."""
    half = 5
    g = np.exp(-((np.arange(11) - 5) ** 2) / (2 * 1.5 ** 2))
    w = np.outer(g, g)
    w /= w.sum()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    vals = []
    for i in range(half, a.shape[0] - half):
        for j in range(half, a.shape[1] - half):
            wa = a[i - half:i + half + 1, j - half:j + half + 1]
            wb = b[i - half:i + half + 1, j - half:j + half + 1]
            ma, mb = np.sum(w * wa), np.sum(w * wb)
            va = np.sum(w * wa * wa) - ma * ma
            vb = np.sum(w * wb * wb) - mb * mb
            cab = np.sum(w * wa * wb) - ma * mb
            vals.append(((2 * ma * mb + c1) * (2 * cab + c2))
                        / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_ssim_contracts():
    rng = np.random.default_rng(3)
    x = ScalarField(rng.normal(size=(16, 16)))
    assert ssim(x, x, peak=1.0) == pytest.approx(1.0)
    # zero-mean pattern (locally as well): negating it flips the structure
    # term while the luminance term stays positive, so the score is negative
    ij = np.indices((16, 16)).sum(axis=0)
    checker = ScalarField(np.where(ij % 2 == 0, 1.0, -1.0))
    neg = ScalarField(-checker.values)
    assert ssim(checker, neg, peak=1.0) < 0.0
    with pytest.raises(ValueError):
        ssim(ScalarField(np.zeros((8, 8))), ScalarField(np.zeros((8, 8))), peak=1.0)


def test_ssim_matches_direct_oracle():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 18))
    b = a + 0.3 * rng.normal(size=(20, 18))
    got = ssim(ScalarField(a), ScalarField(b), peak=float(a.max() - a.min()))
    want = ssim_oracle(a, b, float(a.max() - a.min()))
    assert got == pytest.approx(want, abs=1e-10)


def test_ssim_symmetric():
    rng = np.random.default_rng(5)
    a = ScalarField(rng.normal(size=(16, 16)))
    b = ScalarField(rng.normal(size=(16, 16)))
    assert ssim(a, b, peak=1.0) == pytest.approx(ssim(b, a, peak=1.0), abs=1e-12)


@pytest.mark.parametrize("shape", [(100, 100), (11, 13), (13, 11)])
def test_ssim_banded_gemm_matches_oracle(shape):
    rng = np.random.default_rng(6)
    a = rng.normal(size=shape)
    b = a + 0.3 * rng.normal(size=shape)
    peak = float(a.max() - a.min())
    assert abs(ssim(ScalarField(a), ScalarField(b), peak) - ssim_oracle(a, b, peak)) < 1e-12


@pytest.mark.parametrize("shape", [(100, 100), (11, 13)])
def test_ssim_of_identical_images_is_exactly_one(shape):
    x = ScalarField(np.random.default_rng(7).uniform(size=shape))
    assert ssim(x, x, peak=1.0) == 1.0


@pytest.mark.parametrize("n", [11, 12, 42, 100])
def test_window_matrix_rows(n):
    t = _window_matrix(n)
    assert t.shape == (n - 10, n)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    for i, row in enumerate(t):
        assert np.count_nonzero(row) == 11
        assert np.count_nonzero(row[i:i + 11]) == 11


def test_cached_tables_are_read_only():
    for table in (_window_matrix(20), _cell_basis(8, 12)):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    for m, n in [(8, 12), (12, 12), (64, 100)]:
        assert np.array_equal(_cell_basis(m, n), basis_matrix_1d(m, cell_centers(n)))

"""Forward simulation: core response field, trajectory sampling, noise.

The core response A = K_h * rho is computed by linear (zero-padded) discrete
convolution on the fine grid: kernel entries sampled at all grid offsets,
scaled by the cell area.  No periodic wraparound — rho has compact support
and the kernel models free-space physics.  The same convolution routine,
:func:`convolve_same`, serves the deconvolution stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .fields import FormatError, MatrixField, ScalarField, bilinear_sample
from .kernels import KernelParams, kernel_matrix_components, kernel_trace
from .rng import SeededGenerator
from .trajectory import ScanGeometry


@dataclass(frozen=True)
class ScanSeries:
    """Scan geometry plus measured 2-vector signals s_l."""

    geometry: ScanGeometry
    signals: np.ndarray
    noise_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "signals", np.asarray(self.signals, dtype=float))
        if self.signals.shape != (len(self.geometry), 2):
            raise ValueError("signals must be one 2-vector per sample")


def offset_grids(nx: int, ny: int):
    """Nonnegative grid offsets (i 2/nx, j 2/ny), i < nx, j < ny.

    This is the quadrant of the kernel stencil; :func:`mirror_stencil`
    completes it, since every kernel here is even or odd in each axis.
    """
    return np.meshgrid(np.arange(nx) * (2.0 / nx), np.arange(ny) * (2.0 / ny),
                       indexing="ij")


def mirror_stencil(quadrant: np.ndarray, parity: float = 1.0) -> np.ndarray:
    """Full (2nx-1, 2ny-1) stencil, offset 0 at (nx-1, ny-1), from its quadrant.

    parity is 1 for a kernel even in each axis and -1 for one odd in each.
    """
    half = np.concatenate([parity * quadrant[:0:-1], quadrant])
    return np.concatenate([parity * half[:, :0:-1], half], axis=1)


def _fft_shape(nx: int, ny: int) -> tuple[int, int]:
    # a circular size >= 2n-1 leaves the "same" window free of wraparound
    return sfft.next_fast_len(2 * nx - 1), sfft.next_fast_len(2 * ny - 1)


def stencil_spectrum(stencil: np.ndarray) -> np.ndarray:
    """Real half spectrum of point-symmetric (..., 2nx-1, 2ny-1) stencils.

    Offset 0 is moved to index (0, 0) of the circular grid, so a stencil
    with k(-y) = k(y) has a real spectrum.
    """
    nx, ny = (stencil.shape[-2] + 1) // 2, (stencil.shape[-1] + 1) // 2
    wrapped = np.zeros(stencil.shape[:-2] + _fft_shape(nx, ny))
    wrapped[..., : 2 * nx - 1, : 2 * ny - 1] = stencil
    wrapped = np.roll(wrapped, (1 - nx, 1 - ny), axis=(-2, -1))
    return sfft.rfft2(wrapped).real


def convolve_same(x: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Linear convolution of x with stencils, in the "same" window.

    out[..., i, j] = sum_ab x[a, b] k[i - a, j - b] for each stencil k whose
    :func:`stencil_spectrum` is given.  Only the nx nonzero rows of the
    padded x are transformed forward, and only the nx window rows back.
    """
    nx, ny = x.shape
    px, py = _fft_shape(nx, ny)
    xhat = sfft.fft(sfft.rfft(x, py, axis=1), px, axis=0, overwrite_x=True)
    rows = sfft.ifft(xhat * spectrum, axis=-2, overwrite_x=True)[..., :nx, :]
    return sfft.irfft(rows, py, axis=-1)[..., :ny]


def core_response_field(rho: ScalarField, params: KernelParams) -> MatrixField:
    """A = K_h * rho on rho's grid; a12 and a21 share one convolution.

    k11 and k22 are even in each axis and k12 is odd, so each stencil is
    evaluated on the nonnegative-offset quadrant and mirrored.
    """
    k11, k12, k22 = kernel_matrix_components(*offset_grids(rho.nx, rho.ny), params)
    stencils = np.stack([mirror_stencil(k11), mirror_stencil(k12, -1.0),
                         mirror_stencil(k22)])
    c11, c12, c22 = convolve_same(rho.values, stencil_spectrum(stencils)) * rho.cell_area
    out = np.empty((rho.nx, rho.ny, 2, 2))
    out[:, :, 0, 0] = c11
    out[:, :, 0, 1] = c12
    out[:, :, 1, 0] = c12
    out[:, :, 1, 1] = c22
    return MatrixField(out)


def trace_response_field(rho: ScalarField, params: KernelParams) -> ScalarField:
    """kappa_h * rho, the scalar (trace) convolution, computed independently."""
    ker = mirror_stencil(kernel_trace(offset_grids(rho.nx, rho.ny), params))
    return ScalarField(convolve_same(rho.values, stencil_spectrum(ker)) * rho.cell_area)


def simulate_signal(A: MatrixField, geom: ScanGeometry) -> np.ndarray:
    """Clean signals s_l = A(r_l) v_l, with A sampled bilinearly."""
    samples = bilinear_sample(A.values, geom.positions[:, 0], geom.positions[:, 1])
    return np.einsum("lab,lb->la", samples, geom.velocities)


def add_noise(signals: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """s_l + eps*N_l with eps = fraction * max_l |s_l| (Euclidean norm).

    N_l are i.i.d. standard 2-vector normals from the seeded generator, so
    the output is a pure function of (signals, fraction, seed).
    """
    if fraction < 0:
        raise ValueError("noise fraction must be >= 0")
    signals = np.asarray(signals, dtype=float)
    if fraction == 0 or len(signals) == 0:
        return signals.copy()
    eps = fraction * float(np.max(np.hypot(signals[:, 0], signals[:, 1])))
    noise = SeededGenerator(seed).normal_pairs(len(signals))
    return signals + eps * noise


def simulate_series(A: MatrixField, geom: ScanGeometry, fraction: float,
                    seed: int) -> ScanSeries:
    """Sample the field along the scan and apply the noise model."""
    clean = simulate_signal(A, geom)
    return ScanSeries(geom, add_noise(clean, fraction, seed), fraction, seed)


def write_series_csv(series: ScanSeries, path: str, h: float) -> None:
    """CSV with `# h=... fraction=... seed=...` metadata line then data rows."""
    g = series.geometry
    with open(path, "w") as fh:
        fh.write(f"# h={float(h)!r} fraction={float(series.noise_fraction)!r} "
                 f"seed={series.seed}\n")
        fh.write("t,rx,ry,vx,vy,sx,sy\n")
        for t, r, v, s in zip(g.times, g.positions, g.velocities, series.signals):
            row = (t, r[0], r[1], v[0], v[1], s[0], s[1])
            fh.write(",".join(repr(float(v_)) for v_ in row) + "\n")


def read_series_csv(path: str) -> tuple[ScanSeries, float]:
    """Read a series CSV; returns (series, h from the metadata line)."""
    h = 0.0
    fraction = 0.0
    seed = 0
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, _, val = tok.partition("=")
                    if key == "h":
                        h = float(val)
                    elif key == "fraction":
                        fraction = float(val)
                    elif key == "seed":
                        seed = int(val)
                continue
            if line.startswith("t,"):
                continue
            rows.append([float(v) for v in line.split(",")])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed number ({exc})") from exc
    if not rows or any(len(r) != 7 for r in rows):
        raise FormatError(f"{path}: expected 7 columns t,rx,ry,vx,vy,sx,sy")
    data = np.asarray(rows, dtype=float)
    geom = ScanGeometry(data[:, 0], data[:, 1:3], data[:, 3:5])
    return ScanSeries(geom, data[:, 5:7], fraction, seed), h

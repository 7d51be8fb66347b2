"""Forward simulation: core response field, trajectory sampling, noise.

The core response A = K_h * rho is computed by linear (zero-padded) discrete
convolution on the fine grid: kernel entries sampled at all grid offsets,
scaled by the cell area.  No periodic wraparound — rho has compact support
and the kernel models free-space physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .fields import MatrixField, ScalarField, bilinear_sample
from .kernels import KernelParams, SymMat2, kernel_matrix_components, kernel_trace
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
    """Grid-offset coordinates for the full (2nx-1, 2ny-1) kernel stencil."""
    dx = (np.arange(2 * nx - 1) - (nx - 1)) * (2.0 / nx)
    dy = (np.arange(2 * ny - 1) - (ny - 1)) * (2.0 / ny)
    return np.meshgrid(dx, dy, indexing="ij")


def core_response_field(rho: ScalarField, params: KernelParams) -> MatrixField:
    """A = K_h * rho on rho's grid; a12 and a21 share one convolution."""
    ox, oy = offset_grids(rho.nx, rho.ny)
    k11, k12, k22 = kernel_matrix_components(ox, oy, params)
    area = rho.cell_area
    out = np.empty((rho.nx, rho.ny, 2, 2))
    out[:, :, 0, 0] = fftconvolve(rho.values, k11, mode="same") * area
    c12 = fftconvolve(rho.values, k12, mode="same") * area
    out[:, :, 0, 1] = c12
    out[:, :, 1, 0] = c12
    out[:, :, 1, 1] = fftconvolve(rho.values, k22, mode="same") * area
    return MatrixField(out)


def trace_response_field(rho: ScalarField, params: KernelParams) -> ScalarField:
    """kappa_h * rho, the scalar (trace) convolution, computed independently."""
    ox, oy = offset_grids(rho.nx, rho.ny)
    ker = kernel_trace((ox, oy), params)
    return ScalarField(fftconvolve(rho.values, ker, mode="same") * rho.cell_area)


def evaluate_field(A: MatrixField, p) -> SymMat2:
    """Bilinear interpolation of all channels at a single point p in Omega."""
    vals = bilinear_sample(A.values, np.asarray(p[0]), np.asarray(p[1]))
    return SymMat2(float(vals[0, 0]), float(0.5 * (vals[0, 1] + vals[1, 0])),
                   float(vals[1, 1]))


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
        for line in fh:
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
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 7:
        raise ValueError(f"{path}: expected 7 columns t,rx,ry,vx,vy,sx,sy")
    geom = ScanGeometry(data[:, 0], data[:, 1:3], data[:, 3:5])
    return ScanSeries(geom, data[:, 5:7], fraction, seed), h

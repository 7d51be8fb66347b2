"""Forward simulation: core response field, trajectory sampling, noise.

The core response A = K_h * rho is computed by linear (zero-padded) discrete
convolution on the fine grid: kernel entries sampled at grid offsets, scaled
by the cell area.  No periodic wraparound — rho has compact support and the
kernel models free-space physics.  Each kernel component is even or odd in
each axis, so it is sampled on the nonnegative-offset quadrant and its
spectrum is a DCT-I or DST-I of that quadrant (:func:`quadrant_spectrum`).
The quadrant, and with it the padded grid, only reaches the largest offset
between an output cell and a cell of rho's support (:func:`core_response_field`);
a rho that reaches opposite edges takes the full quadrant.  The same
convolution routine, :func:`convolve_same`, serves the deconvolution stage
with the full quadrant, and tr A is the ideal trace kappa_h * rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .fields import FormatError, MatrixField, ScalarField, bilinear_sample
from .kernels import KernelParams, kernel_matrix_components
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


def offset_grids(nx: int, ny: int, ex: int | None = None, ey: int | None = None):
    """Nonnegative grid offsets (i 2/nx, j 2/ny), i < ex, j < ey.

    ex and ey, the number of offsets per axis, default to the grid size.

    This is the quadrant of the kernel stencil; every kernel here is even or
    odd in each axis, so the quadrant determines it, and spectra come from
    the quadrant alone (:func:`quadrant_spectrum`): no full stencil is built
    anywhere.
    """
    return np.meshgrid(np.arange(nx if ex is None else ex) * (2.0 / nx),
                       np.arange(ny if ey is None else ey) * (2.0 / ny), indexing="ij")


def _fft_shape(nx: int, ny: int) -> tuple[int, int]:
    # an even circular size >= 2n leaves the "same" window free of
    # wraparound, and its half period is what DCT-I / DST-I work on
    return 2 * sfft.next_fast_len(nx), 2 * sfft.next_fast_len(ny)


def quadrant_spectrum(quadrant: np.ndarray, parity: float = 1.0) -> np.ndarray:
    """Half spectrum, for :func:`convolve_same`, of a stencil given by its quadrant.

    quadrant[i, j] is the stencil at offset (i, j) >= 0; parity is 1 for a
    stencil even in each axis and -1 for one odd in each.  With offset 0 at
    index (0, 0) of the even circular grid (2 mx, 2 my), the DFT of an even
    sequence is the DCT-I of its first mx+1 entries and that of an odd one
    is -i times the DST-I of entries 1..mx-1 (Martucci, IEEE TSP 42, 1994),
    so both spectra are real.  Rows mx+1.. mirror rows mx-1..1 times parity.
    """
    nx, ny = quadrant.shape
    px, py = _fft_shape(nx, ny)
    mx, my = px // 2, py // 2
    half = np.zeros((px, my + 1))
    if parity == 1.0:
        half[: mx + 1] = sfft.dctn(quadrant, type=1, s=(mx + 1, my + 1))
    elif parity == -1.0:
        if mx > 1 and my > 1:  # else a one-cell axis: the odd stencil is 0
            # (-i)^2 = -1 from the two axes
            half[1:mx, 1:my] = -sfft.dstn(quadrant[1:, 1:], type=1, s=(mx - 1, my - 1))
    else:
        raise ValueError("parity must be 1 or -1")
    half[mx + 1:] = parity * half[mx - 1:0:-1]
    return half


def _padded_spectrum(x: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Half spectrum of x zero-padded to the circular grid ``shape``."""
    return sfft.fft(sfft.rfft(x, shape[1], axis=1), shape[0], axis=0, overwrite_x=True)


def _window(product: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """The "same" window of the inverse transform of a half spectrum.

    The circular grid is the spectrum's own: its row count, and twice its
    column count less one.  Overwrites ``product``; only its nx window rows
    are transformed back.
    """
    rows = sfft.ifft(product, axis=-2, overwrite_x=True)[..., :nx, :]
    return sfft.irfft(rows, 2 * (product.shape[-1] - 1), axis=-1)[..., :ny]


def convolve_same(x: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Linear convolution of x with stencils, in the "same" window.

    out[..., i, j] = sum_ab x[a, b] k[i - a, j - b] for each stencil k whose
    :func:`quadrant_spectrum` of the full (nx, ny) quadrant is given.  Only
    the nx nonzero rows of the padded x are transformed forward, and only
    the nx window rows back.
    """
    return _window(_padded_spectrum(x, _fft_shape(*x.shape)) * spectrum, *x.shape)


def _support_extent(nonzero: np.ndarray) -> tuple[int, int]:
    """(a1, e) for an axis whose nonzero indices span [a0, a1).

    e = max(a1, n - a0) is one more than the largest |i - a| between an
    index i < n and a support index a.
    """
    idx = np.flatnonzero(nonzero)
    a1 = int(idx[-1]) + 1
    return a1, max(a1, len(nonzero) - int(idx[0]))


def core_response_field(rho: ScalarField, params: KernelParams) -> MatrixField:
    """A = K_h * rho on rho's grid; a12 and a21 share one convolution.

    rho's nonzero rows and columns span [a0, a1) x [b0, b1).  Per axis, the
    largest offset between an output cell and a support cell is e - 1 with
    e = max(a1, n - a0), so a circular grid of even size >= 2e is free of
    wraparound (Oppenheim & Schafer, linear convolution by the DFT).  k11
    and k22 are even in each axis and k12 is odd, so each stencil is
    evaluated on the quadrant of offsets 0..e-1 only, and its
    :func:`quadrant_spectrum` lies on ``_fft_shape(ex, ey)``.  rho's rows
    < a1 are transformed once; each component's product with them goes
    through one complex workspace and is written straight into its slot
    of A.  A rho that reaches opposite edges takes e = n, the grid of
    :func:`convolve_same`; an all-zero rho gives the zero field with no
    transform.  tr A = kappa_h * rho, the ideal trace, since tr K_h =
    kappa_h.
    """
    nx, ny = rho.nx, rho.ny
    nonzero = rho.values != 0
    rows = nonzero.any(axis=1)
    if not rows.any():
        return MatrixField(np.zeros((nx, ny, 2, 2)))
    (a1, ex), (b1, ey) = _support_extent(rows), _support_extent(nonzero.any(axis=0))
    k11, k12, k22 = kernel_matrix_components(*offset_grids(nx, ny, ex, ey), params)
    xhat = _padded_spectrum(rho.values[:a1, :b1], _fft_shape(ex, ey))
    work = np.empty_like(xhat)
    out = np.empty((nx, ny, 2, 2))
    for k, parity, (a, b) in ((k11, 1.0, (0, 0)), (k12, -1.0, (0, 1)), (k22, 1.0, (1, 1))):
        np.multiply(xhat, quadrant_spectrum(k, parity), out=work)
        np.multiply(_window(work, nx, ny), rho.cell_area, out=out[:, :, a, b])
    out[:, :, 1, 0] = out[:, :, 0, 1]
    return MatrixField(out)


def simulate_signal(A: MatrixField, geom: ScanGeometry) -> np.ndarray:
    """Clean signals s_l = A(r_l) v_l, with A sampled bilinearly."""
    samples = bilinear_sample(A.values, geom.positions[:, 0], geom.positions[:, 1])
    return np.einsum("lab,lb->la", samples, geom.velocities)


def add_noise(signals: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """s_l + eps*N_l with eps = fraction * max_l |s_l| (Euclidean norm).

    N_l are i.i.d. standard 2-vector normals from the seeded generator, so
    the output is a pure function of (signals, fraction, seed).
    """
    if not 0 <= fraction < np.inf:
        raise ValueError("noise fraction must be >= 0 and finite")
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
        rows = np.column_stack([g.times, g.positions, g.velocities, series.signals]).tolist()
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def read_series_csv(path: str) -> tuple[ScanSeries, float | None]:
    """Read a series CSV; returns (series, h from the metadata line or None).

    An h that is present must be positive and finite, every number must be
    finite, and every position must lie in Omega = [-1,1]^2.
    """
    h = None
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
            rows.append(line)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed number ({exc})") from exc
    if h is not None and not 0 < h < np.inf:
        raise FormatError(f"{path}: kernel width h must be positive and finite, got {h}")
    if not rows or any(line.count(",") != 6 for line in rows):
        raise FormatError(f"{path}: expected 7 columns t,rx,ry,vx,vy,sx,sy")
    try:
        # one parse of every data row; a "#" in a row is malformed, not a comment
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed number ({exc})") from exc
    if not (np.all(np.isfinite(data)) and np.isfinite(fraction)):
        raise FormatError(f"{path}: non-finite number")
    try:
        geom = ScanGeometry(data[:, 0], data[:, 1:3], data[:, 3:5])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return ScanSeries(geom, data[:, 5:7], fraction, seed), h

"""Grid containers for scalar and 2x2-matrix fields on Omega = [-1,1]^2.

Fields live on cell-centered regular grids: cell (i, j) is centered at
x_i = -1 + (2i+1)/nx, y_j = -1 + (2j+1)/ny, and ``values[i, j]`` is the
sample there (first index = x, second = y).

Image I/O uses binary PGM ``P5`` with maxval 65535 and 16-bit big-endian
samples; physical values are mapped linearly from [min, max] onto
[0, 65535] and the range is recorded in a ``<name>.range`` sidecar holding
``min max\\n``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np


class FormatError(OSError):
    """An input file that does not follow its documented format: an I/O
    error, as ``gzip.BadGzipFile`` is."""


def cell_centers(n: int) -> np.ndarray:
    """Cell-center coordinates -1 + (2i+1)/n, i = 0..n-1."""
    return -1.0 + (2.0 * np.arange(n) + 1.0) / n


@dataclass
class ScalarField:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError("ScalarField needs a 2D array with nx, ny >= 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def cell_area(self) -> float:
        return (2.0 / self.nx) * (2.0 / self.ny)

    @classmethod
    def zeros(cls, nx: int, ny: int) -> "ScalarField":
        return cls(np.zeros((nx, ny)))


@dataclass
class MatrixField:
    """2x2-matrix-valued grid field; values has shape (nx, ny, 2, 2)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 4 or self.values.shape[2:] != (2, 2):
            raise ValueError("MatrixField needs shape (nx, ny, 2, 2)")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    def trace(self) -> ScalarField:
        return ScalarField(self.values[:, :, 0, 0] + self.values[:, :, 1, 1])


def bilinear_sample(values: np.ndarray, px, py) -> np.ndarray:
    """Bilinear interpolation of a cell-centered grid at points (px, py).

    Within half a cell of the boundary the sample clamps to the nearest
    cell row/column (constant extrapolation).  Points must lie in Omega.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    if np.any(np.abs(px) > 1.0 + 1e-12) or np.any(np.abs(py) > 1.0 + 1e-12):
        raise ValueError("sample point outside Omega = [-1,1]^2")
    nx, ny = values.shape[:2]
    gx = np.clip((px + 1.0) * nx / 2.0 - 0.5, 0.0, nx - 1.0)
    gy = np.clip((py + 1.0) * ny / 2.0 - 0.5, 0.0, ny - 1.0)
    i0 = np.minimum(gx.astype(int), nx - 2) if nx > 1 else np.zeros_like(gx, dtype=int)
    j0 = np.minimum(gy.astype(int), ny - 2) if ny > 1 else np.zeros_like(gy, dtype=int)
    tx = gx - i0
    ty = gy - j0
    i1 = np.minimum(i0 + 1, nx - 1)
    j1 = np.minimum(j0 + 1, ny - 1)
    v00 = values[i0, j0]
    v10 = values[i1, j0]
    v01 = values[i0, j1]
    v11 = values[i1, j1]
    wx = tx.reshape(tx.shape + (1,) * (values.ndim - 2))
    wy = ty.reshape(ty.shape + (1,) * (values.ndim - 2))
    return ((1 - wx) * (1 - wy) * v00 + wx * (1 - wy) * v10
            + (1 - wx) * wy * v01 + wx * wy * v11)


def resample_bilinear(f: ScalarField, nx: int, ny: int) -> ScalarField:
    """Resample a field onto an nx-by-ny grid at the new cell centers."""
    xs = cell_centers(nx)
    ys = cell_centers(ny)
    px, py = np.meshgrid(xs, ys, indexing="ij")
    return ScalarField(bilinear_sample(f.values, px, py))


def _range_path(path: str) -> str:
    base, ext = os.path.splitext(path)
    return (base if ext == ".pgm" else path) + ".range"


def save_field(f: ScalarField, path: str) -> None:
    """Write 16-bit PGM + range sidecar; quantization error <= range/65535."""
    vmin = float(f.values.min())
    vmax = float(f.values.max())
    span = vmax - vmin
    if span > 0:
        raw = np.rint((f.values - vmin) / span * 65535.0).astype(np.uint16)
    else:
        raw = np.zeros_like(f.values, dtype=np.uint16)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{f.nx} {f.ny}\n65535\n".encode("ascii"))
        # raster rows run over y; transpose so the file is (ny rows) x (nx cols)
        fh.write(raw.T.astype(">u2").tobytes())
    with open(_range_path(path), "w") as fh:
        fh.write(f"{vmin!r} {vmax!r}\n")


def load_field(path: str) -> ScalarField:
    """Read a field written by :func:`save_field`."""
    with open(path, "rb") as fh:
        data = fh.read()
    # exactly one whitespace byte terminates the header; the raster may start
    # with bytes that look like whitespace, so match rather than split
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)[ \t\r\n]", data)
    if m is None:
        raise FormatError(f"{path}: not a binary P5 PGM / malformed header")
    nx, ny, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if nx < 1 or ny < 1:
        raise FormatError(f"{path}: image dimensions must be >= 1, got {nx}x{ny}")
    if maxval != 65535:
        raise FormatError(f"{path}: expected maxval 65535, got {maxval}")
    raster = data[m.end():]
    if len(raster) < 2 * nx * ny:
        raise FormatError(f"{path}: raster truncated ({len(raster)} bytes for {nx}x{ny})")
    raw = np.frombuffer(raster[: 2 * nx * ny], dtype=">u2").reshape(ny, nx).T
    try:
        with open(_range_path(path)) as fh:
            vmin_s, vmax_s = fh.read().split()
        vmin, vmax = float(vmin_s), float(vmax_s)
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: missing or malformed .range sidecar") from exc
    if not np.isfinite(vmax - vmin):  # also catches a span that overflows
        raise FormatError(f"{path}: .range sidecar must hold two finite values")
    values = vmin + raw.astype(float) / 65535.0 * (vmax - vmin)
    return ScalarField(values)

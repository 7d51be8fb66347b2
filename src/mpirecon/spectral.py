"""Tensor-product cosine eigenbasis on the square [-1,1]^2.

Modes are pairs m = (m1, m2) of non-negative integers.  The cosine family

    u_m(x, y) = c_m cos(pi m1 (x+1)/2) cos(pi m2 (y+1)/2)

is L2-orthonormal on Omega with c_m = a(m1) a(m2), a(0) = 1/sqrt(2),
a(k>=1) = 1.  Each u_m is an eigenfunction of the Neumann Laplacian with
eigenvalue mu_m = (pi^2/4)(m1^2 + m2^2) and of the Bi-Laplacian (with
enforced Neumann-zero conditions) with eigenvalue mu_m^2.

On the cell-centered grid x_i = -1 + (2i+1)/n the sampled family is also
discretely orthonormal under cell-area weights (the even-II cosine transform
kernel), so grid values and coefficients are related by an orthogonal map.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .fields import FormatError, MatrixField, ScalarField, cell_centers

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def axis_norm(k: int) -> float:
    """Per-axis normalizer a(k); the 2D constant is c_m = a(m1) a(m2)."""
    return _SQRT1_2 if k == 0 else 1.0


def cos_norm(m) -> float:
    """Normalizer c_m making the L2 norm of u_m equal 1 on [-1,1]^2."""
    m1, m2 = m
    if m1 < 0 or m2 < 0:
        raise ValueError("cosine modes need m1, m2 >= 0")
    return axis_norm(m1) * axis_norm(m2)


def cos_eval(m, x, y):
    """u_m(x, y); accepts scalars or broadcastable arrays."""
    m1, m2 = m
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = cos_norm(m) * np.cos(0.5 * np.pi * m1 * (x + 1.0)) \
        * np.cos(0.5 * np.pi * m2 * (y + 1.0))
    return out if out.ndim else float(out)


def laplace_eigenvalue(m) -> float:
    """mu_m = (pi^2/4)(m1^2 + m2^2); the Bi-Laplacian eigenvalue is mu_m^2."""
    m1, m2 = m
    if m1 < 0 or m2 < 0:
        raise ValueError("modes need m1, m2 >= 0")
    return (np.pi ** 2 / 4.0) * (m1 * m1 + m2 * m2)


def eigenvalue_grid(N: int, M: int) -> np.ndarray:
    """(N, M) array of mu_m over the truncated mode set."""
    k = np.arange(N, dtype=float) ** 2
    l = np.arange(M, dtype=float) ** 2
    return (np.pi ** 2 / 4.0) * (k[:, None] + l[None, :])


def basis_matrix_1d(n_modes: int, points: np.ndarray) -> np.ndarray:
    """Table B[k, j] = a(k) cos(pi k (p_j + 1)/2) for the 1D cosine factors."""
    points = np.asarray(points, dtype=float)
    k = np.arange(n_modes, dtype=float)
    table = np.cos(0.5 * np.pi * np.outer(k, points + 1.0))
    table[0] *= _SQRT1_2
    return table


@functools.lru_cache(maxsize=32)
def _cell_basis(n_modes: int, n: int) -> np.ndarray:
    """Read-only basis_matrix_1d(n_modes, cell_centers(n)), built once per size."""
    table = basis_matrix_1d(n_modes, cell_centers(n))
    table.flags.writeable = False
    return table


@dataclass
class CoeffTensor:
    """Truncated cosine coefficients, shape (N, M, 2, 2)."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 4 or self.coeffs.shape[2:] != (2, 2):
            raise ValueError("CoeffTensor needs shape (N, M, 2, 2)")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    @property
    def N(self) -> int:
        return self.coeffs.shape[0]

    @property
    def M(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def zeros(cls, N: int, M: int) -> "CoeffTensor":
        return cls(np.zeros((N, M, 2, 2)))


def _contract(px: np.ndarray, c: np.ndarray, py: np.ndarray) -> np.ndarray:
    """out[i, j, ...] = sum_ab px[a, i] c[a, b, ...] py[b, j], one mode axis at a time."""
    t = np.tensordot(px, c, axes=(0, 0))   # (i, b, ...)
    t = np.tensordot(t, py, axes=(1, 0))   # (i, ..., j)
    return np.moveaxis(t, -1, 1)


def synthesize_scalar(coeffs: np.ndarray, nx: int, ny: int) -> ScalarField:
    """Evaluate sum_m c_m-normalized cosine expansion at the cell centers."""
    N, M = coeffs.shape
    return ScalarField(_contract(_cell_basis(N, nx), coeffs, _cell_basis(M, ny)))


def analyze_scalar(f: ScalarField) -> np.ndarray:
    """Inverse of :func:`synthesize_scalar` with N = nx, M = ny."""
    Px, Py = _cell_basis(f.nx, f.nx), _cell_basis(f.ny, f.ny)
    return f.cell_area * _contract(Px.T, f.values, Py.T)


def synthesize(coeffs: CoeffTensor, nx: int, ny: int) -> MatrixField:
    """Matrix field A(x_i, y_j) = sum_m A_m u_m(x_i, y_j)."""
    return MatrixField(_contract(_cell_basis(coeffs.N, nx), coeffs.coeffs,
                                 _cell_basis(coeffs.M, ny)))


def analyze(field: MatrixField) -> CoeffTensor:
    """Coefficients of a matrix field; requires N = nx, M = ny (orthogonal map)."""
    nx, ny = field.nx, field.ny
    Px, Py = _cell_basis(nx, nx), _cell_basis(ny, ny)
    w = (2.0 / nx) * (2.0 / ny)
    return CoeffTensor(w * _contract(Px.T, field.values, Py.T))


_MAGIC = b"MPIC"


def save_coeffs(ct: CoeffTensor, path: str) -> None:
    """Binary format: magic MPIC, u32 version=1, u32 N, u32 M, N*M*4 f64 LE."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, ct.N, ct.M))
        fh.write(ct.coeffs.astype("<f8").tobytes())


def load_coeffs(path: str) -> CoeffTensor:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC or len(data) < 16:
        raise FormatError(f"{path}: bad magic or header, not a coefficient file")
    version, N, M = struct.unpack_from("<III", data, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    need = 16 + N * M * 4 * 8
    if len(data) < need:
        raise FormatError(f"{path}: truncated coefficient file")
    coeffs = np.frombuffer(data, dtype="<f8", count=N * M * 4, offset=16)
    return CoeffTensor(coeffs.reshape(N, M, 2, 2).copy())

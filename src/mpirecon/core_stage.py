"""Stage 1: estimate the core-response coefficients from the signal series.

The unknown is the truncated coefficient tensor A_hat in R^(N x M x 2 x 2).
The quadratic energy is

    E[A_hat] = (lambda / (2|Omega|)) sum_m w_m ||A_hat_m||_F^2
             + (1/(2L)) sum_l |s_l - sum_m u_m(r_l) A_hat_m v_l|^2

with |Omega| = 4 and per-mode weights w_m = mu_m (order 1) or mu_m^2
(order 2).  Each row of A_hat solves ((lambda/4) W + Phi^T Phi / L) x =
Phi^T s / L with the design matrix Phi[l, (m, b)] = u_m(r_l) v_l[b].  One
Cholesky factorization solves it exactly, in the 2NM primal unknowns or,
when L is smaller, in the L dual weights alpha of the smoothing-spline
representer form: (L I + (4/lambda) Phi_+ W_+^-1 Phi_+^T) alpha = s - Phi_0 x_0
with x_+ = (4/lambda) W_+^-1 Phi_+^T alpha.  The unpenalized constant mode
x_0 is split out and fixed by its 2x2 Schur complement.  The forward map
factorizes through two 1D cosine tables thanks to the tensor-product basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fields import ScalarField
from .forward import ScanSeries
from .spectral import CoeffTensor, basis_matrix_1d, eigenvalue_grid, synthesize_scalar

OMEGA_AREA = 4.0
RESIDUAL_TOL = 1e-8   # converged: the exact solve's residual is rounding only


@dataclass
class CoreProblem:
    scan: ScanSeries
    N: int = 64
    M: int = 64
    order: int = 2
    lam: float = 0.01

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ValueError("the coefficient grid needs N, M >= 1")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if len(self.scan.geometry) < 1:
            raise ValueError("scan must contain at least one sample")


@dataclass
class CoreSolution:
    coeffs: CoeffTensor
    iterations: int              # always 0: the solve is direct
    final_residual: float        # ||H A - b|| / ||b||
    energy: float
    converged: bool              # final_residual <= RESIDUAL_TOL


class CoreOperator:
    """Matrix-free forward map B, its adjoint, and the SPD system H.

    B maps coefficients to predicted signals, (B A)_l = sum_m u_m(r_l) A_m v_l.
    H A = (lambda/|Omega|) w (.) A + (1/L) B^T B A.
    """

    def __init__(self, problem: CoreProblem):
        geom = problem.scan.geometry
        self.L = len(geom)
        self.v = geom.velocities                        # (L, 2)
        self.ux = basis_matrix_1d(problem.N, geom.positions[:, 0])  # (N, L)
        self.uy = basis_matrix_1d(problem.M, geom.positions[:, 1])  # (M, L)
        mu = eigenvalue_grid(problem.N, problem.M)
        self.weights = mu if problem.order == 1 else mu * mu
        self.reg = (problem.lam / OMEGA_AREA) * self.weights        # (N, M)
        self.shape = (problem.N, problem.M, 2, 2)

    def apply_b(self, coeffs: np.ndarray) -> np.ndarray:
        """(L, 2) predicted signals from (N, M, 2, 2) coefficients."""
        N, M = self.shape[:2]
        t = (self.ux.T @ coeffs.reshape(N, M * 4)).reshape(self.L, M, 2, 2)
        s = np.einsum("ml,lmab->lab", self.uy, t)
        return np.einsum("lab,lb->la", s, self.v)

    def apply_bt(self, sig: np.ndarray) -> np.ndarray:
        """Adjoint: (N, M, k, 2) from (L, k) signals; k = 2 for one series."""
        N, M = self.shape[:2]
        outer = sig[:, :, None] * self.v[:, None, :]                # (L, k, 2)
        t = self.uy[:, :, None, None] * outer[None, :, :, :]        # (M, L, k, 2)
        t = np.swapaxes(t, 0, 1).reshape(self.L, -1)
        return (self.ux @ t).reshape(N, M, -1, 2)

    def apply_h(self, coeffs: np.ndarray) -> np.ndarray:
        out = self.reg[:, :, None, None] * coeffs
        out += self.apply_bt(self.apply_b(coeffs)) / self.L
        return out

    def rhs(self, signals: np.ndarray) -> np.ndarray:
        return self.apply_bt(signals) / self.L

    def energy(self, coeffs: np.ndarray, signals: np.ndarray) -> float:
        """Regularizer plus data fidelity of (N, M, 2, 2) coefficients."""
        resid = signals - self.apply_b(coeffs)
        reg = float(np.sum(self.reg[:, :, None, None] * coeffs ** 2)) / 2.0
        return reg + float(np.sum(resid ** 2)) / (2.0 * self.L)


def _solve_split(a, b, c, f, g):
    """Solve [[a, b], [b^T, c]] [y; z] = [f; g] for SPD a and a 2-row z.

    The 2x2 Schur complement is solved by least squares: it is singular
    when the scan's velocities do not span the plane.
    """
    fac = cho_factor(a, overwrite_a=True, check_finite=False)
    ai_b = cho_solve(fac, b, check_finite=False)
    ai_f = cho_solve(fac, f, check_finite=False)
    z = np.linalg.lstsq(c - b.T @ ai_b, g - b.T @ ai_f, rcond=None)[0]
    return ai_f - ai_b @ z, z


class CoreSystem:
    """Exact core-stage solver for the problem's geometry, N, M and order.

    The Gram matrix depends on neither lambda nor the signals, so it is
    built once; each solve() factors one SPD matrix for its lambda and takes
    every signal series as a right-hand side.  The dual (L x L) form is
    used when L < 2NM, the primal (2NM x 2NM) form otherwise.
    """

    def __init__(self, problem: CoreProblem):
        op = self.op = CoreOperator(problem)
        N, M = op.shape[:2]
        self.dual = op.L < 2 * N * M
        u = (op.ux.T[:, :, None] * op.uy.T[:, None, :]).reshape(op.L, N * M)
        if self.dual:
            # W_+^-1, with 0 at the constant mode (weight 0), which phi0 carries
            self.inv_w = 1.0 / np.where(op.weights > 0, op.weights, np.inf)
            self.phi0 = u[:, :1] * op.v                             # (L, 2)
            # Phi_+ W_+^-1 Phi_+^T = (U_+ W_+^-1 U_+^T) (.) (V V^T)
            u *= np.sqrt(self.inv_w.ravel())
            self.gram = u @ u.T
            self.gram *= op.v @ op.v.T
        else:
            phi = (u[:, :, None] * op.v[:, None, :]).reshape(op.L, 2 * N * M)
            self.gram = phi.T @ phi                                 # Phi^T Phi

    def solve(self, signals: np.ndarray, lam: float) -> np.ndarray:
        """(R, N, M, 2, 2) minimizers for R signal series of shape (L, 2)."""
        if not lam > 0:
            raise ValueError("lambda must be positive")
        op = self.op
        N, M = op.shape[:2]
        s = np.concatenate(list(signals), axis=1)       # (L, 2R), column 2r + a
        if self.dual:
            # gram is symmetric; its Fortran-ordered transpose is factored in place
            g = (4.0 / lam) * self.gram.T
            g[np.diag_indices_from(g)] += op.L
            alpha, const = _solve_split(g, self.phi0, np.zeros((2, 2)), s, np.zeros_like(s[:2]))
            x = (4.0 / lam) * self.inv_w[:, :, None, None] * op.apply_bt(alpha)
            x[0, 0] = const.T
            return np.moveaxis(x.reshape(N, M, -1, 2, 2), 2, 0)
        # primal unknowns are rows (mode, b)
        h = self.gram / op.L
        h[np.diag_indices_from(h)] += (lam / OMEGA_AREA) * np.repeat(op.weights.ravel(), 2)
        b = np.swapaxes(op.rhs(s), 2, 3).reshape(2 * N * M, -1)
        xp, const = _solve_split(h[2:, 2:], h[2:, :2], h[:2, :2], b[2:], b[:2])
        return np.concatenate([const, xp]).reshape(N, M, 2, -1, 2).transpose(3, 0, 1, 4, 2)


def predict(coeffs: CoeffTensor, scan: ScanSeries) -> np.ndarray:
    """Predicted signals p_l = sum_m u_m(r_l) (A_m v_l); linear in coeffs."""
    problem = CoreProblem(scan, N=coeffs.N, M=coeffs.M, lam=1.0)
    return CoreOperator(problem).apply_b(coeffs.coeffs)


def energy(coeffs: CoeffTensor, problem: CoreProblem) -> float:
    """Regularizer plus data fidelity."""
    return CoreOperator(problem).energy(coeffs.coeffs, problem.scan.signals)


def gradient(coeffs: CoeffTensor, problem: CoreProblem) -> CoeffTensor:
    """grad E (the system whose root solve_core finds)."""
    op = CoreOperator(problem)
    resid = problem.scan.signals - op.apply_b(coeffs.coeffs)
    g = op.reg[:, :, None, None] * coeffs.coeffs
    g -= op.apply_bt(resid) / op.L
    return CoeffTensor(g)


def solve_core(problem: CoreProblem) -> CoreSolution:
    """Minimize the energy exactly: one Gram build and one Cholesky solve.

    Reports the relative normal-equation residual and the energy.
    """
    system = CoreSystem(problem)
    op, s = system.op, problem.scan.signals
    x = system.solve(s[None], problem.lam)[0]
    b = op.rhs(s)
    resid = float(np.linalg.norm(op.apply_h(x) - b)) / (float(np.linalg.norm(b)) or 1.0)
    return CoreSolution(CoeffTensor(x), 0, resid, op.energy(x, s),
                        resid <= RESIDUAL_TOL)


def trace_field(coeffs: CoeffTensor, nx: int, ny: int) -> ScalarField:
    """u = trace(A) synthesized on the (nx, ny) cell-centered grid."""
    tr = coeffs.coeffs[:, :, 0, 0] + coeffs.coeffs[:, :, 1, 1]
    return synthesize_scalar(tr, nx, ny)

"""Stage 1: estimate the core-response coefficients from the signal series.

The unknown is the truncated coefficient tensor A_hat in R^(N x M x 2 x 2).
The quadratic energy is

    E[A_hat] = (lambda / (2|Omega|)) sum_m w_m ||A_hat_m||_F^2
             + (1/(2L)) sum_l |s_l - sum_m u_m(r_l) A_hat_m v_l|^2

with |Omega| = 4 and per-mode weights w_m = mu_m (order 1) or mu_m^2
(order 2).  Each row of A_hat solves ((lambda/4) W + Phi^T Phi / L) x =
Phi^T s / L with the design matrix Phi[l, (m, b)] = u_m(r_l) v_l[b].

Samples at one position with parallel or antiparallel velocities give
design rows that differ only by a signed scale, v_l = c_l v_g.  Such a group
is merged into one row u(r_g) (x) (||c_g|| v_g) with signal
sum_l c_l s_l / ||c_g||; this keeps Phi^T Phi and Phi^T s, hence the
minimizer.  The cosine-phase Lissajous curve is time-reversal symmetric,
r(1 - t) = r(t) and v(1 - t) = -v(t), so its samples pair up: an L-sample
scan (L even) keeps K = L/2 + 1 rows, since the samples at t = 0 and t = 1/2
are their own mirror images.

One Cholesky factorization solves the merged system exactly, in the 2NM
primal unknowns or, when K is smaller, in the K dual weights alpha of the
smoothing-spline representer form:
(L I + (4/lambda) Phi_+ W_+^-1 Phi_+^T) alpha = s - Phi_0 x_0 with
x_+ = (4/lambda) W_+^-1 Phi_+^T alpha.  The unpenalized constant mode x_0 is
split out and fixed by its 2x2 Schur complement.  The forward map
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
MERGE_TOL = 1e-12     # positions and velocity directions this close share a design row


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
        self.weights = _mode_weights(problem)
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
        return _adjoint(self.ux, self.uy, self.v, sig)

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


def _mode_weights(problem: CoreProblem) -> np.ndarray:
    """(N, M) regularizer weights w_m: mu_m (order 1) or mu_m^2 (order 2)."""
    mu = eigenvalue_grid(problem.N, problem.M)
    return mu if problem.order == 1 else mu * mu


def _adjoint(ux: np.ndarray, uy: np.ndarray, v: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """(N, M, k, 2) = sum_l u(r_l) (x) sig_l (x) v_l for (L, k) signals."""
    outer = sig[:, :, None] * v[:, None, :]                         # (L, k, 2)
    t = uy[:, :, None, None] * outer[None, :, :, :]                 # (M, L, k, 2)
    t = np.swapaxes(t, 0, 1).reshape(len(v), -1)
    return (ux @ t).reshape(len(ux), len(uy), -1, 2)


def _runs(values: np.ndarray):
    """Cluster values into runs of sorted neighbours at most MERGE_TOL apart.

    Returns each value's run index, with runs numbered in increasing order,
    and each run's smallest value.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = np.diff(ordered) > MERGE_TOL
    run = np.empty(len(values), dtype=int)
    run[order] = np.cumsum(new) - 1
    return run, ordered[new]


def _parallel_rows(positions: np.ndarray, velocities: np.ndarray):
    """Group samples whose design rows differ only by a signed scale.

    Moving samples whose x-values share a run and whose y-values share a run
    (_runs) form a cluster.  In turn, the first ungrouped sample of each
    cluster becomes a representative r, and every ungrouped sample of the
    cluster within MERGE_TOL of r's position whose velocity is parallel or
    antiparallel to v_r (to MERGE_TOL) joins it.  A missed merge costs time,
    never accuracy.  Returns (reps, group, c): the K representatives in
    sample order, each sample's group index and its scale
    c_l = v_l . v_r / |v_r|^2 (1 at r, and at a sample that does not move).
    """
    L = len(positions)
    rep = np.arange(L)
    todo = np.flatnonzero(np.hypot(*velocities.T) > 0)
    (x_run, _), (y_run, _) = (_runs(p) for p in positions[todo].T)
    cluster = np.unique(x_run * len(todo) + y_run, return_inverse=True)[1]
    first = np.empty(len(todo), dtype=int)
    while len(todo):
        first.fill(L)
        np.minimum.at(first, cluster, todo)
        r = first[cluster]
        v, vr = velocities[todo], velocities[r]
        same = (np.max(np.abs(positions[todo] - positions[r]), axis=1) <= MERGE_TOL) & \
            (np.abs(v[:, 0] * vr[:, 1] - v[:, 1] * vr[:, 0])
             <= MERGE_TOL * np.hypot(*v.T) * np.hypot(*vr.T))
        rep[todo[same]] = r[same]
        todo, cluster = todo[~same], cluster[~same]
    reps, group = np.unique(rep, return_inverse=True)
    c = np.ones(L)
    joined = rep != np.arange(L)
    c[joined] = (np.sum(velocities[joined] * velocities[rep[joined]], axis=1)
                 / np.sum(velocities[rep[joined]] ** 2, axis=1))
    return reps, group, c


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


def _dual_gram(xa: np.ndarray, ya: np.ndarray, iy: np.ndarray, v: np.ndarray,
               inv_w: np.ndarray) -> np.ndarray:
    """Lower triangle of the dual Gram (U W^-1 U^T) (.) (V V^T), rows sorted by y.

    Row i has the x-factors xa[i] (N) and the y-value iy[i] (nondecreasing)
    of the D distinct y-values, whose factors are the rows of ya (D, M).
    With R_m1[c, b] = sum_m2 ya[c, m2] inv_w[m1, m2] ya[b, m2],
    G_ij = (v_i . v_j) sum_m1 xa[i, m1] xa[j, m1] R_m1[iy_i, iy_j].  The rows
    of y-value c take one GEMM against every row of a y-value up to c, so
    the build costs about N M D^2 / 2 + K^2 N / 2 multiply-adds.  The
    entries above the diagonal blocks stay zero.
    """
    K = len(xa)
    ends = np.searchsorted(iy, np.arange(len(ya)), side="right")
    gram = np.zeros((K, K))
    start = 0
    for c, end in enumerate(ends):
        r = ya[:c + 1] @ (ya[c, :, None] * inv_w.T)          # R_m1[c, b] at [b, m1]
        q = r[iy[:end]] * xa[:end]
        block = xa[start:end] @ q.T
        block *= v[start:end] @ v[:end].T
        gram[start:end, :end] = block
        start = end
    return gram


class CoreSystem:
    """Exact core-stage solver for the problem's geometry, N, M and order.

    The design rows are merged first (_parallel_rows), so the system has one
    row per distinct (position, velocity direction): K rows for L samples.
    Each coordinate axis is then snapped to its distinct values (_runs): the
    Lissajous samples lie on a tensor grid of cosine nodes, so the 1D cosine
    tables are evaluated once per distinct value, and the rows, ordered by
    y-value, enter the dual Gram per distinct y-value (_dual_gram).  The
    Gram matrix depends on neither lambda nor the signals, so it is built
    once; each solve() factors one SPD matrix for its lambda and takes every
    signal series as a right-hand side.  The dual (K x K) form is used when
    K < 2NM, the primal (2NM x 2NM) form otherwise.
    """

    def __init__(self, problem: CoreProblem):
        N, M = self.N, self.M = problem.N, problem.M
        geom = problem.scan.geometry
        self.L = len(geom)
        self.weights = _mode_weights(problem)
        positions, velocities = geom.positions, geom.velocities
        reps, group, c = _parallel_rows(positions, velocities)
        (ix, xs), (iy, ys) = (_runs(p) for p in positions[reps].T)
        order = np.lexsort((ix, iy))            # rows by y-value, then x-value
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.group = rank[group]
        reps, ix, iy = reps[order], ix[order], iy[order]
        norm = np.sqrt(np.bincount(self.group, c * c))
        self.scale = c / norm[self.group]       # merged s_g = sum_l scale_l s_l
        self.xs, self.ys = xs, ys               # the distinct coordinate values
        xtab, ytab = basis_matrix_1d(N, xs), basis_matrix_1d(M, ys)
        self.ux, self.uy = xtab[:, ix], ytab[:, iy]
        self.v = norm[:, None] * velocities[reps]                   # (K, 2)
        self.K = len(reps)
        self.dual = self.K < 2 * N * M
        if self.dual:
            # W_+^-1, with 0 at the constant mode (weight 0), which phi0 carries
            self.inv_w = 1.0 / np.where(self.weights > 0, self.weights, np.inf)
            self.phi0 = (self.ux[0] * self.uy[0])[:, None] * self.v   # (K, 2)
            # Phi_+ W_+^-1 Phi_+^T, on and below the diagonal
            self.gram = _dual_gram(xtab.T[ix], ytab.T, iy, self.v, self.inv_w)
        else:
            u = (self.ux.T[:, :, None] * self.uy.T[:, None, :]).reshape(self.K, N * M)
            phi = (u[:, :, None] * self.v[:, None, :]).reshape(self.K, 2 * N * M)
            self.gram = phi.T @ phi                                 # Phi^T Phi

    def solve(self, signals: np.ndarray, lam: float) -> np.ndarray:
        """(R, N, M, 2, 2) minimizers for R signal series of shape (L, 2)."""
        if not lam > 0:
            raise ValueError("lambda must be positive")
        N, M = self.N, self.M
        s = np.zeros((self.K, 2 * len(signals)))        # column 2r + a
        np.add.at(s, self.group, self.scale[:, None] * np.concatenate(list(signals), axis=1))
        if self.dual:
            # the Cholesky reads gram's lower triangle: the upper one of its
            # Fortran-ordered transpose, factored in place
            g = (4.0 / lam) * self.gram.T
            g[np.diag_indices_from(g)] += self.L
            alpha, const = _solve_split(g, self.phi0, np.zeros((2, 2)), s, np.zeros_like(s[:2]))
            x = _adjoint(self.ux, self.uy, self.v, alpha)
            x *= (4.0 / lam) * self.inv_w[:, :, None, None]
            x[0, 0] = const.T
            return np.moveaxis(x.reshape(N, M, -1, 2, 2), 2, 0)
        # primal unknowns are rows (mode, b)
        h = self.gram / self.L
        h[np.diag_indices_from(h)] += (lam / OMEGA_AREA) * np.repeat(self.weights.ravel(), 2)
        b = np.swapaxes(_adjoint(self.ux, self.uy, self.v, s) / self.L, 2, 3).reshape(2 * N * M, -1)
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

    Reports the relative residual of the unmerged normal equations and the
    energy.
    """
    s = problem.scan.signals
    x = CoreSystem(problem).solve(s[None], problem.lam)[0]
    op = CoreOperator(problem)
    b = op.rhs(s)
    resid = float(np.linalg.norm(op.apply_h(x) - b)) / (float(np.linalg.norm(b)) or 1.0)
    return CoreSolution(CoeffTensor(x), 0, resid, op.energy(x, s),
                        resid <= RESIDUAL_TOL)


def trace_field(coeffs: CoeffTensor, nx: int, ny: int) -> ScalarField:
    """u = trace(A) synthesized on the (nx, ny) cell-centered grid."""
    tr = coeffs.coeffs[:, :, 0, 0] + coeffs.coeffs[:, :, 1, 1]
    return synthesize_scalar(tr, nx, ny)

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
split out and fixed by its 2x2 Schur complement.  Both forms and the
unmerged reference operator share one design map B and its adjoint.

Each cosine is even or odd under the reflections x -> -x and y -> -y of
Omega, so the kernel sum_m u_m(r) u_m(r') / w_m is invariant under them, under
the half turn, and, when N = M, under the swaps (x, y) -> (+-y, +-x).  When
such a map g(r) = J r sends every merged row onto a row, position to position
and v to s J v with a sign s, the dual Gram commutes with that signed row
permutation, and the dual system splits into an even and an odd sector of
about K/2 rows each (symmetry-adapted bases; Allgower, Boehmer, Georg &
Miranda, SIAM J. Numer. Anal. 29, 1992).  A scan without such a map keeps
one sector.
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
# the maps g(r) = J r of the square under which the kernel is invariant, and
# whether g needs N = M (the swaps exchange the mode indices)
SQUARE_MAPS = ((np.diag([-1.0, 1.0]), False),                 # x -> -x
               (np.diag([1.0, -1.0]), False),                 # y -> -y
               (-np.eye(2), False),                           # half turn
               (np.array([[0.0, 1.0], [1.0, 0.0]]), True),    # swap
               (np.array([[0.0, -1.0], [-1.0, 0.0]]), True))  # anti-swap


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
        if not 0 < self.lam < np.inf:
            raise ValueError("lambda must be positive and finite")
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

    B maps coefficients to predicted signals, (B A)_l = sum_m u_m(r_l) A_m v_l,
    on the scan's own, unmerged samples (_Design).
    H A = (lambda/|Omega|) w (.) A + (1/L) B^T B A.
    """

    def __init__(self, problem: CoreProblem):
        geom = problem.scan.geometry
        self.L = len(geom)
        self.design = _Design(problem.N, problem.M, [_runs(p) for p in geom.positions.T],
                              geom.velocities)
        self.weights = _mode_weights(problem)
        self.reg = (problem.lam / OMEGA_AREA) * self.weights        # (N, M)

    def apply_b(self, coeffs: np.ndarray) -> np.ndarray:
        """(L, 2) predicted signals from (N, M, 2, 2) coefficients."""
        return self.design.forward(coeffs)

    def apply_bt(self, sig: np.ndarray) -> np.ndarray:
        """Adjoint: (N, M, k, 2) from (L, k) signals; k = 2 for one series."""
        return self.design.adjoint(sig)

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


class _Design:
    """The design map (B A)_l = sum_m u_m(r_l) A_m v_l of rows (r_l, v_l), and B^T.

    Each coordinate axis is snapped to its distinct values (_runs): the
    Lissajous samples lie on a tensor grid of cosine nodes (Erb, Kaethner,
    Ahlborg & Buzug, Numer. Math. 133, 2016), so the 1D cosine tables xtab
    (N, Dx) and ytab (M, D) are evaluated once per distinct value, and row l
    sits at (xs[ix_l], ys[iy_l]).  B and B^T go one axis at a time (sum
    factorization; Orszag, J. Comput. Phys. 37, 1980): GEMMs against ytab
    for the y-axis, and per y-value one GEMM of its rows against their
    x-table columns, batched over the values with as many rows.  A stable
    argsort of iy gathers each value's rows, so they may come in any order.
    ``runs`` holds _runs of the rows' x-values, then of their y-values.
    """

    def __init__(self, N: int, M: int, runs, v: np.ndarray):
        (self.ix, self.xs), (self.iy, self.ys) = runs
        self.xtab, self.ytab = basis_matrix_1d(N, self.xs), basis_matrix_1d(M, self.ys)
        self.v = v                                                  # (rows, 2)
        counts = np.bincount(self.iy)
        first = np.cumsum(counts) - counts
        by_y = np.argsort(self.iy, kind="stable")
        self.batches = []                   # (values, their rows, x-tables)
        for n in np.unique(counts):
            values = np.flatnonzero(counts == n)
            rows = by_y[first[values][:, None] + np.arange(n)]
            self.batches.append((values, rows, np.ascontiguousarray(
                self.xtab.T[self.ix[rows]].transpose(0, 2, 1))))

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """(rows, 2) predicted signals from (N, M, 2, 2) coefficients."""
        N, M = coeffs.shape[:2]
        a = coeffs.swapaxes(0, 1).reshape(M, -1)
        p = np.empty((len(self.v), 4))
        for values, rows, x_tables in self.batches:
            t = (self.ytab.T[values] @ a).reshape(-1, N, 4)
            p[rows] = x_tables.transpose(0, 2, 1) @ t
        return np.einsum("lab,lb->la", p.reshape(-1, 2, 2), self.v)

    def adjoint(self, sig: np.ndarray) -> np.ndarray:
        """(N, M, k, 2) = sum_l u(r_l) (x) sig_l (x) v_l for (rows, k) weights."""
        outer = (sig[:, :, None] * self.v[:, None, :]).reshape(len(sig), -1)   # (rows, 2k)
        z = np.empty((len(self.ys), len(self.xtab), outer.shape[1]))
        for values, rows, x_tables in self.batches:
            z[values] = x_tables @ outer[rows]
        x = self.ytab @ z.reshape(len(z), -1)
        return x.reshape(len(self.ytab), len(self.xtab), -1, 2).swapaxes(0, 1)


def _parallel_rows(positions: np.ndarray, velocities: np.ndarray):
    """Group samples whose design rows differ only by a signed scale.

    Moving samples whose x-values share a run and whose y-values share a run
    (_runs) form a cluster.  In turn, the first ungrouped sample of each
    cluster becomes a representative r, and every ungrouped sample of the
    cluster within MERGE_TOL of r's position whose velocity is parallel or
    antiparallel to v_r (to MERGE_TOL) joins it.  A missed merge costs time,
    never accuracy.  A sample whose speed is at most MERGE_TOL times the
    scan's largest speed does not move: it stays alone, with scale 0, so its
    design row is zero (the preset corner samples have speeds ~1e-14, and a
    direction made of rounding noise).  Returns (reps, group, c): the K
    representatives in sample order, each sample's group index and its scale
    c_l = v_l . v_r / |v_r|^2 (1 at r, 0 at a sample that does not move).
    """
    L = len(positions)
    rep = np.arange(L)
    speed = np.hypot(*velocities.T)
    moving = speed > MERGE_TOL * np.max(speed, initial=0.0)
    todo = np.flatnonzero(moving)
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
    c = moving.astype(float)
    joined = rep != np.arange(L)
    c[joined] = (np.sum(velocities[joined] * velocities[rep[joined]], axis=1)
                 / np.sum(velocities[rep[joined]] ** 2, axis=1))
    return reps, group, c


def _solve_split(blocks, c, g):
    """Solve [[a, b], [b^T, c]] [y; z] = [f; g] for block-diagonal SPD a and a 2-row z.

    blocks holds (a_k, [f_k, b_k]) for the diagonal blocks a_k of a, with the
    matching rows of f and b side by side (b_k is the last two columns).
    Each a_k is Fortran-ordered and read through its lower triangle, the
    layout OpenBLAS factors fastest; it is factored in place and solves for
    f_k and b_k at once.  The 2x2 Schur complement c - b^T a^-1 b is solved
    by least squares: it is singular when the scan's velocities do not span
    the plane.  Returns the row blocks y_k of y, and z.
    """
    sols = [cho_solve(cho_factor(a, lower=True, overwrite_a=True, check_finite=False), fb,
                      check_finite=False) for a, fb in blocks]
    bt = [fb[:, -2:].T for _, fb in blocks]
    schur = c - sum(b @ sol[:, -2:] for b, sol in zip(bt, sols))
    z = np.linalg.lstsq(schur, g - sum(b @ sol[:, :-2] for b, sol in zip(bt, sols)),
                        rcond=None)[0]
    return [sol[:, :-2] - sol[:, -2:] @ z for sol in sols], z


def _mirror_rows(d: _Design, J: np.ndarray):
    """Pair the rows under g(r) = J r: (partner, sign), or None if g does not map.

    The rows of d are ordered by (iy, ix).  Row p is row r's image when p's
    values are those of J r_r to MERGE_TOL and v_p = s_r J v_r to MERGE_TOL
    times the largest speed, with s_r = +-1.  A zero row is its own image
    with sign +1: its Gram row is zero, so every map keeps it.  g maps when
    every row has an image and the images pair the rows up: partner[partner]
    = identity with equal signs (a row may be its own image).
    """
    values, index, v, image = (d.xs, d.ys), (d.ix, d.iy), d.v, []
    for axis in (0, 1):                 # J is a signed permutation
        src = int(np.flatnonzero(J[axis])[0])
        want, have = J[axis, src] * values[src], values[axis]
        at = np.minimum(np.searchsorted(have, want - MERGE_TOL), len(have) - 1)
        image.append(np.where(np.abs(have[at] - want) <= MERGE_TOL, at, -1)[index[src]])
    K, moving = len(v), np.any(v, axis=1)
    key = d.iy * len(d.xs) + d.ix                   # nondecreasing
    image_key = np.where(np.minimum(*image) < 0, -1, image[1] * len(d.xs) + image[0])
    first = np.searchsorted(key, image_key, side="left")
    stop = np.searchsorted(key, image_key, side="right")
    if np.any(moving & (first == stop)):           # a position without an image
        return None
    v_image = v @ J.T
    tol = MERGE_TOL * np.max(np.hypot(*v.T), initial=0.0)
    partner, sign = np.where(moving, -1, np.arange(K)), np.ones(K)
    for k in range(int(np.max(stop - first, initial=0))):
        cand = np.minimum(first + k, K - 1)
        plus = np.max(np.abs(v[cand] - v_image), axis=1) <= tol
        minus = np.max(np.abs(v[cand] + v_image), axis=1) <= tol
        hit = (partner < 0) & (first + k < stop) & (plus | minus)
        partner[hit], sign[hit] = cand[hit], np.where(plus[hit], 1.0, -1.0)
    if np.any(partner < 0) or np.any(partner[partner] != np.arange(K)) \
            or np.any(sign[partner] != sign):
        return None
    return partner, sign


def _dual_gram(xa: np.ndarray, ya: np.ndarray, iy: np.ndarray, v: np.ndarray,
               inv_w: np.ndarray, image: tuple, minus: np.ndarray) -> np.ndarray:
    """Lower triangle of the dual Gram (U W^-1 U^T) (.) (V V^T) of the rows,
    split on the first P rows by the cross Gram against P image rows.

    Row i has the x-factors xa[i] (N), the index iy[i] of its y-value among
    the D distinct y-values, whose factors are the rows of ya (D, M), and the
    velocity v[i].  With R_m1[c, b] = sum_m2 ya[c, m2] inv_w[m1, m2] ya[b, m2],
    G_ij = (v_i . v_j) sum_m1 xa[i, m1] xa[j, m1] R_m1[iy_i, iy_j].  image
    holds (xa, iy, v) of P further rows, and C_ij = G(row i, image j) for
    i, j < P, which is symmetric as the map keeps the kernel.  Returns G
    with G + C on its first P rows and columns; minus receives G - C there.
    The rows come in groups, the first P rows being one, each sorted by
    y-value; every run of rows at one y-value c takes
    one GEMM against each row from the run's start on, and a run among the
    first P rows one more against their images.  That fills G's lower
    triangle by column blocks.  Without images it is about
    N M D^2 / 2 + K^2 N / 2 multiply-adds.  The entries above the diagonal
    runs stay zero.  G is Fortran-ordered, and minus must be: each column
    block is then one long contiguous write, and the factorization reads
    their lower triangles in place (_solve_split).
    """
    xb, ib, vb = image
    K, P = len(xa), len(xb)
    ends = np.append(np.flatnonzero((np.diff(iy) != 0) | (np.arange(1, K) == P)) + 1, K)
    low = np.minimum.accumulate(np.concatenate([np.minimum(iy[:P], ib), iy[P:]])[::-1])[::-1]
    gram = np.zeros((K, K), order="F")
    start = 0
    for end in ends:
        # R_m1[c, b] at [b - b0, m1], for every y-value b >= b0 the rows reach
        b0 = low[start]
        r = ya[b0:] @ (ya[iy[start], :, None] * inv_w.T)
        block = (r[iy[start:] - b0] * xa[start:]) @ xa[start:end].T
        block *= v[start:] @ v[start:end].T
        if end <= P:
            cross = (r[ib[start:] - b0] * xb[start:]) @ xa[start:end].T
            cross *= vb[start:] @ v[start:end].T
            np.subtract(block[:P - start], cross, out=minus[start:P, start:end])
            block[:P - start] += cross
        gram[start:, start:end] = block
        start = end
    return gram


class CoreSystem:
    """Exact core-stage solver for the problem's geometry, N, M and order.

    The design rows are merged first (_parallel_rows), so the system has one
    row per distinct (position, velocity direction): K rows for L samples.
    Ordered by y-value, then x-value, they form the design map (_Design)
    and enter the dual Gram per distinct y-value.  The Gram matrix depends
    on neither lambda nor the signals, so it is built once.  solver(signals)
    prepares the signals' right-hand sides once, and each lambda then costs
    one factorization with every signal series as a right-hand side.  The
    dual (K x K) form is used when K < 2NM, the primal (2NM x 2NM) form
    otherwise.  Both store their matrices in Fortran order and factor the
    lower triangle, the layout OpenBLAS factors fastest.

    The dual system is split into sectors.  The first of SQUARE_MAPS that
    pairs the rows (_mirror_rows) gives P pairs (r, p) with sign s_r and
    some fixed rows p = r.  The basis (e_r +- s_r e_p)/sqrt(2), plus e_f for
    each fixed row f in the sector of its sign, makes the Gram block
    diagonal: G_+- = G_AA +- G_{A,g(A)} diag(s) on the pairs, sqrt(2) G_fA
    between a fixed row and the pairs, and G_ff among the fixed rows.  Each
    solve factors the sectors separately and couples them only through the
    constant mode's 2x2 Schur complement.  Without a map every row is fixed
    with sign +1: one sector, the plain dual system.
    """

    def __init__(self, problem: CoreProblem):
        N, M = self.N, self.M = problem.N, problem.M
        geom = problem.scan.geometry
        self.L = len(geom)
        self.weights = _mode_weights(problem)
        positions, velocities = geom.positions, geom.velocities
        reps, group, c = _parallel_rows(positions, velocities)
        runs = [_runs(p) for p in positions[reps].T]
        (ix, _), (iy, _) = runs
        order = np.lexsort((ix, iy))            # rows by y-value, then x-value
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.group = rank[group]
        reps = reps[order]
        norm = np.sqrt(np.bincount(self.group, c * c))
        # merged s_g = sum_l scale_l s_l; 0 for a sample that does not move
        self.scale = c / np.where(norm > 0, norm, 1.0)[self.group]
        # reordering the rows keeps their runs: only the run indices move
        d = self.design = _Design(N, M, [(i[order], values) for i, values in runs],
                                  norm[:, None] * velocities[reps])
        self.xs, self.ys, self.v, self.K = d.xs, d.ys, d.v, len(reps)
        self.dual = self.K < 2 * N * M
        if self.dual:
            # W_+^-1, with 0 at the constant mode (weight 0), which phi0 carries
            self.inv_w = 1.0 / np.where(self.weights > 0, self.weights, np.inf)
            self.phi0 = (d.xtab[0, d.ix] * d.ytab[0, d.iy])[:, None] * self.v   # (K, 2)
            self._split()
        else:
            u = (d.xtab.T[d.ix, :, None] * d.ytab.T[d.iy, None, :]).reshape(self.K, N * M)
            phi = (u[:, :, None] * self.v[:, None, :]).reshape(self.K, 2 * N * M)
            # Phi^T Phi is symmetric: its transpose is a Fortran-ordered view
            self.normal = (phi.T @ phi).T

    def _split(self):
        """Find the scan's map g and build the lower triangle of each sector."""
        d, K = self.design, self.K
        self.symmetry, partner, sign = None, np.arange(K), np.ones(K)
        for J, square in SQUARE_MAPS:
            pairing = None if square and self.N != self.M else _mirror_rows(d, J)
            if pairing is not None:
                self.symmetry, (partner, sign) = J, pairing
                break
        rows = np.arange(K)
        self.pair_rows = np.flatnonzero(partner > rows)     # the first row of each pair
        self.pair_images = partner[self.pair_rows]
        self.pair_sign = sign[self.pair_rows]
        fixed = np.flatnonzero(partner == rows)
        fixed = [fixed[sign[fixed] > 0], fixed[sign[fixed] < 0]]
        # the pairs, then each sector's fixed rows; every group by y-value
        ordered = np.concatenate([self.pair_rows, *fixed])
        images = self.pair_images
        P, n_plus = len(images), len(images) + len(fixed[0])
        minus = np.zeros((P + len(fixed[1]),) * 2, order="F")
        gram = _dual_gram(d.xtab.T[d.ix[ordered]], d.ytab.T, d.iy[ordered], d.v[ordered],
                          self.inv_w, (d.xtab.T[d.ix[images]], d.iy[images],
                                       self.pair_sign[:, None] * d.v[images]), minus)
        minus[P:, :P] = gram[n_plus:, :P]
        minus[P:, P:] = gram[n_plus:, n_plus:]
        self.sectors = []                               # (sign, fixed rows, Gram block)
        for sigma, rows_f, block in ((1.0, fixed[0], gram[:n_plus, :n_plus]),
                                     (-1.0, fixed[1], minus)):
            block[P:, :P] *= np.sqrt(2.0)
            if len(block):
                self.sectors.append((sigma, rows_f, block))

    @property
    def gram(self) -> np.ndarray:
        """The dual Gram Phi_+ W_+^-1 Phi_+^T in row order, assembled from the
        sector blocks; for checks only, as no solve needs it."""
        full = np.zeros((self.K, self.K))
        P = len(self.pair_rows)
        for sigma, fixed, block in self.sectors:
            basis = np.zeros((self.K, len(block)))
            basis[self.pair_rows, np.arange(P)] = 1.0 / np.sqrt(2.0)
            basis[self.pair_images, np.arange(P)] = sigma * self.pair_sign / np.sqrt(2.0)
            basis[fixed, np.arange(P, len(block))] = 1.0
            full += basis @ (np.tril(block) + np.tril(block, -1).T) @ basis.T
        return full

    def solver(self, signals: np.ndarray):
        """A function lam -> the (R, N, M, 2, 2) minimizers for R signal series
        of shape (L, 2).

        The merged signals and the right-hand sides in each sector's basis do
        not depend on lambda, so they are formed here, once; each call
        factors the system for its lambda.
        """
        N, M = self.N, self.M
        s = np.zeros((self.K, 2 * len(signals)))        # column 2r + a
        np.add.at(s, self.group, self.scale[:, None] * np.concatenate(list(signals), axis=1))
        if not self.dual:
            # primal unknowns are rows (mode, b)
            weights = np.repeat(self.weights.ravel(), 2)
            b = np.swapaxes(self.design.adjoint(s) / self.L, 2, 3).reshape(2 * N * M, -1)
            fb = np.concatenate([b[2:], self.normal[2:, :2] / self.L], axis=1)

            def primal(lam: float) -> np.ndarray:
                _check_lambda(lam)
                reg = (lam / OMEGA_AREA) * weights
                h, c = self.normal[2:, 2:] / self.L, self.normal[:2, :2] / self.L
                h[np.diag_indices_from(h)] += reg[2:]          # Fortran-ordered, as normal
                c[np.diag_indices_from(c)] += reg[:2]
                (xp,), const = _solve_split([(h, fb)], c, b[:2])
                x = np.concatenate([const, xp])
                return x.reshape(N, M, 2, -1, 2).transpose(3, 0, 1, 4, 2)

            return primal
        # the signals' columns, then phi0's two, in each sector's basis
        rhs = np.concatenate([s, self.phi0], axis=1)
        first, second = rhs[self.pair_rows], self.pair_sign[:, None] * rhs[self.pair_images]
        sector_rhs = [np.concatenate([(first + sigma * second) / np.sqrt(2.0), rhs[fixed]])
                      for sigma, fixed, _ in self.sectors]
        P = len(self.pair_rows)

        def dual(lam: float) -> np.ndarray:
            _check_lambda(lam)
            blocks = []
            for (_, _, gram), fb in zip(self.sectors, sector_rhs):
                g = (4.0 / lam) * gram                  # keeps gram's Fortran order
                g[np.diag_indices_from(g)] += self.L
                blocks.append((g, fb))
            parts, const = _solve_split(blocks, np.zeros((2, 2)), np.zeros((2, s.shape[1])))
            # back to the rows
            alpha = np.empty_like(s)
            alpha[self.pair_rows] = sum(y[:P] for y in parts) / np.sqrt(2.0)
            alpha[self.pair_images] = self.pair_sign[:, None] / np.sqrt(2.0) * sum(
                sigma * y[:P] for (sigma, _, _), y in zip(self.sectors, parts))
            for (_, fixed, _), y in zip(self.sectors, parts):
                alpha[fixed] = y[P:]
            x = self.design.adjoint(alpha)
            x *= (4.0 / lam) * self.inv_w[:, :, None, None]
            x[0, 0] = const.T
            return np.moveaxis(x.reshape(N, M, -1, 2, 2), 2, 0)

        return dual

    def solve(self, signals: np.ndarray, lam: float) -> np.ndarray:
        """(R, N, M, 2, 2) minimizers for R signal series of shape (L, 2)."""
        return self.solver(signals)(lam)


def _check_lambda(lam: float) -> None:
    if not 0 < lam < np.inf:
        raise ValueError("lambda must be positive and finite")


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

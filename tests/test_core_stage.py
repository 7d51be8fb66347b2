import numpy as np
import pytest

from mpirecon.core_stage import (CoreOperator, CoreProblem, CoreSystem, energy,
                                 gradient, predict, solve_core, trace_field)
from mpirecon.forward import ScanSeries
from mpirecon.spectral import (CoeffTensor, basis_matrix_1d, cos_eval, eigenvalue_grid,
                               synthesize)
from mpirecon.trajectory import LissajousSpec, ScanGeometry, make_scan, merge_scans, rotate_scan


def small_series(L=50, seed=0, zero_signals=False):
    geom = make_scan(LissajousSpec(freq_x=3, freq_y=4), L)
    rng = np.random.default_rng(seed)
    signals = np.zeros((L, 2)) if zero_signals else rng.normal(size=(L, 2))
    return ScanSeries(geom, signals)


def scan_series(geom, step=1):
    # every step-th sample of the geometry, with zero signals
    geom = ScanGeometry(geom.times[::step], geom.positions[::step], geom.velocities[::step])
    return ScanSeries(geom, np.zeros((len(geom), 2)))


# rows out of y-order, with snapped or repeated coordinates (defined below)
UNSORTED_SCANS = [
    pytest.param(lambda: scan_series(only_x_repeats_scan()), id="only_x_repeats"),
    pytest.param(lambda: scan_series(jittered_scan(), step=8), id="jittered"),
    pytest.param(lambda: mirrored_series(19), id="mirrored")]


def test_predict_zero_coeffs():
    series = small_series()
    assert np.all(predict(CoeffTensor.zeros(6, 6), series) == 0.0)


def test_predict_constant_mode_identity():
    series = small_series()
    C = CoeffTensor.zeros(6, 6)
    C.coeffs[0, 0] = 2.0 * np.eye(2)  # u_(0,0) = 1/2, so A = I
    p = predict(C, series)
    np.testing.assert_allclose(p, series.geometry.velocities, rtol=1e-13)


@pytest.mark.parametrize("scan", [
    pytest.param(lambda: small_series(L=40, seed=1), id="lissajous"), *UNSORTED_SCANS])
def test_predict_matches_dense_evaluation(scan):
    series = scan()
    rng = np.random.default_rng(2)
    C = CoeffTensor(rng.normal(size=(5, 7, 2, 2)))
    got = predict(C, series)
    want = np.zeros_like(got)
    for l, (r, v) in enumerate(zip(series.geometry.positions,
                                   series.geometry.velocities)):
        for k in range(5):
            for m in range(7):
                want[l] += cos_eval((k, m), r[0], r[1]) * (C.coeffs[k, m] @ v)
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_energy_zero_everything():
    series = small_series(zero_signals=True)
    problem = CoreProblem(series, N=6, M=6, lam=1.0)
    assert energy(CoeffTensor.zeros(6, 6), problem) == 0.0


def test_energy_pure_fidelity():
    series = small_series(seed=3)
    problem = CoreProblem(series, N=6, M=6, lam=1.0)
    want = np.sum(series.signals ** 2) / (2 * len(series.geometry))
    assert energy(CoeffTensor.zeros(6, 6), problem) == pytest.approx(want, rel=1e-13)


def test_energy_single_mode_regularizer_value():
    # unit-Frobenius mode (1,0), zero data, lambda = 1, order 2:
    # E = (1/(2*4)) * mu^2 = (1/8) (pi^2/4)^2
    geom = ScanGeometry([0.0], [[0.5, 0.5]], [[0.0, 0.0]])  # v = 0: no fidelity
    series = ScanSeries(geom, np.zeros((1, 2)))
    problem = CoreProblem(series, N=4, M=4, order=2, lam=1.0)
    C = CoeffTensor.zeros(4, 4)
    C.coeffs[1, 0] = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])  # Frobenius norm 1
    want = (np.pi ** 2 / 4.0) ** 2 / 8.0
    assert energy(C, problem) == pytest.approx(want, rel=1e-13)


def test_energy_single_mode_matches_quadrature_of_laplacian():
    # independent oracle: (1/(2|Omega|)) sum_pq int (Delta A_pq)^2 by midpoint
    # quadrature with closed-form second derivatives
    from mpirecon.theory_checks import cos_partial
    from mpirecon.fields import cell_centers
    geom = ScanGeometry([0.0], [[0.5, 0.5]], [[0.0, 0.0]])
    series = ScanSeries(geom, np.zeros((1, 2)))
    problem = CoreProblem(series, N=4, M=4, order=2, lam=1.0)
    rng = np.random.default_rng(4)
    C = CoeffTensor.zeros(4, 4)
    C.coeffs[2, 1] = rng.normal(size=(2, 2))
    n = 64
    xs = cell_centers(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    lap_mode = cos_partial((2, 1), gx, gy, 2, 0) + cos_partial((2, 1), gx, gy, 0, 2)
    area = (2.0 / n) ** 2
    quad = sum(np.sum((C.coeffs[2, 1, p, q] * lap_mode) ** 2) * area
               for p in range(2) for q in range(2)) / 8.0
    assert energy(C, problem) == pytest.approx(quad, rel=1e-10)


def test_gradient_matches_finite_differences():
    series = small_series(L=30, seed=5)
    problem = CoreProblem(series, N=4, M=4, order=2, lam=0.3)
    rng = np.random.default_rng(6)
    C = CoeffTensor(rng.normal(size=(4, 4, 2, 2)))
    g = gradient(C, problem).coeffs
    step = 1e-6
    fd = np.zeros_like(g)
    for idx in np.ndindex(g.shape):
        plus = CoeffTensor(C.coeffs.copy())
        plus.coeffs[idx] += step
        minus = CoeffTensor(C.coeffs.copy())
        minus.coeffs[idx] -= step
        fd[idx] = (energy(plus, problem) - energy(minus, problem)) / (2 * step)
    assert np.max(np.abs(fd - g)) < 1e-6 * max(1.0, np.max(np.abs(g)))


def test_gradient_at_exact_fit_reduces_to_regularizer():
    series = small_series(L=30, seed=7)
    rng = np.random.default_rng(8)
    C = CoeffTensor(rng.normal(size=(4, 4, 2, 2)))
    fitted = ScanSeries(series.geometry, predict(C, series))
    problem = CoreProblem(fitted, N=4, M=4, lam=0.7)
    g = gradient(C, problem).coeffs
    w = CoreOperator(problem).weights[:, :, None, None]
    np.testing.assert_allclose(g, (0.7 / 4.0) * w * C.coeffs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("scan", [
    pytest.param(lambda: small_series(L=60, seed=9), id="lissajous"), *UNSORTED_SCANS])
def test_hessian_symmetric_and_positive(scan):
    series = scan()
    problem = CoreProblem(series, N=6, M=6, order=1, lam=0.05)
    op = CoreOperator(problem)
    rng = np.random.default_rng(10)
    for _ in range(5):
        a = rng.normal(size=(6, 6, 2, 2))
        b = rng.normal(size=(6, 6, 2, 2))
        lhs = np.vdot(op.apply_h(a), b)
        rhs = np.vdot(a, op.apply_h(b))
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert np.vdot(op.apply_h(a), a) > 0.0


def test_regularizer_weight_ordering_and_free_constant():
    series = small_series()
    p1 = CoreProblem(series, N=8, M=8, order=1, lam=1.0)
    p2 = CoreProblem(series, N=8, M=8, order=2, lam=1.0)
    w1 = CoreOperator(p1).weights
    w2 = CoreOperator(p2).weights
    assert w1[0, 0] == 0.0 and w2[0, 0] == 0.0  # constant mode unpenalized
    mask = w1 > 0
    np.testing.assert_allclose(w2[mask] / w1[mask],
                               w1[mask])  # per-mode ratio is exactly mu_m
    # order-2 penalty >= order-1 wherever mu_m >= 1
    big = w1 >= 1.0
    assert np.all(w2[big] >= w1[big])


def test_solve_zero_signal_gives_zero():
    series = small_series(zero_signals=True)
    sol = solve_core(CoreProblem(series, N=6, M=6, lam=0.1))
    assert np.all(sol.coeffs.coeffs == 0.0)
    assert sol.converged
    assert sol.final_residual == 0.0 and sol.energy == 0.0


@pytest.mark.parametrize("L, N", [(50, 6), (200, 4)])  # dual (L < 2NM), primal
def test_solve_residual_at_rounding_level(L, N):
    series = small_series(L=L, seed=11)
    problem = CoreProblem(series, N=N, M=N + 1, order=2, lam=0.01)
    sol = solve_core(problem)
    op = CoreOperator(problem)
    b = op.rhs(series.signals)
    resid = np.linalg.norm(op.apply_h(sol.coeffs.coeffs) - b) / np.linalg.norm(b)
    assert resid <= 1e-10
    assert sol.final_residual == pytest.approx(resid, rel=1e-6, abs=1e-15)
    assert sol.converged and sol.iterations == 0
    assert sol.energy == pytest.approx(energy(sol.coeffs, problem), rel=1e-14)


def dense_normal_solution(problem):
    """Solve of H x = B^T s / L with H assembled column by column from apply_h."""
    op = CoreOperator(problem)
    shape = (problem.N, problem.M, 2, 2)
    H = np.stack([op.apply_h(e.reshape(shape)).ravel() for e in np.eye(int(np.prod(shape)))],
                 axis=1)
    return np.linalg.solve(H, op.rhs(problem.scan.signals).ravel()).reshape(shape)


@pytest.mark.parametrize("L, N, order", [(40, 4, 1), (40, 4, 2), (12, 3, 1), (12, 3, 2)])
def test_solve_matches_dense_normal_equations(L, N, order):
    series = small_series(L=L, seed=17)
    problem = CoreProblem(series, N=N, M=N, order=order, lam=0.03)
    want = dense_normal_solution(problem)
    got = solve_core(problem).coeffs.coeffs
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [3, 6])  # primal and dual for L = 30
def test_solve_unseen_constant_mode_stays_zero(N):
    geom = make_scan(LissajousSpec(freq_x=3, freq_y=4), 30)
    signals = np.random.default_rng(18).normal(size=(30, 2))
    still = ScanGeometry(geom.times, geom.positions, np.zeros((30, 2)))
    sol = solve_core(CoreProblem(ScanSeries(still, signals), N=N, M=N, lam=0.1))
    assert np.all(sol.coeffs.coeffs == 0.0)
    # velocities along x only: column b = 1 of every mode is unseen
    along_x = ScanGeometry(geom.times, geom.positions,
                           np.column_stack([1.0 + geom.positions[:, 0] ** 2,
                                            np.zeros(30)]))
    sol = solve_core(CoreProblem(ScanSeries(along_x, signals), N=N, M=N, lam=0.1))
    assert np.all(np.isfinite(sol.coeffs.coeffs))
    assert np.all(sol.coeffs.coeffs[0, 0, :, 1] == 0.0)
    assert np.any(sol.coeffs.coeffs[0, 0, :, 0] != 0.0)
    assert sol.converged


def preset_scan(dense):
    geom = make_scan(LissajousSpec(), 1632)
    return merge_scans(geom, rotate_scan(geom, 1)) if dense else geom


@pytest.mark.parametrize("dense, K, distinct", [
    pytest.param(False, 817, (52, 49), id="False-817"),
    pytest.param(True, 1634, (97, 97), id="True-1634")])
def test_preset_scans_merge_mirrored_samples(dense, K, distinct):
    # the cosine-phase Lissajous curve is time-reversal symmetric: samples
    # l and L - l share a position with opposite velocities, and its
    # equidistant samples lie on a tensor grid of cosine nodes
    geom = preset_scan(dense)
    system = CoreSystem(CoreProblem(ScanSeries(geom, np.zeros((len(geom), 2))), N=4, M=4))
    assert system.K == K == len(geom) // 2 + (2 if dense else 1)
    assert (len(system.xs), len(system.ys)) == distinct


def test_preset_corner_samples_are_zero_rows():
    # t = 0 at (1, 1) and t = 1/2 at (1, -1) have speeds ~1e-14 against a
    # largest speed ~146: they do not move, and their rows are zero
    geom = preset_scan(False)
    system = CoreSystem(CoreProblem(ScanSeries(geom, np.zeros((len(geom), 2))), N=4, M=4))
    corners = system.group[[0, len(geom) // 2]]
    np.testing.assert_allclose(geom.positions[[0, len(geom) // 2]], [[1, 1], [1, -1]])
    assert 0 < np.max(np.abs(geom.velocities[[0, len(geom) // 2]])) < 1e-12
    assert corners[0] != corners[1] and np.all(system.v[corners] == 0.0)
    assert np.count_nonzero(np.all(system.v == 0.0, axis=1)) == 2


@pytest.mark.parametrize("dense, J, sizes", [
    pytest.param(False, [[1, 0], [0, -1]], [409, 408], id="sparse-y_flip"),
    pytest.param(True, [[0, 1], [1, 0]], [819, 815], id="dense-swap")])
def test_preset_scans_split_into_two_sectors(dense, J, sizes):
    geom = preset_scan(dense)
    system = CoreSystem(CoreProblem(ScanSeries(geom, np.zeros((len(geom), 2))), N=64, M=64))
    assert system.dual and np.array_equal(system.symmetry, J)
    assert [len(block) for _, _, block in system.sectors] == sizes
    assert sum(sizes) == system.K


@pytest.mark.parametrize("scan, N, M", [
    pytest.param(lambda: jittered_scan(), 64, 64, id="jittered"),
    pytest.param(lambda: preset_scan(True), 20, 44, id="dense-N!=M")])
def test_scans_without_a_map_keep_one_sector(scan, N, M):
    geom = scan()
    system = CoreSystem(CoreProblem(ScanSeries(geom, np.zeros((len(geom), 2))), N=N, M=M))
    assert system.dual and system.symmetry is None
    assert [len(block) for _, _, block in system.sectors] == [system.K]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("scaled", [False, True])
def test_sector_solve_matches_unmerged_normal_equations(order, scaled):
    # make_scan(3, 4) maps onto itself under x -> -x; a mirrored pair whose
    # speeds differ (scaled) has parallel but unequal velocities, so no map
    # pairs the rows and the system keeps one sector
    geom = make_scan(LissajousSpec(freq_x=3, freq_y=4), 40)
    if scaled:
        v = geom.velocities.copy()
        v[[5, 35]] *= 1.5
        geom = ScanGeometry(geom.times, geom.positions, v)
    series = ScanSeries(geom, np.random.default_rng(24).normal(size=(40, 2)))
    problem = CoreProblem(series, N=5, M=5, order=order, lam=0.03)
    system = CoreSystem(problem)
    assert system.dual and system.K == 21
    if scaled:
        assert system.symmetry is None and len(system.sectors) == 1
    else:
        assert np.array_equal(system.symmetry, [[-1, 0], [0, 1]]) and len(system.sectors) == 2
    want = dense_normal_solution(problem)
    got = system.solve(series.signals[None], problem.lam)[0]
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("dense", [False, True])
def test_sector_solve_matches_one_sector_solve(dense, monkeypatch):
    from mpirecon import core_stage
    geom = preset_scan(dense)
    signals = np.random.default_rng(25).normal(size=(2, len(geom), 2))
    problem = CoreProblem(ScanSeries(geom, signals[0]), N=64, M=64)
    split = CoreSystem(problem)
    monkeypatch.setattr(core_stage, "SQUARE_MAPS", ())
    whole = CoreSystem(problem)
    assert len(split.sectors) == 2 and len(whole.sectors) == 1
    # the Gram is invariant under the map to ~2e-14; the presets' smallest
    # lambda amplifies that to ~5e-11
    for lam in (0.5, 0.004):
        got, want = split.solve(signals, lam), whole.solve(signals, lam)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def only_x_repeats_scan():
    # seven x-values, each spread over 6e-15 as on the preset scans, and
    # distinct y-values
    rng = np.random.default_rng(21)
    x = rng.choice(np.cos(np.pi * np.arange(7) / 6), 300) + rng.uniform(-3e-15, 3e-15, 300)
    return ScanGeometry(np.arange(300) / 300.0, np.column_stack([x, rng.uniform(-1, 1, 300)]),
                        rng.normal(size=(300, 2)))


def jittered_scan():
    # the sparse preset with positions moved by up to 1e-3: no coordinate repeats
    geom = preset_scan(False)
    rng = np.random.default_rng(22)
    pos = (1 - 2e-3) * geom.positions + rng.uniform(-1e-3, 1e-3, geom.positions.shape)
    return ScanGeometry(geom.times, pos, geom.velocities)


@pytest.mark.parametrize("scan, distinct", [
    pytest.param(lambda: preset_scan(False), (52, 49), id="sparse"),
    pytest.param(lambda: preset_scan(True), (97, 97), id="dense"),
    pytest.param(only_x_repeats_scan, (7, 300), id="only_x_repeats"),
    pytest.param(jittered_scan, (1632, 1632), id="jittered")])
def test_dual_gram_matches_khatri_rao_reference(scan, distinct):
    # the Gram from the distinct coordinate values equals the Khatri-Rao
    # build on the unsnapped positions of the merged rows
    geom = scan()
    rng = np.random.default_rng(23)
    problem = CoreProblem(ScanSeries(geom, rng.normal(size=(len(geom), 2))),
                          N=20, M=44, order=2, lam=0.01)
    system = CoreSystem(problem)
    assert system.dual and (len(system.xs), len(system.ys)) == distinct
    rep = geom.positions[np.unique(system.group, return_index=True)[1]]
    u = (basis_matrix_1d(20, rep[:, 0]).T[:, :, None]
         * basis_matrix_1d(44, rep[:, 1]).T[:, None, :]).reshape(system.K, -1)
    w = eigenvalue_grid(20, 44) ** 2
    want = (u / np.where(w > 0, w, np.inf).ravel()) @ u.T * (system.v @ system.v.T)
    err = np.max(np.abs(np.tril(system.gram) - np.tril(want)))
    assert err <= 1e-13 * np.max(np.abs(want))
    assert solve_core(problem).final_residual <= 1e-10


def assembled_solve(system: CoreSystem, signals: np.ndarray, lam: float) -> np.ndarray:
    """The minimizers from a dense solve of the system assembled whole: the
    merged dual system, unsplit, bordered by the constant mode, or the
    primal normal equations."""
    N, M, K = system.N, system.M, system.K
    s = np.zeros((K, 2 * len(signals)))
    np.add.at(s, system.group, system.scale[:, None] * np.concatenate(list(signals), axis=1))
    if system.dual:
        A = np.block([[system.L * np.eye(K) + (4.0 / lam) * system.gram, system.phi0],
                      [system.phi0.T, np.zeros((2, 2))]])
        sol = np.linalg.solve(A, np.vstack([s, np.zeros((2, s.shape[1]))]))
        x = system.design.adjoint(sol[:K]) * (4.0 / lam) * system.inv_w[:, :, None, None]
        x[0, 0] = sol[K:].T
        return np.moveaxis(x.reshape(N, M, -1, 2, 2), 2, 0)
    H = system.normal / system.L + np.diag(
        (lam / 4.0) * np.repeat(system.weights.ravel(), 2))
    b = np.swapaxes(system.design.adjoint(s) / system.L, 2, 3).reshape(2 * N * M, -1)
    return np.linalg.solve(H, b).reshape(N, M, 2, -1, 2).transpose(3, 0, 1, 4, 2)


@pytest.mark.parametrize("scan, N, sectors", [
    pytest.param(lambda: preset_scan(False), 24, 2, id="sparse"),
    pytest.param(lambda: preset_scan(True), 32, 2, id="dense"),
    pytest.param(jittered_scan, 32, 1, id="jittered"),
    pytest.param(lambda: make_scan(LissajousSpec(freq_x=3, freq_y=4), 200), 4, 0,
                 id="primal")])
def test_solver_equals_solve_and_the_assembled_system(scan, N, sectors):
    # the per-signals solver is solve() at each lambda, bit for bit, and
    # both match a dense solve of the whole system
    geom = scan()
    signals = np.random.default_rng(26).normal(size=(2, len(geom), 2))
    system = CoreSystem(CoreProblem(ScanSeries(geom, signals[0]), N=N, M=N))
    assert system.dual == (sectors > 0) and len(getattr(system, "sectors", ())) == sectors
    solve = system.solver(signals)
    for lam in (5.0, 0.01, 5e-4):
        got = solve(lam)
        assert np.array_equal(got, system.solve(signals, lam))
        want = assembled_solve(system, signals, lam)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("scan, N", [
    pytest.param(lambda: preset_scan(False), 64, id="sparse"),
    pytest.param(lambda: preset_scan(True), 64, id="dense"),
    pytest.param(lambda: make_scan(LissajousSpec(freq_x=3, freq_y=4), 200), 4, id="primal")])
def test_factorizations_run_in_place_on_fortran_lower_triangles(scan, N, monkeypatch):
    # LAPACK's potrf('L') on a Fortran-ordered matrix: the stored blocks are
    # Fortran-strided, and each lambda's scaled copy is factored in place
    from mpirecon import core_stage
    geom = scan()
    system = CoreSystem(CoreProblem(ScanSeries(geom, np.ones((len(geom), 2))), N=N, M=N))
    stored = [block for _, _, block in system.sectors] if system.dual else [system.normal]
    for block in stored:
        assert block.strides[0] == block.itemsize < block.strides[1]
    calls, cho_factor = [], core_stage.cho_factor

    def spy(a, **kw):
        factor = cho_factor(a, **kw)
        calls.append((a, factor))
        return factor

    monkeypatch.setattr(core_stage, "cho_factor", spy)
    system.solve(np.ones((1, len(geom), 2)), 0.01)
    assert len(calls) == len(stored)
    for a, (c, lower) in calls:
        assert lower and a.flags.f_contiguous and np.shares_memory(c, a)


def mirrored_series(seed):
    # a symmetric scan (40 samples -> 21 rows) plus five samples that repeat
    # a position with a scaled, reversed velocity
    geom = make_scan(LissajousSpec(freq_x=3, freq_y=4), 40)
    geom = ScanGeometry(np.arange(45) / 45.0,
                        np.vstack([geom.positions, geom.positions[1:6]]),
                        np.vstack([geom.velocities, -2.5 * geom.velocities[1:6]]))
    return ScanSeries(geom, np.random.default_rng(seed).normal(size=(45, 2)))


@pytest.mark.parametrize("N, dual", [(4, True), (3, False)])  # K = 21 vs 2NM
@pytest.mark.parametrize("order", [1, 2])
def test_merged_solve_matches_unmerged_normal_equations(N, dual, order):
    problem = CoreProblem(mirrored_series(19), N=N, M=N, order=order, lam=0.03)
    system = CoreSystem(problem)
    assert system.K == 21 and system.dual == dual
    want = dense_normal_solution(problem)        # the unmerged rows
    got = system.solve(problem.scan.signals[None], problem.lam)[0]
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))
    assert solve_core(problem).final_residual <= 1e-10


def test_non_parallel_velocities_at_one_position_stay_two_rows():
    geom = ScanGeometry([0.0, 0.5, 0.7], [[0.3, -0.2], [0.3, -0.2], [0.3, -0.2]],
                        [[1.0, 0.0], [0.0, 2.0], [-3.0, 1e-6]])
    system = CoreSystem(CoreProblem(ScanSeries(geom, np.zeros((3, 2))), N=3, M=3))
    assert system.K == 3


def test_scan_without_duplicates_keeps_every_row():
    rng = np.random.default_rng(20)
    geom = ScanGeometry(np.arange(60) / 60.0, rng.uniform(-1, 1, size=(60, 2)),
                        rng.normal(size=(60, 2)))
    system = CoreSystem(CoreProblem(ScanSeries(geom, np.zeros((60, 2))), N=6, M=6))
    assert system.K == 60 and np.all(system.scale == 1.0)


def test_solve_self_consistency_band_limited():
    # noiseless signals from a known band-limited tensor on the dense merged
    # scan; tiny lambda recovers the generating coefficients
    geom = preset_scan(True)
    rng = np.random.default_rng(12)
    gt = CoeffTensor(rng.normal(size=(12, 12, 2, 2)))
    clean = ScanSeries(geom, np.zeros((len(geom), 2)))
    signals = predict(gt, clean)
    series = ScanSeries(geom, signals)
    problem = CoreProblem(series, N=12, M=12, order=2, lam=1e-10)
    sol = solve_core(problem)
    rel = np.linalg.norm(sol.coeffs.coeffs - gt.coeffs) / np.linalg.norm(gt.coeffs)
    assert rel < 1e-4
    assert sol.converged


def test_invalid_problems_rejected():
    series = small_series()
    with pytest.raises(ValueError):
        CoreProblem(series, lam=0.0)
    with pytest.raises(ValueError, match="finite"):
        CoreProblem(series, lam=np.inf)
    with pytest.raises(ValueError):
        CoreProblem(series, order=3)
    with pytest.raises(ValueError, match="N, M"):
        CoreProblem(series, N=0)
    with pytest.raises(ValueError):
        CoreSystem(CoreProblem(series, N=4, M=4)).solve(series.signals[None], 0.0)
    with pytest.raises(ValueError, match="finite"):
        CoreSystem(CoreProblem(series, N=4, M=4)).solve(series.signals[None], np.inf)


def test_trace_field_matches_synthesize():
    rng = np.random.default_rng(14)
    C = CoeffTensor(rng.normal(size=(6, 6, 2, 2)))
    tr = trace_field(C, 20, 20)
    full = synthesize(C, 20, 20)
    want = full.values[:, :, 0, 0] + full.values[:, :, 1, 1]
    assert np.max(np.abs(tr.values - want)) < 1e-12
    assert np.all(trace_field(CoeffTensor.zeros(6, 6), 10, 10).values == 0.0)
    C2 = CoeffTensor.zeros(6, 6)
    C2.coeffs[0, 0] = np.eye(2)
    np.testing.assert_allclose(trace_field(C2, 10, 10).values, 1.0, rtol=1e-14)


def test_search_lambda_matches_independent_solves():
    from mpirecon.config import PipelineConfig
    from mpirecon.metrics import score_pair
    from mpirecon.phantom import builtin_suite
    from mpirecon.pipeline import GridSpec, run_core, search_lambda, simulate_case
    cfg = PipelineConfig()
    cfg.grids.fine_nx, cfg.grids.recon_nx, cfg.grids.coeff_n = 64, 32, 12
    cfg.trajectory.L = 200
    specs = {s.name: s for s in builtin_suite()}
    cases = [simulate_case(cfg, specs[name]) for name in ("disk", "k_thin")]
    lams = (0.5, 0.05, 0.005)
    res = search_lambda(cfg, cases, 2, GridSpec(values=lams))
    assert [v for v, _, _ in res.rows] == list(lams)
    for lam, psnr_mean, ssim_mean in res.rows:
        scores = [score_pair(run_core(cfg, c.series, lam=lam, order=2)[1], c.u_gt)
                  for c in cases]
        assert psnr_mean == pytest.approx(np.mean([p for p, _ in scores]), abs=1e-10)
        assert ssim_mean == pytest.approx(np.mean([s for _, s in scores]), abs=1e-10)


def test_run_experiment_reuses_the_search_gram(monkeypatch):
    # one Gram build per geometry and order; the final solves at lambda*
    # reuse it and score as independent solves do
    from mpirecon import core_stage
    from mpirecon.config import PipelineConfig
    from mpirecon.metrics import score_pair
    from mpirecon.phantom import builtin_suite
    from mpirecon.pipeline import GridSpec, run_core, run_experiment, simulate_case
    cfg = PipelineConfig()
    cfg.grids.fine_nx, cfg.grids.recon_nx, cfg.grids.coeff_n = 64, 32, 12
    cfg.trajectory.L = 200
    specs = {s.name: s for s in builtin_suite()}
    cases = [simulate_case(cfg, specs[name]) for name in ("disk", "bar", "k_thin")]
    builds = []
    init = core_stage.CoreSystem.__init__
    monkeypatch.setattr(core_stage.CoreSystem, "__init__",
                        lambda self, problem: builds.append(1) or init(self, problem))
    res = run_experiment(cfg, cases, 2, GridSpec(values=(0.5, 0.05, 0.005)),
                         run_deconv_stage=False)
    assert len(builds) == 1
    monkeypatch.undo()
    for case, (name, p, s) in zip(cases, res.core_scores):
        ref_p, ref_s = score_pair(run_core(cfg, case.series, lam=res.lam, order=2)[1],
                                  case.u_gt)
        assert name == case.name
        assert p == pytest.approx(ref_p, abs=1e-9) and s == pytest.approx(ref_s, abs=1e-10)

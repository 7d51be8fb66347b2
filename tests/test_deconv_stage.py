import os
import stat

import numpy as np
import pytest
from scipy import fft as sfft

from mpirecon.deconv_stage import (CG_TOL, ConvolutionOperator, DeconvProblem, DenoiserSpec,
                                   build_convolution_operator, denoise, estimate_sigma,
                                   hqs_deconvolve, hqs_first_step, tikhonov_step,
                                   _periodic_solve)
from mpirecon.fields import ScalarField, cell_centers
from mpirecon.forward import core_response_field
from mpirecon.kernels import KernelParams, kernel_trace

PARAMS = KernelParams(h=0.05)


def gaussian_operator(n, std_cells=1.5):
    """Wraparound-safe test kernel: narrow normalized Gaussian."""
    offs = np.arange(2 * n - 1) - (n - 1)
    g = np.exp(-0.5 * (offs / std_cells) ** 2)
    ker = np.outer(g, g)
    ker /= ker.sum()
    return ConvolutionOperator(ker, (n, n))


def optimal_circulant_eigenvalues(op, shape):
    """diag(F T F*) of the operator's dense matrix T, F the unitary 2D DFT.

    These are the eigenvalues of T. Chan's optimal circulant approximation
    of T, the circulant closest to T in the Frobenius norm.
    """
    nx, ny = shape
    cols = [op.apply(e.reshape(shape)).ravel() for e in np.eye(nx * ny)]
    T = np.stack(cols, axis=1)
    F = np.kron(sfft.fft(np.eye(nx), norm="ortho"), sfft.fft(np.eye(ny), norm="ortho"))
    return np.einsum("ij,jk,ik->i", F, T, F.conj()).reshape(shape)


def test_operator_delta_reproduces_kernel():
    n = 16
    op = build_convolution_operator(PARAMS, n, n)
    x = np.zeros((n, n))
    x[n // 2, n // 2] = 1.0
    out = op.apply(x)
    xs = cell_centers(n)
    area = (2.0 / n) ** 2
    for i, j in [(0, 0), (3, 12), (n // 2, n // 2)]:
        want = kernel_trace((xs[i] - xs[n // 2], xs[j] - xs[n // 2]), PARAMS) * area
        assert out[i, j] == pytest.approx(want, rel=1e-10)


def test_operator_adjoint_identity():
    # kappa_h is radial, so C is its own adjoint: <Cx, y> = <x, Cy>
    rng = np.random.default_rng(0)
    for n in (8, 20, 33):
        op = build_convolution_operator(PARAMS, n, n)
        for _ in range(5):
            x = rng.normal(size=(n, n))
            y = rng.normal(size=(n, n))
            lhs = np.vdot(op.apply(x), y)
            rhs = np.vdot(x, op.apply(y))
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_operator_rejects_asymmetric_kernel():
    n = 6
    ker = np.ones((2 * n - 1, 2 * n - 1))
    ker[0, 0] = 2.0
    with pytest.raises(ValueError, match="even in each axis"):
        ConvolutionOperator(ker, (n, n))


def test_operator_rejects_point_symmetric_kernel_not_even_per_axis():
    # k(-y) = k(y) holds, k(-y1, y2) = k(y1, y2) does not: the operator's
    # spectrum is the DCT-I of the quadrant, which needs per-axis evenness
    n = 6
    ker = np.random.default_rng(4).normal(size=(2 * n - 1, 2 * n - 1))
    ker = ker + ker[::-1, ::-1]
    with pytest.raises(ValueError, match="even in each axis"):
        ConvolutionOperator(ker, (n, n))


def test_operator_matches_direct_summation():
    n = 10
    op = build_convolution_operator(PARAMS, n, n)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(n, n))
    xs = cell_centers(n)
    area = (2.0 / n) ** 2
    direct = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    direct[i, j] += x[a, b] * kernel_trace(
                        (xs[i] - xs[a], xs[j] - xs[b]), PARAMS)
    direct *= area
    got = op.apply(x)
    assert np.max(np.abs(got - direct)) < 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("shape", [(9, 12), (12, 12)])
def test_operator_matches_direct_summation_on_grid(shape):
    nx, ny = shape
    op = build_convolution_operator(PARAMS, nx, ny)
    x = np.random.default_rng(11).normal(size=(nx, ny))
    xs, ys = cell_centers(nx), cell_centers(ny)
    direct = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            for a in range(nx):
                for b in range(ny):
                    direct[i, j] += x[a, b] * kernel_trace((xs[i] - xs[a], ys[j] - ys[b]),
                                                           PARAMS)
    direct *= (2.0 / nx) * (2.0 / ny)
    assert np.max(np.abs(op.apply(x) - direct)) < 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("shape", [(9, 12), (12, 12), (11, 9)])
def test_real_fft_preconditioner_equals_complex(shape):
    # the rfft2 solve with periodic_power is the complex solve with the
    # T. Chan circulant's spectrum c: (|c|^2 + nu)^-1 r
    op = build_convolution_operator(PARAMS, *shape)
    c = optimal_circulant_eigenvalues(op, shape)
    r = np.random.default_rng(12).normal(size=shape)
    nu = 0.03
    complex_fft = np.real(sfft.ifft2(sfft.fft2(r) / (np.abs(c) ** 2 + nu)))
    got = _periodic_solve(r, op.periodic_power + nu)
    assert np.max(np.abs(got - complex_fft)) <= 1e-13 * np.max(np.abs(complex_fft))


def test_periodic_power_is_optimal_circulant_spectrum():
    # odd x even grid and a generic kernel even in each axis
    nx, ny = 6, 7
    ker = np.random.default_rng(13).normal(size=(2 * nx - 1, 2 * ny - 1))
    ker = ker + ker[::-1]
    op = ConvolutionOperator(ker + ker[:, ::-1], (nx, ny))
    want = np.abs(optimal_circulant_eigenvalues(op, (nx, ny))[:, : ny // 2 + 1]) ** 2
    assert op.periodic_power.shape == want.shape
    assert np.max(np.abs(op.periodic_power - want)) <= 1e-12 * np.max(want)
    # the plain wrap-sum spectrum is a different circulant
    plain = np.abs(op.periodic_spectrum[:, : ny // 2 + 1]) ** 2
    assert np.max(np.abs(plain - want)) > 1e-3 * np.max(want)


def test_operator_agrees_with_forward_module():
    n = 32
    rng = np.random.default_rng(2)
    rho = ScalarField(rng.uniform(size=(n, n)))
    op = build_convolution_operator(PARAMS, n, n)
    via_forward = core_response_field(rho, PARAMS).trace().values
    got = op.apply(rho.values)
    assert np.max(np.abs(got - via_forward)) < 1e-10 * np.max(np.abs(via_forward))


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        ConvolutionOperator(np.ones((5, 5)), (4, 4))
    with pytest.raises(ValueError):
        build_convolution_operator(PARAMS, 4, 4)


def test_tikhonov_large_nu_returns_prior():
    n = 16
    op = build_convolution_operator(PARAMS, n, n)
    rng = np.random.default_rng(3)
    u = ScalarField(rng.normal(size=(n, n)))
    rho2 = ScalarField(rng.normal(size=(n, n)))
    out = tikhonov_step(u, rho2, 1e12, op)
    assert np.max(np.abs(out.values - rho2.values)) < 1e-4


def test_tikhonov_consistent_data_returns_prior_exactly():
    n = 16
    op = build_convolution_operator(PARAMS, n, n)
    rng = np.random.default_rng(4)
    rho2 = ScalarField(rng.normal(size=(n, n)))
    u = ScalarField(op.apply(rho2.values))
    out = tikhonov_step(u, rho2, 0.5, op)
    np.testing.assert_array_equal(out.values, rho2.values)


def test_tikhonov_normal_equation_optimality():
    n = 24
    op = build_convolution_operator(PARAMS, n, n)
    rng = np.random.default_rng(5)
    u = ScalarField(rng.normal(size=(n, n)))
    rho2 = ScalarField(rng.normal(size=(n, n)))
    nu = 0.03
    rhs = op.apply(u.values) + nu * rho2.values

    def resid(rho):
        return (op.apply(op.apply(rho.values)) + nu * rho.values - rhs)

    rho = tikhonov_step(u, rho2, nu, op, tol=1e-8)
    assert np.linalg.norm(resid(rho)) <= 1.01e-8 * np.linalg.norm(rhs)
    rho = tikhonov_step(u, rho2, nu, op)
    assert np.linalg.norm(resid(rho)) <= 1.01 * CG_TOL * np.linalg.norm(rhs)


def test_tikhonov_start_changes_only_the_path():
    # the start moves the CG path, not the minimizer it converges to
    n = 24
    op = build_convolution_operator(PARAMS, n, n)
    rng = np.random.default_rng(15)
    u = ScalarField(rng.normal(size=(n, n)))
    rho2 = ScalarField(np.zeros((n, n)))
    exact = tikhonov_step(u, rho2, 0.03, op, tol=1e-13)
    near = ScalarField(exact.values + 1e-6 * rng.normal(size=(n, n)))
    got = tikhonov_step(u, rho2, 0.03, op, tol=1e-10, start=near)
    assert np.max(np.abs(got.values - exact.values)) < 1e-8 * np.max(np.abs(exact.values))
    np.testing.assert_array_equal(
        tikhonov_step(u, rho2, 0.03, op, start=rho2).values,
        tikhonov_step(u, rho2, 0.03, op).values)


def test_tikhonov_matches_periodic_fourier_oracle():
    # wraparound-safe configuration: narrow Gaussian kernel and data supported
    # well inside the domain, so the solution never feels the boundary and
    # linear and periodic convolution act identically on it
    n = 48
    op = gaussian_operator(n, std_cells=1.2)
    rng = np.random.default_rng(6)
    rho_true = np.zeros((n, n))
    rho_true[18:30, 20:28] = rng.uniform(size=(12, 8))
    u_vals = op.apply(rho_true)
    u_vals[16:32, 16:32] += 0.01 * rng.normal(size=(16, 16))
    u = ScalarField(u_vals)
    rho2 = ScalarField(np.zeros((n, n)))
    nu = 0.05
    got = tikhonov_step(u, rho2, nu, op, tol=1e-12)
    khat = op.periodic_spectrum
    oracle = np.real(sfft.ifft2((np.conj(khat) * sfft.fft2(u.values))
                                / (np.abs(khat) ** 2 + nu)))
    assert np.max(np.abs(got.values - oracle)) < 1e-6


def test_estimate_sigma():
    assert estimate_sigma(ScalarField(np.full((8, 8), 2.5))) == 0.0
    alt = np.indices((8, 8)).sum(axis=0) % 2
    assert estimate_sigma(ScalarField(np.where(alt == 0, 1.0, -1.0))) == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(32, 32))
    two_pass = np.sqrt(np.mean((x - x.mean()) ** 2))
    assert estimate_sigma(ScalarField(x)) == pytest.approx(two_pass, abs=1e-12)


def test_denoise_identity_and_constants():
    rng = np.random.default_rng(8)
    x = ScalarField(rng.normal(size=(16, 16)))
    spec = DenoiserSpec()
    same = denoise(x, 0.0, spec)
    np.testing.assert_array_equal(same.values, x.values)
    const = ScalarField(np.full((16, 16), 3.3))
    out = denoise(const, 0.5, spec)
    np.testing.assert_allclose(out.values, 3.3, rtol=1e-12)


def total_variation(values):
    return (np.sum(np.abs(np.diff(values, axis=0)))
            + np.sum(np.abs(np.diff(values, axis=1))))


def test_denoise_reduces_total_variation():
    rng = np.random.default_rng(9)
    noisy = ScalarField(rng.normal(size=(32, 32)))
    out = denoise(noisy, 0.2, DenoiserSpec())
    assert total_variation(out.values) < total_variation(noisy.values)


def test_external_denoiser_protocol(tmp_path, monkeypatch):
    script = tmp_path / "denoiser.py"
    script.write_text(
        "#!/usr/bin/env python3\n"
        "import sys, os\n"
        "sys.path.insert(0, os.environ.get('MPIRECON_SRC', ''))\n"
        "from mpirecon.fields import load_field, save_field, ScalarField\n"
        "d = sys.argv[1]\n"
        "f = load_field(os.path.join(d, 'in.pgm'))\n"
        "sigma = float(open(os.path.join(d, 'sigma')).read())\n"
        "save_field(ScalarField(f.values * 0.5), os.path.join(d, 'out.pgm'))\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    os.environ["MPIRECON_SRC"] = src
    spec = DenoiserSpec(kind="external", command=str(script))
    # the exchange files live in a per-call temporary directory, never in
    # the working directory
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    rng = np.random.default_rng(10)
    x = ScalarField(rng.uniform(size=(16, 16)))
    out = denoise(x, 0.1, spec)
    np.testing.assert_allclose(out.values, 0.5 * x.values, atol=1e-4)
    assert os.listdir(cwd) == []


def test_external_denoiser_failure(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("#!/usr/bin/env python3\nimport sys\nsys.exit(3)\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    spec = DenoiserSpec(kind="external", command=str(script))
    with pytest.raises(RuntimeError, match="exit status 3"):
        denoise(ScalarField(np.ones((16, 16))), 0.1, spec)


def test_hqs_zero_data():
    u = ScalarField.zeros(16, 16)
    out = hqs_deconvolve(DeconvProblem(u, PARAMS, mu=0.01, nu0=1.0, iters=3))
    assert np.max(np.abs(out.values)) < 1e-12


def test_hqs_single_iteration_identity_denoiser_is_tikhonov():
    n = 16
    op = build_convolution_operator(PARAMS, n, n)
    rng = np.random.default_rng(11)
    u = ScalarField(rng.normal(size=(n, n)))
    mu, nu0 = 0.01, 2.0
    problem = DeconvProblem(u, PARAMS, mu=mu, nu0=nu0, iters=1,
                            denoiser=DenoiserSpec(width_factor=0.0))
    got = hqs_deconvolve(problem, op)
    want = tikhonov_step(u, ScalarField.zeros(n, n), nu0, op)
    np.testing.assert_array_equal(got.values, want.values)


def test_hqs_sigma_zero_short_circuit():
    # constant-zero data: sigma collapses to 0 after the first step and the
    # loop keeps returning the same field without dividing by zero
    u = ScalarField.zeros(12, 12)
    out = hqs_deconvolve(DeconvProblem(u, PARAMS, mu=0.5, nu0=0.1, iters=5))
    assert np.all(out.values == 0.0)


def test_hqs_shared_first_step_is_bitwise_identical():
    # the first iteration depends on the trace, nu0 and the denoiser only, so
    # one computed under another mu gives the same bits as a plain run
    n = 20
    op = build_convolution_operator(PARAMS, n, n)
    u = ScalarField(np.random.default_rng(16).normal(size=(n, n)))
    first = hqs_first_step(DeconvProblem(u, PARAMS, mu=5.0, nu0=1.0, iters=4), op)
    for mu in (0.1, 0.001):
        p = DeconvProblem(u, PARAMS, mu=mu, nu0=1.0, iters=4)
        np.testing.assert_array_equal(hqs_deconvolve(p, op, first).values,
                                      hqs_deconvolve(p, op).values)


def test_search_mu_rows_equal_independent_deconvolutions():
    from mpirecon.config import PipelineConfig
    from mpirecon.metrics import score_pair
    from mpirecon.phantom import builtin_suite
    from mpirecon.pipeline import GridSpec, run_core, run_deconv, search_mu, simulate_case
    cfg = PipelineConfig()
    cfg.grids.fine_nx, cfg.grids.recon_nx, cfg.grids.coeff_n = 64, 32, 12
    cfg.trajectory.L = 200
    cfg.deconv.iters = 4
    specs = {s.name: s for s in builtin_suite()}
    pairs = []
    for name in ("disk", "k_thin"):
        case = simulate_case(cfg, specs[name])
        pairs.append((run_core(cfg, case.series, lam=0.01)[1], case.rho_gt_recon))
    mus = (0.1, 0.01, 0.001)
    res = search_mu(cfg, pairs, GridSpec(values=mus))
    assert [v for v, _, _ in res.rows] == list(mus)
    for mu, psnr_mean, ssim_mean in res.rows:
        scores = [score_pair(run_deconv(cfg, tr, mu), gt) for tr, gt in pairs]
        assert psnr_mean == float(np.mean([p for p, _ in scores]))
        assert ssim_mean == float(np.mean([s for _, s in scores]))


def test_hqs_deterministic():
    n = 20
    rng = np.random.default_rng(12)
    u = ScalarField(rng.normal(size=(n, n)))
    p = DeconvProblem(u, PARAMS, mu=0.01, nu0=1.0, iters=4)
    a = hqs_deconvolve(p)
    b = hqs_deconvolve(p)
    np.testing.assert_array_equal(a.values, b.values)


def test_unregularized_iterations_amplify_noise():
    # semiconvergence of plain CG on the unregularized normal equations:
    # more iterations on noisy data grow the iterate norm, confirming the
    # deconvolution is severely ill-posed and regularization load-bearing
    n = 64
    op = build_convolution_operator(KernelParams(h=0.01), n, n)
    rng = np.random.default_rng(14)
    rho_true = np.zeros((n, n))
    rho_true[24:40, 24:40] = 1.0
    u = op.apply(rho_true) + 0.02 * rng.normal(size=(n, n))

    def plain_cg_norm(iters):
        b = op.apply(u)
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rs = np.vdot(r, r)
        for _ in range(iters):
            ap = op.apply(op.apply(p))
            alpha = rs / np.vdot(p, ap)
            x += alpha * p
            r -= alpha * ap
            rs_new = np.vdot(r, r)
            p = r + (rs_new / rs) * p
            rs = rs_new
        return np.linalg.norm(x)

    norms = [plain_cg_norm(k) for k in (5, 30, 500)]
    assert norms[0] < norms[1] < norms[2]
    # the converged unregularized solution is noise-dominated
    assert norms[2] > 2.5 * np.linalg.norm(rho_true)


def test_problem_validation_and_dispatch():
    u = ScalarField.zeros(16, 16)
    with pytest.raises(ValueError):
        DeconvProblem(u, PARAMS, mu=0.0)
    with pytest.raises(ValueError):
        DeconvProblem(u, PARAMS, iters=0)
    with pytest.raises(ValueError):
        DeconvProblem(u, PARAMS, nu0=np.inf)
    with pytest.raises(ValueError):
        DenoiserSpec(kind="external")


def test_denoiser_spec_rejects_negative_width():
    # a negative blur std would make gaussian_filter return its input, which
    # silently switches the regularizer off; 0 is the identity denoiser
    with pytest.raises(ValueError, match="width_factor"):
        DenoiserSpec(width_factor=-1.0)
    assert DenoiserSpec(width_factor=0.0).width_factor == 0.0


def test_denoiser_spec_rejects_nonpositive_timeout():
    for timeout in (0.0, -5.0):
        with pytest.raises(ValueError, match="timeout"):
            DenoiserSpec(kind="external", command="denoise", timeout=timeout)

import itertools
import os
import stat

import numpy as np
import pytest
from scipy import fft as sfft

from mpirecon import deconv_stage
from mpirecon.deconv_stage import (CG_TOL, ConvolutionOperator, DeconvProblem, DenoiserSpec,
                                   build_convolution_operator, denoise, estimate_sigma,
                                   DataIterate, hqs_deconvolve, hqs_first_step,
                                   tikhonov_step)
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
    return ConvolutionOperator(ker[n - 1:, n - 1:])


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


def test_preconditioner_is_windowed_padded_inverse():
    # M = W (Ct^2 + nu)^-1 W^T, Ct the circulant on the padded FFT grid that
    # holds the kernel at offsets -(n-1)..(n-1): built densely here
    nx, ny, nu = 6, 7, 0.03
    ker = np.random.default_rng(13).normal(size=(2 * nx - 1, 2 * ny - 1))
    ker = ker + ker[::-1]
    ker = ker + ker[:, ::-1]
    op = ConvolutionOperator(ker[nx - 1:, ny - 1:])
    px, py = 2 * sfft.next_fast_len(nx), 2 * sfft.next_fast_len(ny)
    ker_pad = np.zeros((px, py))
    for d1 in range(1 - nx, nx):
        for d2 in range(1 - ny, ny):
            ker_pad[d1 % px, d2 % py] = ker[d1 + nx - 1, d2 + ny - 1]
    i, j = np.indices((px, py)).reshape(2, -1)
    ct = ker_pad[(i[:, None] - i[None]) % px, (j[:, None] - j[None]) % py]
    window = (i < nx) & (j < ny)
    unit = np.eye(nx * ny).reshape(-1, nx, ny)
    dense_c = np.stack([op.apply(e).ravel() for e in unit], axis=1)
    np.testing.assert_allclose(ct[np.ix_(window, window)], dense_c, atol=1e-12)
    want = np.linalg.inv(ct @ ct + nu * np.eye(px * py))[np.ix_(window, window)]
    precond = op.preconditioner(nu)
    got = np.stack([precond(e).ravel() for e in unit], axis=1)
    # the dense inverse loses digits to the condition number of Ct^2 + nu
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    np.testing.assert_allclose(got, got.T, atol=1e-12 * np.max(np.abs(got)))
    assert np.min(np.linalg.eigvalsh(got)) > 0


def test_periodic_spectrum_equals_looped_wrap():
    # the periodic kernel on the n x n grid sums the even kernel over all
    # offsets d = -(n-1)..(n-1) per axis at index d mod n
    nx, ny = 6, 7
    quadrant = np.random.default_rng(17).normal(size=(nx, ny))
    wrapped = np.zeros((nx, ny))
    for d1 in range(1 - nx, nx):
        for d2 in range(1 - ny, ny):
            wrapped[d1 % nx, d2 % ny] += quadrant[abs(d1), abs(d2)]
    want = sfft.fft2(wrapped)
    op = ConvolutionOperator(quadrant)
    assert "periodic_spectrum" not in vars(op)   # built on first read only
    got = op.periodic_spectrum
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert op.periodic_spectrum is got


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


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_tikhonov_refinement_meets_tol_in_float64(tol, caplog):
    # the float32 inner CG leaves float32 rounding behind; the float64
    # refinement passes must still reach tol on the true residual, down to
    # nu = 1e-8, with the kappa_h of the pipeline presets (h = 0.01)
    n = 100
    op = build_convolution_operator(KernelParams(h=0.01), n, n)
    rng = np.random.default_rng(23)
    rho = np.zeros((n, n))
    rho[30:60, 40:70] = 1.0
    u = ScalarField(op.apply(rho) + 0.01 * rng.normal(size=(n, n)))
    rho2 = ScalarField(0.5 * rho)
    for nu in (1e2, 1.0, 1e-2, 1e-4, 1e-6, 1e-8):
        b = op.apply(u.values) + nu * rho2.values
        out = tikhonov_step(u, rho2, nu, op, tol=tol)
        c2 = op.apply(op.apply(out.values))
        assert np.linalg.norm(c2 + nu * out.values - b) <= 1.01 * tol * np.linalg.norm(b)
        np.testing.assert_array_equal(out.c2, c2)
    assert "iteration cap" not in caplog.text


def test_tikhonov_iteration_cap_returns_finite_iterate(monkeypatch, caplog):
    n = 32
    op = build_convolution_operator(KernelParams(h=0.01), n, n)
    u = ScalarField(np.random.default_rng(24).normal(size=(n, n)))
    monkeypatch.setattr(deconv_stage, "CG_MAX_ITER", 3)
    with caplog.at_level("WARNING", logger="mpirecon.deconv_stage"):
        out = tikhonov_step(u, ScalarField.zeros(n, n), 1e-6, op, tol=1e-12)
    assert np.all(np.isfinite(out.values))
    np.testing.assert_array_equal(out.c2, op.apply(op.apply(out.values)))
    assert "tikhonov_step: CG hit the iteration cap" in caplog.text


@pytest.mark.parametrize("s", [1e-30, 1e30])
def test_tikhonov_step_is_scale_equivariant(s):
    # the inner float32 CG sees r / ||r||, so no scale of the data under-
    # or overflows float32 where the float64 step would not
    n = 24
    op = build_convolution_operator(PARAMS, n, n)
    rng = np.random.default_rng(25)
    u, rho2 = rng.normal(size=(2, n, n))
    want = s * tikhonov_step(ScalarField(u), ScalarField(rho2), 0.03, op, tol=1e-12).values
    got = tikhonov_step(ScalarField(s * u), ScalarField(s * rho2), 0.03, op, tol=1e-12)
    assert np.all(np.isfinite(got.values)) and np.all(np.isfinite(got.c2))
    assert np.linalg.norm(got.values - want) <= 1e-9 * np.linalg.norm(want)


def test_tikhonov_inner_iterations_run_in_float32(monkeypatch):
    # each refinement pass: float32 CG convolutions, then exactly two float64
    # convolutions for C^2 x; nothing else in a step with C u and C^2 start
    op, u = disk_trace(32)
    cu = op.apply(u.values)
    rho2 = ScalarField(np.zeros((32, 32)))
    start = tikhonov_step(u, rho2, 1.0, op, cu=cu)
    seen = []
    conv = deconv_stage.convolve_same

    def recording(x, spectrum):
        assert x.dtype == spectrum.dtype
        seen.append(x.dtype)
        return conv(x, spectrum)

    monkeypatch.setattr(deconv_stage, "convolve_same", recording)
    tikhonov_step(u, rho2, 1e-3, op, tol=1e-12, start=start, cu=cu)
    runs = [(dtype, len(list(group))) for dtype, group in itertools.groupby(seen)]
    assert len(runs) >= 4   # at least two refinement passes
    assert [dtype for dtype, _ in runs] == [np.float32, np.float64] * (len(runs) // 2)
    assert all(count == 2 for dtype, count in runs if dtype == np.float64)


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


def disk_trace(n):
    op = build_convolution_operator(PARAMS, n, n)
    rho = np.zeros((n, n))
    rho[n // 4: n // 2, n // 3: 2 * n // 3] = 1.0
    noise = 0.01 * np.random.default_rng(21).normal(size=(n, n))
    return op, ScalarField(op.apply(rho) + noise)


def test_hqs_data_steps_meet_cg_tol(monkeypatch):
    # every data step of full HQS runs, C^2 rho1 carried from step to step,
    # meets CG_TOL on the true normal-equation residual
    op, u = disk_trace(32)
    cu = op.apply(u.values)
    step = deconv_stage.tikhonov_step
    seen = []

    def checked_step(u_, rho2, nu, op_, **kw):
        out = step(u_, rho2, nu, op_, **kw)
        b = cu + nu * rho2.values
        c2 = op.apply(op.apply(out.values))
        seen.append((isinstance(kw.get("start"), DataIterate),
                     np.linalg.norm(c2 + nu * out.values - b) / np.linalg.norm(b),
                     np.linalg.norm(out.c2 - c2) / np.linalg.norm(b)))
        return out

    monkeypatch.setattr(deconv_stage, "tikhonov_step", checked_step)
    for mu in (1e-4, 1e-2, 1.0):
        hqs_deconvolve(DeconvProblem(u, PARAMS, mu=mu, nu0=1.0, iters=8), op)
    assert sum(carried for carried, _, _ in seen) >= 15
    assert max(res for _, res, _ in seen) <= 1.01 * CG_TOL
    assert max(drift for _, _, drift in seen) <= 1e-3 * CG_TOL


def test_hqs_stops_at_the_fixed_point_bitwise(monkeypatch):
    # at mu = 1e-4 the data step of iteration 6 takes no CG iteration, so
    # iterations 6.. repeat iteration 5 bitwise and the loop stops there
    op, u = disk_trace(24)
    outs = {k: hqs_deconvolve(DeconvProblem(u, PARAMS, mu=1e-4, nu0=1.0, iters=k), op)
            for k in range(4, 9)}
    assert not np.array_equal(outs[4].values, outs[8].values)
    for k in range(5, 8):
        np.testing.assert_array_equal(outs[k].values, outs[8].values)
    step = deconv_stage.tikhonov_step
    calls = []
    monkeypatch.setattr(deconv_stage, "tikhonov_step",
                        lambda *a, **kw: calls.append(1) or step(*a, **kw))
    hqs_deconvolve(DeconvProblem(u, PARAMS, mu=1e-4, nu0=1.0, iters=8), op)
    assert len(calls) == 6    # the first step and iterations 2..6


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
        DeconvProblem(u, PARAMS, mu=np.inf)
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

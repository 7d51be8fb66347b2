"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The experiment analogs
(criteria 5-7 sparse, 6 merged) share module-scoped fixtures; their grid
searches follow the two-step scheme with the documented runtime budgets.
"""

import time

import numpy as np
import pytest

from mpirecon.config import PipelineConfig
from mpirecon.core_stage import CoreProblem, energy, gradient, predict, solve_core
from mpirecon.deconv_stage import (DeconvProblem, DenoiserSpec,
                                   build_convolution_operator, estimate_sigma,
                                   hqs_deconvolve, tikhonov_step)
from mpirecon.fields import ScalarField, cell_centers
from mpirecon.forward import ScanSeries
from mpirecon.kernels import KernelParams, kernel_matrix, kernel_matrix_components, kernel_trace, langevin
from mpirecon.phantom import builtin_suite
from mpirecon.pipeline import GridSpec, run_experiment, simulate_case
from mpirecon.spectral import CoeffTensor, analyze, cos_eval, synthesize
from mpirecon.trajectory import LissajousSpec, make_scan, merge_scans, rotate_scan

from test_deconv_stage import gaussian_operator


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def base_config() -> PipelineConfig:
    cfg = PipelineConfig()  # defaults are the sparse-scan analog
    assert cfg.kernel.h == 0.01 and cfg.trajectory.L == 1632
    assert cfg.noise.fraction == 0.02
    return cfg


@pytest.fixture(scope="module")
def sparse_cases():
    cfg = base_config()
    t0 = time.time()
    cases = [simulate_case(cfg, spec) for spec in builtin_suite()]
    return cfg, cases, time.time() - t0


@pytest.fixture(scope="module")
def exp1(sparse_cases):
    cfg, cases, sim_elapsed = sparse_cases
    t0 = time.time()
    results = {}
    for order in (1, 2):
        results[order] = run_experiment(
            cfg, cases, order,
            lambda_spec=GridSpec(),                      # full two-step scan
            mu_spec=GridSpec(exponents=(-3, -2, -1, 0)),  # mu* lives well inside
        )
    return {"cfg": cfg, "cases": cases, "results": results,
            "elapsed": sim_elapsed + (time.time() - t0)}


@pytest.fixture(scope="module")
def exp2(sparse_cases):
    cfg, _, _ = sparse_cases
    merged_cfg = base_config()
    merged_cfg.trajectory.merge_rotated = True
    t0 = time.time()
    cases = [simulate_case(merged_cfg, spec) for spec in builtin_suite()]
    results = {}
    for order in (1, 2):
        results[order] = run_experiment(merged_cfg, cases, order,
                                        lambda_spec=GridSpec(),
                                        run_deconv_stage=False)
    return {"results": results, "elapsed": time.time() - t0}


def test_criterion_1_kernel_identities():
    t0 = time.time()
    p = KernelParams(h=0.01)
    rng = np.random.default_rng(100)
    ys = rng.uniform(-4, 4, size=(1000, 2))
    k11, _, k22 = kernel_matrix_components(ys[:, 0], ys[:, 1], p)
    tr = kernel_trace((ys[:, 0], ys[:, 1]), p)
    trace_err = float(np.max(np.abs((k11 + k22 - tr) / tr)))

    jac_err = 0.0
    for _ in range(60):
        r = rng.uniform(p.h, 4.0)
        phi = rng.uniform(0, 2 * np.pi)
        y = np.array([r * np.cos(phi), r * np.sin(phi)])
        K = kernel_matrix(y, p).as_array()
        step = 1e-6
        J = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            def g(q):
                rr = np.hypot(q[0], q[1])
                return langevin(rr / p.h) * q / rr
            J[:, j] = (g(y + e) - g(y - e)) / (2 * step)
        jac_err = max(jac_err, float(np.max(np.abs(K - J))) / max(1.0, float(np.max(np.abs(K)))))
    elapsed = time.time() - t0
    ok = trace_err < 1e-12 and jac_err < 1e-6 and elapsed < 1.0
    report(1, "kernel identities", ok,
           f"trace_rel={trace_err:.2e}, jac_rel={jac_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_spectral_exactness():
    t0 = time.time()
    n = 32
    xs = cell_centers(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    U = np.empty((n * n, n * n))
    for k in range(n):
        for l in range(n):
            U[k * n + l] = cos_eval((k, l), gx, gy).ravel()
    gram = (2.0 / n) * (2.0 / n) * U @ U.T
    gram_err = float(np.max(np.abs(gram - np.eye(n * n))))

    rng = np.random.default_rng(101)
    C = CoeffTensor(rng.normal(size=(32, 32, 2, 2)))
    back = analyze(synthesize(C, 32, 32))
    rt_err = float(np.max(np.abs(back.coeffs - C.coeffs)))
    elapsed = time.time() - t0
    ok = gram_err < 1e-10 and rt_err < 1e-12 and elapsed < 5.0
    report(2, "spectral exactness", ok,
           f"gram={gram_err:.2e}, roundtrip={rt_err:.2e}, {elapsed:.2f}s")


def test_criterion_3_theory_suite():
    from mpirecon.theory_checks import run_default_suite
    t0 = time.time()
    reports = run_default_suite()
    elapsed = time.time() - t0
    failed = [r.name for r in reports if not r.passed]
    ok = not failed and elapsed < 30.0
    report(3, "theory suite", ok,
           f"{len(reports)} checks, failed={failed}, {elapsed:.1f}s")


def test_criterion_4_core_self_consistency():
    t0 = time.time()
    geom = make_scan(LissajousSpec(), 1632)
    geom = merge_scans(geom, rotate_scan(geom, 1))
    rng = np.random.default_rng(102)
    gt = CoeffTensor(rng.normal(size=(16, 16, 2, 2)))
    shell = ScanSeries(geom, np.zeros((len(geom), 2)))
    series = ScanSeries(geom, predict(gt, shell))
    problem = CoreProblem(series, N=16, M=16, order=2, lam=1e-10)
    sol = solve_core(problem)
    rec_err = float(np.linalg.norm(sol.coeffs.coeffs - gt.coeffs)
                    / np.linalg.norm(gt.coeffs))

    # gradient vs central differences of the energy
    small = ScanSeries(make_scan(LissajousSpec(freq_x=3, freq_y=4), 40),
                       np.random.default_rng(103).normal(size=(40, 2)))
    sp = CoreProblem(small, N=5, M=5, order=2, lam=0.2)
    C = CoeffTensor(np.random.default_rng(104).normal(size=(5, 5, 2, 2)))
    g = gradient(C, sp).coeffs
    step = 1e-6
    grad_err = 0.0
    idx_rng = np.random.default_rng(105)
    for _ in range(20):
        idx = tuple(idx_rng.integers(0, s) for s in g.shape)
        plus = CoeffTensor(C.coeffs.copy())
        plus.coeffs[idx] += step
        minus = CoeffTensor(C.coeffs.copy())
        minus.coeffs[idx] -= step
        fd = (energy(plus, sp) - energy(minus, sp)) / (2 * step)
        grad_err = max(grad_err, abs(fd - g[idx]) / max(1.0, abs(g[idx])))
    elapsed = time.time() - t0
    ok = rec_err < 1e-4 and grad_err < 1e-6 and sol.converged and elapsed < 30.0
    report(4, "core self-consistency", ok,
           f"recovery_rel={rec_err:.2e}, grad_rel={grad_err:.2e}, {elapsed:.1f}s")


def test_criterion_5_experiment1_analog(exp1):
    r1, r2 = exp1["results"][1], exp1["results"][2]
    core_gap = r2.mean_core_psnr() - r1.mean_core_psnr()
    dec_gap = r2.mean_deconv_psnr() - r1.mean_deconv_psnr()
    core_ssim_gap = r2.mean_core_ssim() - r1.mean_core_ssim()
    dec_ssim_gap = r2.mean_deconv_ssim() - r1.mean_deconv_ssim()
    elapsed = exp1["elapsed"]
    ok = (core_gap >= 0.5 and dec_gap >= 0.3
          and core_ssim_gap >= 0.0 and dec_ssim_gap >= 0.0
          and elapsed < 600.0)
    report(5, "experiment-1 analog", ok,
           f"core {r1.mean_core_psnr():.2f}->{r2.mean_core_psnr():.2f} dB "
           f"(gap {core_gap:+.2f}), deconv {r1.mean_deconv_psnr():.2f}->"
           f"{r2.mean_deconv_psnr():.2f} dB (gap {dec_gap:+.2f}), "
           f"ssim gaps {core_ssim_gap:+.3f}/{dec_ssim_gap:+.3f}, "
           f"lambda*=({r1.lam:g},{r2.lam:g}) mu*=({r1.mu:g},{r2.mu:g}), "
           f"{elapsed:.0f}s")


def test_criterion_6_experiment2_analog(exp1, exp2):
    e1, e2 = exp1["results"], exp2["results"]
    gain1 = e2[1].mean_core_psnr() - e1[1].mean_core_psnr()
    gain2 = e2[2].mean_core_psnr() - e1[2].mean_core_psnr()
    order_gap = e2[2].mean_core_psnr() - e2[1].mean_core_psnr()
    elapsed = exp2["elapsed"]
    ok = gain1 >= 1.0 and gain2 >= 1.0 and order_gap >= 0.5 and elapsed < 900.0
    report(6, "experiment-2 analog", ok,
           f"dense-vs-sparse gains: order1 {gain1:+.2f} dB, order2 {gain2:+.2f} dB; "
           f"order2-order1 (dense) {order_gap:+.2f} dB; {elapsed:.0f}s")


def discrete_tv(values):
    return (float(np.sum(np.abs(np.diff(values, axis=0))))
            + float(np.sum(np.abs(np.diff(values, axis=1)))))


def high_band_energy(trace, cutoff=40):
    from mpirecon.spectral import analyze_scalar
    c = analyze_scalar(trace)
    k = np.add.outer(np.arange(c.shape[0]) ** 2, np.arange(c.shape[1]) ** 2)
    return float(np.sqrt(np.sum(c[k > cutoff ** 2] ** 2)))


def test_criterion_7_spikiness_reduction(exp1):
    """The order-2 core trace is less spiky than the order-1 trace on every phantom.

    Spikiness is the variation a trace has that the ideal trace does not:
    the discrete TV of the error, TV(trace - u_gt).  It is zero for the exact
    trace and grows with spikes and oscillations.  The raw TV(trace) is not
    the measure, because it also counts the true edges: the ideal annulus
    trace has a higher raw TV than either reconstruction, so a trace that
    over-smooths the edges would score as less spiky than the truth.
    """
    r1, r2 = exp1["results"][1], exp1["results"][2]
    u_gt = {case.name: case.u_gt.values for case in exp1["cases"]}
    rows = []
    for name in r1.traces:
        t1, t2 = r1.traces[name], r2.traces[name]
        rows.append((name, discrete_tv(u_gt[name]),
                     discrete_tv(t1.values), discrete_tv(t2.values),
                     discrete_tv(t1.values - u_gt[name]),
                     discrete_tv(t2.values - u_gt[name]),
                     high_band_energy(t1), high_band_energy(t2)))
    ok = all(err1 > err2 for _, _, _, _, err1, err2, _, _ in rows)
    detail = ", ".join(
        f"{n}: TV(gt) {gt:.1f}, TV {tv1:.1f} vs {tv2:.1f}, "
        f"error TV {e1:.1f} vs {e2:.1f} (high-band {h1:.3f} vs {h2:.3f})"
        for n, gt, tv1, tv2, e1, e2, h1, h2 in rows)
    report(7, "spikiness reduction", ok, detail)


def test_criterion_8_hqs_machinery():
    # (a) tikhonov vs periodic Fourier-division oracle on a wraparound-safe kernel
    from scipy import fft as sfft
    n = 48
    op = gaussian_operator(n, std_cells=1.2)
    rng = np.random.default_rng(106)
    rho_true = np.zeros((n, n))
    rho_true[18:30, 20:28] = rng.uniform(size=(12, 8))
    u_vals = op.apply(rho_true)
    u_vals[16:32, 16:32] += 0.01 * rng.normal(size=(16, 16))
    u = ScalarField(u_vals)
    nu = 0.05
    got = tikhonov_step(u, ScalarField.zeros(n, n), nu, op, tol=1e-12)
    khat = op.periodic_spectrum
    oracle = np.real(sfft.ifft2((np.conj(khat) * sfft.fft2(u.values))
                                / (np.abs(khat) ** 2 + nu)))
    tik_err = float(np.max(np.abs(got.values - oracle)))

    # (b) sigma estimate vs two-pass variance oracle
    x = rng.normal(size=(64, 64))
    two_pass = float(np.sqrt(np.mean((x - x.mean()) ** 2)))
    sig_err = abs(estimate_sigma(ScalarField(x)) - two_pass)

    # (c) HQS with identity denoiser and one iteration == single Tikhonov step
    params = KernelParams(h=0.05)
    cop = build_convolution_operator(params, 32, 32)
    u2 = ScalarField(rng.normal(size=(32, 32)))
    prob = DeconvProblem(u2, params, mu=0.02, nu0=3.0, iters=1,
                         denoiser=DenoiserSpec(width_factor=0.0))
    got_hqs = hqs_deconvolve(prob, cop)
    want = tikhonov_step(u2, ScalarField.zeros(32, 32), 3.0, cop)
    hqs_exact = bool(np.array_equal(got_hqs.values, want.values))

    ok = tik_err < 1e-6 and sig_err < 1e-12 and hqs_exact
    report(8, "HQS machinery", ok,
           f"fourier_oracle={tik_err:.2e}, sigma_err={sig_err:.2e}, "
           f"one-step-identity exact={hqs_exact}")


def test_criterion_9_determinism(tmp_path):
    from mpirecon.cli import main
    fast = ["--set", "grids.fine_nx=128", "--set", "grids.recon_nx=50",
            "--set", "grids.coeff_n=32", "--set", "trajectory.L=408",
            "--set", "deconv.iters=3"]
    blobs = []
    for run in ("a", "b"):
        sim = str(tmp_path / f"sim_{run}")
        rec = str(tmp_path / f"rec_{run}")
        assert main(fast + ["simulate", "--out", sim]) == 0
        assert main(fast + ["reconstruct", f"{sim}/scan.csv", "--out", rec]) == 0
        names = ["scan.csv", "ground_truth.pgm", "ideal_trace.pgm"]
        blob = b"".join(open(f"{sim}/{n}", "rb").read() for n in names)
        names = ["coeffs.mpic", "trace.pgm", "trace.range",
                 "reconstruction.pgm", "reconstruction.range",
                 "core_diagnostics.csv"]
        blob += b"".join(open(f"{rec}/{n}", "rb").read() for n in names)
        blobs.append(blob)
    ok = blobs[0] == blobs[1]
    report(9, "determinism", ok, f"{len(blobs[0])} artifact bytes compared")

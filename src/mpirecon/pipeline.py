"""End-to-end composition: simulate, reconstruct, and parameter search.

The forward simulation runs on the fine grid and the reconstruction on the
coarser spectral grid, so the inverse solver never sees its own
discretization.  Parameter search follows the two-step scheme: a coarse
magnitude scan over j*10^i with j in {1,5}, then a refined scan j in {1..9}
over the neighboring magnitudes of the best coarse hit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import phantom as ph
from .config import ConfigError, PipelineConfig
from .core_stage import CoreProblem, CoreSolution, CoreSystem, solve_core, trace_field
from .deconv_stage import (ConvolutionOperator, DeconvProblem, DenoiserSpec,
                           build_convolution_operator, hqs_deconvolve, hqs_first_step)
from .fields import FormatError, ScalarField, resample_bilinear
from .forward import ScanSeries, core_response_field, simulate_series
from .kernels import KernelParams
from .metrics import ideal_trace, score_pair
from .spectral import CoeffTensor
from .trajectory import LissajousSpec, ScanGeometry, make_scan, merge_scans, rotate_scan


@contextmanager
def _config_values(section: str):
    """Report a domain class's own ValueError on config values as a ConfigError.

    A malformed input file named by the config stays a FormatError (I/O).
    """
    try:
        yield
    except FormatError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {section} configuration: {exc}") from exc


def kernel_params(cfg: PipelineConfig) -> KernelParams:
    with _config_values("kernel"):
        return KernelParams(cfg.kernel.h)


def scan_geometry(cfg: PipelineConfig) -> ScanGeometry:
    t = cfg.trajectory
    with _config_values("trajectory"):
        geom = make_scan(LissajousSpec(t.freq_x, t.freq_y, t.phase_x, t.phase_y), t.L)
        if t.merge_rotated:
            geom = merge_scans(geom, rotate_scan(geom, 1))
    return geom


def phantom_spec(cfg: PipelineConfig) -> ph.PhantomSpec:
    kind = cfg.phantom.kind
    builtins = {spec.name: spec for spec in (*ph.builtin_suite(), ph.k_stroke())}
    with _config_values("phantom"):
        if kind == "from_file":
            return ph.from_file(cfg.phantom.path, intensity=cfg.phantom.intensity)
        if kind in builtins:
            return replace(builtins[kind], intensity=cfg.phantom.intensity)
        raise ValueError(f"unknown phantom kind {kind!r}")


def denoiser_spec(cfg: PipelineConfig) -> DenoiserSpec:
    d = cfg.deconv
    with _config_values("deconv"):
        return DenoiserSpec(d.denoiser, d.denoiser_width, d.external_command,
                            d.timeout)


@dataclass
class SimCase:
    """One simulated phantom: scan data plus ground truths on both grids."""

    name: str
    rho_gt: ScalarField          # fine grid
    series: ScanSeries
    u_gt: ScalarField            # ideal trace on the reconstruction grid
    rho_gt_recon: ScalarField    # ground truth resampled to the recon grid


def simulate_case(cfg: PipelineConfig, spec: ph.PhantomSpec | None = None) -> SimCase:
    """Rasterize, convolve on the fine grid, sample the scan, add noise."""
    if spec is None:
        spec = phantom_spec(cfg)
    params = kernel_params(cfg)
    n_fine = cfg.grids.fine_nx
    n_rec = cfg.grids.recon_nx
    with _config_values("grids"):
        rho = ph.rasterize(spec, n_fine, n_fine)
        rho_gt_recon = resample_bilinear(rho, n_rec, n_rec)
    A = core_response_field(rho, params)
    geom = scan_geometry(cfg)
    with _config_values("noise"):
        series = simulate_series(A, geom, cfg.noise.fraction, cfg.noise.seed)
    u_gt = ideal_trace(rho, params, n_rec, n_rec)
    return SimCase(spec.name or spec.kind, rho, series, u_gt, rho_gt_recon)


def core_problem(cfg: PipelineConfig, series: ScanSeries, lam: float | None = None,
                 order: int | None = None) -> CoreProblem:
    n = cfg.grids.coeff_n
    with _config_values("core"):
        return CoreProblem(series, N=n, M=n,
                           order=cfg.core.order if order is None else order,
                           lam=cfg.core.lam if lam is None else lam)


def run_core(cfg: PipelineConfig, series: ScanSeries, **kw) -> tuple[CoreSolution, ScalarField]:
    sol = solve_core(core_problem(cfg, series, **kw))
    n_rec = cfg.grids.recon_nx
    with _config_values("grids"):
        return sol, trace_field(sol.coeffs, n_rec, n_rec)


def deconv_problem(cfg: PipelineConfig, trace: ScalarField,
                   mu: float | None = None) -> DeconvProblem:
    d = cfg.deconv
    params, denoiser = kernel_params(cfg), denoiser_spec(cfg)
    with _config_values("deconv"):
        return DeconvProblem(trace, params, mu=d.mu if mu is None else mu,
                             nu0=d.nu0, iters=d.iters, denoiser=denoiser)


def convolution_operator(cfg: PipelineConfig, n: int) -> ConvolutionOperator:
    """The deconvolution operator on the n x n grid."""
    params = kernel_params(cfg)
    with _config_values("grids"):
        return build_convolution_operator(params, n, n)


def run_deconv(cfg: PipelineConfig, trace: ScalarField, mu: float | None = None) -> ScalarField:
    return hqs_deconvolve(deconv_problem(cfg, trace, mu), convolution_operator(cfg, trace.nx))


@dataclass
class ReconstructionResult:
    solution: CoreSolution
    trace: ScalarField
    rho: ScalarField


def reconstruct(cfg: PipelineConfig, series: ScanSeries) -> ReconstructionResult:
    sol, trace = run_core(cfg, series)
    rho = run_deconv(cfg, trace)
    return ReconstructionResult(sol, trace, rho)


# ---------------------------------------------------------------------------
# parameter search


@dataclass
class GridSpec:
    """Search grid: coarse mantissas x 10^exponents, optionally refined."""

    exponents: tuple = (-3, -2, -1, 0, 1, 2, 3)
    mantissas: tuple = (1.0, 5.0)
    refine: bool = True
    values: tuple = ()           # explicit grid; disables the two-step scheme

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse ';'-separated entries, e.g. 'i=-3:1;j=1,5' or 'values=0.01,0.05'."""
        spec = GridSpec()
        if not text or text == "default":
            return spec
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            key = key.strip()
            if key == "i":
                lo, _, hi = val.partition(":")
                spec.exponents = tuple(range(int(lo), int(hi) + 1))
            elif key == "j":
                spec.mantissas = tuple(float(v) for v in val.split(","))
            elif key == "refine":
                spec.refine = val.strip().lower() in ("1", "true", "yes")
            elif key == "values":
                spec.values = tuple(float(v) for v in val.split(","))
            else:
                raise ValueError(f"bad grid spec entry {part!r}")
        return spec


@dataclass
class SearchResult:
    best_value: float
    best_score: float
    rows: list = field(default_factory=list)   # (value, mean_psnr, mean_ssim)


def _two_step(spec: GridSpec, score_fn):
    """Shared two-step search over the grid values; returns a SearchResult."""
    cache: dict[float, tuple[float, float]] = {}
    rows = []

    def eval_value(v):
        if v not in cache:
            cache[v] = score_fn(v)
        rows.append((v, *cache[v]))
        return cache[v][0]

    if spec.values:
        for v in sorted(spec.values, reverse=True):
            eval_value(v)
    else:
        coarse = [(j, i) for i in spec.exponents for j in spec.mantissas]
        coarse_vals = sorted({j * 10.0 ** i for j, i in coarse}, reverse=True)
        for v in coarse_vals:
            eval_value(v)
        if spec.refine:
            best = max(cache.items(), key=lambda kv: kv[1][0])[0]
            i_star = int(np.floor(np.log10(best) + 1e-12))
            refined = sorted({j * 10.0 ** i
                              for i in (i_star - 1, i_star, i_star + 1)
                              for j in range(1, 10)}, reverse=True)
            for v in refined:
                eval_value(v)
    best_value = max(cache.items(), key=lambda kv: kv[1][0])[0]
    return SearchResult(best_value, cache[best_value][0], rows)


def _core_traces(cfg: PipelineConfig, cases: list[SimCase], order: int):
    """A function lam -> the cases' core-stage traces, in case order.

    Cases scanned along the same geometry share one CoreSystem: its Gram
    matrix is built once, and each lambda costs one factorization with
    every such case's signals as right-hand sides.
    """
    groups: dict[bytes, list[int]] = {}
    for i, case in enumerate(cases):
        geom = case.series.geometry
        key = geom.positions.tobytes() + geom.velocities.tobytes()
        groups.setdefault(key, []).append(i)
    systems = [(idx, CoreSystem(core_problem(cfg, cases[idx[0]].series, order=order)),
                np.stack([cases[i].series.signals for i in idx]))
               for idx in groups.values()]
    n = cfg.grids.recon_nx

    def traces(lam: float) -> list[ScalarField]:
        out = [None] * len(cases)
        for idx, system, signals in systems:
            for i, coeffs in zip(idx, system.solve(signals, lam)):
                out[i] = trace_field(CoeffTensor(coeffs), n, n)
        return out

    return traces


def _search_traces(traces_at, cases: list[SimCase], spec: GridSpec | None) -> SearchResult:
    """Two-step lambda search on the mean trace PSNR against the cases' u_gt."""

    def score(lam: float) -> tuple[float, float]:
        psnrs, ssims = zip(*(score_pair(tr, case.u_gt)
                             for tr, case in zip(traces_at(lam), cases)))
        return float(np.mean(psnrs)), float(np.mean(ssims))

    return _two_step(spec or GridSpec(), score)


def search_lambda(cfg: PipelineConfig, cases: list[SimCase], order: int,
                  spec: GridSpec | None = None) -> SearchResult:
    """Pick lambda maximizing the mean core-stage trace PSNR over the cases."""
    return _search_traces(_core_traces(cfg, cases, order), cases, spec)


def _deconv_recons(cfg: PipelineConfig, traces: list[ScalarField]):
    """A function mu -> the traces' deconvolutions, in trace order.

    The traces share one convolution operator, and each trace's first HQS
    iteration, which does not depend on mu, is computed once.
    """
    op = convolution_operator(cfg, traces[0].nx) if traces else None
    firsts = [None] * len(traces)

    def recons(mu: float) -> list[ScalarField]:
        out = []
        for i, trace in enumerate(traces):
            problem = deconv_problem(cfg, trace, mu)
            if firsts[i] is None:
                firsts[i] = hqs_first_step(problem, op)
            out.append(hqs_deconvolve(problem, op, firsts[i]))
        return out

    return recons


def _search_recons(recons_at, gts: list[ScalarField], spec: GridSpec | None) -> SearchResult:
    """Two-step mu search on the mean deconvolution PSNR against gts."""

    def score(mu: float) -> tuple[float, float]:
        psnrs, ssims = zip(*(score_pair(rho, gt) for rho, gt in zip(recons_at(mu), gts)))
        return float(np.mean(psnrs)), float(np.mean(ssims))

    return _two_step(spec or GridSpec(), score)


def search_mu(cfg: PipelineConfig, traces: list[tuple[ScalarField, ScalarField]],
              spec: GridSpec | None = None) -> SearchResult:
    """Pick mu maximizing mean deconvolution PSNR over (trace, rho_gt) pairs."""
    return _search_recons(_deconv_recons(cfg, [tr for tr, _ in traces]),
                          [gt for _, gt in traces], spec)


# ---------------------------------------------------------------------------
# experiment driver (used by the CLI and the acceptance suite)


@dataclass
class OrderScores:
    order: int
    lam: float
    mu: float
    core_scores: list = field(default_factory=list)    # (name, psnr, ssim)
    deconv_scores: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)          # name -> ScalarField
    recons: dict = field(default_factory=dict)

    def mean_core_psnr(self) -> float:
        return float(np.mean([p for _, p, _ in self.core_scores]))

    def mean_core_ssim(self) -> float:
        return float(np.mean([s for _, _, s in self.core_scores]))

    def mean_deconv_psnr(self) -> float:
        return float(np.mean([p for _, p, _ in self.deconv_scores]))

    def mean_deconv_ssim(self) -> float:
        return float(np.mean([s for _, _, s in self.deconv_scores]))


def run_experiment(cfg: PipelineConfig, cases: list[SimCase], order: int,
                   lambda_spec: GridSpec | None = None,
                   mu_spec: GridSpec | None = None,
                   run_deconv_stage: bool = True) -> OrderScores:
    """Grid-search lambda (and mu), then score final solutions per phantom."""
    traces_at = _core_traces(cfg, cases, order)
    lam = _search_traces(traces_at, cases, lambda_spec).best_value
    result = OrderScores(order, lam, float("nan"))
    traces = traces_at(lam)
    for case, tr in zip(cases, traces):
        p, s = score_pair(tr, case.u_gt)
        result.core_scores.append((case.name, p, s))
        result.traces[case.name] = tr
    if run_deconv_stage:
        recons_at = _deconv_recons(cfg, traces)
        gts = [case.rho_gt_recon for case in cases]
        result.mu = _search_recons(recons_at, gts, mu_spec).best_value
        for case, rho, gt in zip(cases, recons_at(result.mu), gts):
            p, s = score_pair(rho, gt)
            result.deconv_scores.append((case.name, p, s))
            result.recons[case.name] = rho
    return result

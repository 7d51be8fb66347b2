"""End-to-end composition: simulate, reconstruct, and parameter search.

The forward simulation runs on the fine grid and the reconstruction on the
coarser spectral grid, so the inverse solver never sees its own
discretization.  Parameter search follows the two-step scheme: a coarse
magnitude scan over j*10^i with j in {1,5}, then a refined scan j in {1..9}
over the neighboring magnitudes of the best coarse hit.  The grid values of
a step are independent runs.  A mu step evaluates them in worker processes
forked for the step, one per usable CPU, since each HQS run's CG holds the
GIL for its Python code and FFT dispatch; its workers are joined before the
step returns.  A lambda step runs in the caller: its Cholesky factor and
solves hold the GIL too, and a forked worker with its own BLAS threads
would oversubscribe the CPUs.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import phantom as ph
from .config import ConfigError, PipelineConfig, _coerce
from .core_stage import CoreProblem, CoreSolution, CoreSystem, solve_core, trace_field
from .deconv_stage import (ConvolutionOperator, DeconvProblem, DenoiserSpec,
                           build_convolution_operator, hqs_deconvolve, hqs_solver)
from .fields import ScalarField, resample_bilinear
from .forward import ScanSeries, core_response_field, simulate_series
from .kernels import KernelParams
from .metrics import SSIM_WINDOW, ideal_trace, score_pair
from .spectral import CoeffTensor
from .trajectory import LissajousSpec, ScanGeometry, make_scan, merge_scans, rotate_scan


@contextmanager
def _config_values(section: str):
    """Report a domain class's own ValueError on config values as a ConfigError."""
    try:
        yield
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
    u_gt = ideal_trace(A, n_rec, n_rec)
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

    def __post_init__(self):
        if not (self.values or (self.exponents and self.mantissas)):
            raise ValueError("grid spec has no grid values")
        if not all(math.isfinite(v) and v > 0 for v in (*self.values, *self.mantissas)):
            raise ValueError("grid values and mantissas must be positive and finite")
        # every value either step may visit: the refine step may centre on any coarse value
        try:
            coarse = self.coarse()
            ok = all(math.isfinite(v) and v > 0 for v in coarse)
            if ok and self.refine and not self.values:
                ok = all(math.isfinite(v) and v > 0
                         for best in coarse for v in self.neighbourhood(best))
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError("grid exponents must give positive, finite values")

    def coarse(self):
        """The first step's values: the explicit grid, or j * 10^i."""
        return self.values or {j * 10.0 ** i for i in self.exponents for j in self.mantissas}

    @staticmethod
    def neighbourhood(best: float) -> set:
        """The refine step's values: j = 1..9 over the magnitudes next to best's."""
        i_star = int(np.floor(np.log10(best) + 1e-12))
        return {j * 10.0 ** i for i in (i_star - 1, i_star, i_star + 1) for j in range(1, 10)}

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse ';'-separated entries, e.g. 'i=-3:1;j=1,5' or 'values=0.01,0.05'."""
        kw = {}
        for part in ("" if text == "default" else text or "").split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            key = key.strip()
            if key == "i":
                lo, _, hi = val.partition(":")
                kw["exponents"] = tuple(range(int(lo), int(hi) + 1))
            elif key == "j":
                kw["mantissas"] = tuple(float(v) for v in val.split(","))
            elif key == "refine":
                kw["refine"] = _coerce(True, val)
            elif key == "values":
                kw["values"] = tuple(float(v) for v in val.split(","))
            else:
                raise ValueError(f"bad grid spec entry {part!r}")
        return GridSpec(**kw)


@dataclass
class SearchResult:
    best_value: float
    best_score: float
    rows: list = field(default_factory=list)      # (value, mean_psnr, mean_ssim)
    outputs: list = field(default_factory=list)   # the best value's outputs
    scores: list = field(default_factory=list)    # their (psnr, ssim), per output


_step = None   # (fn, items) of the step a forked worker serves


def _serve_step(fn, items):
    global _step
    _step = fn, items


def _run_item(i):
    fn, items = _step
    return fn(items[i])


def _parallel_map(fn, items):
    """fn over items in worker processes forked for this call, one per usable
    CPU and at most one per item; yields the results in order and re-raises
    a task's exception in the caller.  The workers inherit fn and the items
    through the fork, so neither is pickled: only indices go out and results
    come back.  A task's error, an interrupt or closing the generator early
    cancels the items not yet handed to a worker.  The workers are joined
    before the generator finishes, so calls may nest.  The items run in the
    caller where fork is not safe (any platform but Linux) or one worker
    would do.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items)) if sys.platform == "linux" else 1
    if workers < 2:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_serve_step, initargs=(fn, items)) as pool:
        try:
            yield from pool.map(_run_item, range(len(items)))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _search(outputs_at, gts: list[ScalarField], spec: GridSpec | None,
            step_map=map) -> SearchResult:
    """Two-step search scoring outputs_at(v) by mean PSNR/SSIM against gts.

    Each grid value is evaluated once; a value the grid visits again adds a
    row with its first scores.  The first value with the highest mean PSNR
    wins, and the result keeps its outputs.  A step's new values are
    evaluated by step_map (map, or _parallel_map to run them in worker
    processes) and scored in the caller in the serial order, so the result
    is the serial loop's, bit for bit.  The result keeps the winner's
    per-output scores too, so its outputs need no second scoring.
    """
    if any(min(gt.values.shape) < SSIM_WINDOW for gt in gts):
        raise ConfigError(f"bad grids configuration: searches score by SSIM, "
                          f"which needs recon_nx >= {SSIM_WINDOW}")
    spec = spec or GridSpec()
    means: dict[float, tuple[float, float]] = {}
    result = SearchResult(math.nan, math.nan)

    def visit(values):
        values = sorted(values, reverse=True)
        new = [v for v in dict.fromkeys(values) if v not in means]
        # strict: zip asks past the last result, which joins the step's workers
        for v, outputs in zip(new, step_map(outputs_at, new), strict=True):
            scores = [score_pair(out, gt) for out, gt in zip(outputs, gts)]
            psnrs, ssims = zip(*scores)
            means[v] = float(np.mean(psnrs)), float(np.mean(ssims))
            if len(means) == 1 or means[v][0] > result.best_score:
                result.best_value, result.best_score = v, means[v][0]
                result.outputs, result.scores = outputs, scores
        result.rows.extend((v, *means[v]) for v in values)

    visit(spec.coarse())
    if spec.refine and not spec.values:
        visit(spec.neighbourhood(result.best_value))
    return result


def _core_traces(cfg: PipelineConfig, cases: list[SimCase], order: int):
    """A function lam -> the cases' core-stage traces, in case order.

    Cases scanned along the same geometry share one CoreSystem: its Gram
    matrix is built once, their signals' right-hand sides are prepared once
    (CoreSystem.solver), and each lambda costs one factorization with every
    such case's signals as right-hand sides.
    """
    groups: dict[bytes, list[int]] = {}
    for i, case in enumerate(cases):
        geom = case.series.geometry
        key = geom.positions.tobytes() + geom.velocities.tobytes()
        groups.setdefault(key, []).append(i)
    # the system reads no lambda: any valid one will do, so the config's
    # own lambda, which the search replaces, is not checked
    solvers = [(idx, CoreSystem(core_problem(cfg, cases[idx[0]].series, lam=1.0, order=order))
                .solver(np.stack([cases[i].series.signals for i in idx])))
               for idx in groups.values()]
    n = cfg.grids.recon_nx

    def traces(lam: float) -> list[ScalarField]:
        out = [None] * len(cases)
        for idx, solve in solvers:
            for i, coeffs in zip(idx, solve(lam)):
                out[i] = trace_field(CoeffTensor(coeffs), n, n)
        return out

    return traces


def search_lambda(cfg: PipelineConfig, cases: list[SimCase], order: int,
                  spec: GridSpec | None = None) -> SearchResult:
    """Pick lambda maximizing the mean core-stage trace PSNR over the cases.

    The steps run in the caller (see the module docstring).
    """
    return _search(_core_traces(cfg, cases, order), [case.u_gt for case in cases], spec)


def _deconv_recons(cfg: PipelineConfig, traces: list[ScalarField]):
    """A function mu -> the traces' deconvolutions, in trace order.

    Traces of the same grid size share one convolution operator.  Each
    trace's HQS solver, which runs the mu-free first iteration, is built
    once, up front, in the caller, so that the workers of every mu step
    inherit it.
    """
    ops = {n: convolution_operator(cfg, n) for n in {trace.nx for trace in traces}}
    # the solver reads no mu: any valid one will do, so the config's own
    # mu, which the search replaces, is not checked
    solvers = [hqs_solver(deconv_problem(cfg, trace, mu=1.0), ops[trace.nx])
               for trace in traces]

    def recons(mu: float) -> list[ScalarField]:
        return [solve(mu) for solve in solvers]

    return recons


def search_mu(cfg: PipelineConfig, traces: list[tuple[ScalarField, ScalarField]],
              spec: GridSpec | None = None) -> SearchResult:
    """Pick mu maximizing mean deconvolution PSNR over (trace, rho_gt) pairs.

    Each step's values run in forked worker processes (_parallel_map).
    """
    return _search(_deconv_recons(cfg, [tr for tr, _ in traces]),
                   [gt for _, gt in traces], spec, _parallel_map)


# ---------------------------------------------------------------------------
# experiment driver (used by the acceptance suite)


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
    """Grid-search lambda (and mu); the winners' outputs and per-phantom
    scores are the searches' own."""
    lam = search_lambda(cfg, cases, order, lambda_spec)
    result = OrderScores(order, lam.best_value, math.nan)
    for case, tr, scores in zip(cases, lam.outputs, lam.scores):
        result.core_scores.append((case.name, *scores))
        result.traces[case.name] = tr
    if run_deconv_stage:
        mu = search_mu(cfg, [(tr, case.rho_gt_recon) for tr, case in zip(lam.outputs, cases)],
                       mu_spec)
        result.mu = mu.best_value
        for case, rho, scores in zip(cases, mu.outputs, mu.scores):
            result.deconv_scores.append((case.name, *scores))
            result.recons[case.name] = rho
    return result

"""Stage 2: regularized deconvolution of the trace by half-quadratic splitting.

The data model is kappa_h * rho = u.  HQS alternates a Tikhonov-coupled
data step with a denoising step:

    rho1 <- argmin ||u - C rho||^2 + nu_k ||rho - rho2||^2
    sigma <- sqrt(Var(rho1));  nu <- mu / sigma^2
    rho2 <- Denoiser(rho1, sigma)

C = W Ct W^T is the linear (zero-padded) discrete convolution with kappa_h:
the circulant Ct on the forward model's padded FFT grid, whose real
spectrum K is the DCT-I of kappa_h's nonnegative-offset quadrant, seen
through the image window W.  The Tikhonov subproblem (C^2 + nu) rho = b is
solved by mixed-precision iterative refinement (Carson & Higham, SIAM J.
Sci. Comput. 40, 2018): each pass forms the residual in float64 and solves
for the correction by CG in float32, on the residual scaled to unit norm,
preconditioned with the padded-grid inverse restricted to the window,
M = W F^-1 diag(1 / (K^2 + nu)) F W^T: one more convolution per
iteration, SPD as the restriction of an SPD circulant (Ku & Kuo, IEEE TSP
40, 1992).  Each data step hands on its solution with C^2 of it
(``DataIterate``), the float64 C^2 x its last residual check computed, so
the next step's initial residual needs no convolution.  A data step whose
initial residual already meets the tolerance returns its start unchanged;
from there every HQS iteration repeats bitwise, so the loop stops.  The
first iteration does not depend on mu, so a search over mu computes it
once per trace (``hqs_first_step``).  The denoiser is pluggable: the
built-in choice is a Gaussian blur keyed to sigma, and an external-process
protocol lets a learned denoiser drop in without code changes.
"""

from __future__ import annotations

import functools
import logging
import os
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft
from scipy.ndimage import gaussian_filter

from .fields import ScalarField, load_field, save_field
from .forward import convolve_same, offset_grids, quadrant_spectrum
from .kernels import KernelParams, kernel_trace

log = logging.getLogger(__name__)

CG_MAX_ITER = 1000  # cap on CG iterations per Tikhonov step, all passes together
CG_TOL = 1e-6       # relative float64 residual at which a Tikhonov step stops
# Floor on the float32 CG's relative residual within one refinement pass:
# 8 float32 ulps (9.5e-7).  A float32 solve cannot take the true residual
# much below a few ulps, so a tighter inner stop only spends iterations;
# the next float64 pass goes further.
INNER_TOL_FLOOR = 8 * float(np.finfo(np.float32).eps)


class ConvolutionOperator:
    """Linear (zero-padded) 2D convolution with a kernel even in each axis.

    The kernel is given by its nonnegative-offset quadrant, quadrant[i, j]
    at offset (i, j), already scaled by the cell area; k(-y1, y2) =
    k(y1, -y2) = k(y) fills in the rest, so C is its own adjoint and its
    spectrum is the DCT-I of the quadrant.  No full stencil is built.
    """

    def __init__(self, quadrant: np.ndarray):
        self._quadrant = quadrant
        self._khat = quadrant_spectrum(quadrant)
        self._khat32 = self._khat.astype(np.float32)

    @functools.cached_property
    def periodic_spectrum(self) -> np.ndarray:
        """Spectrum of the periodic (wrapped) kernel on the n x n grid."""
        return sfft.fft2(_wrap(self._quadrant))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return convolve_same(x, self._khat)

    def apply_single(self, x: np.ndarray) -> np.ndarray:
        """C in float32, for a float32 x."""
        return convolve_same(x, self._khat32)

    def preconditioner(self, nu: float, dtype=np.float64):
        """r -> W (Ct^2 + nu)^-1 W^T r, Ct the circulant on the padded grid.

        The spectrum is formed in float64 and cast to ``dtype`` once.
        """
        spectrum = (1.0 / (self._khat * self._khat + nu)).astype(dtype, copy=False)
        return lambda r: convolve_same(r, spectrum)


def _wrap(quadrant: np.ndarray) -> np.ndarray:
    """Fold the even kernel's offsets onto the circular indices, k -> k mod n.

    Offset -k lands on n - k and holds quadrant[k], one axis at a time.
    """
    rows = quadrant.copy()
    rows[1:] += quadrant[:0:-1]
    out = rows.copy()
    out[:, 1:] += rows[:, :0:-1]
    return out


def build_convolution_operator(params: KernelParams, nx: int,
                               ny: int) -> ConvolutionOperator:
    """C_h: convolution with kappa_h sampled on grid offsets times cell area.

    kappa_h is radial, so the kernel is even in each axis.
    """
    if nx < 8 or ny < 8:
        raise ValueError("deconvolution grid must be at least 8x8")
    return ConvolutionOperator(
        kernel_trace(offset_grids(nx, ny), params) * (2.0 / nx) * (2.0 / ny))


def _pcg(apply_a, x, r, precond, tol, maxiter):
    """Preconditioned CG from the iterate x with residual r = b - A x.

    Stops once ||r|| <= tol, absolute, or after maxiter iterations; x and r
    are updated in place.  Returns the number of iterations.
    """
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= tol:
            return it
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return maxiter


@dataclass
class DataIterate(ScalarField):
    """A data step's solution rho1 together with c2 = C^2 rho1."""

    c2: np.ndarray


def tikhonov_step(u: ScalarField, rho2: ScalarField, nu: float,
                  op: ConvolutionOperator, tol: float = CG_TOL,
                  start: ScalarField | None = None,
                  cu: np.ndarray | None = None) -> DataIterate:
    """argmin ||u - C rho||^2 + nu ||rho - rho2||^2: (C^2 + nu) rho = b.

    Mixed-precision iterative refinement from ``start`` (default rho2).
    Each pass forms the residual r = b - (C^2 x + nu x) in float64, solves
    (C^2 + nu) d = r / ||r|| by preconditioned CG in float32, adds
    x += ||r|| d and takes C^2 x by two float64 convolutions.  The passes
    stop once ||r|| <= ``tol`` ||b||, so ``tol`` holds for the float64
    residual and the returned C^2 is that of the float64 check.  A
    ``start`` that is a DataIterate brings C^2 of itself, so the initial
    residual costs no convolution; when that residual already meets
    ``tol``, ``start`` itself is returned.  ``cu`` is C u when the caller
    has it.  CG iterations are capped at CG_MAX_ITER over all passes, and a
    pass that does not shrink the float64 residual is dropped; either ends
    the step with a warning.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    b = (op.apply(u.values) if cu is None else cu) + nu * rho2.values
    if not np.any(b):  # the minimizer is 0
        return DataIterate(np.zeros_like(b), np.zeros_like(b))
    x0 = rho2 if start is None else start
    x = x0.values
    if isinstance(x0, DataIterate):
        c2 = x0.c2
    else:
        c2 = op.apply(op.apply(x)) if np.any(x) else np.zeros_like(b)
    r = b - (c2 + nu * x)   # as b - A x, so that consistent data gives r = 0 exactly
    bnorm = float(np.linalg.norm(b))
    rnorm = float(np.linalg.norm(r))
    if rnorm <= tol * bnorm:
        return x0 if isinstance(x0, DataIterate) else DataIterate(x.copy(), c2)

    nu32 = np.float32(nu)

    def apply_a(p):
        return op.apply_single(op.apply_single(p)) + nu32 * p

    precond = op.preconditioner(nu, np.float32)
    budget = CG_MAX_ITER
    while budget > 0:
        # r / ||r|| in float64 first: r itself may lie outside float32's range
        r32 = (r * (1.0 / rnorm)).astype(np.float32)
        d = np.zeros_like(r32)
        budget -= _pcg(apply_a, d, r32, precond,
                       max(tol * bnorm / rnorm, INNER_TOL_FLOOR), budget)
        x_new = x + np.float64(rnorm) * d   # in float64, as ||r|| may not fit float32
        c2_new = op.apply(op.apply(x_new))
        r_new = b - (c2_new + nu * x_new)
        rnorm_new = float(np.linalg.norm(r_new))
        if not rnorm_new < rnorm:   # the pass did not help (or is not finite)
            break
        x, c2, r, rnorm = x_new, c2_new, r_new, rnorm_new
        if rnorm <= tol * bnorm:
            return DataIterate(x, c2)
    log.warning("tikhonov_step: CG hit the iteration cap (%d iterations, relative "
                "residual %.3g)", CG_MAX_ITER - budget, rnorm / bnorm)
    return DataIterate(x.copy(), c2)   # x may still be the start's array


def estimate_sigma(rho1: ScalarField) -> float:
    """Square root of the population variance of the iterate."""
    return float(np.std(rho1.values))


@dataclass(frozen=True)
class DenoiserSpec:
    kind: str = "gaussian_blur"
    width_factor: float = 0.3    # blur std in domain units per unit sigma
    command: str = ""            # external: executable invoked on the exchange dir
    timeout: float = 60.0

    def __post_init__(self):
        if self.kind not in ("gaussian_blur", "external"):
            raise ValueError(f"unknown denoiser kind {self.kind!r}")
        if self.kind == "external" and not self.command:
            raise ValueError("external denoiser needs a command")
        if not 0 <= self.width_factor < np.inf:  # 0 is the identity blur
            raise ValueError("denoiser width_factor must be >= 0 and finite")
        if not self.timeout > 0:
            raise ValueError("denoiser timeout must be positive")


def denoise(rho: ScalarField, sigma: float, spec: DenoiserSpec) -> ScalarField:
    """Remove noise of level sigma; sigma = 0 is the identity."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return ScalarField(rho.values.copy())
    if spec.kind == "gaussian_blur":
        std_domain = spec.width_factor * sigma
        std_px = (std_domain / (2.0 / rho.nx), std_domain / (2.0 / rho.ny))
        return ScalarField(gaussian_filter(rho.values, std_px, mode="reflect"))
    return _denoise_external(rho, sigma, spec)


class DenoiserError(RuntimeError):
    """The external denoiser failed, timed out or wrote a wrong-size image."""


def _denoise_external(rho: ScalarField, sigma: float,
                      spec: DenoiserSpec) -> ScalarField:
    """File protocol in a per-call temporary dir: in.pgm + sigma -> out.pgm."""
    with tempfile.TemporaryDirectory(prefix="mpirecon-denoise-") as xdir:
        save_field(rho, os.path.join(xdir, "in.pgm"))
        with open(os.path.join(xdir, "sigma"), "w") as fh:
            fh.write(f"{sigma!r}\n")
        try:
            proc = subprocess.run([spec.command, xdir], capture_output=True,
                                  timeout=spec.timeout)
        except subprocess.TimeoutExpired as exc:
            raise DenoiserError(f"external denoiser timed out after {spec.timeout}s") from exc
        if proc.returncode != 0:
            raise DenoiserError(
                f"external denoiser failed with exit status {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace')[:500]}")
        out = load_field(os.path.join(xdir, "out.pgm"))
    if (out.nx, out.ny) != (rho.nx, rho.ny):
        raise DenoiserError("external denoiser returned mismatched dimensions")
    return out


@dataclass
class DeconvProblem:
    u: ScalarField
    params: KernelParams
    mu: float = 0.01
    nu0: float = 1.0
    iters: int = 8
    denoiser: DenoiserSpec = field(default_factory=DenoiserSpec)

    def __post_init__(self):
        if not 0 < self.mu < np.inf or not 0 < self.nu0 < np.inf:
            raise ValueError("mu and nu0 must be positive and finite")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")


@dataclass(frozen=True)
class FirstStep:
    """The first HQS iteration: data iterate (with C^2 of it), its sigma,
    denoised iterate, and C u, which every data step of the run reuses."""

    rho1: DataIterate
    sigma: float
    rho2: ScalarField
    cu: np.ndarray


def hqs_first_step(problem: DeconvProblem, op: ConvolutionOperator) -> FirstStep:
    """HQS iteration 1 (nu = nu0 from rho2 = 0); it does not depend on mu."""
    u = problem.u
    cu = op.apply(u.values)
    rho1 = tikhonov_step(u, ScalarField.zeros(u.nx, u.ny), problem.nu0, op, cu=cu)
    sigma = estimate_sigma(rho1)
    return FirstStep(rho1, sigma, denoise(rho1, sigma, problem.denoiser), cu)


def hqs_deconvolve(problem: DeconvProblem, op: ConvolutionOperator | None = None,
                   first: FirstStep | None = None) -> ScalarField:
    """Run the HQS loop; deterministic given the problem and denoiser spec.

    The coupling follows nu_k = mu / sigma_k^2 with sigma estimated from the
    data iterate (sigma_0 comes from nu0).  A constant iterate gives
    sigma = 0, which short-circuits the denoiser to the identity and the
    next data step to rho1 = rho2 (the infinite-coupling limit).  Each data
    step after the first starts CG at the previous data iterate.  A data
    step that returns its start leaves (rho1, sigma, rho2) unchanged, so
    every later iteration would repeat it bitwise: the loop returns rho2
    there.  ``first`` is ``hqs_first_step`` of a problem with the same
    trace, nu0 and denoiser; the result is the same as without it.
    """
    u = problem.u
    if op is None:
        op = build_convolution_operator(problem.params, u.nx, u.ny)
    if first is None:
        first = hqs_first_step(problem, op)
    rho1, sigma, rho2 = first.rho1, first.sigma, first.rho2
    for _ in range(problem.iters - 1):
        nu = problem.mu / (sigma * sigma) if sigma > 0.0 else np.inf
        if not np.isfinite(nu):  # sigma collapsed to 0: infinite coupling
            rho1 = ScalarField(rho2.values.copy())
        else:
            step = tikhonov_step(u, rho2, nu, op, start=rho1, cu=first.cu)
            if step is rho1:  # the fixed point
                return rho2
            rho1 = step
        sigma = estimate_sigma(rho1)
        rho2 = denoise(rho1, sigma, problem.denoiser)
    return rho2

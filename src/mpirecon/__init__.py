"""Two-stage variational reconstruction for 2D magnetic particle imaging.

Stage 1 fits the matrix-valued core response to the measured signal series
in a tensor-product cosine eigenbasis with first- or second-order spectral
regularization; stage 2 recovers the particle distribution from the trace
of that field by half-quadratic-splitting deconvolution.  A certification
suite checks the eigenbasis identities the method relies on.
"""

from .config import PipelineConfig, load_config
from .core_stage import CoreProblem, CoreSolution, solve_core, trace_field
from .deconv_stage import (DeconvProblem, DenoiserSpec, build_convolution_operator,
                           hqs_deconvolve, tikhonov_step)
from .fields import MatrixField, ScalarField, load_field, resample_bilinear, save_field
from .forward import ScanSeries, add_noise, core_response_field, simulate_signal
from .kernels import KernelParams, f1, f2, kernel_matrix, kernel_trace, langevin
from .metrics import ideal_trace, psnr, ssim
from .phantom import PhantomSpec, builtin_suite, rasterize
from .rng import SeededGenerator
from .spectral import CoeffTensor, analyze, cos_eval, cos_norm, laplace_eigenvalue, synthesize
from .trajectory import (LissajousSpec, ScanGeometry, lissajous_position,
                         lissajous_velocity, merge_scans, rotate_scan, sample_schedule)

__version__ = "0.1.0"

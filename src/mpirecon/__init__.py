"""Two-stage variational reconstruction for 2D magnetic particle imaging.

Stage 1 fits the matrix-valued core response to the measured signal series
in a tensor-product cosine eigenbasis with first- or second-order spectral
regularization; stage 2 recovers the particle distribution from the trace
of that field by half-quadratic-splitting deconvolution.  A certification
suite checks the eigenbasis identities the method relies on.

The package root exports nothing: import the submodules
(``mpirecon.pipeline``, ``mpirecon.core_stage``, ...).
"""

__version__ = "0.1.0"

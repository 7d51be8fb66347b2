"""Per-layer tracing for the benchmark, done from outside the program.

``Tracer.install()`` wraps the public entry points of each ``mpirecon``
module in place (module attributes, every ``from``-import of them, and class
methods) so that each call records a span: name, start, end, parent span
and the benchmark operation it belongs to.  Spans are kept in memory and
written out once, at the end of the run.  A layer's self time is its span's
duration minus the time covered by its child spans.

An entry point that no longer exists is skipped; every metric built only
from missing entry points is reported as absent instead of crashing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import logging
import os
import sys
from time import perf_counter

# span name -> (module, attribute path); one span per call
TARGETS = {
    "cli.main": ("cli", "main"),
    "pipeline.simulate_case": ("pipeline", "simulate_case"),
    "pipeline.search_lambda": ("pipeline", "search_lambda"),
    "pipeline.search_mu": ("pipeline", "search_mu"),
    "phantom.rasterize": ("phantom", "rasterize"),
    "kernels.kernel_matrix_components": ("kernels", "kernel_matrix_components"),
    "kernels.kernel_trace": ("kernels", "kernel_trace"),
    "forward.core_response_field": ("forward", "core_response_field"),
    "forward.write_series_csv": ("forward", "write_series_csv"),
    "forward.read_series_csv": ("forward", "read_series_csv"),
    "metrics.ideal_trace": ("metrics", "ideal_trace"),
    "metrics.score_pair": ("metrics", "score_pair"),
    "core_stage.solve_core": ("core_stage", "solve_core"),
    "core_stage.CoreOperator.__init__": ("core_stage", "CoreOperator.__init__"),
    "core_stage.CoreOperator.apply_h": ("core_stage", "CoreOperator.apply_h"),
    "spectral.synthesize_scalar": ("spectral", "synthesize_scalar"),
    "spectral.save_coeffs": ("spectral", "save_coeffs"),
    "deconv_stage.hqs_deconvolve": ("deconv_stage", "hqs_deconvolve"),
    "deconv_stage.tikhonov_step": ("deconv_stage", "tikhonov_step"),
    "deconv_stage.denoise": ("deconv_stage", "denoise"),
    "deconv_stage.build_convolution_operator": ("deconv_stage", "build_convolution_operator"),
    "deconv_stage.ConvolutionOperator.apply": ("deconv_stage", "ConvolutionOperator.apply"),
    "deconv_stage.ConvolutionOperator.apply_adjoint": ("deconv_stage", "ConvolutionOperator.apply_adjoint"),
    "fields.save_field": ("fields", "save_field"),
    "fields.load_field": ("fields", "load_field"),
}

# per-layer metric -> (unit, how it is computed, span names or counter name)
#   calls: number of spans; self_s: summed self time; counter: result hooks
METRICS = {
    "core_stage.operator_builds": ("count", "calls", ["core_stage.CoreOperator.__init__"]),
    "core_stage.operator_build_s": ("s", "self_s", ["core_stage.CoreOperator.__init__"]),
    "core_stage.solve_calls": ("count", "calls", ["core_stage.solve_core"]),
    "core_stage.solve_s": ("s", "self_s", ["core_stage.solve_core"]),
    "core_stage.cg_iters": ("count", "counter", ["core_stage.solve_core"]),
    "core_stage.not_converged": ("count", "counter", ["core_stage.solve_core"]),
    "core_stage.apply_h_calls": ("count", "calls", ["core_stage.CoreOperator.apply_h"]),
    "core_stage.apply_h_s": ("s", "self_s", ["core_stage.CoreOperator.apply_h"]),
    "deconv_stage.hqs_calls": ("count", "calls", ["deconv_stage.hqs_deconvolve"]),
    "deconv_stage.hqs_s": ("s", "self_s", ["deconv_stage.hqs_deconvolve"]),
    "deconv_stage.tikhonov_steps": ("count", "calls", ["deconv_stage.tikhonov_step"]),
    "deconv_stage.tikhonov_s": ("s", "self_s", ["deconv_stage.tikhonov_step"]),
    "deconv_stage.conv_applies": ("count", "calls", ["deconv_stage.ConvolutionOperator.apply",
                                                     "deconv_stage.ConvolutionOperator.apply_adjoint"]),
    "deconv_stage.conv_apply_s": ("s", "self_s", ["deconv_stage.ConvolutionOperator.apply",
                                                  "deconv_stage.ConvolutionOperator.apply_adjoint"]),
    "deconv_stage.cg_cap_hits": ("count", "counter", ["deconv_stage.tikhonov_step"]),
    "deconv_stage.denoise_s": ("s", "self_s", ["deconv_stage.denoise"]),
    "deconv_stage.operator_builds": ("count", "calls", ["deconv_stage.build_convolution_operator"]),
    "deconv_stage.operator_build_s": ("s", "self_s", ["deconv_stage.build_convolution_operator"]),
    "forward.core_response_field_s": ("s", "self_s", ["forward.core_response_field"]),
    "kernels.kernel_eval_s": ("s", "self_s", ["kernels.kernel_matrix_components",
                                              "kernels.kernel_trace"]),
    "phantom.rasterize_s": ("s", "self_s", ["phantom.rasterize"]),
    "metrics.ideal_trace_s": ("s", "self_s", ["metrics.ideal_trace"]),
    "pipeline.simulate_case_s": ("s", "self_s", ["pipeline.simulate_case"]),
    "metrics.score_pair_calls": ("count", "calls", ["metrics.score_pair"]),
    "metrics.score_pair_s": ("s", "self_s", ["metrics.score_pair"]),
    "spectral.trace_field_s": ("s", "self_s", ["spectral.synthesize_scalar"]),
    "pipeline.search_points": ("count", "counter", ["pipeline.search_lambda",
                                                    "pipeline.search_mu"]),
    "forward.csv_write_s": ("s", "self_s", ["forward.write_series_csv"]),
    "forward.csv_read_s": ("s", "self_s", ["forward.read_series_csv"]),
    "fields.pgm_write_s": ("s", "self_s", ["fields.save_field"]),
    "fields.pgm_read_s": ("s", "self_s", ["fields.load_field"]),
    "spectral.save_coeffs_s": ("s", "self_s", ["spectral.save_coeffs"]),
    "fields.bytes_written": ("B", "counter", ["fields.save_field"]),
    "cli.calls": ("count", "calls", ["cli.main"]),
    "cli.exit_nonzero": ("count", "counter", ["cli.main"]),
}


def _range_path(path: str) -> str:
    base, ext = os.path.splitext(path)
    return (base if ext == ".pgm" else path) + ".range"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class _CapCounter(logging.Handler):
    """Counts the deconvolution stage's 'CG hit the iteration cap' warnings."""

    def __init__(self, counters: dict):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record):
        if "iteration cap" in record.getMessage():
            self.counters["deconv_stage.cg_cap_hits"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, op, name, start, end)
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.counters = {name: 0 for name, (_, kind, _) in METRICS.items()
                         if kind == "counter"}
        self.missing: list[str] = []
        self.op = 0                       # current benchmark operation
        self._paused = False
        self._stack: list[list] = []      # [span id, child seconds]
        self._patches: list[tuple] = []   # (owner, attribute, original)
        self._log_handler = _CapCounter(self.counters)

    # -- result hooks: counts that come from return values and arguments
    def _on_result(self, name, result, args, kwargs):
        c = self.counters
        if name == "core_stage.solve_core":
            c["core_stage.cg_iters"] += int(result.iterations)
            c["core_stage.not_converged"] += int(not result.converged)
        elif name in ("pipeline.search_lambda", "pipeline.search_mu"):
            c["pipeline.search_points"] += len(result.rows)
        elif name == "fields.save_field":
            path = args[1] if len(args) > 1 else kwargs.get("path")
            c["fields.bytes_written"] += _file_size(path) + _file_size(_range_path(path))
        elif name == "cli.main":
            c["cli.exit_nonzero"] += int(result != 0)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)       # reserve the id; filled on exit
            self._stack.append([span_id, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - child
                self.spans[span_id] = (span_id, parent, self.op, name, start, end)
            self._on_result(name, result, args, kwargs)
            return result
        return wrapper

    def install(self):
        for name, (mod_name, attr) in TARGETS.items():
            try:
                mod = importlib.import_module(f"mpirecon.{mod_name}")
                owner = mod
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:                     # a method: patch the class
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            # a function: patch it wherever a module holds a reference
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "mpirecon" or mname.startswith("mpirecon.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        logging.getLogger("mpirecon.deconv_stage").addHandler(self._log_handler)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        logging.getLogger("mpirecon.deconv_stage").removeHandler(self._log_handler)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def metrics(self) -> tuple[dict, list]:
        """Per-layer metrics as {name: {value, unit}}, plus absent names."""
        out, absent = {}, []
        for name, (unit, kind, spans) in METRICS.items():
            present = [s for s in spans if s not in self.missing]
            if not present:
                absent.append(name)
                continue
            if kind == "calls":
                value = sum(self.calls[s] for s in present)
            elif kind == "self_s":
                value = sum(self.self_s[s] for s in present)
            else:
                value = self.counters[name]
            out[name] = {"value": value, "unit": unit}
        return out, absent

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent, op, name, start, end (s)."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start - t0,
                                     "end": end - t0}) + "\n")

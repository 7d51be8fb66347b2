"""Command-line surface: simulate, reconstruct, gridsearch, verify, metrics.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O error
(any OSError, which includes an input file that does not follow its format
and an external denoiser that fails).
Every command is deterministic given its config and seed.  Each command
imports the stage modules it runs, so ``metrics`` and ``verify`` load no
scipy.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import ConfigError, PipelineConfig, apply_overrides, apply_preset, load_config
from .fields import load_field, resample_bilinear, save_field
from .metrics import SSIM_WINDOW, score_pair


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.preset:
        apply_preset(cfg, args.preset)
    if args.set:
        apply_overrides(cfg, args.set)
    return cfg


def cmd_simulate(cfg: PipelineConfig, out_dir: str) -> int:
    """Write scan CSV, ground-truth PGM and ideal-trace PGM."""
    from .forward import write_series_csv
    from .pipeline import simulate_case
    os.makedirs(out_dir, exist_ok=True)
    case = simulate_case(cfg)
    write_series_csv(case.series, os.path.join(out_dir, "scan.csv"), cfg.kernel.h)
    save_field(case.rho_gt, os.path.join(out_dir, "ground_truth.pgm"))
    save_field(case.u_gt, os.path.join(out_dir, "ideal_trace.pgm"))
    print(f"simulated {case.name}: L={len(case.series.geometry)} samples -> {out_dir}")
    return 0


def cmd_reconstruct(cfg: PipelineConfig, scan_path: str, out_dir: str) -> int:
    """Run both stages; write coefficients, trace, reconstruction, diagnostics."""
    from .forward import read_series_csv
    from .pipeline import reconstruct
    from .spectral import save_coeffs
    os.makedirs(out_dir, exist_ok=True)
    series, h = read_series_csv(scan_path)
    if h is not None:
        cfg.kernel.h = h
    res = reconstruct(cfg, series)
    save_coeffs(res.solution.coeffs, os.path.join(out_dir, "coeffs.mpic"))
    save_field(res.trace, os.path.join(out_dir, "trace.pgm"))
    save_field(res.rho, os.path.join(out_dir, "reconstruction.pgm"))
    sol = res.solution
    with open(os.path.join(out_dir, "core_diagnostics.csv"), "w") as fh:
        fh.write(f"residual,energy\n{sol.final_residual!r},{sol.energy!r}\n")
    if not sol.converged:
        print(f"warning: core stage normal-equation residual "
              f"{sol.final_residual:.3e} is above rounding level", file=sys.stderr)
    print(f"reconstructed: core residual={sol.final_residual:.3e} -> {out_dir}")
    return 0


def cmd_gridsearch(cfg: PipelineConfig, param: str, grid_spec: str,
                   out_dir: str) -> int:
    """Two-step parameter scan; writes the score table and the best value."""
    from .pipeline import GridSpec, run_core, search_lambda, search_mu, simulate_case
    os.makedirs(out_dir, exist_ok=True)
    try:
        spec = GridSpec.parse(grid_spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    case = simulate_case(cfg)
    if param == "lambda":
        res = search_lambda(cfg, [case], cfg.core.order, spec)
    elif param == "mu":
        _, trace = run_core(cfg, case.series)
        res = search_mu(cfg, [(trace, case.rho_gt_recon)], spec)
    else:
        raise UsageError("param must be 'lambda' or 'mu'")
    table = os.path.join(out_dir, f"gridsearch_{param}.csv")
    with open(table, "w") as fh:
        fh.write(f"{param},mean_psnr,mean_ssim\n")
        for v, p, s in res.rows:
            fh.write(f"{v!r},{p!r},{s!r}\n")
    with open(os.path.join(out_dir, f"best_{param}.txt"), "w") as fh:
        fh.write(f"{res.best_value!r}\n")
    print(f"best {param} = {res.best_value:g} (mean PSNR {res.best_score:.2f} dB), "
          f"{len(res.rows)} grid points -> {table}")
    return 0


def cmd_verify(out_path: str) -> int:
    """Run the certification suite; nonzero exit when any check fails."""
    from .theory_checks import run_default_suite
    reports = run_default_suite()
    width = max(len(r.name) for r in reports)
    failed = 0
    rows = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{r.name:<{width}}  max_residual={r.max_residual:.3e}  "
              f"tol={r.tolerance:g}  {status}")
        for rname, val in r.residuals:
            rows.append((r.name, rname, repr(float(val)), repr(float(r.tolerance)), r.passed))
    notes = {r.note for r in reports if r.note}
    for note in sorted(notes):
        print(f"note: {note}")
    if out_path:
        # check names such as "laplace_neumann_eigen m=(0, 0)" hold commas
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("check", "residual", "value", "tolerance", "passed"))
            writer.writerows(rows)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 0 if failed == 0 else 2


def cmd_metrics(recon_path: str, gt_path: str) -> int:
    """Score two PGM images; peak is the ground-truth dynamic range.

    A ground truth on another grid (the fine simulation grid) is first
    resampled bilinearly onto the reconstruction grid.
    """
    recon = load_field(recon_path)
    gt = load_field(gt_path)
    if (gt.nx, gt.ny) != (recon.nx, recon.ny):
        gt = resample_bilinear(gt, recon.nx, recon.ny)
    if min(recon.nx, recon.ny) < SSIM_WINDOW:
        raise UsageError(f"metrics needs images of at least {SSIM_WINDOW}x{SSIM_WINDOW} "
                         f"pixels (SSIM's window), got {recon.nx}x{recon.ny}")
    p, s = score_pair(recon, gt)
    print(f"psnr={p!r} ssim={s!r}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="mpirecon",
                description="Two-stage variational MPI reconstruction toolkit")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--preset", help="parameter preset (exp1_order1, exp1_order2, "
                                    "exp2_order1, exp2_order2)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (repeatable)")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="simulate a scan of the configured phantom")
    s.add_argument("--out", required=True)

    s = sub.add_parser("reconstruct", help="reconstruct from a scan CSV")
    s.add_argument("scan")
    s.add_argument("--out", required=True)

    s = sub.add_parser("gridsearch", help="two-step parameter search")
    s.add_argument("param", choices=["lambda", "mu"])
    s.add_argument("--grid", default="default",
                   help="grid spec, e.g. 'i=-3:3;j=1,5' or 'values=0.01,0.05'")
    s.add_argument("--out", required=True)

    s = sub.add_parser("verify", help="run the numerical certification suite")
    s.add_argument("--out", default="", help="CSV report path")

    s = sub.add_parser("metrics", help="PSNR/SSIM between two PGM images")
    s.add_argument("reconstruction")
    s.add_argument("ground_truth")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(_build_config(args), args.out)
        if args.command == "reconstruct":
            return cmd_reconstruct(_build_config(args), args.scan, args.out)
        if args.command == "gridsearch":
            return cmd_gridsearch(_build_config(args), args.param, args.grid, args.out)
        if args.command == "verify":
            return cmd_verify(args.out)
        if args.command == "metrics":
            return cmd_metrics(args.reconstruction, args.ground_truth)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

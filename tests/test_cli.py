import csv
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import mpirecon
from mpirecon.cli import main
from mpirecon.config import (ConfigError, PipelineConfig, apply_overrides,
                             apply_preset, load_config)
from mpirecon.fields import ScalarField, load_field, save_field
from mpirecon.forward import write_series_csv, ScanSeries
from mpirecon.spectral import load_coeffs
from mpirecon.trajectory import LissajousSpec, make_scan

FAST = ["--set", "grids.fine_nx=64", "--set", "grids.recon_nx=32",
        "--set", "grids.coeff_n=16", "--set", "trajectory.L=128",
        "--set", "deconv.iters=2"]


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment line\ncore.lambda=0.25\ncore.order=1\n"
                    "trajectory.merge_rotated=true\nnoise.seed=77\n")
    cfg = load_config(str(path))
    assert cfg.core.lam == 0.25
    assert cfg.core.order == 1
    assert cfg.trajectory.merge_rotated is True
    assert cfg.noise.seed == 77
    apply_overrides(cfg, ["core.lambda=0.5", "deconv.mu=0.2"])
    assert cfg.core.lam == 0.5 and cfg.deconv.mu == 0.2
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["bogus.key=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["core.lambda"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["trajectory.merge_rotated=maybe"])
    # the core solve is exact, HQS is the only deconvolution method, and the
    # kernels' series switch is a fixed constant
    for key in ("core.tol", "core.max_iter", "core.ridge", "deconv.mode",
                "deconv.clamp_nonneg", "kernel.series_threshold"):
        with pytest.raises(ConfigError):
            apply_overrides(cfg, [f"{key}=1"])


def test_config_round_trip(tmp_path):
    # a file that names every option as section.field loads back equal
    cfg = PipelineConfig()
    cfg.core.lam = 0.123
    cfg.trajectory.merge_rotated = True
    lines = []
    for section in fields(cfg):
        group = getattr(cfg, section.name)
        for f in fields(group):
            value = getattr(group, f.name)
            text = str(value).lower() if isinstance(value, bool) else str(value)
            lines.append(f"{section.name}.{f.name}={text}\n")
    path = tmp_path / "cfg.txt"
    path.write_text("".join(lines))
    back = load_config(str(path))
    assert back == cfg
    assert back.core.lam == 0.123
    assert back.trajectory.merge_rotated is True


def test_presets():
    cfg = PipelineConfig()
    apply_preset(cfg, "exp1_order1")
    assert (cfg.core.order, cfg.core.lam, cfg.deconv.mu) == (1, 0.08, 0.05)
    assert cfg.trajectory.merge_rotated is False
    apply_preset(cfg, "exp2_order2")
    assert (cfg.core.order, cfg.core.lam, cfg.deconv.mu) == (2, 0.004, 0.01)
    assert cfg.trajectory.merge_rotated is True
    with pytest.raises(ConfigError):
        apply_preset(cfg, "nope")


def test_simulate_writes_artifacts(tmp_path):
    out = str(tmp_path / "sim")
    rc = main(FAST + ["simulate", "--out", out])
    assert rc == 0
    for name in ("scan.csv", "ground_truth.pgm", "ground_truth.range",
                 "ideal_trace.pgm", "ideal_trace.range"):
        assert os.path.exists(os.path.join(out, name)), name


def test_simulate_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(FAST + ["simulate", "--out", out1]) == 0
    assert main(FAST + ["simulate", "--out", out2]) == 0
    for name in ("scan.csv", "ground_truth.pgm", "ideal_trace.pgm"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_reconstruct_pipeline(tmp_path):
    sim = str(tmp_path / "sim")
    rec = str(tmp_path / "rec")
    assert main(FAST + ["simulate", "--out", sim]) == 0
    assert main(FAST + ["reconstruct", os.path.join(sim, "scan.csv"),
                        "--out", rec]) == 0
    coeffs = load_coeffs(os.path.join(rec, "coeffs.mpic"))
    assert coeffs.N == 16
    trace = load_field(os.path.join(rec, "trace.pgm"))
    assert (trace.nx, trace.ny) == (32, 32)
    recon = load_field(os.path.join(rec, "reconstruction.pgm"))
    assert (recon.nx, recon.ny) == (32, 32)
    # a second run into the same directory replaces the diagnostics
    assert main(FAST + ["reconstruct", os.path.join(sim, "scan.csv"),
                        "--out", rec]) == 0
    diag = open(os.path.join(rec, "core_diagnostics.csv")).read().splitlines()
    assert diag[0] == "residual,energy"
    assert len(diag) == 2
    residual, energy = (float(v) for v in diag[1].split(","))
    assert 0.0 <= residual <= 1e-10 and energy > 0.0


def test_readme_simulate_reconstruct_metrics(tmp_path, capsys):
    # the README's command sequence: the ground truth is on the fine grid,
    # the reconstruction on the coarser reconstruction grid
    sim = str(tmp_path / "sim")
    rec = str(tmp_path / "rec")
    assert main(FAST + ["simulate", "--out", sim]) == 0
    assert main(FAST + ["--preset", "exp1_order2", "reconstruct",
                        os.path.join(sim, "scan.csv"), "--out", rec]) == 0
    capsys.readouterr()
    assert main(["metrics", os.path.join(rec, "reconstruction.pgm"),
                 os.path.join(sim, "ground_truth.pgm")]) == 0
    out = capsys.readouterr().out
    psnr = float(out.split("psnr=")[1].split()[0])
    assert 10.0 < psnr < 60.0


def test_reconstruct_zero_signal_gives_zero_images(tmp_path):
    geom = make_scan(LissajousSpec(), 64)
    series = ScanSeries(geom, np.zeros((64, 2)))
    scan = str(tmp_path / "zero.csv")
    write_series_csv(series, scan, h=0.01)
    out = str(tmp_path / "rec")
    assert main(FAST + ["reconstruct", scan, "--out", out]) == 0
    trace = load_field(os.path.join(out, "trace.pgm"))
    assert np.all(trace.values == 0.0)
    recon = load_field(os.path.join(out, "reconstruction.pgm"))
    assert np.all(recon.values == 0.0)


def test_gridsearch_single_point(tmp_path):
    out = str(tmp_path / "gs")
    rc = main(FAST + ["gridsearch", "lambda", "--grid", "values=0.05",
                      "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "gridsearch_lambda.csv")).read().splitlines()
    assert rows[0] == "lambda,mean_psnr,mean_ssim"
    assert len(rows) == 2 and rows[1].startswith("0.05,")
    best = float(open(os.path.join(out, "best_lambda.txt")).read())
    assert best == 0.05


def test_gridsearch_table_row_count(tmp_path):
    out = str(tmp_path / "gs2")
    rc = main(FAST + ["gridsearch", "lambda", "--grid", "i=-2:0;j=1,5",
                      "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "gridsearch_lambda.csv")).read().splitlines()
    # coarse 6 + refined 27 rows plus header
    assert len(rows) == 1 + 6 + 27


def test_verify_command(tmp_path):
    report = str(tmp_path / "report.csv")
    assert main(["verify", "--out", report]) == 0
    rows = open(report).read().splitlines()
    assert rows[0] == "check,residual,value,tolerance,passed"
    assert len(rows) > 100
    # check names hold commas, so they are quoted
    with open(report, newline="") as fh:
        table = list(csv.reader(fh))
    assert len(table) == len(rows) and {len(row) for row in table} == {5}
    assert table[1][0] == "laplace_neumann_eigen m=(0, 0)"


def test_metrics_command(tmp_path, capsys):
    sim = str(tmp_path / "sim")
    assert main(FAST + ["simulate", "--out", sim]) == 0
    gt = os.path.join(sim, "ground_truth.pgm")
    assert main(["metrics", gt, gt]) == 0
    out = capsys.readouterr().out
    assert "psnr=inf" in out and "ssim=1.0" in out
    # the command only prints; it has no option to append to a score file
    scores = tmp_path / "scores.csv"
    assert main(["metrics", gt, gt, "--csv", str(scores)]) == 1
    assert not scores.exists()


def test_metrics_smaller_than_ssim_window_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = {}
    for n in (8, 11, 64):
        paths[n] = [str(tmp_path / f"{n}_{k}.pgm") for k in "ab"]
        for path in paths[n]:
            save_field(ScalarField(rng.uniform(size=(n, n))), path)
    assert main(["metrics", *paths[8]]) == 1
    assert "usage error" in capsys.readouterr().err
    # the ground truth is resampled onto the 8x8 reconstruction first
    assert main(["metrics", paths[8][0], paths[64][0]]) == 1
    assert main(["metrics", *paths[11]]) == 0
    assert "ssim=" in capsys.readouterr().out


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal costs about half of the package's import time, which
    # every CLI process pays
    src = os.path.dirname(os.path.dirname(mpirecon.__file__))
    code = "import mpirecon.cli, sys; assert 'scipy.signal' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})


def test_numerical_error_exits_2(tmp_path, monkeypatch):
    def singular(cfg):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(mpirecon.cli, "simulate_case", singular)
    assert main(["simulate", "--out", str(tmp_path / "s")]) == 2


def test_usage_and_io_exit_codes(tmp_path):
    assert main(["bogus-command"]) == 1
    assert main(["gridsearch", "lambda", "--grid", "nonsense=1",
                 "--out", str(tmp_path)]) == 1
    assert main(["reconstruct", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "o")]) == 3
    assert main(["--preset", "nope", "simulate", "--out", str(tmp_path / "x")]) == 1
    assert main(["--set", "core.tol=1e-8", "simulate", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("param", ["lambda", "mu"])
@pytest.mark.parametrize("grid", ["i=3:-3", "values=0", "values=-1", "j=0", "j=-1",
                                  "refine=banana", "i=400:400", "i=-400:-400",
                                  "i=308:308"])
def test_bad_grid_specs_exit_1(tmp_path, capsys, param, grid):
    # an empty grid, a non-positive value or mantissa, a non-boolean refine
    # and exponents whose coarse or refined values overflow or underflow
    # are usage errors for both searches
    assert main(FAST + ["gridsearch", param, "--grid", grid,
                        "--out", str(tmp_path / "gs")]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fast_scan(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("scan"))
    assert main(FAST + ["simulate", "--out", out]) == 0
    return os.path.join(out, "scan.csv")


@pytest.mark.parametrize("command,override", [
    ("reconstruct", "core.order=3"),
    ("reconstruct", "core.lambda=0"),
    ("reconstruct", "deconv.mu=-1"),
    ("reconstruct", "deconv.iters=0"),
    ("reconstruct", "deconv.denoiser=bogus"),
    ("reconstruct", "deconv.denoiser_width=-1"),
    ("simulate", "kernel.h=0"),
    ("simulate", "kernel.h=inf"),
    ("simulate", "trajectory.L=0"),
    ("simulate", "noise.fraction=-0.1"),
    ("simulate", "phantom.kind=bogus"),
    ("reconstruct", "grids.coeff_n=0"),
    ("reconstruct", "grids.recon_nx=4"),
    ("simulate", "grids.fine_nx=4"),
    ("simulate", "grids.recon_nx=0"),
    ("simulate", "noise.fraction=nan"),
    ("simulate", "noise.fraction=inf"),
    ("simulate", "trajectory.freq_x=nan"),
    ("simulate", "trajectory.phase_x=inf"),
    ("simulate", "trajectory.freq_y=inf"),
    ("simulate", "trajectory.freq_x=1e308"),
    ("reconstruct", "deconv.denoiser_width=inf"),
    ("reconstruct", "core.lambda=inf"),
    ("reconstruct", "deconv.mu=inf"),
    # searches score by SSIM, whose 11x11 window needs recon_nx >= 11
    ("gridsearch lambda", "grids.recon_nx=8"),
    ("gridsearch mu", "grids.recon_nx=10"),
])
def test_out_of_range_config_values_exit_1(fast_scan, tmp_path, capsys, command, override):
    # a value the domain classes reject is a usage error (1), not a
    # numerical failure (2)
    command, *args = command.split()
    if command == "reconstruct":
        args = [fast_scan]
    argv = FAST + ["--set", override, command, *args, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("script,extra,message", [
    ("exit 3", [], "exit status 3"),
    ("exec sleep 30", ["--set", "deconv.timeout=0.2"], "timed out after 0.2s"),
    ('cp "{small}.pgm" "$1/out.pgm" && cp "{small}.range" "$1/out.range"', [],
     "mismatched dimensions"),
])
def test_failing_external_denoiser_exits_3(fast_scan, tmp_path, capsys, script, extra,
                                           message):
    # the denoiser is an outside program, like an input file: its failure is
    # an I/O error (3), not a usage error (1) with a traceback
    small = tmp_path / "small"
    save_field(ScalarField(np.ones((8, 8))), f"{small}.pgm")
    command = tmp_path / "denoiser.sh"
    command.write_text("#!/bin/sh\n" + script.format(small=small) + "\n")
    command.chmod(0o755)
    argv = FAST + ["--set", "deconv.denoiser=external",
                   "--set", f"deconv.external_command={command}", *extra,
                   "reconstruct", fast_scan, "--out", str(tmp_path / "rec")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: external denoiser") and message in err


@pytest.mark.parametrize("override", ["trajectory.freq_x=1e308", "trajectory.freq_y=inf",
                                      "trajectory.phase_x=inf"])
def test_non_finite_trajectory_exits_1_without_warnings(tmp_path, capsys, override):
    # LissajousSpec rejects the value before any curve is evaluated
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(FAST + ["--set", override, "simulate", "--out", str(tmp_path / "o")]) == 1
    assert caught == []
    assert "usage error" in capsys.readouterr().err


def test_malformed_input_files_exit_3(tmp_path, capsys):
    # format errors are I/O errors (3), not numerical failures (2)
    pgm = tmp_path / "short.pgm"
    pgm.write_bytes(b"P5\n8 8\n65535\n" + b"\x00" * 10)
    (tmp_path / "short.range").write_text("0.0 1.0\n")
    assert main(["metrics", str(pgm), str(pgm)]) == 3
    scan = tmp_path / "six.csv"
    scan.write_text("# h=0.01 fraction=0.0 seed=0\nt,rx,ry,vx,vy,sx\n"
                    "0.0,0.1,0.2,1.0,0.0,0.5\n0.5,0.2,0.1,0.0,1.0,0.5\n")
    assert main(FAST + ["reconstruct", str(scan), "--out", str(tmp_path / "rec")]) == 3
    # a malformed phantom file stays an I/O error where the config names it
    assert main(FAST + ["--set", "phantom.kind=from_file", "--set", f"phantom.path={pgm}",
                        "simulate", "--out", str(tmp_path / "sim")]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("header,rng_text", [
    (b"P5\n8 8\n65535\n", "nan nan\n"),
    (b"P5\n8 8\n65535\n", "0.0 inf\n"),
    (b"P5\n0 0\n65535\n", "0.0 1.0\n"),
])
def test_malformed_pgm_exits_3(tmp_path, capsys, header, rng_text):
    # a non-finite range sidecar or a zero image dimension is a format error
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(header + b"\x00" * 128)
    (tmp_path / "img.range").write_text(rng_text)
    assert main(["metrics", str(pgm), str(pgm)]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["-0.05", "inf"])
def test_scan_with_bad_kernel_width_exits_3(fast_scan, tmp_path, capsys, h):
    # a scan's own h is used when present, so a bad one is not replaced by
    # the configuration's
    lines = open(fast_scan).read().splitlines(keepends=True)
    assert lines[0].startswith("# h=")
    scan = tmp_path / "scan.csv"
    scan.write_text(f"# h={h} fraction=0.0 seed=0\n" + "".join(lines[1:]))
    assert main(FAST + ["reconstruct", str(scan), "--out", str(tmp_path / "rec")]) == 3
    assert "kernel width" in capsys.readouterr().err


@pytest.mark.parametrize("column, value, message", [
    (5, "nan", "non-finite"), (6, "inf", "non-finite"),
    (1, "1.5", "inside Omega"), (3, "nan", "non-finite")])
def test_scan_with_bad_values_exits_3(fast_scan, tmp_path, capsys, column, value, message):
    # non-finite numbers and positions outside Omega are malformed input,
    # not numerical failures
    lines = open(fast_scan).read().splitlines(keepends=True)
    row = lines[-1].rstrip("\n").split(",")
    row[column] = value
    scan = tmp_path / "scan.csv"
    scan.write_text("".join(lines[:-1]) + ",".join(row) + "\n")
    assert main(FAST + ["reconstruct", str(scan), "--out", str(tmp_path / "rec")]) == 3
    err = capsys.readouterr().err
    assert message in err and "DLASCL" not in err

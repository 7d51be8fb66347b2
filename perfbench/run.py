"""Benchmark for mpirecon: CLI scans and lambda/mu grid searches.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload cli_scan --seed 1234 --seconds 45 --trace 0
    python3 perfbench/run.py --workload search --seed 1234 --seconds 45 --trace 1
    python3 perfbench/run.py --workload search --smoke     # tiny grids, seconds

One client calls the program in-process and waits for each call before the
next (closed loop), with BLAS/OpenMP pinned to one thread.  The seed becomes
``noise.seed``; the program only sees the generated inputs.  Every run makes
every kind of operation: CLI scans (simulate, reconstruct, and the README's
``metrics`` step), order-1 and order-2 lambda searches and a mu search.
``cli_scan`` runs the searches one phantom at a time through
``mpirecon gridsearch``; ``search`` runs them over a phantom suite through
the pipeline, as the acceptance experiments do.  A pass is repeated while
another one fits in ``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced set-up + pass and prints the per-layer metrics (spans.py) and
the tracing overhead.  The last line of stdout is the result JSON; the line
before it records the environment.  Full records go to ``.perfbench_out/``.
See perfbench/README.md for the metrics and the known ``metrics`` defect.
"""

from __future__ import annotations

import os
import sys

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)     # before numpy is imported
sys.dont_write_bytecode = True    # keep the checkout unchanged

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

PRESETS = {"sparse": "exp1_order2", "dense": "exp2_order2"}   # L=1632 / 3264
# coarse step of the two-step search: 14 lambdas j*10^i, 8 mus (exp1's exponents)
GRIDS = {"lambda": "i=-3:3;j=1,5;refine=false", "mu": "i=-3:0;j=1,5;refine=false"}
GRID_POINTS = {"lambda": 14, "mu": 8}
SEARCHES = {"lambda_o1": ("lambda", 1), "lambda_o2": ("lambda", 2), "mu": ("mu", 2)}
TRACE_LAMBDA = 0.009          # lambda of the order-2 traces the mu search uses
SETUP_REPEATS = 3
SMOKE_SET = ["grids.fine_nx=128", "grids.recon_nx=50", "grids.coeff_n=32",
             "trajectory.L=408", "deconv.iters=3"]
KNOWN_METRICS_DEFECT = "psnr needs images of identical shape"


@dataclass(frozen=True)
class Workload:
    scan_phantoms: tuple      # each scanned once per preset through the CLI
    searches: dict            # search key -> phantoms it covers
    suite: bool               # one pipeline search over all phantoms, or one
                              # `mpirecon gridsearch` per phantom


ALL3 = ("disk", "annulus", "k_thin")
WORKLOADS = {
    # order-1 gridsearch on one phantom only: at ~8 s it is the costliest call
    "cli_scan": Workload(ALL3, {"lambda_o1": ("disk",), "lambda_o2": ALL3, "mu": ALL3},
                         suite=False),
    "search": Workload(ALL3, dict.fromkeys(SEARCHES, ("disk", "k_thin")), suite=True),
}

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s", "scan_simulate_s": "s", "scan_reconstruct_sparse_s": "s",
    "scan_reconstruct_dense_s": "s", "scan_psnr_db": "dB",
    "lambda_search_o1_s": "s", "lambda_search_o2_s": "s",
    "core_psnr_o1_db": "dB", "core_psnr_o2_db": "dB",
    "mu_search_s": "s", "deconv_psnr_db": "dB", "ops_ok_ratio": "ratio",
}

# output checks: quality floors (dB) well below what any seed gives
FLOORS = {"full": {"scan": 14.0, "lambda": 25.0, "mu": 13.0},
          "smoke": {"scan": 12.0, "lambda": 20.0, "mu": 12.0}}


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no program to run)."""


def import_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "mpirecon")):
        raise BenchError(f"no program source at {SRC}/mpirecon")
    sys.path.insert(0, SRC)
    import mpirecon
    if not os.path.abspath(mpirecon.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported mpirecon from {mpirecon.__file__}, not {SRC}")


@dataclass
class Tally:
    """Operation counts, output checks and samples of one run."""

    attempted: int = 0
    nonzero: int = 0          # CLI exits != 0 and exceptions, known defect included
    failed: int = 0           # the same, known defect excluded
    known_defect: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    searches: list = field(default_factory=list)   # (key, phantoms, s, best, psnr)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


class Bench:
    def __init__(self, args):
        self.args = args
        self.work = WORKLOADS[args.workload]
        self.floors = FLOORS["smoke" if args.smoke else "full"]
        self.overrides = [f"noise.seed={args.seed}"] + (SMOKE_SET if args.smoke else [])
        self.tmp_root = None
        self.tracer = None

    # -- inputs
    def cli_args(self, density: str, phantom: str, *extra: str) -> list:
        argv = ["--preset", PRESETS[density]]
        for kv in self.overrides + [f"phantom.kind={phantom}", *extra]:
            argv += ["--set", kv]
        return argv

    def setup(self, tally: Tally):
        """`search`: simulate the suite and build its order-2 traces.
        `cli_scan` has no inputs to build; its set-up is one smoke-grid
        simulate + reconstruct, which loads and warms what every scan uses."""
        from mpirecon import config, phantom, pipeline
        if not self.work.suite:
            work = tempfile.mkdtemp(prefix="setup-", dir=self.tmp_root)
            base = self.cli_args("sparse", "disk", *SMOKE_SET)
            if self.cli(tally, base + ["simulate", "--out", work])[0] == 0:
                self.cli(tally, base + ["reconstruct", os.path.join(work, "scan.csv"),
                                        "--out", work])
            shutil.rmtree(work)
            return None
        cfg = config.PipelineConfig()
        config.apply_preset(cfg, PRESETS["sparse"])
        config.apply_overrides(cfg, self.overrides)
        specs = {s.name: s for s in phantom.builtin_suite()}
        names = self.work.searches["lambda_o1"]
        cases = [pipeline.simulate_case(cfg, specs[name]) for name in names]
        traces = []
        for case in cases:
            _, trace = pipeline.run_core(cfg, case.series, lam=TRACE_LAMBDA, order=2)
            traces.append((trace, case.rho_gt_recon))
        return cfg, cases, traces

    # -- one operation each
    def cli(self, tally: Tally, argv: list, allow_known_defect=False) -> tuple[int, float]:
        from mpirecon import cli
        tally.attempted += 1
        if self.tracer:
            self.tracer.op += 1
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an operation failure, reported, not fatal
                traceback.print_exc()
                code = -1
        elapsed = perf_counter() - start
        if code != 0:
            tally.nonzero += 1
            if allow_known_defect and code == 2 and KNOWN_METRICS_DEFECT in err.getvalue():
                tally.known_defect += 1
            else:
                tally.failed += 1
                tally.check(False, f"mpirecon {' '.join(argv)} exited {code}: "
                                   f"{err.getvalue().strip()[-300:]}")
        return code, elapsed

    def scan(self, tally: Tally, phantom: str, density: str) -> None:
        """simulate -> reconstruct -> metrics through the CLI, in a fresh dir."""
        work = tempfile.mkdtemp(prefix=f"{phantom}-{density}-", dir=self.tmp_root)
        sim, rec = os.path.join(work, "sim"), os.path.join(work, "rec")
        base = self.cli_args(density, phantom)
        code, t = self.cli(tally, base + ["simulate", "--out", sim])
        tally.add("simulate_s", t)
        if code == 0:
            code, t = self.cli(tally, base + ["reconstruct", os.path.join(sim, "scan.csv"),
                                              "--out", rec])
            tally.add(f"reconstruct_{density}_s", t)
        recon = os.path.join(rec, "reconstruction.pgm")
        truth = os.path.join(sim, "ground_truth.pgm")
        if code == 0:
            # the README's scoring step; fails on the grid mismatch (known defect)
            self.cli(tally, ["metrics", recon, truth], allow_known_defect=True)
            tally.add("scan_psnr_db", self.score_files(tally, recon, truth))
        shutil.rmtree(work)

    def score_files(self, tally, recon_path, truth_path) -> float:
        """PSNR of the reconstruction against the ground truth resampled to
        the reconstruction grid, the way pipeline.simulate_case does it."""
        from mpirecon import config, fields
        with self.untraced():
            recon = fields.load_field(recon_path)
            truth = fields.load_field(truth_path)
            cfg = config.PipelineConfig()
            config.apply_overrides(cfg, self.overrides)
            grids = cfg.grids
            tally.check(truth.values.shape == (grids.fine_nx,) * 2,
                        f"ground truth shape {truth.values.shape}")
            tally.check(recon.values.shape == (grids.recon_nx,) * 2,
                        f"reconstruction shape {recon.values.shape}")
            gt = fields.resample_bilinear(truth, recon.nx, recon.ny).values
        peak = float(gt.max() - gt.min()) or 1.0
        mse = float(((recon.values - gt) ** 2).mean())
        p = 10.0 * math.log10(peak * peak / mse) if mse > 0 else math.inf
        tally.check(math.isfinite(p) and p >= self.floors["scan"],
                    f"scan PSNR {p:.3f} dB below {self.floors['scan']} dB")
        return p

    def gridsearch(self, tally: Tally, key: str, phantom: str) -> None:
        """`mpirecon gridsearch` for one phantom; reads back its score table."""
        param, order = SEARCHES[key]
        work = tempfile.mkdtemp(prefix=f"{key}-{phantom}-", dir=self.tmp_root)
        extra = [f"core.order={order}"]
        if param == "mu":
            extra.append(f"core.lambda={TRACE_LAMBDA}")
        argv = self.cli_args("sparse", phantom, *extra) + [
            "gridsearch", param, "--grid", GRIDS[param], "--out", work]
        code, t = self.cli(tally, argv)
        if code == 0:
            with open(os.path.join(work, f"gridsearch_{param}.csv")) as fh:
                rows = [tuple(float(x) for x in line.split(",")) for line in fh.readlines()[1:]]
            with open(os.path.join(work, f"best_{param}.txt")) as fh:
                best = float(fh.read())
            best_psnr = max((p for v, p, _ in rows if v == best), default=math.nan)
            self.record_search(tally, key, (phantom,), t, best, best_psnr,
                               [v for v, _, _ in rows])
        shutil.rmtree(work)

    def suite_search(self, tally: Tally, key: str, inputs) -> None:
        """pipeline.search_lambda / search_mu over the set-up suite."""
        from mpirecon import pipeline
        cfg, cases, traces = inputs
        param, order = SEARCHES[key]
        spec = pipeline.GridSpec.parse(GRIDS[param])
        tally.attempted += 1
        if self.tracer:
            self.tracer.op += 1
        start = perf_counter()
        try:
            if param == "mu":
                res = pipeline.search_mu(cfg, traces, spec)
            else:
                res = pipeline.search_lambda(cfg, cases, order, spec)
        except Exception:  # an operation failure, reported, not fatal
            tally.nonzero += 1
            tally.failed += 1
            tally.check(False, f"{key} raised:\n{traceback.format_exc()}")
            return
        self.record_search(tally, key, self.work.searches[key], perf_counter() - start,
                           res.best_value, res.best_score, [v for v, _, _ in res.rows])

    def record_search(self, tally, key, phantoms, seconds, best, best_psnr, grid):
        param = SEARCHES[key][0]
        tally.searches.append((key, phantoms, seconds, best, best_psnr))
        tally.check(len(grid) == GRID_POINTS[param],
                    f"{key} {phantoms}: {len(grid)} grid points, expected {GRID_POINTS[param]}")
        tally.check(best in grid, f"{key} {phantoms}: best value {best} not on the grid")
        floor = self.floors[param]
        tally.check(math.isfinite(best_psnr) and best_psnr >= floor,
                    f"{key} {phantoms}: best PSNR {best_psnr:.3f} dB below {floor} dB")

    def run_pass(self, tally: Tally, inputs) -> None:
        """The workload's scans, with its searches spread evenly among them."""
        if self.work.suite:
            searches = [functools.partial(self.suite_search, tally, key, inputs)
                        for key in self.work.searches]
        else:
            searches = [functools.partial(self.gridsearch, tally, key, phantom)
                        for key, phantoms in self.work.searches.items()
                        for phantom in phantoms]
        scans = [functools.partial(self.scan, tally, phantom, density)
                 for phantom in self.work.scan_phantoms for density in PRESETS]
        spread = [((i + 0.5) / len(ops), op)
                  for ops in (scans, searches) for i, op in enumerate(ops)]
        for _, op in sorted(spread, key=lambda item: item[0]):
            op()

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    # -- whole runs
    def measure(self, tally: Tally, inputs) -> int:
        """Whole passes while another one fits in --seconds (at least one)."""
        passes, begin, last = 0, perf_counter(), 0.0
        while passes == 0 or perf_counter() - begin + last <= self.args.seconds:
            start = perf_counter()
            self.run_pass(tally, inputs)
            last = perf_counter() - start
            passes += 1
        return passes

    def end_to_end(self) -> tuple[Tally, dict, dict]:
        tally, setup_tally, setup_times = Tally(), Tally(), []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            inputs = self.setup(setup_tally)
            setup_times.append(perf_counter() - start)
        tally.problems += setup_tally.problems    # set-up calls are not operations
        passes = self.measure(tally, inputs)
        s = tally.samples
        per_pass = len(s.get("scan_psnr_db", [])) // passes
        tally.check(s.get("scan_psnr_db", [])[:per_pass] * passes == s.get("scan_psnr_db", []),
                    "scan PSNR differs between passes")
        # per search key: wall times, and (best, PSNR) per phantom set, which
        # must repeat exactly from pass to pass
        times, results = {}, {}
        for key, phantoms, seconds, best, psnr in tally.searches:
            times.setdefault(key, []).append(seconds)
            seen = results.setdefault(key, {}).setdefault(phantoms, (best, psnr))
            tally.check(seen == (best, psnr), f"{key} {phantoms} differs between passes")
        for phantoms, (_, p1) in results.get("lambda_o1", {}).items():
            p2 = results.get("lambda_o2", {}).get(phantoms, (None, math.inf))[1]
            tally.check(p2 > p1, f"order-2 core PSNR does not beat order 1 on {phantoms}")

        def med(samples):
            return statistics.median(samples) if samples else None

        def mean_psnr(key):
            found = [p for _, p in results.get(key, {}).values()]
            return statistics.fmean(found) if found else None

        values = {
            "setup_s": med(setup_times),
            "scan_simulate_s": med(s.get("simulate_s")),
            "scan_reconstruct_sparse_s": med(s.get("reconstruct_sparse_s")),
            "scan_reconstruct_dense_s": med(s.get("reconstruct_dense_s")),
            "scan_psnr_db": statistics.fmean(s["scan_psnr_db"]) if s.get("scan_psnr_db") else None,
            "lambda_search_o1_s": med(times.get("lambda_o1")),
            "lambda_search_o2_s": med(times.get("lambda_o2")),
            "core_psnr_o1_db": mean_psnr("lambda_o1"),
            "core_psnr_o2_db": mean_psnr("lambda_o2"),
            "mu_search_s": med(times.get("mu")),
            "deconv_psnr_db": mean_psnr("mu"),
            "ops_ok_ratio": (tally.attempted - tally.nonzero) / max(tally.attempted, 1),
        }
        missing = [k for k, v in values.items() if v is None]
        tally.check(not missing, f"no samples for {missing}")
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]}
                   for k in END_TO_END if values[k] is not None}
        best = {key: {"+".join(ph): b for ph, (b, _) in found.items()}
                for key, found in results.items()}
        extra = {"passes": passes, "setup_samples_s": setup_times, "best": best}
        return tally, metrics, extra

    def per_layer(self) -> tuple[Tally, dict, dict]:
        from spans import Tracer
        plain = Tally()
        start = perf_counter()
        self.run_pass(plain, self.setup(plain))
        untraced = perf_counter() - start
        tally, tracer = Tally(), Tracer()
        self.tracer = tracer
        tracer.install()
        try:
            start = perf_counter()
            self.run_pass(tally, self.setup(tally))
            traced = perf_counter() - start
        finally:
            tracer.uninstall()
            self.tracer = None
        metrics, absent = tracer.metrics()
        for name in absent:
            print(f"per-layer metric absent (its entry points are gone): {name}",
                  file=sys.stderr)
        metrics["perfbench.untraced_s"] = {"value": untraced, "unit": "s"}
        metrics["perfbench.traced_s"] = {"value": traced, "unit": "s"}
        metrics["perfbench.trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
        tally.problems += plain.problems
        extra = {"absent": absent, "missing_entry_points": tracer.missing,
                 "spans": len(tracer.spans)}
        tracer.write_spans(os.path.join(OUT_DIR, self.record_name() + ".spans.jsonl"))
        return tally, metrics, extra

    def record_name(self) -> str:
        a = self.args
        return f"{a.workload}-seed{a.seed}-trace{a.trace}{'-smoke' if a.smoke else ''}"


def tree_snapshot(root: str, skip: str) -> dict:
    """{relative path: (size, mtime_ns)} of every file under root but skip."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if os.path.join(dirpath, d) != skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            snap[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return snap


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "thread_env": THREAD_ENV, "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "smoke": args.smoke, "seconds": args.seconds,
            "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float,
                   help="measure whole passes for about this long (default 45, smoke 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids; also checks that nothing is written outside "
                        "the run's temp dirs")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 45.0
    try:
        import_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench = Bench(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    bench.tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    before = tree_snapshot(ROOT, bench.tmp_root) if args.smoke else None
    try:
        tally, metrics, extra = bench.per_layer() if args.trace else bench.end_to_end()
        if args.smoke:
            after = tree_snapshot(ROOT, bench.tmp_root)
            changed = sorted(k for k in before.keys() | after.keys()
                             if before.get(k) != after.get(k)
                             and not k.startswith(os.path.basename(OUT_DIR) + os.sep))
            tally.check(not changed, f"files written outside the run's temp dir: {changed}")
            leftovers = os.listdir(bench.tmp_root)
            tally.check(not leftovers, f"temp dirs not cleaned up: {leftovers}")
    finally:
        shutil.rmtree(bench.tmp_root, ignore_errors=True)
    env = environment(args)
    result = {"correct": not tally.problems and tally.failed == 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = {"environment": env, "result": result, "problems": tally.problems,
              "known_defects": {"metrics_step_exit_2": tally.known_defect},
              "samples": tally.samples, "searches": tally.searches, **extra}
    with open(os.path.join(OUT_DIR, bench.record_name() + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env, "known_defects": record["known_defects"],
                      **{k: v for k, v in extra.items() if k != "setup_samples_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

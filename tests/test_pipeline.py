import os
import subprocess
import sys
import textwrap
import threading

import pytest

from mpirecon import core_stage, pipeline
from mpirecon.config import ConfigError, PipelineConfig
from mpirecon.phantom import builtin_suite
from mpirecon.pipeline import GridSpec, run_experiment, search_lambda, search_mu, simulate_case

LAMBDAS = GridSpec(values=(0.5, 0.05, 0.05, 0.005))   # 3 distinct values
MUS = GridSpec(values=(0.1, 0.01, 0.001, 0.01))        # 3 distinct values


def fast_config() -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.grids.fine_nx, cfg.grids.recon_nx, cfg.grids.coeff_n = 64, 32, 16
    cfg.trajectory.L = 128
    cfg.deconv.iters = 2
    return cfg


@pytest.fixture(scope="module")
def cases():
    # disk and bar share one scan geometry; k_thin is scanned along another
    cfg = fast_config()
    other = fast_config()
    other.trajectory.L = 96
    specs = {s.name: s for s in builtin_suite()}
    return cfg, [simulate_case(cfg, specs["disk"]), simulate_case(cfg, specs["bar"]),
                 simulate_case(other, specs["k_thin"])]


def spy_on_searches(monkeypatch, calls):
    """Record each search's result and the solver call counts at its return.

    calls maps a solver to a list with one entry per call.
    """
    seen = {}
    for name in ("search_lambda", "search_mu"):
        def spy(*args, _search=getattr(pipeline, name), _name=name, **kw):
            res = _search(*args, **kw)
            seen[_name] = (res, {k: len(v) for k, v in calls.items()})
            return res
        monkeypatch.setattr(pipeline, name, spy)
    return seen


def test_run_experiment_scores_are_its_search_winners(monkeypatch, cases):
    cfg, sims = cases
    seen = spy_on_searches(monkeypatch, {})
    res = run_experiment(cfg, sims, 2, LAMBDAS, MUS)
    lam, mu = seen["search_lambda"][0], seen["search_mu"][0]
    assert (res.lam, res.mu) == (lam.best_value, mu.best_value)
    assert res.mean_core_psnr() == lam.best_score
    assert res.mean_deconv_psnr() == mu.best_score
    assert all(res.traces[c.name] is tr for c, tr in zip(sims, lam.outputs))
    assert all(res.recons[c.name] is rho for c, rho in zip(sims, mu.outputs))


def test_run_experiment_solves_nothing_after_its_searches(monkeypatch, cases):
    # each distinct lambda costs one solve per scan geometry and each
    # distinct mu one HQS run per case; the winners are never re-solved
    cfg, sims = cases
    # the searches call the solvers on worker threads: list.append is atomic
    calls = {"solve": [], "hqs": []}
    solver, hqs = core_stage.CoreSystem.solver, pipeline.hqs_deconvolve

    def counted_solver(self, signals):
        # a solve is a call of the per-lambda function the solver returns
        solve = solver(self, signals)

        def counted_solve(lam):
            calls["solve"].append(None)
            return solve(lam)
        return counted_solve

    def counted_hqs(*args, **kw):
        calls["hqs"].append(None)
        return hqs(*args, **kw)

    monkeypatch.setattr(core_stage.CoreSystem, "solver", counted_solver)
    monkeypatch.setattr(pipeline, "hqs_deconvolve", counted_hqs)
    seen = spy_on_searches(monkeypatch, calls)
    run_experiment(cfg, sims, 2, LAMBDAS, MUS)
    counts = {k: len(v) for k, v in calls.items()}
    n_lam, n_mu, geometries = len(set(LAMBDAS.values)), len(set(MUS.values)), 2
    assert counts == {"solve": n_lam * geometries, "hqs": n_mu * len(sims)}
    assert seen["search_lambda"][1] == {"solve": n_lam * geometries, "hqs": 0}
    assert seen["search_mu"][1] == counts


def test_grid_spec_refine_reads_config_booleans():
    assert GridSpec.parse("refine=on").refine is True
    assert GridSpec.parse("refine=Off").refine is False
    assert GridSpec.parse("default") == GridSpec() == GridSpec.parse("")


def same_search(a, b) -> bool:
    """Equal rows, winner and score, and bitwise-equal winning outputs."""
    return ((a.rows, a.best_value, a.best_score) == (b.rows, b.best_value, b.best_score)
            and [o.values.tobytes() for o in a.outputs] == [o.values.tobytes() for o in b.outputs])


def test_searches_on_the_workers_equal_the_serial_loop(monkeypatch, cases):
    # a two-step grid whose refine step revisits coarse values; the workers
    # share operators and tables, and switch threads often
    cfg, sims = cases
    spec = GridSpec(exponents=(-3, -2), mantissas=(1.0, 5.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lam = search_lambda(cfg, sims, 2, spec)
        traces = [(tr, case.rho_gt_recon) for tr, case in zip(lam.outputs, sims)]
        mu = search_mu(cfg, traces, spec)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(pipeline, "_parallel_map", map)
    assert same_search(lam, search_lambda(cfg, sims, 2, spec))
    assert same_search(mu, search_mu(cfg, traces, spec))
    assert len(lam.rows) == len(mu.rows) == 4 + 27


def test_search_reraises_a_grid_values_config_error(cases):
    _, sims = cases
    gts = [sims[0].u_gt]

    def outputs_at(v):
        if v == 0.01:
            raise ConfigError("bad value")
        return gts

    with pytest.raises(ConfigError, match="bad value"):
        pipeline._search(outputs_at, gts, GridSpec(values=(1.0, 0.1, 0.01, 0.001)))


def search_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("mpirecon-search")]


def test_searches_leave_no_worker_thread_running(cases):
    cfg, sims = cases
    lam = search_lambda(cfg, sims, 2, LAMBDAS)
    assert search_threads() == []
    search_mu(cfg, [(tr, case.rho_gt_recon) for tr, case in zip(lam.outputs, sims)], MUS)
    assert search_threads() == []


def run_python(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter; a run past timeout fails the test."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    try:
        return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, "PYTHONPATH": src})
    except subprocess.TimeoutExpired:
        pytest.fail(f"no result after {timeout} s: the call hung")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_search_in_a_child_forked_after_a_search():
    # a hung search in the child ends it by SIGALRM, which fails the parent
    proc = run_python("""
        import os, signal, sys
        from mpirecon.config import PipelineConfig
        from mpirecon.pipeline import GridSpec, search_lambda, simulate_case
        cfg = PipelineConfig()
        cfg.grids.fine_nx, cfg.grids.recon_nx, cfg.grids.coeff_n = 64, 32, 16
        cfg.trajectory.L = 128
        cases, spec = [simulate_case(cfg)], GridSpec(values=(0.5, 0.05, 0.005))
        rows = search_lambda(cfg, cases, 2, spec).rows
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            os._exit(0 if search_lambda(cfg, cases, 2, spec).rows == rows else 1)
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_parallel_map_tasks_may_call_it():
    # more outer tasks than workers, each waiting on tasks of its own
    proc = run_python("""
        import os
        from mpirecon.pipeline import _parallel_map
        n = 4 * (os.cpu_count() or 1)
        inner = lambda i: sum(_parallel_map(abs, range(i)))
        assert list(_parallel_map(inner, range(n))) == [sum(range(i)) for i in range(n)]
        """, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mu", [-1.0, 0.0, float("nan")])
def test_mu_search_ignores_the_configs_own_mu(cases, mu):
    cfg, sims = cases
    traces = [(sims[0].u_gt, sims[0].rho_gt_recon)]
    bad = fast_config()
    bad.deconv.mu = mu
    with pytest.raises(ConfigError):
        pipeline.deconv_problem(bad, sims[0].u_gt)
    assert same_search(search_mu(bad, traces, MUS), search_mu(cfg, traces, MUS))


@pytest.mark.parametrize("lam", [-1.0, 0.0, float("nan")])
def test_lambda_search_ignores_the_configs_own_lambda(cases, lam):
    cfg, sims = cases
    bad = fast_config()
    bad.core.lam = lam
    with pytest.raises(ConfigError):
        pipeline.core_problem(bad, sims[0].series)
    assert same_search(search_lambda(bad, sims, 2, LAMBDAS), search_lambda(cfg, sims, 2, LAMBDAS))

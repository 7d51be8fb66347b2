import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time

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


def shared_counter():
    """A count that forked worker processes add to and the caller reads."""
    return multiprocessing.get_context("fork").Value("i", 0)


def count(counter):
    with counter.get_lock():
        counter.value += 1


def spy_on_searches(monkeypatch, calls):
    """Record each search's result and the solver call counts at its return.

    calls maps a solver to its shared_counter.
    """
    seen = {}
    for name in ("search_lambda", "search_mu"):
        def spy(*args, _search=getattr(pipeline, name), _name=name, **kw):
            res = _search(*args, **kw)
            seen[_name] = (res, {k: v.value for k, v in calls.items()})
            return res
        monkeypatch.setattr(pipeline, name, spy)
    return seen


def test_run_experiment_scores_are_its_search_winners(monkeypatch, cases):
    # the searches score every output they make, and nothing is scored after
    cfg, sims = cases
    calls = {"score": shared_counter()}
    score = pipeline.score_pair
    monkeypatch.setattr(pipeline, "score_pair", lambda *a: count(calls["score"]) or score(*a))
    seen = spy_on_searches(monkeypatch, calls)
    res = run_experiment(cfg, sims, 2, LAMBDAS, MUS)
    n_lam, n_mu = len(set(LAMBDAS.values)), len(set(MUS.values))
    assert seen["search_lambda"][1] == {"score": n_lam * len(sims)}
    assert seen["search_mu"][1] == {"score": (n_lam + n_mu) * len(sims)}
    assert calls["score"].value == (n_lam + n_mu) * len(sims)
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
    # the mu search runs HQS in forked workers: count in shared memory
    calls = {"solve": shared_counter(), "hqs": shared_counter()}

    def counting(solver, counter):
        # a run is a call of the per-lambda or per-mu function a solver returns
        def counted_solver(*args):
            solve = solver(*args)

            def counted_solve(value):
                count(counter)
                return solve(value)
            return counted_solve
        return counted_solver

    monkeypatch.setattr(core_stage.CoreSystem, "solver",
                        counting(core_stage.CoreSystem.solver, calls["solve"]))
    monkeypatch.setattr(pipeline, "hqs_solver", counting(pipeline.hqs_solver, calls["hqs"]))
    seen = spy_on_searches(monkeypatch, calls)
    run_experiment(cfg, sims, 2, LAMBDAS, MUS)
    counts = {k: v.value for k, v in calls.items()}
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
    # a two-step grid whose refine step revisits coarse values; the mu
    # steps' results come back from the workers by pickle
    cfg, sims = cases
    spec = GridSpec(exponents=(-3, -2), mantissas=(1.0, 5.0))
    lam = search_lambda(cfg, sims, 2, spec)
    traces = [(tr, case.rho_gt_recon) for tr, case in zip(lam.outputs, sims)]
    mu = search_mu(cfg, traces, spec)
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


def test_search_cancels_the_values_queued_behind_a_failing_one(cases):
    # the first value raises at once; every other one takes a while.  Up to
    # about two values per worker are handed out before the error arrives
    _, sims = cases
    gts = [sims[0].u_gt]
    evaluated = shared_counter()
    values = tuple(float(v) for v in range(4 * os.cpu_count() + 4, 0, -1))

    def outputs_at(v):
        count(evaluated)
        if v == values[0]:
            raise ConfigError("bad value")
        time.sleep(0.2)
        return gts

    with pytest.raises(ConfigError, match="bad value"):
        pipeline._search(outputs_at, gts, GridSpec(values=values), pipeline._parallel_map)
    assert 1 <= evaluated.value < len(values)
    assert multiprocessing.active_children() == []


def test_searches_leave_no_worker_thread_running(cases):
    # nor a worker process, nor the pool's own threads in the caller
    cfg, sims = cases
    threads = set(threading.enumerate())
    lam = search_lambda(cfg, sims, 2, LAMBDAS)
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads
    search_mu(cfg, [(tr, case.rho_gt_recon) for tr, case in zip(lam.outputs, sims)], MUS)
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads


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


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="tasks run in forked workers on Linux with 2+ CPUs")
def test_a_dead_worker_fails_its_step():
    # a task that kills its own process: the caller gets BrokenProcessPool
    # at once, and no worker is left behind
    proc = run_python("""
        import multiprocessing, os, signal, time
        from concurrent.futures.process import BrokenProcessPool
        from mpirecon.pipeline import _parallel_map

        def task(i):
            if i == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.1)
            return i

        start = time.perf_counter()
        try:
            list(_parallel_map(task, range(8)))
        except BrokenProcessPool:
            pass
        else:
            raise SystemExit("no BrokenProcessPool")
        assert time.perf_counter() - start < 10, time.perf_counter() - start
        assert multiprocessing.active_children() == [], multiprocessing.active_children()
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

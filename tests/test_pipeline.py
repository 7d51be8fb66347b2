import pytest

from mpirecon import core_stage, pipeline
from mpirecon.config import PipelineConfig
from mpirecon.phantom import builtin_suite
from mpirecon.pipeline import GridSpec, run_experiment, simulate_case

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


def spy_on_searches(monkeypatch, counts):
    """Record each search's result and the solver call counts at its return."""
    seen = {}
    for name in ("search_lambda", "search_mu"):
        def spy(*args, _search=getattr(pipeline, name), _name=name, **kw):
            res = _search(*args, **kw)
            seen[_name] = (res, dict(counts))
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
    counts = {"solve": 0, "hqs": 0}
    solve, hqs = core_stage.CoreSystem.solve, pipeline.hqs_deconvolve

    def counted_solve(self, *args, **kw):
        counts["solve"] += 1
        return solve(self, *args, **kw)

    def counted_hqs(*args, **kw):
        counts["hqs"] += 1
        return hqs(*args, **kw)

    monkeypatch.setattr(core_stage.CoreSystem, "solve", counted_solve)
    monkeypatch.setattr(pipeline, "hqs_deconvolve", counted_hqs)
    seen = spy_on_searches(monkeypatch, counts)
    run_experiment(cfg, sims, 2, LAMBDAS, MUS)
    n_lam, n_mu, geometries = len(set(LAMBDAS.values)), len(set(MUS.values)), 2
    assert counts == {"solve": n_lam * geometries, "hqs": n_mu * len(sims)}
    assert seen["search_lambda"][1] == {"solve": n_lam * geometries, "hqs": 0}
    assert seen["search_mu"][1] == counts


def test_grid_spec_refine_reads_config_booleans():
    assert GridSpec.parse("refine=on").refine is True
    assert GridSpec.parse("refine=Off").refine is False
    assert GridSpec.parse("default") == GridSpec() == GridSpec.parse("")

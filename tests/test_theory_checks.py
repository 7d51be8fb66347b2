import numpy as np
import pytest

from mpirecon.fields import cell_centers
from mpirecon.spectral import laplace_eigenvalue
from mpirecon import theory_checks as tc


def test_default_suite_passes():
    reports = tc.run_default_suite()
    assert len(reports) > 100
    for r in reports:
        assert r.passed, f"{r.name}: {r.residuals}"


def test_laplace_eigen_check_modes():
    r = tc.check_neumann_laplace_eigen((0, 0))
    assert r.passed and r.max_residual == 0.0
    r = tc.check_neumann_laplace_eigen((3, 2))
    assert r.passed and r.max_residual < 1e-9


def test_bilap_eigen_check():
    r = tc.check_bilap_neumann_eigen((1, 1))
    assert r.passed and r.max_residual < 1e-8
    r = tc.check_bilap_neumann_eigen((5, 0))
    assert r.passed


def test_dirichlet_check_requires_positive_modes():
    with pytest.raises(ValueError):
        tc.check_dirichlet_variants((0, 1))
    assert tc.check_dirichlet_variants((1, 1)).passed
    assert tc.check_dirichlet_variants((2, 3)).passed


def test_harmonic_kernel_check():
    r = tc.check_harmonic_kernel(6)
    assert r.passed
    names = [n for n, _ in r.residuals]
    assert "pairwise_orthogonality" in names
    assert r.note  # nonexistence caveat documented


def test_kernel_separable_family_check():
    r = tc.check_kernel_separable_family([0.0, 1.7, np.pi])
    assert r.passed
    assert any("omega=0" in n for n, _ in r.residuals)
    assert any("cos*cosh" in n for n, _ in r.residuals)


def test_r2_r3_equality_check():
    r = tc.check_r2_equals_r3(20, 8)
    assert r.passed and r.max_residual < 1e-8
    with pytest.raises(ValueError):
        tc.check_r2_equals_r3(5, 40)


def test_r2_r3_single_mode_value():
    # single mode (1,0): R2 = R3 = mu^2 / (2 |Omega|), pure d^2/dx^2, no cross term
    n = 64
    xs = cell_centers(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    area = (2.0 / n) ** 2
    m = (1, 0)
    uxx = tc.cos_partial(m, gx, gy, 2, 0)
    uyy = tc.cos_partial(m, gx, gy, 0, 2)
    uxy = tc.cos_partial(m, gx, gy, 1, 1)
    r2 = np.sum((uxx + uyy) ** 2) * area / 8.0
    r3 = np.sum(uxx ** 2 + 2 * uxy ** 2 + uyy ** 2) * area / 8.0
    want = laplace_eigenvalue(m) ** 2 / 8.0
    assert r2 == pytest.approx(want, rel=1e-12)
    assert r3 == pytest.approx(want, rel=1e-12)
    # constant mode: both vanish
    z = tc.cos_partial((0, 0), gx, gy, 2, 0)
    assert np.all(z == 0.0)


def test_r3_boundary_term_check():
    for m in [(0, 0), (2, 3), (7, 1)]:
        r = tc.check_r3_boundary_term(m)
        assert r.passed
        assert r.max_residual < 1e-9


def fd_first(fun, t, step=1e-3):
    """5-point first-derivative stencil, O(step^4)."""
    return (-fun(t + 2 * step) + 8 * fun(t + step)
            - 8 * fun(t - step) + fun(t - 2 * step)) / (12 * step)


@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_closed_form_derivatives_match_stencils(kind, k, order):
    # meta-check: each derivative order agrees with the 5-point stencil
    # applied to the closed form one order below
    rng = np.random.default_rng(order * 10 + k)
    t = rng.uniform(-0.9, 0.9, size=8)
    got = tc.trig_deriv(kind, k, t, order)
    fd = fd_first(lambda s: tc.trig_deriv(kind, k, s, order - 1), t)
    scale = max(1.0, float(np.max(np.abs(got))))
    assert np.max(np.abs(got - fd)) < 1e-7 * scale


def test_report_consistency():
    r = tc.check_neumann_laplace_eigen((2, 2))
    assert r.passed == all(v <= r.tolerance for _, v in r.residuals)


@pytest.mark.parametrize("check, want", [
    pytest.param(lambda: tc.check_neumann_laplace_eigen((3, 2)), 3.19, id="laplace_neumann"),
    pytest.param(lambda: tc.check_bilap_neumann_eigen((3, 2)), 0.172, id="bilaplace_neumann"),
    pytest.param(lambda: tc.check_dirichlet_variants((3, 2)), 3.18, id="dirichlet"),
    pytest.param(lambda: tc.check_r2_equals_r3(20, 8), 0.174, id="r2_equals_r3"),
])
def test_wrong_eigenvalue_fails_loudly(monkeypatch, check, want):
    # negative control: corrupt the eigenvalue table and watch each check
    # that reads it fail by the size of the corruption
    monkeypatch.setattr(tc, "laplace_eigenvalue", lambda m: 1.1 * laplace_eigenvalue(m))
    r = check()
    assert not r.passed
    assert r.max_residual == pytest.approx(want, rel=1e-2)


def test_default_suite_layout():
    # every mode's checks, the three single checks, and each one's residual rows
    reports = tc.run_default_suite()
    kinds = [r.name.split(" ")[0] for r in reports]
    assert len(reports) == 186
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "laplace_neumann_eigen": 49, "bilaplace_neumann_eigen": 49,
        "r3_boundary_term": 49, "dirichlet_variants": 36, "harmonic_kernel": 1,
        "kernel_separable_family": 1, "r2_equals_r3": 1}
    assert sum(len(r.residuals) for r in reports) == 458

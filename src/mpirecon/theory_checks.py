"""Numerical certification of the eigenbasis identities behind the method.

Each check reduces an analytic statement (eigen-relations, boundary
conditions, harmonic-kernel membership, equality of the Laplacian-squared
and Hessian regularizers) to a quantitative residual evaluated through
closed-form derivatives.  Non-existence statements are analytic results
that finite sampling cannot certify; the suite covers only their
constructive counterparts and says so in the report.  Each identity is
written as operators applied to a member f(x, y, ax, ay) = d^ax_x d^ay_y u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np
from numpy.polynomial import polynomial as P

from .fields import cell_centers
from .rng import SeededGenerator
from .spectral import cos_norm, laplace_eigenvalue

DEFAULT_TOLERANCE = 1e-8
_POINT_SEED = 0x5EED


@dataclass
class CheckReport:
    name: str
    residuals: list[tuple[str, float]]
    tolerance: float
    passed: bool
    note: str = ""

    @property
    def max_residual(self) -> float:
        return max((v for _, v in self.residuals), default=0.0)


def _report(name, residuals, tol, note="") -> CheckReport:
    ok = all(v <= tol for _, v in residuals)
    return CheckReport(name, residuals, tol, ok, note)


def _interior_points(num_points: int):
    """Deterministic pseudo-random interior sample of Omega."""
    gen = SeededGenerator(_POINT_SEED)
    u = gen.uniforms(2 * num_points).reshape(num_points, 2)
    pts = -0.98 + 1.96 * u
    return pts[:, 0], pts[:, 1]


def _edge_points(n: int = 200):
    """Dense samples of the four edges as (x, y, axis) triples.

    axis = 0 marks the x = +-1 edges (normal along x), axis = 1 the y edges.
    """
    s = np.linspace(-1.0, 1.0, n)
    ones = np.ones_like(s)
    return [
        (-ones, s, 0), (ones, s, 0),
        (s, -ones, 1), (s, ones, 1),
    ]


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def _factor(kind: str, w: float, s, k: int):
    """k-th derivative in s of kind(w s), kind one of cos, sin, cosh, sinh."""
    if kind in ("cos", "sin"):
        # each derivative advances the phase by a quarter period
        return w ** k * getattr(np, kind)(w * s + k * np.pi / 2.0)
    hyp = (np.cosh, np.sinh) if kind == "cosh" else (np.sinh, np.cosh)
    return w ** k * hyp[k % 2](w * s)


def _product(kx: str, ky: str, w: float, shift: float = 0.0):
    """Member f = kx(w (x + shift)) * ky(w (y + shift))."""
    return lambda x, y, ax, ay: (
        _factor(kx, w, np.asarray(x, dtype=float) + shift, ax)
        * _factor(ky, w, np.asarray(y, dtype=float) + shift, ay))


def _lap(f, x, y, ax: int = 0, ay: int = 0):
    """Laplacian of f, after an extra derivative d^ax_x d^ay_y."""
    return f(x, y, ax + 2, ay) + f(x, y, ax, ay + 2)


def _bilap(f, x, y):
    return f(x, y, 4, 0) + 2.0 * f(x, y, 2, 2) + f(x, y, 0, 4)


def _edge_orders(axis: int, normal: int, tangent: int):
    """(ax, ay) of d^normal_nu d^tangent_tau on an edge whose normal is along axis."""
    return (normal, tangent) if axis == 0 else (tangent, normal)


def trig_deriv(kind: str, k: int, t, order: int):
    """order-th derivative of cos/sin(w (t+1)) with w = pi k / 2."""
    return _factor(kind, 0.5 * np.pi * k, np.asarray(t, dtype=float) + 1.0, order)


def cos_partial(m, x, y, ax: int, ay: int):
    """Closed-form partial derivative d^ax_x d^ay_y of u_m."""
    m1, m2 = m
    return cos_norm(m) * trig_deriv("cos", m1, x, ax) * trig_deriv("cos", m2, y, ay)


def sin_partial(m, x, y, ax: int, ay: int):
    """Closed-form partial derivative of v_m (unit normalizer for m1, m2 >= 1)."""
    m1, m2 = m
    return trig_deriv("sin", m1, x, ax) * trig_deriv("sin", m2, y, ay)


def check_neumann_laplace_eigen(m, num_points: int = 100,
                                tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """-Delta u_m = mu_m u_m in Omega and normal derivative zero on the edges."""
    x, y = _interior_points(num_points)
    mu = laplace_eigenvalue(m)
    f = partial(cos_partial, m)
    r1 = _maxabs(-_lap(f, x, y) - mu * f(x, y, 0, 0))
    r2 = max(_maxabs(f(ex, ey, *_edge_orders(axis, 1, 0)))
             for ex, ey, axis in _edge_points())
    return _report(f"laplace_neumann_eigen m={m}",
                   [("interior", r1), ("boundary_normal", r2)], tol)


def check_bilap_neumann_eigen(m, num_points: int = 100,
                              tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Delta^2 u_m = mu_m^2 u_m with d_nu u = 0 and d_nu Delta u = 0."""
    x, y = _interior_points(num_points)
    mu = laplace_eigenvalue(m)
    f = partial(cos_partial, m)
    r1 = _maxabs(_bilap(f, x, y) - mu * mu * f(x, y, 0, 0))
    edges = _edge_points()
    r2 = max(_maxabs(f(ex, ey, *_edge_orders(axis, 1, 0))) for ex, ey, axis in edges)
    r3 = max(_maxabs(_lap(f, ex, ey, *_edge_orders(axis, 1, 0)))
             for ex, ey, axis in edges)
    # eigenvalues grow like mu^2; compare residuals relative to that scale
    scale = max(mu * mu, 1.0)
    return _report(f"bilaplace_neumann_eigen m={m}",
                   [("interior_rel", r1 / scale), ("boundary_normal", r2),
                    ("boundary_normal_laplacian", r3 / max(mu, 1.0))], tol)


def check_dirichlet_variants(m, num_points: int = 100,
                             tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Sine family: Laplace and Bi-Laplace eigen-relations with v = Delta v = 0."""
    if min(m) < 1:
        raise ValueError("sine modes need m1, m2 >= 1")
    x, y = _interior_points(num_points)
    mu = laplace_eigenvalue(m)
    f = partial(sin_partial, m)
    r1 = _maxabs(-_lap(f, x, y) - mu * f(x, y, 0, 0))
    r2 = _maxabs(_bilap(f, x, y) - mu * mu * f(x, y, 0, 0)) / max(mu * mu, 1.0)
    edges = _edge_points()
    r3 = max(_maxabs(f(ex, ey, 0, 0)) for ex, ey, _ in edges)
    r4 = max(_maxabs(_lap(f, ex, ey)) / max(mu, 1.0) for ex, ey, _ in edges)
    return _report(f"dirichlet_variants m={m}",
                   [("laplace_interior", r1), ("bilaplace_interior_rel", r2),
                    ("boundary_value", r3), ("boundary_laplacian_rel", r4)], tol)


def check_harmonic_kernel(n_max: int, num_points: int = 100,
                          quad_n: int = 512,
                          tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """cos*cosh family: harmonic, mutually orthogonal, trivially satisfies the
    all-natural boundary conditions (Delta u = 0 and d_nu Delta u = 0)."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    # member n is cos(pi n (x+1)/2) cosh(pi n (y+1)/2)
    members = [_product("cos", "cosh", 0.5 * np.pi * n, 1.0) for n in range(n_max + 1)]
    x, y = _interior_points(num_points)
    residuals = [(f"laplacian_rel n={n}",
                  _maxabs(_lap(f, x, y)) / max(_maxabs(f(x, y, 0, 0)), 1.0))
                 for n, f in enumerate(members)]
    # orthogonality by midpoint quadrature on the cell-centered grid
    xs = cell_centers(quad_n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    area = (2.0 / quad_n) ** 2
    u = [f(gx, gy, 0, 0) for f in members]
    norms = [float(np.sqrt(np.sum(ui * ui) * area)) for ui in u]
    worst = max(abs(float(np.sum(u[i] * u[j]) * area)) / (norms[i] * norms[j])
                for i, j in combinations(range(n_max + 1), 2))
    residuals.append(("pairwise_orthogonality", worst))
    # boundary conditions hold trivially since Delta u vanishes identically
    eb = max(max(_maxabs(_lap(f, ex, ey)), _maxabs(_lap(f, ex, ey, *_edge_orders(axis, 1, 0))))
             / max(_maxabs(f(ex, ey, 0, 0)), 1.0)
             for ex, ey, axis in _edge_points() for f in members)
    residuals.append(("boundary_conditions_rel", eb))
    note = ("certifies the constructive content only; that no eigenfunctions "
            "exist for mu > 0 is an analytic statement outside numerical reach")
    return _report(f"harmonic_kernel n<={n_max}", residuals, tol, note)


def _affine(x, y, ax: int, ay: int):
    """The omega = 0 member (0.7 + 1.3 x)(-0.4 + 0.9 y): the family's affine
    limit, whose second derivatives vanish identically."""
    return P.polyval(x, P.polyder([0.7, 1.3], ax)) * P.polyval(y, P.polyder([-0.4, 0.9], ay))


def check_kernel_separable_family(omega_values, num_points: int = 200,
                                  tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """The separable mu = 0 family: trig(w x) * hyp(w y) products are harmonic."""
    x, y = _interior_points(num_points)
    residuals = []
    for omega in omega_values:
        members = ([("omega=0 affine", _affine)] if omega == 0.0 else
                   [(f"omega={omega:g} {t}*{h}", _product(t, h, float(omega)))
                    for t in ("cos", "sin") for h in ("cosh", "sinh")])
        residuals += [(name, _maxabs(_lap(f, x, y)) / max(_maxabs(f(x, y, 0, 0)), 1.0))
                      for name, f in members]
    note = ("the family exists for every omega; separable eigenfunctions for "
            "mu > 0 are excluded analytically, not numerically")
    return _report("kernel_separable_family", residuals, tol, note)


def check_r2_equals_r3(num_trials: int = 20, band: int = 8,
                       tol: float = DEFAULT_TOLERANCE,
                       seed: int = 2024) -> CheckReport:
    """Laplacian-squared and Hessian regularizers agree (and match the
    diagonal spectral form) for random band-limited expansions."""
    if band > 32:
        raise ValueError("band must be <= 32")
    quad_n = 8 * band
    xs = cell_centers(quad_n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    area = (2.0 / quad_n) ** 2
    modes = [(k, l) for k in range(band) for l in range(band)]
    gen = SeededGenerator(seed)
    coeff = np.array([gen.normal_pairs(len(modes))[:, 0] for _ in range(num_trials)])
    # one row per trial: u_xx, u_yy and u_xy of its expansion on the grid
    uxx, uyy, uxy = (coeff @ np.array([cos_partial(m, gx, gy, ax, ay).ravel() for m in modes])
                     for ax, ay in ((2, 0), (0, 2), (1, 1)))
    r2 = np.sum((uxx + uyy) ** 2, axis=1) * area / 8.0
    r3 = np.sum(uxx ** 2 + 2.0 * uxy ** 2 + uyy ** 2, axis=1) * area / 8.0
    rs = coeff ** 2 @ np.array([laplace_eigenvalue(m) ** 2 for m in modes]) / 8.0
    scale = np.maximum(np.maximum(np.abs(r2), np.abs(r3)), np.maximum(np.abs(rs), 1e-30))
    worst_spec = np.maximum(np.abs(r2 - rs), np.abs(r3 - rs)) / scale
    return _report(f"r2_equals_r3 band={band} trials={num_trials}",
                   [("r2_vs_r3_rel", float(np.max(np.abs(r2 - r3) / scale))),
                    ("vs_spectral_rel", float(np.max(worst_spec)))], tol)


def check_r3_boundary_term(m, tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """The Hessian regularizer's natural boundary expression vanishes for u_m.

    On x = +-1 edges the expression reduces to |u_xxx + 2 u_xyy|, on y = +-1
    to |u_yyy + 2 u_xxy| (tangential-derivative term plus d_nu Delta u).
    """
    f = partial(cos_partial, m)
    worst = max(_maxabs(f(ex, ey, *_edge_orders(axis, 3, 0))
                        + 2.0 * f(ex, ey, *_edge_orders(axis, 1, 2)))
                for ex, ey, axis in _edge_points(400))
    mu = laplace_eigenvalue(m)
    return _report(f"r3_boundary_term m={m}",
                   [("edge_expression_rel", worst / max(mu ** 1.5, 1.0))], tol)


def run_default_suite(mode_range: int = 7, harmonic_n: int = 6,
                      tol: float = DEFAULT_TOLERANCE) -> list[CheckReport]:
    """The full certification suite at its default configuration."""
    reports = []
    modes = [(k, l) for k in range(mode_range) for l in range(mode_range)]
    for m in modes:
        reports.append(check_neumann_laplace_eigen(m, tol=tol))
        reports.append(check_bilap_neumann_eigen(m, tol=tol))
        reports.append(check_r3_boundary_term(m, tol=tol))
        if m[0] >= 1 and m[1] >= 1:
            reports.append(check_dirichlet_variants(m, tol=tol))
    reports.append(check_harmonic_kernel(harmonic_n, tol=tol))
    reports.append(check_kernel_separable_family([0.0, 1.7, np.pi], tol=tol))
    reports.append(check_r2_equals_r3(20, 8, tol=tol))
    return reports

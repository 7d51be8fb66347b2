import numpy as np
import pytest

from mpirecon.kernels import (FAR_FIELD, SERIES_THRESHOLD, KernelParams, SymMat2, f1, f2,
                              kernel_matrix, kernel_matrix_components, kernel_trace,
                              langevin)

# high-precision reference values (40-digit mpmath, frozen)
LANGEVIN_1 = 0.31303528549933130364
F1_HALF = 0.32790682747730569754
F2_HALF = -0.010601204308474973322


def numeric_jacobian(y, h, step=1e-6):
    """Finite-difference Jacobian of y -> L(|y|/h) y/|y| (oracle)."""
    def g(p):
        r = np.hypot(p[0], p[1])
        return langevin(r / h) * p / r
    J = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        J[:, j] = (g(y + e) - g(y - e)) / (2 * step)
    return J


def test_langevin_at_zero_and_odd():
    assert langevin(0.0) == 0.0
    for z in (0.3, 1.0, 2.5):
        assert langevin(-z) == pytest.approx(-langevin(z), abs=1e-15)


def test_langevin_reference_value():
    assert langevin(1.0) == pytest.approx(LANGEVIN_1, abs=1e-13)


def test_langevin_small_z_series():
    # leading behavior z/3 - z^3/45
    for z in (1e-3, 3e-3):
        assert langevin(z) == pytest.approx(z / 3 - z ** 3 / 45, rel=1e-10)


def test_f1_f2_at_zero():
    assert f1(0.0) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert f2(0.0) == 0.0


def test_f1_f2_reference_values():
    assert f1(0.5) == pytest.approx(F1_HALF, abs=1e-13)
    assert f2(0.5) == pytest.approx(F2_HALF, abs=1e-13)


def test_f1_f2_against_finite_difference_oracle():
    z = 0.5
    step = 1e-6
    dlan = (langevin(z + step) - langevin(z - step)) / (2 * step)
    assert f1(z) == pytest.approx(langevin(z) / z, abs=1e-14)
    assert f2(z) == pytest.approx(dlan - f1(z), abs=1e-8)


def test_series_continuity_at_threshold():
    thr = SERIES_THRESHOLD
    eps = 1e-12
    # crossing the switch changes values by less than 1e-10
    assert abs(f1(thr * (1 - eps)) - f1(thr * (1 + eps))) < 1e-10
    assert abs(f2(thr * (1 - eps)) - f2(thr * (1 + eps))) < 1e-10
    assert abs(langevin(thr * (1 - eps)) - langevin(thr * (1 + eps))) < 1e-10


def test_kernel_matrix_at_origin():
    p = KernelParams(h=0.01)
    k = kernel_matrix((0.0, 0.0), p)
    assert k.a11 == pytest.approx(100.0 / 3.0, rel=1e-14)
    assert k.a22 == pytest.approx(100.0 / 3.0, rel=1e-14)
    assert k.a12 == 0.0


def test_kernel_matrix_on_axis():
    # y = (h, 0): unit vector e1, so the rank-one term only hits a11
    p = KernelParams(h=0.01)
    k = kernel_matrix((p.h, 0.0), p)
    assert k.a11 == pytest.approx((f1(1.0) + f2(1.0)) / p.h, rel=1e-13)
    assert k.a22 == pytest.approx(f1(1.0) / p.h, rel=1e-13)
    assert k.a12 == pytest.approx(0.0, abs=1e-12)


def test_kernel_matrix_symmetric_by_construction():
    m = kernel_matrix((0.3, -0.2), KernelParams(h=0.05))
    arr = m.as_array()
    assert arr[0, 1] == arr[1, 0]


def test_trace_identity_random_points():
    p = KernelParams(h=0.01)
    rng = np.random.default_rng(7)
    ys = rng.uniform(-4, 4, size=(1000, 2))
    k11, _, k22 = kernel_matrix_components(ys[:, 0], ys[:, 1], p)
    tr = kernel_trace((ys[:, 0], ys[:, 1]), p)
    assert np.max(np.abs((k11 + k22 - tr) / tr)) < 1e-12


def test_kernel_matrix_matches_numeric_jacobian():
    p = KernelParams(h=0.01)
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = rng.uniform(p.h, 4.0)
        phi = rng.uniform(0, 2 * np.pi)
        y = np.array([r * np.cos(phi), r * np.sin(phi)])
        K = kernel_matrix(y, p).as_array()
        J = numeric_jacobian(y, p.h)
        assert np.max(np.abs(K - J)) < 1e-6 * max(1.0, np.max(np.abs(K)))


def test_trace_kernel_positive_and_radial():
    p = KernelParams(h=0.01)
    rng = np.random.default_rng(3)
    ys = rng.uniform(-4, 4, size=(500, 2))
    vals = kernel_trace((ys[:, 0], ys[:, 1]), p)
    assert np.all(vals > 0)
    a, b = 0.37, -1.24
    assert kernel_trace((a, b), p) == pytest.approx(kernel_trace((b, a), p), rel=1e-14)
    assert kernel_trace((a, b), p) == pytest.approx(kernel_trace((-a, b), p), rel=1e-14)


def test_trace_kernel_value_at_origin():
    # f(0) = 2 * 1/3 + 0
    assert kernel_trace((0.0, 0.0), KernelParams(h=0.01)) == pytest.approx(200.0 / 3.0)


def test_params_validation():
    for h in (0.0, -0.05, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            KernelParams(h=h)


def test_symmat2_trace():
    assert SymMat2(2.0, 0.5, 3.0).trace() == 5.0


# The closed forms and series as written before the far-field split: the
# reference that f1 and f2 must match bitwise everywhere.
def closed_f1(z):
    small = np.abs(z) < SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)
    closed = (1.0 / np.tanh(zs) - 1.0 / zs) / zs
    z2 = z * z
    return np.where(small, 1.0 / 3.0 - z2 / 45.0 + 2.0 * z2 * z2 / 945.0, closed)


def closed_f2(z):
    small = np.abs(z) < SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)
    with np.errstate(over="ignore"):
        dlan = 1.0 / (zs * zs) - 1.0 / np.sinh(zs) ** 2
    closed = dlan - (1.0 / np.tanh(zs) - 1.0 / zs) / zs
    z2 = z * z
    return np.where(small, z2 * (-2.0 / 45.0 + 8.0 * z2 / 945.0), closed)


def z_sweep():
    # 18.99: tanh reaches 1.0; 22.18: the sinh term stops changing f2;
    # FAR_FIELD and its neighbouring floats: where the far-field forms start
    marks = [0.0, SERIES_THRESHOLD, 18.99, 22.18, FAR_FIELD, 700.0]
    near = [np.nextafter(m, -np.inf) for m in marks[1:]] + \
           [np.nextafter(m, np.inf) for m in marks]
    return np.concatenate([marks, near, [np.inf, np.nan], np.linspace(0.0, 40.0, 40001),
                           np.geomspace(1e-6, 700.0, 20001)])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # series at ±inf
def test_f1_f2_match_closed_forms_on_a_sweep():
    z = z_sweep()
    np.testing.assert_array_equal(f1(z), closed_f1(z))
    np.testing.assert_array_equal(f2(z), closed_f2(z))
    # negative arguments take the near path, as both functions are even
    np.testing.assert_array_equal(f1(-z), closed_f1(-z))
    np.testing.assert_array_equal(f2(-z), closed_f2(-z))


@pytest.mark.parametrize("z", [0.0, SERIES_THRESHOLD, 0.5, 18.99, 22.18, FAR_FIELD,
                               np.nextafter(FAR_FIELD, 0.0), 700.0, np.inf, np.nan])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # series at inf
def test_f1_f2_scalar_and_zero_dim_inputs(z):
    for fn, ref in ((f1, closed_f1), (f2, closed_f2)):
        for arg in (z, np.float64(z), np.array(z)):
            out = fn(arg)
            assert type(out) is float
            np.testing.assert_array_equal(out, ref(np.array(z)))


def test_kernel_at_far_and_near_points_matches_closed_forms():
    p = KernelParams(h=0.01)
    for y in ((0.3, -0.2), (0.2, 0.1), (0.001, 0.002), (0.0, 0.0)):
        z = np.hypot(*y) / p.h
        tr = kernel_trace(y, p)
        assert type(tr) is float
        np.testing.assert_array_equal(tr, (2 * closed_f1(z) + closed_f2(z)) / p.h)
        k = kernel_matrix(y, p)
        r = np.hypot(*y) or 1.0
        ux, uy = y[0] / r, y[1] / r
        g1, g2 = closed_f1(z) / p.h, closed_f2(z) / p.h
        np.testing.assert_array_equal(k.a11, g1 + g2 * ux * ux)
        np.testing.assert_array_equal(k.a12, g2 * ux * uy)
        np.testing.assert_array_equal(k.a22, g1 + g2 * uy * uy)

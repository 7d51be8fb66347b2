import numpy as np
import pytest

from mpirecon.fields import FormatError, MatrixField, cell_centers
from mpirecon.spectral import (CoeffTensor, analyze, analyze_scalar, basis_matrix_1d,
                               cos_eval, cos_norm, laplace_eigenvalue, load_coeffs,
                               save_coeffs, synthesize, synthesize_scalar)


def quadrature_norm(m, n=256):
    """Midpoint-rule L2 norm of u_m (oracle for the normalizer)."""
    xs = cell_centers(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = cos_eval(m, gx, gy)
    return np.sqrt(np.sum(vals ** 2) * (2.0 / n) ** 2)


def test_cos_norm_values():
    assert cos_norm((0, 0)) == pytest.approx(0.5)
    assert cos_norm((3, 0)) == pytest.approx(1.0 / np.sqrt(2.0))
    assert cos_norm((2, 5)) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [(0, 0), (3, 0), (0, 4), (2, 5), (7, 7)])
def test_unit_l2_norm_by_quadrature(m):
    assert quadrature_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_constant_mode_value():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(20, 2))
    np.testing.assert_allclose(cos_eval((0, 0), pts[:, 0], pts[:, 1]), 0.5)


def test_orthonormality_by_quadrature():
    n = 256
    xs = cell_centers(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    area = (2.0 / n) ** 2
    modes = [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3)]
    for i, mi in enumerate(modes):
        ui = cos_eval(mi, gx, gy)
        for mj in modes[i:]:
            uj = cos_eval(mj, gx, gy)
            ip = np.sum(ui * uj) * area
            assert ip == pytest.approx(1.0 if mi == mj else 0.0, abs=1e-10)


def test_neumann_derivative_vanishes_on_boundary():
    # d/dx of the x-factor is proportional to sin(pi m1 (x+1)/2) = 0 at x = +-1
    from mpirecon.theory_checks import cos_partial
    ys = np.linspace(-1, 1, 33)
    for m in [(1, 2), (4, 0), (5, 5)]:
        assert np.max(np.abs(cos_partial(m, 1.0, ys, 1, 0))) < 1e-12
        assert np.max(np.abs(cos_partial(m, -1.0, ys, 1, 0))) < 1e-12


def test_laplace_eigenvalues():
    assert laplace_eigenvalue((0, 0)) == 0.0
    assert laplace_eigenvalue((1, 0)) == pytest.approx(np.pi ** 2 / 4.0)
    assert laplace_eigenvalue((1, 1)) == pytest.approx(np.pi ** 2 / 2.0)


def test_discrete_gram_identity():
    # the 2D Gram is the Kronecker square of the 1D one, so a 1D bound of
    # e implies a 2D bound of 2e + e^2; check up to the largest default size
    for n in (32, 64):
        B = basis_matrix_1d(n, cell_centers(n))
        G = (2.0 / n) * B @ B.T
        assert np.max(np.abs(G - np.eye(n))) < 5e-11


def test_synthesize_constant_mode():
    C = CoeffTensor.zeros(8, 8)
    C.coeffs[0, 0] = 3.0 * np.eye(2)
    F = synthesize(C, 16, 16)
    np.testing.assert_allclose(F.values[:, :, 0, 0], 1.5, atol=1e-14)
    np.testing.assert_allclose(F.values[:, :, 0, 1], 0.0, atol=1e-14)


def test_round_trip_analyze_synthesize():
    rng = np.random.default_rng(1)
    C = CoeffTensor(rng.normal(size=(16, 16, 2, 2)))
    back = analyze(synthesize(C, 16, 16))
    assert np.max(np.abs(back.coeffs - C.coeffs)) < 1e-12


def test_parseval():
    rng = np.random.default_rng(2)
    C = CoeffTensor(rng.normal(size=(16, 16, 2, 2)))
    F = synthesize(C, 16, 16)
    lhs = np.sum(F.values ** 2) * (2.0 / 16) * (2.0 / 16)
    rhs = np.sum(C.coeffs ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_single_mode_field_gives_single_coefficient():
    n = 12
    xs = cell_centers(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = np.zeros((n, n, 2, 2))
    vals[:, :, 1, 0] = 2.5 * cos_eval((3, 1), gx, gy)
    C = analyze(MatrixField(vals))
    expected = np.zeros_like(C.coeffs)
    expected[3, 1, 1, 0] = 2.5
    assert np.max(np.abs(C.coeffs - expected)) < 1e-12


def test_scalar_round_trip():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(10, 10))
    f = synthesize_scalar(coeffs, 10, 10)
    assert np.max(np.abs(analyze_scalar(f) - coeffs)) < 1e-12


def test_synthesize_off_grid_truncation():
    # N != nx: direct evaluation of the truncated expansion at cell centers
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(4, 4))
    f = synthesize_scalar(coeffs, 9, 7)
    xs, ys = cell_centers(9), cell_centers(7)
    direct = np.zeros((9, 7))
    for k in range(4):
        for l in range(4):
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            direct += coeffs[k, l] * cos_eval((k, l), gx, gy)
    assert np.max(np.abs(f.values - direct)) < 1e-12


def test_coeff_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    C = CoeffTensor(rng.normal(size=(6, 9, 2, 2)))
    path = str(tmp_path / "c.mpic")
    save_coeffs(C, path)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"MPIC"
    back = load_coeffs(path)
    assert (back.N, back.M) == (6, 9)
    np.testing.assert_array_equal(back.coeffs, C.coeffs)


def test_coeff_file_errors(tmp_path):
    bad = tmp_path / "bad.mpic"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_coeffs(str(bad))
    trunc = tmp_path / "trunc.mpic"
    trunc.write_bytes(b"MPIC" + np.array([1, 8, 8], "<u4").tobytes() + b"\x00" * 10)
    with pytest.raises(FormatError):
        load_coeffs(str(trunc))
    short = tmp_path / "short.mpic"
    short.write_bytes(b"MPIC\x01\x00")
    with pytest.raises(FormatError):
        load_coeffs(str(short))

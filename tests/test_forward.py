import numpy as np
import pytest
from scipy import fft as sfft
from scipy.signal import fftconvolve

from mpirecon.fields import FormatError, MatrixField, ScalarField, cell_centers
from mpirecon.forward import (ScanSeries, _fft_shape, add_noise, convolve_same,
                              core_response_field, offset_grids,
                              quadrant_spectrum, read_series_csv, simulate_series,
                              simulate_signal, write_series_csv)
from mpirecon.kernels import KernelParams, kernel_matrix_components, kernel_trace
from mpirecon.trajectory import LissajousSpec, make_scan

PARAMS = KernelParams(h=0.05)


def test_zero_density_gives_zero_field():
    A = core_response_field(ScalarField.zeros(32, 32), PARAMS)
    assert np.all(A.values == 0.0)


def test_delta_density_samples_kernel():
    n = 33
    rho = ScalarField.zeros(n, n)
    i0 = n // 2
    rho.values[i0, i0] = 1.0
    A = core_response_field(rho, PARAMS)
    xs = cell_centers(n)
    # channel value at cell (i, j) = area * K(x_i - x_{i0}, y_j - y_{i0})
    for (i, j) in [(i0, i0), (i0 + 3, i0), (i0 - 2, i0 + 5), (0, n - 1)]:
        k11, k12, k22 = kernel_matrix_components(xs[i] - xs[i0], xs[j] - xs[i0], PARAMS)
        area = rho.cell_area
        assert A.values[i, j, 0, 0] == pytest.approx(area * float(k11), rel=1e-10, abs=1e-13)
        assert A.values[i, j, 0, 1] == pytest.approx(area * float(k12), rel=1e-10, abs=1e-13)
        assert A.values[i, j, 1, 1] == pytest.approx(area * float(k22), rel=1e-10, abs=1e-13)


def test_off_diagonal_channels_identical():
    rng = np.random.default_rng(0)
    rho = ScalarField(rng.uniform(size=(24, 24)))
    A = core_response_field(rho, PARAMS)
    np.testing.assert_array_equal(A.values[:, :, 0, 1], A.values[:, :, 1, 0])


def test_trace_consistency_with_scalar_convolution():
    # tr K_h = kappa_h on the stencil, so tr A is the scalar convolution
    # kappa_h * rho that serves as the ideal trace
    n = 64
    k11, _, k22 = kernel_matrix_components(*offset_grids(n, n), PARAMS)
    kappa = kernel_trace(offset_grids(n, n), PARAMS)
    assert np.max(np.abs(k11 + k22 - kappa)) <= 1e-14 * np.max(kappa)
    rho = ScalarField(np.random.default_rng(1).uniform(size=(n, n)))
    tr = core_response_field(rho, PARAMS).trace().values
    u = convolve_same(rho.values, quadrant_spectrum(kappa)) * rho.cell_area
    assert np.max(np.abs(tr - u)) < 1e-13 * np.max(np.abs(u))


def test_convolution_matches_direct_summation():
    # small-grid oracle: plain O(n^4) summation of kappa_h against tr A
    n = 12
    rng = np.random.default_rng(2)
    rho = ScalarField(rng.uniform(size=(n, n)))
    u = core_response_field(rho, PARAMS).trace()
    xs = cell_centers(n)
    direct = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    direct[i, j] += rho.values[a, b] * kernel_trace(
                        (xs[i] - xs[a], xs[j] - xs[b]), PARAMS)
    direct *= rho.cell_area
    assert np.max(np.abs(direct - u.values)) < 1e-10 * np.max(np.abs(direct))


def mirror_stencil(quadrant, parity=1.0):
    """Full (2nx-1, 2ny-1) stencil, offset 0 at (nx-1, ny-1), from its quadrant
    (test reference); parity is 1 for a stencil even in each axis, -1 for odd."""
    half = np.concatenate([parity * quadrant[:0:-1], quadrant])
    return np.concatenate([parity * half[:, :0:-1], half], axis=1)


def full_offset_grids(nx, ny):
    """All (2nx-1, 2ny-1) grid offsets, evaluated directly (test reference)."""
    dx = (np.arange(2 * nx - 1) - (nx - 1)) * (2.0 / nx)
    dy = (np.arange(2 * ny - 1) - (ny - 1)) * (2.0 / ny)
    return np.meshgrid(dx, dy, indexing="ij")


@pytest.mark.parametrize("n", [8, 9, 64])
def test_mirrored_stencils_equal_full_evaluation(n):
    # k11, k22 and kappa_h are even in each axis, k12 is odd: bitwise equal
    full = kernel_matrix_components(*full_offset_grids(n, n), PARAMS)
    quad = kernel_matrix_components(*offset_grids(n, n), PARAMS)
    for f, q, parity in zip(full, quad, (1.0, -1.0, 1.0)):
        np.testing.assert_array_equal(mirror_stencil(q, parity), f)
    np.testing.assert_array_equal(mirror_stencil(kernel_trace(offset_grids(n, n), PARAMS)),
                                  kernel_trace(full_offset_grids(n, n), PARAMS))


def rolled_rfft2_spectrum(quadrant, parity, shape):
    """Reference: mirror the quadrant, zero-pad, move offset 0 to (0, 0), rfft2."""
    nx, ny = quadrant.shape
    wrapped = np.zeros(shape)
    wrapped[: 2 * nx - 1, : 2 * ny - 1] = mirror_stencil(quadrant, parity)
    wrapped = np.roll(wrapped, (1 - nx, 1 - ny), axis=(0, 1))
    return sfft.rfft2(wrapped).real


@pytest.mark.parametrize("shape", [(8, 8), (9, 9), (64, 64), (100, 100), (9, 12), (1, 5)])
def test_quadrant_spectrum_equals_rolled_rfft2(shape):
    # DCT-I (k11, k22, kappa_h) and DST-I (k12) of the quadrant against the
    # full stencil's rfft2 on the same even padded grid; on a one-cell axis
    # the odd stencil is zero
    px, py = _fft_shape(*shape)
    assert px % 2 == 0 and py % 2 == 0
    assert px >= 2 * shape[0] - 1 and py >= 2 * shape[1] - 1
    k11, k12, k22 = kernel_matrix_components(*offset_grids(*shape), PARAMS)
    kappa = kernel_trace(offset_grids(*shape), PARAMS)
    for q, parity in ((k11, 1.0), (k12, -1.0), (k22, 1.0), (kappa, 1.0)):
        got = quadrant_spectrum(q, parity)
        want = rolled_rfft2_spectrum(q, parity, (px, py))
        assert got.shape == (px, py // 2 + 1)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_fft_shape_is_twice_the_fast_length():
    # the same padded size as next_fast_len(2n - 1) at n = 9, 64, 97, 100,
    # 128 and 512; one more at n = 8 (15) and n = 50 (99), where DCT-I needs
    # an even period
    for n, size in ((8, 16), (9, 18), (50, 100), (64, 128), (97, 196), (100, 200),
                    (128, 256), (512, 1024)):
        assert _fft_shape(n, n) == (size, size)
    with pytest.raises(ValueError, match="parity"):
        quadrant_spectrum(np.ones((8, 8)), 0.5)


@pytest.mark.parametrize("shape", [(9, 12), (12, 12), (8, 8)])
def test_convolve_same_matches_direct_summation(shape):
    # one even and one odd stencil on a non-square and two square grids;
    # at n = 8 the padded size is 16, not the minimal 15
    nx, ny = shape
    rng = np.random.default_rng(9)
    x = rng.normal(size=shape)
    xs, ys = cell_centers(nx), cell_centers(ny)
    k11, k12, _ = kernel_matrix_components(*offset_grids(nx, ny), PARAMS)
    spectra = np.stack([quadrant_spectrum(k11), quadrant_spectrum(k12, -1.0)])
    got = convolve_same(x, spectra)
    direct = np.zeros((2, nx, ny))
    for i in range(nx):
        for j in range(ny):
            for a in range(nx):
                for b in range(ny):
                    c11, c12, _ = kernel_matrix_components(xs[i] - xs[a], ys[j] - ys[b],
                                                           PARAMS)
                    direct[:, i, j] += x[a, b] * np.array([c11, c12])
    for g, d in zip(got, direct):
        assert np.max(np.abs(g - d)) < 1e-12 * np.max(np.abs(d))


def test_core_response_matches_fftconvolve_reference():
    n = 64
    rho = ScalarField(np.random.default_rng(10).uniform(size=(n, n)))
    A = core_response_field(rho, PARAMS)
    stencils = kernel_matrix_components(*full_offset_grids(n, n), PARAMS)
    for (a, b), k in zip([(0, 0), (0, 1), (1, 1)], stencils):
        ref = fftconvolve(rho.values, k, mode="same") * rho.cell_area
        assert np.max(np.abs(A.values[:, :, a, b] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_simulate_signal_zero_cases():
    geom = make_scan(LissajousSpec(), 64)
    A = MatrixField(np.zeros((16, 16, 2, 2)))
    s = simulate_signal(A, geom)
    assert np.all(s == 0.0)
    # at t=0 the default trajectory has v = 0, so s_0 = 0 for any field
    vals = np.random.default_rng(3).normal(size=(16, 16, 2, 2))
    s = simulate_signal(MatrixField(vals), geom)
    np.testing.assert_allclose(s[0], [0.0, 0.0], atol=1e-9)


def test_simulation_linear_in_density():
    geom = make_scan(LissajousSpec(), 128)
    rng = np.random.default_rng(4)
    r1 = ScalarField(rng.uniform(size=(48, 48)))
    r2 = ScalarField(rng.uniform(size=(48, 48)))
    a, b = 2.0, -0.7
    combo = ScalarField(a * r1.values + b * r2.values)
    s_combo = simulate_signal(core_response_field(combo, PARAMS), geom)
    s1 = simulate_signal(core_response_field(r1, PARAMS), geom)
    s2 = simulate_signal(core_response_field(r2, PARAMS), geom)
    scale = np.max(np.abs(s_combo))
    assert np.max(np.abs(s_combo - (a * s1 + b * s2))) < 1e-12 * scale


def test_add_noise_contracts():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(200, 2))
    np.testing.assert_array_equal(add_noise(s, 0.0, 1), s)
    n1 = add_noise(s, 0.02, 99)
    n2 = add_noise(s, 0.02, 99)
    np.testing.assert_array_equal(n1, n2)
    assert not np.array_equal(add_noise(s, 0.02, 100), n1)


def test_noise_standard_deviation_oracle():
    s = np.zeros((100_000, 2))
    s[0] = (1.0, 0.0)  # sets eps = fraction * 1
    fraction = 0.3
    noisy = add_noise(s, fraction, 7)
    draws = (noisy - s) / fraction
    assert abs(np.std(draws) - 1.0) < 0.01


def test_series_csv_round_trip(tmp_path):
    geom = make_scan(LissajousSpec(), 40)
    rng = np.random.default_rng(6)
    series = ScanSeries(geom, rng.normal(size=(40, 2)), 0.02, 4242)
    path = str(tmp_path / "scan.csv")
    write_series_csv(series, path, h=0.01)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("#") and "seed=4242" in lines[0]
    assert lines[1] == "t,rx,ry,vx,vy,sx,sy"
    back, h = read_series_csv(path)
    assert h == 0.01
    assert back.noise_fraction == 0.02 and back.seed == 4242
    np.testing.assert_array_equal(back.signals, series.signals)
    np.testing.assert_array_equal(back.geometry.positions, geom.positions)


def dense_series():
    geom = make_scan(LissajousSpec(), 3264)
    signals = np.random.default_rng(7).normal(size=(3264, 2)) * 10.0 ** np.arange(-8, 8, 8)
    return ScanSeries(geom, signals, 0.05, 99)


def test_series_csv_bytes_equal_per_value_writer(tmp_path):
    # the row-at-once writer formats every value as repr(float(v)) did
    series = dense_series()
    g = series.geometry
    path = tmp_path / "scan.csv"
    write_series_csv(series, str(path), h=0.02)
    want = ["# h=0.02 fraction=0.05 seed=99", "t,rx,ry,vx,vy,sx,sy"]
    for t, r, v, s in zip(g.times, g.positions, g.velocities, series.signals):
        want.append(",".join(repr(float(x)) for x in (t, r[0], r[1], v[0], v[1], s[0], s[1])))
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_series_csv_dense_round_trip_is_exact(tmp_path):
    series = dense_series()
    path = str(tmp_path / "scan.csv")
    write_series_csv(series, path, h=0.02)
    back, h = read_series_csv(path)
    assert h == 0.02 and back.noise_fraction == 0.05 and back.seed == 99
    for got, want in ((back.geometry.times, series.geometry.times),
                      (back.geometry.positions, series.geometry.positions),
                      (back.geometry.velocities, series.geometry.velocities),
                      (back.signals, series.signals)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("h", ["-0.05", "0", "inf", "nan"])
def test_series_csv_rejects_bad_kernel_width(tmp_path, h):
    path = tmp_path / "scan.csv"
    path.write_text(f"# h={h} fraction=0.0 seed=0\nt,rx,ry,vx,vy,sx,sy\n"
                    "0.0,0.1,0.2,1.0,0.0,0.5,0.1\n")
    with pytest.raises(FormatError, match="kernel width"):
        read_series_csv(str(path))


def test_series_csv_without_kernel_width(tmp_path):
    # an absent h leaves the choice to the configuration
    path = tmp_path / "scan.csv"
    path.write_text("t,rx,ry,vx,vy,sx,sy\n0.0,0.1,0.2,1.0,0.0,0.5,0.1\n")
    series, h = read_series_csv(str(path))
    assert h is None and len(series.geometry) == 1


def test_simulate_series_deterministic():
    geom = make_scan(LissajousSpec(), 64)
    vals = np.random.default_rng(8).normal(size=(32, 32, 2, 2))
    A = MatrixField(vals)
    s1 = simulate_series(A, geom, 0.02, 11)
    s2 = simulate_series(A, geom, 0.02, 11)
    np.testing.assert_array_equal(s1.signals, s2.signals)


@pytest.mark.parametrize("shape", [(512, 512), (9, 12)])
def test_core_response_equals_stacked_convolution(shape):
    # the three components through one workspace, bitwise equal to one
    # convolve_same over the stacked spectra scaled afterwards
    rho = ScalarField(np.random.default_rng(12).uniform(size=shape))
    k11, k12, k22 = kernel_matrix_components(*offset_grids(*shape), PARAMS)
    spectra = np.stack([quadrant_spectrum(k11), quadrant_spectrum(k12, -1.0),
                        quadrant_spectrum(k22)])
    c11, c12, c22 = convolve_same(rho.values, spectra) * rho.cell_area
    A = core_response_field(rho, PARAMS).values
    for got, want in ((A[:, :, 0, 0], c11), (A[:, :, 0, 1], c12), (A[:, :, 1, 0], c12),
                      (A[:, :, 1, 1], c22)):
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

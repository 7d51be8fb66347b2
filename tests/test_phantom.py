from dataclasses import replace

import numpy as np
import pytest

from mpirecon.config import PipelineConfig
from mpirecon.fields import (FormatError, ScalarField, bilinear_sample, cell_centers,
                             load_field, resample_bilinear, save_field)
from mpirecon.phantom import (_k_vertices, _segment_distance, annulus, bar, builtin_suite,
                              disk, from_file, k_stroke, rasterize)
from mpirecon.pipeline import phantom_spec


def test_disk_radius_zero_is_empty():
    f = rasterize(disk(radius=0.0), 64, 64)
    assert np.all(f.values == 0.0)


def test_huge_disk_rejected():
    with pytest.raises(ValueError):
        rasterize(disk(radius=1e9), 64, 64)
    with pytest.raises(ValueError):
        rasterize(disk(center=(0.9, 0.0), radius=0.3), 64, 64)


def test_disk_area_fraction():
    f = rasterize(disk(radius=0.5), 512, 512)
    frac = np.count_nonzero(f.values) / f.values.size
    assert frac == pytest.approx(np.pi * 0.25 / 4.0, rel=0.01)


def test_small_raster_rejected():
    with pytest.raises(ValueError):
        rasterize(disk(radius=0.1), 4, 64)


def test_values_binary_and_margin():
    for spec in builtin_suite():
        f = rasterize(spec, 128, 128)
        vals = np.unique(f.values)
        assert set(vals) <= {0.0, spec.intensity}
        assert np.count_nonzero(f.values) > 0
        # at least one empty boundary cell ring
        assert np.all(f.values[0, :] == 0) and np.all(f.values[-1, :] == 0)
        assert np.all(f.values[:, 0] == 0) and np.all(f.values[:, -1] == 0)


def test_annulus_has_hole():
    f = rasterize(annulus(inner_radius=0.25, outer_radius=0.5), 256, 256)
    # center cell is inside the hole
    assert f.values[128, 128] == 0.0
    assert np.count_nonzero(f.values) > 0


def test_bar_extents():
    f = rasterize(bar(width=0.8, height=0.28), 256, 256)
    xs = cell_centers(256)
    on = np.nonzero(f.values)
    assert np.max(np.abs(xs[on[0]])) <= 0.4 + 2.0 / 256
    assert np.max(np.abs(xs[on[1]])) <= 0.14 + 2.0 / 256


def test_k_stroke_variants_differ():
    thin = rasterize(k_stroke(stroke_width=0.10), 256, 256)
    thick = rasterize(k_stroke(stroke_width=0.16), 256, 256)
    assert np.count_nonzero(thick.values) > np.count_nonzero(thin.values)


def test_pgm_round_trip_constant(tmp_path):
    f = ScalarField(np.full((16, 16), 3.7))
    path = str(tmp_path / "const.pgm")
    save_field(f, path)
    back = load_field(path)
    np.testing.assert_array_equal(back.values, f.values)


def test_pgm_round_trip_dimensions_and_quantization(tmp_path):
    rng = np.random.default_rng(0)
    f = ScalarField(rng.normal(size=(512, 512)))
    path = str(tmp_path / "f.pgm")
    save_field(f, path)
    back = load_field(path)
    assert (back.nx, back.ny) == (512, 512)
    bound = (f.values.max() - f.values.min()) / 65535.0
    assert np.max(np.abs(back.values - f.values)) <= bound


def test_pgm_malformed_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n4 4\n255\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_field(str(path))


def test_pgm_missing_sidecar(tmp_path):
    f = ScalarField(np.ones((8, 8)))
    path = str(tmp_path / "f.pgm")
    save_field(f, path)
    (tmp_path / "f.range").unlink()
    with pytest.raises(FormatError):
        load_field(path)


def test_pgm_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n8 8\n65535\n" + b"\x00" * 10)
    (tmp_path / "short.range").write_text("0.0 1.0\n")
    with pytest.raises(FormatError):
        load_field(str(path))


def test_from_file_phantom(tmp_path):
    f = rasterize(disk(radius=0.4), 64, 64)
    path = str(tmp_path / "rho.pgm")
    save_field(f, path)
    back = rasterize(from_file(path), 64, 64)
    np.testing.assert_allclose(back.values, f.values, atol=1.0 / 65535)


def test_bilinear_sampling():
    xs = cell_centers(8)
    vals = np.add.outer(2.0 * xs, np.zeros(8))  # linear in x
    f = ScalarField(vals)
    # exact at cell centers
    assert bilinear_sample(f.values, xs[3], xs[5]) == pytest.approx(2.0 * xs[3])
    # exact midpoint average between neighbors for a linear field
    mid = 0.5 * (xs[2] + xs[3])
    assert bilinear_sample(f.values, mid, xs[0]) == pytest.approx(xs[2] + xs[3])
    # constant field is constant everywhere
    c = ScalarField(np.full((8, 8), 4.2))
    assert bilinear_sample(c.values, 0.123, -0.77) == pytest.approx(4.2)
    with pytest.raises(ValueError):
        bilinear_sample(f.values, 1.5, 0.0)


def test_resample_preserves_smooth_fields():
    xs = cell_centers(64)
    f = ScalarField(np.add.outer(np.sin(2 * xs), np.cos(xs)))
    g = resample_bilinear(f, 32, 32)
    xs32 = cell_centers(32)
    expected = np.add.outer(np.sin(2 * xs32), np.cos(xs32))
    assert np.max(np.abs(g.values - expected)) < 2e-3


def test_pipeline_phantom_kinds_resolve_from_the_suite():
    cfg = PipelineConfig()
    cfg.phantom.intensity = 0.5
    for spec in builtin_suite() + [k_stroke()]:
        cfg.phantom.kind = spec.name
        assert phantom_spec(cfg) == replace(spec, intensity=0.5)
    cfg.phantom.kind = "k_medium"
    with pytest.raises(ValueError, match="unknown phantom kind"):
        phantom_spec(cfg)


def full_grid_raster(spec, nx, ny):
    """Reference: the shape's membership test at every cell center."""
    px, py = np.meshgrid(cell_centers(nx), cell_centers(ny), indexing="ij")
    cx, cy = spec.center
    if spec.kind == "disk":
        mask = np.hypot(px - cx, py - cy) <= spec.radius
    elif spec.kind == "annulus":
        r = np.hypot(px - cx, py - cy)
        mask = (r <= spec.radius) & (r >= spec.inner_radius)
    elif spec.kind == "bar":
        mask = (np.abs(px - cx) <= spec.width / 2) & (np.abs(py - cy) <= spec.height / 2)
    else:
        verts = _k_vertices(spec.center, spec.height)
        mask = np.zeros_like(px, dtype=bool)
        for a, b in zip(verts[0::2], verts[1::2]):
            mask |= _segment_distance(px, py, a, b) <= spec.stroke_width / 2.0
    return np.where(mask, spec.intensity, 0.0)


def margin_phantoms(nx, ny):
    """Shapes whose bounding box touches the one-cell margin.

    mx - 0.25 + 0.25 == mx exactly for mx in [0.75, 1), so each lands on it.
    """
    mx, my = 1.0 - 2.0 / nx, 1.0 - 2.0 / ny
    return [bar(width=2 * mx, height=2 * my, intensity=0.5),
            disk(radius=min(mx, my)),
            disk(center=(mx - 0.25, -(my - 0.25)), radius=0.25),
            annulus(center=(0.0, my - 0.25), inner_radius=0.1, outer_radius=0.25)]


@pytest.mark.parametrize("shape", [(8, 8), (9, 9), (64, 64), (512, 512), (9, 12)])
def test_bounding_box_raster_equals_full_grid(shape):
    for spec in [*builtin_suite(), *margin_phantoms(*shape)]:
        got = rasterize(spec, *shape).values
        want = full_grid_raster(spec, *shape)
        assert got.tobytes() == want.tobytes(), spec
    assert np.any(rasterize(margin_phantoms(*shape)[0], *shape).values[1, 1:-1])

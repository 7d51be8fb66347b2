import numpy as np
import pytest

from mpirecon.trajectory import (LissajousSpec, ScanGeometry, lissajous_position,
                                 lissajous_velocity, make_scan, merge_scans,
                                 rotate_scan, sample_schedule)


def test_position_velocity_at_zero():
    spec = LissajousSpec()
    np.testing.assert_allclose(lissajous_position(spec, 0.0), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(lissajous_velocity(spec, 0.0), [0.0, 0.0], atol=1e-12)


def test_position_quarter_period():
    # direct trig evaluation: sin(8 pi + pi/2) = 1, sin(8.5 pi + pi/2) = 0
    pos = lissajous_position(LissajousSpec(), 0.25)
    np.testing.assert_allclose(pos, [1.0, 0.0], atol=1e-12)


def test_sample_schedule():
    np.testing.assert_allclose(sample_schedule(4), [0.0, 0.25, 0.5, 0.75])
    t = sample_schedule(1632)
    assert len(t) == 1632
    np.testing.assert_allclose(np.diff(t), 1.0 / 1632)
    np.testing.assert_allclose(sample_schedule(1), [0.0])
    with pytest.raises(ValueError):
        sample_schedule(0)


def test_velocity_matches_finite_differences():
    spec = LissajousSpec()
    t = np.linspace(0.01, 0.99, 37)
    step = 1e-6
    fd = (lissajous_position(spec, t + step) - lissajous_position(spec, t - step)) / (2 * step)
    assert np.max(np.abs(fd - lissajous_velocity(spec, t))) < 1e-5


def test_trajectory_confined_to_domain():
    geom = make_scan(LissajousSpec(), 1632)
    assert np.max(np.abs(geom.positions)) <= 1.0


def test_rotate_identity_and_quarter():
    geom = make_scan(LissajousSpec(), 64)
    same = rotate_scan(geom, 0)
    np.testing.assert_array_equal(same.positions, geom.positions)
    g = ScanGeometry([0.0], [[1.0, 0.0]], [[2.0, 0.0]])
    r = rotate_scan(g, 1)
    np.testing.assert_allclose(r.positions[0], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(r.velocities[0], [0.0, 2.0], atol=1e-15)
    with pytest.raises(ValueError):
        rotate_scan(g, 4)


def test_rotation_preserves_speed():
    geom = make_scan(LissajousSpec(), 256)
    for q in (1, 2, 3):
        r = rotate_scan(geom, q)
        np.testing.assert_allclose(np.linalg.norm(r.velocities, axis=1),
                                   np.linalg.norm(geom.velocities, axis=1),
                                   rtol=1e-14)


def test_merge_lengths_add_and_reject_empty():
    a = make_scan(LissajousSpec(), 1632)
    b = rotate_scan(a, 1)
    merged = merge_scans(a, b)
    assert len(merged) == 3264
    empty = ScanGeometry(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        merge_scans(a, empty)


def cell_occupancy(geom, n=19):
    idx = np.clip(((geom.positions + 1.0) / 2.0 * n).astype(int), 0, n - 1)
    return {(i, j) for i, j in idx}


def test_merged_scan_covers_more_cells():
    a = make_scan(LissajousSpec(), 1632)
    b = rotate_scan(a, 1)
    merged = merge_scans(a, b)
    occ_a, occ_b, occ_m = cell_occupancy(a), cell_occupancy(b), cell_occupancy(merged)
    assert len(occ_m) > len(occ_a)
    assert len(occ_m) > len(occ_b)


def test_spec_validation():
    with pytest.raises(ValueError):
        LissajousSpec(freq_x=16, freq_y=16)
    for bad in ({"freq_x": np.nan}, {"freq_y": np.inf}, {"freq_x": 1e308},
                {"phase_x": np.inf}, {"phase_y": np.nan}):
        with pytest.raises(ValueError, match="finite"):
            LissajousSpec(**bad)
    with pytest.raises(ValueError):
        ScanGeometry([0.0], [[2.0, 0.0]], [[0.0, 0.0]])

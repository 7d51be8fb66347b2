"""Lissajous field-free-point trajectories and scan geometry.

The default curve is r(t) = (sin(2 pi 16 t + pi/2), sin(2 pi 17 t + pi/2)) on
the unit time interval, sampled at L equidistant times t_l = l/L.  The curve
is 1-periodic for integer frequencies, so the schedule is half-open: t = 1
would duplicate t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LissajousSpec:
    freq_x: float = 16.0
    freq_y: float = 17.0
    phase_x: float = math.pi / 2
    phase_y: float = math.pi / 2

    def __post_init__(self):
        if self.freq_x <= 0 or self.freq_y <= 0:
            raise ValueError("frequencies must be positive")
        # the phase arguments 2 pi f t + phi, t in [0, 1), must stay finite
        if not all(math.isfinite(2.0 * math.pi * f + abs(phi))
                   for f, phi in ((self.freq_x, self.phase_x), (self.freq_y, self.phase_y))):
            raise ValueError("frequencies and phases must be finite")
        if self.freq_x == self.freq_y:
            raise ValueError("freq_x must differ from freq_y for coverage")


@dataclass(frozen=True)
class ScanGeometry:
    """Times t_l, positions r_l in Omega and velocities v_l = r'(t_l)."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "velocities", np.asarray(self.velocities, dtype=float))
        L = len(self.times)
        if self.positions.shape != (L, 2) or self.velocities.shape != (L, 2):
            raise ValueError("times, positions, velocities must have matching length")
        # written so that NaN fails too
        if not np.all(np.abs(self.positions) <= 1.0 + 1e-12):
            raise ValueError("positions must stay inside Omega = [-1,1]^2")
        if not np.all(np.isfinite(self.velocities)):
            raise ValueError("velocities must be finite")

    def __len__(self) -> int:
        return len(self.times)


def lissajous_position(spec: LissajousSpec, t) -> np.ndarray:
    """Position (sin(2 pi f_x t + phi_x), sin(2 pi f_y t + phi_y))."""
    t = np.asarray(t, dtype=float)
    x = np.sin(2.0 * np.pi * spec.freq_x * t + spec.phase_x)
    y = np.sin(2.0 * np.pi * spec.freq_y * t + spec.phase_y)
    return np.stack((x, y), axis=-1)


def lissajous_velocity(spec: LissajousSpec, t) -> np.ndarray:
    """Componentwise time derivative of :func:`lissajous_position`."""
    t = np.asarray(t, dtype=float)
    vx = 2.0 * np.pi * spec.freq_x * np.cos(2.0 * np.pi * spec.freq_x * t + spec.phase_x)
    vy = 2.0 * np.pi * spec.freq_y * np.cos(2.0 * np.pi * spec.freq_y * t + spec.phase_y)
    return np.stack((vx, vy), axis=-1)


def sample_schedule(L: int) -> np.ndarray:
    """Equidistant times t_l = l/L, l = 0..L-1 (half-open interval)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return np.arange(L) / float(L)


def make_scan(spec: LissajousSpec, L: int) -> ScanGeometry:
    """Sample the curve at the L-point schedule."""
    t = sample_schedule(L)
    return ScanGeometry(t, lissajous_position(spec, t), lissajous_velocity(spec, t))


def rotate_scan(geom: ScanGeometry, quarter_turns: int) -> ScanGeometry:
    """Rotate positions and velocities by quarter_turns * 90 degrees."""
    if quarter_turns not in (0, 1, 2, 3):
        raise ValueError("quarter_turns must be in {0,1,2,3}")
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][quarter_turns]
    rot = np.array([[c, -s], [s, c]], dtype=float)
    return ScanGeometry(geom.times.copy(),
                        geom.positions @ rot.T,
                        geom.velocities @ rot.T)


def merge_scans(a: ScanGeometry, b: ScanGeometry) -> ScanGeometry:
    """Concatenate two scans (a then b); both must be non-empty."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot merge an empty scan")
    return ScanGeometry(np.concatenate([a.times, b.times]),
                        np.vstack([a.positions, b.positions]),
                        np.vstack([a.velocities, b.velocities]))


"""Seeded, reproducible pseudo-random generation.

The stream is SplitMix64 (Steele/Lea/Flood, the ``java.util.SplittableRandom``
finalizer, constants 0x9E3779B97F4A7C15 / 0xBF58476D1CE4E5B9 /
0x94D049BB133111EB) feeding a Box-Muller transform for normal deviates.
The sequence is a pure function of the 64-bit seed; no platform default
generator is involved.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)


def _mix(state: np.ndarray) -> np.ndarray:
    """SplitMix64 output function applied elementwise to uint64 states."""
    z = state.copy()
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


class SeededGenerator:
    """Counter-based SplitMix64 stream; identical seed gives identical output."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    def _raw(self, n: int) -> np.ndarray:
        """Next n 64-bit words of the stream."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            states = self._seed + idx * _GOLDEN
        return _mix(states)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), 53-bit resolution."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV53

    def normal_pairs(self, n: int) -> np.ndarray:
        """(n, 2) array of independent standard normals via Box-Muller.

        Each pair consumes two words: u1 on (0, 1] for the radius (log-safe)
        and u2 on [0, 1) for the angle.
        """
        words = self._raw(2 * n).reshape(n, 2)
        u1 = ((words[:, 0] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV53
        u2 = (words[:, 1] >> np.uint64(11)).astype(np.float64) * _INV53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


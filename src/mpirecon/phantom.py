"""Built-in test phantoms: binary shapes rasterized on a fine grid.

Shapes are defined in domain coordinates and rasterized by cell-center
membership, giving values in {0, intensity}.  Geometry must leave at least
one empty boundary cell at the requested resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, cell_centers, load_field, resample_bilinear

__all__ = ["PhantomSpec", "KINDS", "disk", "bar", "annulus", "k_stroke", "from_file",
           "builtin_suite", "rasterize"]

KINDS = ("disk", "bar", "annulus", "k_stroke", "from_file")


@dataclass(frozen=True)
class PhantomSpec:
    kind: str
    intensity: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0          # disk outer radius
    inner_radius: float = 0.0    # annulus inner radius
    width: float = 0.0           # bar extent along x
    height: float = 0.0          # bar / k_stroke extent along y
    stroke_width: float = 0.0    # k_stroke line thickness
    path: str = ""               # from_file source
    name: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        if not 0.0 < self.intensity <= 1.0:
            raise ValueError("intensity must lie in (0, 1]")

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the shape in domain coordinates."""
        cx, cy = self.center
        if self.kind == "disk" or self.kind == "annulus":
            r = self.radius
            return (cx - r, cx + r, cy - r, cy + r)
        if self.kind == "bar":
            return (cx - self.width / 2, cx + self.width / 2,
                    cy - self.height / 2, cy + self.height / 2)
        if self.kind == "k_stroke":
            pad = self.stroke_width / 2
            xs, ys = zip(*_k_vertices(self.center, self.height))
            return (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
        return (-1.0, 1.0, -1.0, 1.0)  # from_file: whole domain


def disk(center=(0.0, 0.0), radius=0.45, intensity=1.0, name="disk") -> PhantomSpec:
    return PhantomSpec("disk", intensity, center, radius=radius, name=name)


def bar(center=(0.0, 0.0), width=0.8, height=0.28, intensity=1.0, name="bar") -> PhantomSpec:
    return PhantomSpec("bar", intensity, center, width=width, height=height, name=name)


def annulus(center=(0.0, 0.0), inner_radius=0.25, outer_radius=0.5,
            intensity=1.0, name="annulus") -> PhantomSpec:
    if inner_radius >= outer_radius:
        raise ValueError("annulus needs inner_radius < outer_radius")
    return PhantomSpec("annulus", intensity, center, radius=outer_radius,
                       inner_radius=inner_radius, name=name)


def k_stroke(center=(0.0, 0.0), height=0.9, stroke_width=0.1,
             intensity=1.0, name="k_stroke") -> PhantomSpec:
    return PhantomSpec("k_stroke", intensity, center, height=height,
                       stroke_width=stroke_width, name=name)


def from_file(path: str, intensity=1.0, name="from_file") -> PhantomSpec:
    return PhantomSpec("from_file", intensity, path=path, name=name)


def builtin_suite() -> list[PhantomSpec]:
    """The five stock phantoms used by the experiment pipeline."""
    return [
        disk(),
        bar(),
        annulus(),
        k_stroke(stroke_width=0.10, name="k_thin"),
        k_stroke(stroke_width=0.16, name="k_thick"),
    ]


def _k_vertices(center, height):
    """Segment endpoints of the three strokes of a letter k."""
    cx, cy = center
    h2 = height / 2.0
    x0 = cx - 0.22 * height
    xr = cx + 0.28 * height
    return [
        (x0, cy - h2), (x0, cy + h2),          # vertical stroke
        (x0, cy - 0.05 * height), (xr, cy + h2),  # upper diagonal
        (x0, cy - 0.05 * height), (xr, cy - h2),  # lower diagonal
    ]


def _segment_distance(px, py, a, b):
    """Distance from grid points (px, py) to segment a-b."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / den, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def rasterize(spec: PhantomSpec, nx: int, ny: int) -> ScalarField:
    """Binary rasterization: a cell is set iff its center lies in the shape."""
    if nx < 8 or ny < 8:
        raise ValueError("raster dimensions must be >= 8")
    if spec.kind == "from_file":
        f = load_field(spec.path)
        if (f.nx, f.ny) != (nx, ny):
            f = resample_bilinear(f, nx, ny)
        return f
    xmin, xmax, ymin, ymax = spec.bounding_box()
    margin_x, margin_y = 2.0 / nx, 2.0 / ny
    if xmin < -1.0 + margin_x or xmax > 1.0 - margin_x \
            or ymin < -1.0 + margin_y or ymax > 1.0 - margin_y:
        raise ValueError("phantom geometry must lie inside Omega with >= 1 cell margin")

    # only cells within one cell of the bounding box can have their center
    # in the shape, rounding included; the rest stay 0
    xc, yc = cell_centers(nx), cell_centers(ny)
    i0, i1 = np.searchsorted(xc, (xmin - margin_x, xmax + margin_x), side="right")
    j0, j1 = np.searchsorted(yc, (ymin - margin_y, ymax + margin_y), side="right")
    px, py = np.meshgrid(xc[i0:i1], yc[j0:j1], indexing="ij")
    cx, cy = spec.center
    if spec.kind == "disk":
        mask = np.hypot(px - cx, py - cy) <= spec.radius
    elif spec.kind == "annulus":
        r = np.hypot(px - cx, py - cy)
        mask = (r <= spec.radius) & (r >= spec.inner_radius)
    elif spec.kind == "bar":
        mask = (np.abs(px - cx) <= spec.width / 2) & (np.abs(py - cy) <= spec.height / 2)
    else:  # k_stroke
        verts = _k_vertices(spec.center, spec.height)
        half = spec.stroke_width / 2.0
        mask = np.zeros_like(px, dtype=bool)
        for a, b in zip(verts[0::2], verts[1::2]):
            mask |= _segment_distance(px, py, a, b) <= half
    values = np.zeros((nx, ny))
    values[i0:i1, j0:j1] = np.where(mask, spec.intensity, 0.0)
    return ScalarField(values)

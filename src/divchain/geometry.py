"""Rectangular domains in dimension 1 or 2.

Points are always handled as float arrays of shape (n, dim); scalar fields
map (n, dim) -> (n,), vector fields map (n, dim) -> (n, dim).  Unit normals
of a singular set are (n, dim) like points, in 1-D too, so a surface density
g(pts, nus) maps two (n, dim) arrays to (n,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_points(x, dim):
    """Coerce input to an (n, dim) float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1 and dim == 1:
        a = a[:, None]
    if a.ndim == 1 and a.shape[0] == dim:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected points of shape (n, {dim}), got {a.shape}")
    return a


@dataclass(frozen=True)
class Domain:
    """Closed axis-aligned box, dim in {1, 2}."""

    dim: int
    bounds: tuple  # ((lo, hi),) or ((lo, hi), (lo, hi))

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if len(self.bounds) != self.dim:
            raise ValueError("bounds must have one interval per axis")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid interval ({lo}, {hi})")

    def contains_box(self, sub_bounds):
        """Whether another per-axis bounds tuple sits inside this domain, to 1e-12."""
        for (lo, hi), (slo, shi) in zip(self.bounds, sub_bounds):
            if slo < lo - 1e-12 or shi > hi + 1e-12:
                return False
        return True

    def contains_points(self, pts):
        pts = as_points(pts, self.dim)
        ok = np.ones(len(pts), dtype=bool)
        for ax, (lo, hi) in enumerate(self.bounds):
            ok &= (pts[:, ax] >= lo - 1e-12) & (pts[:, ax] <= hi + 1e-12)
        return ok

    def grid(self, n_per_axis):
        """Uniform sample grid (cell centers), shape (n_total, dim)."""
        axes = [np.linspace(lo, hi, n_per_axis + 1)[:-1] + (hi - lo) / (2 * n_per_axis)
                for lo, hi in self.bounds]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


def subboxes(domain: Domain, n_per_axis: int):
    """Partition the domain into n_per_axis^dim congruent sub-boxes."""
    edges = [np.linspace(lo, hi, n_per_axis + 1) for lo, hi in domain.bounds]
    out = []
    if domain.dim == 1:
        e = edges[0]
        for i in range(n_per_axis):
            out.append(((e[i], e[i + 1]),))
    else:
        ex, ey = edges
        for i in range(n_per_axis):
            for j in range(n_per_axis):
                out.append(((ex[i], ex[i + 1]), (ey[j], ey[j + 1])))
    return out

"""Rectifiable singular sets: finite point sets (1D) and C1 curves (2D).

Curves are restricted to three parametrizable forms -- vertical segments,
horizontal segments, and graphs x2 = f(x1) -- which is enough to carry the
singular sets of every bundled scenario while keeping splitting of area
integrals exact.  Every piece carries a fixed orientation: the unit normal
is part of the data, not derived on the fly.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .errors import GeometryError
from .quadrature import CurvedCell, integrate_1d


class CurvePiece:
    """Base class: parametrized curve with unit normal and arclength element."""

    s0: float
    s1: float

    def points(self, s):
        raise NotImplementedError

    def normals(self, s):
        raise NotImplementedError

    def jacobian(self, s):
        raise NotImplementedError

    def key(self):
        raise NotImplementedError

    def flipped(self):
        raise NotImplementedError

    def integrate(self, density, s_ranges=None, tol_abs=1e-11, tol_rel=1e-11):
        """\\int density(x, nu) |gamma'| ds over the piece (or sub-ranges)."""
        ranges = s_ranges if s_ranges is not None else [(self.s0, self.s1)]
        total, err = 0.0, 0.0

        def f(s):
            pts = self.points(s)
            return np.asarray(density(pts, self.normals(s)), dtype=float) * self.jacobian(s)

        for sa, sb in ranges:
            if sb <= sa:
                continue
            v, e = integrate_1d(f, sa, sb, tol_abs=tol_abs, tol_rel=tol_rel)
            total += v
            err += e
        return total, err

    def param_samples(self, n=33):
        s = np.linspace(self.s0, self.s1, n + 2)[1:-1]
        return s, self.points(s), self.normals(s)

    def ranges_in_box(self, bounds, n_scan=257):
        """Parameter sub-ranges where the curve lies inside an axis box."""
        (xlo, xhi), (ylo, yhi) = bounds

        def inside(s):
            p = self.points(np.atleast_1d(s))
            return ((p[:, 0] >= xlo - 1e-13) & (p[:, 0] <= xhi + 1e-13)
                    & (p[:, 1] >= ylo - 1e-13) & (p[:, 1] <= yhi + 1e-13))

        return _scan_ranges(self, inside, n_scan)

    def ranges_in_ball(self, center, r, n_scan=257):
        cx, cy = center

        def inside(s):
            p = self.points(np.atleast_1d(s))
            return (p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2 <= r * r

        return _scan_ranges(self, inside, n_scan)


def _scan_ranges(piece, inside, n_scan):
    s = np.linspace(piece.s0, piece.s1, n_scan)
    mask = inside(s)
    if not mask.any():
        return []
    # refine each transition by bisection on the indicator
    edges = []
    for i in range(n_scan - 1):
        if mask[i] != mask[i + 1]:
            a, b = s[i], s[i + 1]
            for _ in range(60):
                m = 0.5 * (a + b)
                if inside(np.array([m]))[0] == mask[i]:
                    a = m
                else:
                    b = m
            edges.append(0.5 * (a + b))
    cuts = [piece.s0] + edges + [piece.s1]
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        if inside(np.array([0.5 * (a + b)]))[0]:
            out.append((a, b))
    return out


class VerticalSegment(CurvePiece):
    """{x1 = c, x2 in [y0, y1]}, normal = side * e1."""

    def __init__(self, c, y0, y1, side=+1):
        if y1 <= y0:
            raise GeometryError("empty vertical segment")
        self.c = float(c)
        self.s0, self.s1 = float(y0), float(y1)
        self.side = int(side)

    def points(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.column_stack([np.full_like(s, self.c), s])

    def normals(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        n = np.zeros((len(s), 2))
        n[:, 0] = self.side
        return n

    def jacobian(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.ones_like(s)

    def key(self):
        return ("v", round(self.c, 12), round(self.s0, 12), round(self.s1, 12))

    def flipped(self):
        return VerticalSegment(self.c, self.s0, self.s1, -self.side)


class HorizontalSegment(CurvePiece):
    """{x2 = c, x1 in [x0, x1]}, normal = side * e2."""

    def __init__(self, c, x0, x1, side=+1):
        if x1 <= x0:
            raise GeometryError("empty horizontal segment")
        self.c = float(c)
        self.s0, self.s1 = float(x0), float(x1)
        self.side = int(side)

    def points(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.column_stack([s, np.full_like(s, self.c)])

    def normals(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        n = np.zeros((len(s), 2))
        n[:, 1] = self.side
        return n

    def jacobian(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.ones_like(s)

    def key(self):
        return ("h", round(self.c, 12), round(self.s0, 12), round(self.s1, 12))

    def flipped(self):
        return HorizontalSegment(self.c, self.s0, self.s1, -self.side)


class GraphCurve(CurvePiece):
    """{x2 = f(x1), x1 in [x0, x1]}; normal = side*(-f', 1)/sqrt(1+f'^2)."""

    def __init__(self, fn, dfn, x0, x1, side=+1, label=""):
        if x1 <= x0:
            raise GeometryError("empty graph curve")
        self.fn = fn
        self.dfn = dfn
        self.s0, self.s1 = float(x0), float(x1)
        self.side = int(side)
        self.label = label or f"graph@{id(fn):x}"

    def points(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.column_stack([s, np.asarray(self.fn(s), dtype=float)])

    def normals(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        d = np.asarray(self.dfn(s), dtype=float)
        norm = np.sqrt(1.0 + d * d)
        return self.side * np.column_stack([-d / norm, 1.0 / norm])

    def jacobian(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        d = np.asarray(self.dfn(s), dtype=float)
        return np.sqrt(1.0 + d * d)

    def key(self):
        return ("g", self.label, round(self.s0, 12), round(self.s1, 12))

    def flipped(self):
        return GraphCurve(self.fn, self.dfn, self.s0, self.s1, -self.side, self.label)


class RectifiableSet:
    """Oriented singular set: points+normals in 1D, curve pieces in 2D."""

    def __init__(self, dim, points=None, normals=None, curves=None):
        self.dim = int(dim)
        if dim == 1:
            self.points_1d = np.asarray([] if points is None else points, dtype=float)
            self.normals_1d = np.asarray(
                [1.0] * len(self.points_1d) if normals is None else normals, dtype=float)
            if len(self.normals_1d) != len(self.points_1d):
                raise GeometryError("one normal per point required")
            if np.any(np.abs(np.abs(self.normals_1d) - 1.0) > 1e-12):
                raise GeometryError("1d normals must be +-1")
            order = np.argsort(self.points_1d)
            self.points_1d = self.points_1d[order]
            self.normals_1d = self.normals_1d[order]
            self.curves = []
        else:
            self.points_1d = np.array([])
            self.normals_1d = np.array([])
            self.curves = list(curves or [])

    @staticmethod
    def empty(dim):
        return RectifiableSet(dim)

    @property
    def is_empty(self):
        return len(self.points_1d) == 0 and len(self.curves) == 0

    def component_keys(self):
        if self.dim == 1:
            return [("p", round(x, 12)) for x in self.points_1d]
        return [c.key() for c in self.curves]

    def flipped(self):
        if self.dim == 1:
            return RectifiableSet(1, self.points_1d.copy(), -self.normals_1d)
        return RectifiableSet(2, curves=[c.flipped() for c in self.curves])

    def integrate(self, density, tol_abs=1e-11, tol_rel=1e-11, box=None):
        """\\int density(x, nu) dH^{N-1}; box restricts the integral."""
        if self.dim == 1:
            total = 0.0
            for x, nu in zip(self.points_1d, self.normals_1d):
                if box is not None:
                    (lo, hi), = box
                    if not (lo <= x <= hi):
                        continue
                total += float(density(np.array([[x]]), np.array([nu]))[0])
            return total, 0.0
        total, err = 0.0, 0.0
        for c in self.curves:
            ranges = None if box is None else c.ranges_in_box(box)
            v, e = c.integrate(density, s_ranges=ranges, tol_abs=tol_abs, tol_rel=tol_rel)
            total += v
            err += e
        return total, err

    def mass_in_ball(self, density, center, r):
        """\\int_{B_r(center)} density dH^{N-1} (used by density-ratio checks)."""
        if self.dim == 1:
            c = float(np.atleast_1d(center)[0])
            total = 0.0
            for x, nu in zip(self.points_1d, self.normals_1d):
                if abs(x - c) <= r:
                    total += float(density(np.array([[x]]), np.array([nu]))[0])
            return total
        total = 0.0
        for piece in self.curves:
            ranges = piece.ranges_in_ball(center, r)
            if ranges:
                v, _ = piece.integrate(density, s_ranges=ranges)
                total += v
        return total

    def samples(self, n_per_piece=17):
        """Representative points and normals on every component."""
        if self.dim == 1:
            return self.points_1d[:, None].copy(), self.normals_1d.copy()
        pts, nus = [], []
        for c in self.curves:
            _, p, n = c.param_samples(n_per_piece)
            pts.append(p)
            nus.append(n)
        if not pts:
            return np.zeros((0, 2)), np.zeros((0, 2))
        return np.vstack(pts), np.vstack(nus)

    def x_breaks(self):
        """Axis-0 splitting abscissae the set induces on area integrals."""
        if self.dim == 1:
            return list(self.points_1d)
        out = []
        for c in self.curves:
            if isinstance(c, VerticalSegment):
                out.append(c.c)
            else:
                out.extend([c.s0, c.s1])
        return out

    def y_breaks(self):
        if self.dim == 1:
            return []
        out = []
        for c in self.curves:
            if isinstance(c, VerticalSegment):
                out.extend([c.s0, c.s1])
            elif isinstance(c, HorizontalSegment):
                out.append(c.c)
        return out


def merge_sets(*sets):
    """Union of rectifiable sets, deduplicating identical components.

    Components shared between inputs must agree in orientation; a flipped
    duplicate is a scenario bug, not something to reconcile silently.
    """
    dims = {s.dim for s in sets if s is not None}
    if len(dims) != 1:
        raise GeometryError("cannot merge sets of different dimensions")
    dim = dims.pop()
    if dim == 1:
        seen = {}
        for s in sets:
            if s is None:
                continue
            for x, nu in zip(s.points_1d, s.normals_1d):
                k = round(float(x), 12)
                if k in seen and seen[k] != nu:
                    raise GeometryError(f"conflicting orientation at shared point {x}")
                seen[k] = nu
        xs = sorted(seen)
        return RectifiableSet(1, np.array(xs), np.array([seen[k] for k in xs]))
    seen = {}
    for s in sets:
        if s is None:
            continue
        for c in s.curves:
            k = c.key()
            if k in seen and seen[k].side != c.side:
                raise GeometryError(f"conflicting orientation on shared curve {k}")
            seen[k] = c
    return RectifiableSet(2, curves=list(seen.values()))


def _level_crossings(g, levels, a, b, n_scan=257):
    """Abscissae in [a, b] where graph g meets one of the constant levels."""
    xs = np.linspace(a, b, n_scan)
    fx = np.asarray(g.fn(xs), dtype=float)
    out = []
    for c in levels:
        sgn = np.sign(fx - c)
        out.extend(xs[1:-1][sgn[1:-1] == 0.0].tolist())
        for i in np.flatnonzero(sgn[:-1] * sgn[1:] < 0):
            out.append(brentq(lambda x: float(g.fn(np.array([x]))[0]) - c,
                              xs[i], xs[i + 1], xtol=1e-14))
    return out


def box_cells(bounds, curve_sets, extra_x_breaks=(), extra_y_breaks=()):
    """Decompose a 2D box into curved cells whose interiors avoid all curves.

    Splits the box into vertical strips at every declared x-break and at
    every abscissa where a graph meets a constant level or a box edge, then,
    per strip, stacks the constant and graph levels in vertical order.  A
    crossing left inside a strip (two graphs, or two crossings within one
    scan interval) is bisected toward; repeated crossings raise GeometryError.
    """
    (xlo, xhi), (ylo, yhi) = bounds
    xb = {xlo, xhi}
    yb = {ylo, yhi}
    graphs = []
    for s in curve_sets:
        if s is None or s.dim != 2:
            continue
        for v in s.x_breaks():
            if xlo < v < xhi:
                xb.add(float(v))
        for v in s.y_breaks():
            if ylo < v < yhi:
                yb.add(float(v))
        for c in s.curves:
            if isinstance(c, GraphCurve):
                graphs.append(c)
    for v in extra_x_breaks:
        if xlo < v < xhi:
            xb.add(float(v))
    for v in extra_y_breaks:
        if ylo < v < yhi:
            yb.add(float(v))
    # a graph meeting a constant level (the box edges included, where the
    # clipping below starts) ends a strip, so no cell boundary has a kink
    for g in graphs:
        a, b = max(g.s0, xlo), min(g.s1, xhi)
        if b > a:
            xb.update(_level_crossings(g, sorted(yb), a, b))

    def strip_cells(a, b, depth=0):
        mid = 0.5 * (a + b)
        levels = [(lambda x, c=c: np.full_like(x, c)) for c in sorted(yb)]
        vals = [lv(np.array([mid]))[0] for lv in levels]
        for g in graphs:
            if g.s0 <= a + 1e-13 and b - 1e-13 <= g.s1:
                fv = float(np.clip(g.fn(np.array([mid]))[0], ylo, yhi))

                def clipped(x, g=g):
                    return np.clip(np.asarray(g.fn(x), dtype=float), ylo, yhi)

                levels.append(clipped)
                vals.append(fv)
        order = np.argsort(vals)
        levels = [levels[i] for i in order]
        # verify ordering holds across the strip, not just at the midpoint
        xs = np.linspace(a, b, 9)
        stack = np.array([lv(xs) for lv in levels])
        if np.any(np.diff(stack, axis=0) < -1e-10):
            if depth >= 8:
                raise GeometryError(
                    f"curves cross inside strip ({a}, {b}); declare the crossing abscissa")
            return strip_cells(a, mid, depth + 1) + strip_cells(mid, b, depth + 1)
        cells = []
        for lo_fn, hi_fn in zip(levels[:-1], levels[1:]):
            gap = hi_fn(xs) - lo_fn(xs)
            if np.all(gap <= 1e-13):
                continue
            cells.append(CurvedCell(a, b, lo_fn, hi_fn))
        return cells

    edges = sorted(xb)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a > 1e-13:
            out.extend(strip_cells(a, b))
    return out

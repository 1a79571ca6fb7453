"""Rectifiable singular sets: one list of oriented pieces in 1-D and 2-D.

A piece is a jump point (1-D) or a C1 curve (2-D).  Curves are restricted to
three parametrizable forms -- vertical segments, horizontal segments, and
graphs x2 = f(x1) -- which is enough to carry the singular sets of every
bundled scenario while keeping splitting of area integrals exact.  Every
piece carries a fixed orientation: the unit normal is part of the data, not
derived on the fly.  All pieces share one interface (key, flipped, points,
normals, integrate, param_samples, ranges_in_box, ranges_in_ball, contains,
breaks), and points and normals are (n, dim) arrays in every dimension.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .quadrature import CurvedCell, integrate_1d


class JumpPoint:
    """{x} on the line, normal = side * e1; the 1-D counterpart of a curve."""

    def __init__(self, x, side=+1):
        if abs(abs(side) - 1.0) > 1e-12:
            raise GeometryError("1d normals must be +-1")
        self.x = float(x)
        self.side = 1 if side > 0 else -1

    # the parameter s of a curve has no counterpart: a point is one sample
    def points(self, s=None):
        return np.array([[self.x]])

    def normals(self, s=None):
        return np.array([[float(self.side)]])

    def key(self):
        return ("p", round(self.x, 12))

    def flipped(self):
        return JumpPoint(self.x, -self.side)

    def integrate(self, density, s_ranges=None, tol_abs=None, tol_rel=None):
        """density(x, nu) at the point, exactly (H^0 counts points); an empty
        s_ranges (the point lies outside the box or ball) gives 0."""
        if s_ranges is not None and not s_ranges:
            return 0.0, 0.0
        return float(density(self.points(), self.normals())[0]), 0.0

    def param_samples(self, n=33):
        return np.array([self.x]), self.points(), self.normals()

    def ranges_in_box(self, bounds):
        (lo, hi), = bounds
        return [(self.x, self.x)] if lo - 1e-13 <= self.x <= hi + 1e-13 else []

    def ranges_in_ball(self, center, r):
        c = float(np.atleast_1d(center)[0])
        return [(self.x, self.x)] if abs(self.x - c) <= r else []

    def contains(self, pts, tol):
        return np.abs(pts[:, 0] - self.x) <= tol

    def breaks(self):
        """(x-breaks, y-breaks) as for a curve; the line has no y-axis."""
        return (self.x,), ()


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

    def contains(self, pts, tol):
        """Mask of the (n, 2) points within tol of the piece."""
        raise NotImplementedError

    def breaks(self):
        """(x-breaks, y-breaks) the piece induces on area integrals."""
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

    def contains(self, pts, tol):
        return (np.abs(pts[:, 0] - self.c) <= tol) & (pts[:, 1] >= self.s0) & (pts[:, 1] <= self.s1)

    def breaks(self):
        return (self.c,), (self.s0, self.s1)


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

    def contains(self, pts, tol):
        return (np.abs(pts[:, 1] - self.c) <= tol) & (pts[:, 0] >= self.s0) & (pts[:, 0] <= self.s1)

    def breaks(self):
        return (self.s0, self.s1), (self.c,)


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

    def contains(self, pts, tol):
        inside = (pts[:, 0] >= self.s0) & (pts[:, 0] <= self.s1)
        return inside & (np.abs(pts[:, 1] - np.asarray(self.fn(pts[:, 0]), dtype=float)) <= tol)

    def breaks(self):
        return (self.s0, self.s1), ()


class RectifiableSet:
    """Oriented singular set: a list of pieces, jump points in 1-D and curve
    pieces in 2-D.  RectifiableSet(1, points, normals) builds the 1-D set
    from abscissae and +-1 normals; 1-D pieces are kept in increasing order.
    """

    def __init__(self, dim, points=None, normals=None, pieces=None):
        self.dim = int(dim)
        if points is not None:
            points = np.atleast_1d(np.asarray(points, dtype=float))
            normals = np.ones(len(points)) if normals is None else np.atleast_1d(normals)
            if len(normals) != len(points):
                raise GeometryError("one normal per point required")
            pieces = [JumpPoint(x, nu) for x, nu in zip(points, normals)]
        self.pieces = list(pieces or [])
        if self.dim == 1:
            self.pieces.sort(key=lambda p: p.x)

    @staticmethod
    def empty(dim):
        return RectifiableSet(dim)

    @property
    def is_empty(self):
        return not self.pieces

    @property
    def points_1d(self):
        """Abscissae of a 1-D set's jump points, increasing (read-only copy)."""
        return np.array([p.x for p in self.pieces], dtype=float)

    def component_keys(self):
        return [p.key() for p in self.pieces]

    def components(self):
        """(key, one-piece set) for every piece."""
        return [(p.key(), RectifiableSet(self.dim, pieces=[p])) for p in self.pieces]

    def flipped(self):
        return RectifiableSet(self.dim, pieces=[p.flipped() for p in self.pieces])

    def contains(self, pts, tol):
        """Mask of the (n, dim) points within tol of some piece."""
        mask = np.zeros(len(pts), dtype=bool)
        for p in self.pieces:
            mask |= p.contains(pts, tol)
        return mask

    def integrate(self, density, tol_abs=1e-11, tol_rel=1e-11, box=None):
        """\\int density(x, nu) dH^{N-1}; box restricts the integral.

        density maps pts (n, dim) and unit normals nus (n, dim) to (n,).
        """
        total, err = 0.0, 0.0
        for p in self.pieces:
            ranges = None if box is None else p.ranges_in_box(box)
            v, e = p.integrate(density, s_ranges=ranges, tol_abs=tol_abs, tol_rel=tol_rel)
            total += v
            err += e
        return total, err

    def mass_in_ball(self, density, center, r):
        """\\int_{B_r(center)} density dH^{N-1} (used by density-ratio checks)."""
        total = 0.0
        for p in self.pieces:
            ranges = p.ranges_in_ball(center, r)
            if ranges:
                v, _ = p.integrate(density, s_ranges=ranges)
                total += v
        return total

    def samples(self, n_per_piece=17):
        """Representative points and normals on every component, (n, dim) each."""
        if not self.pieces:
            return np.zeros((0, self.dim)), np.zeros((0, self.dim))
        pts, nus = zip(*(p.param_samples(n_per_piece)[1:] for p in self.pieces))
        return np.vstack(pts), np.vstack(nus)

    def x_breaks(self):
        """Axis-0 splitting abscissae the set induces on area integrals."""
        return [v for p in self.pieces for v in p.breaks()[0]]

    def y_breaks(self):
        return [v for p in self.pieces for v in p.breaks()[1]]


def merge_sets(*sets):
    """Union of rectifiable sets, deduplicating identical components.

    Components shared between inputs must agree in orientation; a flipped
    duplicate is a scenario bug, not something to reconcile silently.
    """
    dims = {s.dim for s in sets if s is not None}
    if len(dims) != 1:
        raise GeometryError("cannot merge sets of different dimensions")
    seen = {}
    for s in sets:
        if s is None:
            continue
        for p in s.pieces:
            k = p.key()
            if k in seen and seen[k].side != p.side:
                raise GeometryError(f"conflicting orientation on shared component {k}")
            seen[k] = p
    return RectifiableSet(dims.pop(), pieces=list(seen.values()))


# A bracket is solved once it is no wider than ROOT_XTOL + 4 eps |a|.
ROOT_XTOL = 1e-14


def bracketed_roots(f, a, b, fa, fb):
    """One root of f in each bracket [a[i], b[i]] whose end values fa, fb have
    strictly opposite signs: the midpoints of the brackets once solved.  Each
    step calls the vectorized f once on every open bracket, at its Illinois
    point (regula falsi that halves the value of an end kept twice in a row)
    drawn toward the midpoint as in the ITP method, so that no bracket takes
    more than 3 steps beyond bisection.  A non-finite f raises GeometryError."""
    a0, b0 = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b, fa, fb = a0.copy(), b0.copy(), np.array(fa, dtype=float), np.array(fb, dtype=float)
    steps = np.ceil(np.log2(np.maximum((b - a) / ROOT_XTOL, 1.0))) + 3     # steps left
    moved = np.zeros(len(a))              # +1: the last step moved a, -1: it moved b
    live = np.flatnonzero(b - a > ROOT_XTOL + 4 * np.finfo(float).eps * np.abs(a))
    while live.size:
        al, bl, fal, fbl, ml = a[live], b[live], fa[live], fb[live], moved[live]
        steps[live] -= 1
        # within r of the midpoint, the bracket is at most ROOT_XTOL 2^steps wide after
        r = ROOT_XTOL * 2.0 ** steps[live] - 0.5 * (bl - al)
        mid = 0.5 * (al + bl)
        x = np.clip(al + (bl - al) * fal / (fal - fbl), mid - r, mid + r)
        fx = np.asarray(f(x), dtype=float)
        if not np.isfinite(fx).all():
            j = np.argmin(np.isfinite(fx))
            raise GeometryError(f"root search in [{float(a0[live[j]])!r}, "
                                f"{float(b0[live[j]])!r}]: non-finite value at {float(x[j])!r}")
        left = np.sign(fx) == np.sign(fal)       # the root is in [x, b]
        right = np.sign(fx) == np.sign(fbl)      # the root is in [a, x]
        a[live] = np.where(right, al, x)         # f(x) == 0 moves both ends to x
        b[live] = np.where(left, bl, x)
        fa[live] = np.where(left, fx, np.where(right & (ml < 0), 0.5 * fal, fal))
        fb[live] = np.where(right, fx, np.where(left & (ml > 0), 0.5 * fbl, fbl))
        moved[live] = left.astype(float) - right
        live = live[b[live] - a[live] > ROOT_XTOL + 4 * np.finfo(float).eps * np.abs(a[live])]
    return 0.5 * (a + b)


def _level_crossings(g, levels, a, b, n_scan=257):
    """Abscissae in [a, b] where graph g meets one of the constant levels."""
    xs = np.linspace(a, b, n_scan)
    fx = np.asarray(g.fn(xs), dtype=float)
    out = []
    for c in levels:
        sgn = np.sign(fx - c)
        out.extend(xs[1:-1][sgn[1:-1] == 0.0].tolist())
        i = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
        out.extend(bracketed_roots(lambda x: np.asarray(g.fn(x), dtype=float) - c,
                                   xs[i], xs[i + 1], fx[i] - c, fx[i + 1] - c).tolist())
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
        for c in s.pieces:
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

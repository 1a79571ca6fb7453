"""Rectifiable singular sets: one list of oriented pieces in 1-D and 2-D.

A piece is a jump point (1-D) or a C1 curve (2-D).  Curves are restricted to
two parametrizable forms -- vertical or horizontal segments, and graphs
x2 = f(x1) -- which is enough to carry the singular sets of every
bundled scenario while keeping splitting of area integrals exact.  Every
piece carries a fixed orientation: the unit normal is part of the data, not
derived on the fly.  All pieces share one interface (key, flipped, points,
normals, param_samples, ranges_in_box, contains, breaks), and points and
normals are (n, dim) arrays in every dimension; a curve also has its ranges
in a disc (ranges_in_ball).  H^{N-1} integrals over (piece, parameter
range) rows are one integrate_on call; RadonMeasure takes its jump part's
ranges from ranges_in_box.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .quadrature import CurvedCell, bracketed_roots, by_runs, integrate_1d

CURVE_SCAN_POINTS = 257    # grid on which curve ranges and level crossings are bracketed


class JumpPoint:
    """{x} on the line, normal = side * e1; the 1-D counterpart of a curve."""

    def __init__(self, x, side=+1):
        if abs(abs(side) - 1.0) > 1e-12:
            raise GeometryError("1d normals must be +-1")
        self.x = float(x)
        self.side = 1 if side > 0 else -1
        self.s0 = self.s1 = self.x          # the parameter range of a curve

    # the parameter s of a curve has no counterpart: a point is one sample
    def points(self, s=None):
        return np.array([[self.x]])

    def normals(self, s=None):
        return np.array([[float(self.side)]])

    def key(self):
        return ("p", round(self.x, 12))

    def flipped(self):
        return JumpPoint(self.x, -self.side)

    def param_samples(self, n=33):
        return np.array([self.x]), self.points(), self.normals()

    def ranges_in_box(self, bounds):
        (lo, hi), = bounds
        return [(self.x, self.x)] if lo - 1e-13 <= self.x <= hi + 1e-13 else []

    def contains(self, pts, tol):
        return np.abs(pts[:, 0] - self.x) <= tol

    def breaks(self):
        """(x-breaks, y-breaks) as for a curve; the line has no y-axis."""
        return (self.x,), ()


class CurvePiece:
    """Base class: parametrized curve with unit normal and arclength element."""

    s0: float
    s1: float
    s_axis: int             # the coordinate that the parameter s is

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

    def param_samples(self, n=33):
        s = np.linspace(self.s0, self.s1, n + 2)[1:-1]
        return s, self.points(s), self.normals(s)

    def ranges_in_box(self, bounds):
        """Parameter sub-ranges where the curve lies inside an axis box."""
        lo, hi = np.array(bounds, dtype=float).T + [[-1e-13], [1e-13]]

        def dist(s):                        # the largest excess over an edge
            p = self.points(s)
            return np.maximum(lo - p, p - hi).max(axis=1)

        return _ranges(self, dist, lo[self.s_axis], hi[self.s_axis])

    def ranges_in_ball(self, center, r):
        c = center[self.s_axis]
        return _ranges(self, lambda s: ((self.points(s) - center) ** 2).sum(axis=1) - r * r,
                       c - r, c + r)


def _ranges(piece, dist, lo, hi):
    """Runs of the pieces of [s0, s1], cut at the sign changes of the
    continuous dist(s) (<= 0 inside), whose midpoints lie inside.  Only
    [lo, hi], the values of s a point inside can have, is scanned, so a
    region narrower than the scan step over the whole curve is still seen."""
    lo, hi = max(piece.s0, lo), min(piece.s1, hi)
    if lo > hi:
        return []
    s = np.linspace(lo, hi, CURVE_SCAN_POINTS)
    ds = dist(s)
    if not (ds <= 0).any():
        return []
    cuts = [lo, hi, *sign_crossings(dist, s, ds).tolist()]
    # a run from a grid zero may end before the next grid point: probe just inside
    z = np.flatnonzero(ds == 0.0)
    if z.size:
        zr, zl = z[z < len(s) - 1], z[z > 0]        # zeros with a right, a left neighbour
        a = np.concatenate([s[zr] + 1e-9 * (s[zr + 1] - s[zr]), s[zl - 1]])
        b = np.concatenate([s[zr + 1], s[zl] - 1e-9 * (s[zl] - s[zl - 1])])
        fa, fb = dist(a), dist(b)
        hit = np.sign(fa) * np.sign(fb) < 0
        cuts += bracketed_roots(lambda x, live: dist(x), a[hit], b[hit], fa[hit], fb[hit]).tolist()
    # a list sort and a float diff: numpy's float sort and integer diff, which
    # no other step calls, raised the peak RSS of the 2-D runs by 0.3 MB
    cuts = np.array(sorted(cuts))
    a, b = cuts[:-1], cuts[1:]
    a, b = a[b > a], b[b > a]
    run = np.diff(np.concatenate([[0.0], dist(0.5 * (a + b)) <= 0, [0.0]]))
    return list(zip(a[run[:-1] == 1].tolist(), b[run[1:] == -1].tolist()))


class Segment(CurvePiece):
    """{x_axis = c, the other coordinate s in [s0, s1]}, normal = side * e_axis:
    a vertical segment (axis 0, key "v") or a horizontal one (axis 1, "h")."""

    def __init__(self, axis, c, s0, s1, side=+1):
        if s1 <= s0:
            raise GeometryError("empty segment")
        self.axis = int(axis)
        self.s_axis = 1 - self.axis
        self.c = float(c)
        self.s0, self.s1 = float(s0), float(s1)
        self.side = int(side)

    def points(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        cols = [np.full_like(s, self.c), s]
        return np.column_stack(cols if self.axis == 0 else cols[::-1])

    def normals(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        n = np.zeros((len(s), 2))
        n[:, self.axis] = self.side
        return n

    def jacobian(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.ones_like(s)

    def key(self):
        return ("vh"[self.axis], round(self.c, 12), round(self.s0, 12), round(self.s1, 12))

    def flipped(self):
        return Segment(self.axis, self.c, self.s0, self.s1, -self.side)

    def contains(self, pts, tol):
        along = pts[:, 1 - self.axis]
        return (np.abs(pts[:, self.axis] - self.c) <= tol) & (along >= self.s0) & (along <= self.s1)

    def breaks(self):
        own = ((self.c,), (self.s0, self.s1))
        return own if self.axis == 0 else own[::-1]


class GraphCurve(CurvePiece):
    """{x2 = f(x1), x1 in [x0, x1]}; normal = side*(-f', 1)/sqrt(1+f'^2)."""

    s_axis = 0

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


def integrate_on(density, pieces, at, ranges, tol_abs, tol_rel):
    """Values, per row r, of \\int density(x, nu, rows) dH^{N-1} over
    the parameter range ranges[r] = (sa, sb) of pieces[at[r]], where rows
    names the row of each point.  Curve rows are one integrate_1d of
    density |gamma'| (an empty range gives 0), each piece's points, normals
    and arclength element taken once per run of rows on it; a jump point's
    row, whose range is (x, x), is its density at the point, exactly (H^0
    counts points)."""
    if len(at) and isinstance(pieces[0], JumpPoint):
        pts = np.array([[pieces[k].x] for k in at])
        nus = np.array([[float(pieces[k].side)] for k in at])
        return np.asarray(density(pts, nus, np.arange(len(at))), dtype=float)

    def f(s, r):
        pts, nus, jac = (by_runs([getattr(p, name) for p in pieces], at[r], s)
                         for name in ("points", "normals", "jacobian"))
        return np.asarray(density(pts, nus, r), dtype=float) * jac

    sa, sb = np.array(ranges, dtype=float).reshape(-1, 2).T
    return integrate_1d(f, sa, sb, (), tol_abs, tol_rel)[0]


def merge_sets(*sets):
    """Union of rectifiable sets, deduplicating identical components.

    Components shared between inputs must agree in orientation; a flipped
    duplicate is a scenario bug, not something to reconcile silently.
    """
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise GeometryError("cannot merge sets of different dimensions")
    seen = {}
    for s in sets:
        for p in s.pieces:
            k = p.key()
            if k in seen and seen[k].side != p.side:
                raise GeometryError(f"conflicting orientation on shared component {k}")
            seen[k] = p
    return RectifiableSet(dims.pop(), pieces=list(seen.values()))


def sign_crossings(f, xs, fx):
    """The grid points xs where fx = f(xs) is 0, and one root of f (by
    bracketed_roots) in each scan interval where fx changes sign strictly.
    Two crossings inside one scan interval show no sign change and are
    missed, and an odd number of them give one root: every crossing search
    is only as fine as its grid."""
    sgn = np.sign(fx)
    i = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    roots = bracketed_roots(lambda x, live: f(x), xs[i], xs[i + 1], fx[i], fx[i + 1])
    return np.concatenate([xs[sgn == 0.0], roots])


def box_cells(bounds, curve_sets, extra_x_breaks=(), extra_y_breaks=()):
    """Decompose a 2D box into curved cells whose interiors avoid all curves.

    Splits the box into vertical strips at every declared x-break and at
    every abscissa where a graph meets a constant level or a box edge, then,
    per strip, stacks the constant and graph levels in vertical order.  A
    strip whose levels are out of order somewhere (two graphs crossing, or
    two crossings within one scan interval) raises GeometryError at once:
    bisecting it would only carry a transversal crossing into one half.
    """
    (xlo, xhi), (ylo, yhi) = bounds
    xb = {xlo, xhi}
    yb = {ylo, yhi}
    graphs = []
    for s in curve_sets:
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
            xs = np.linspace(a, b, CURVE_SCAN_POINTS)
            fx = np.asarray(g.fn(xs), dtype=float)
            for c in sorted(yb):
                xb.update(sign_crossings(lambda x: np.asarray(g.fn(x), dtype=float) - c,
                                         xs, fx - c).tolist())

    def strip_cells(a, b):
        levels = [(lambda x, c=c: np.full_like(x, c)) for c in sorted(yb)]
        levels += [lambda x, g=g: np.clip(np.asarray(g.fn(x), dtype=float), ylo, yhi)
                   for g in graphs if g.s0 <= a + 1e-13 and b - 1e-13 <= g.s1]
        order = np.argsort([lv(np.array([0.5 * (a + b)]))[0] for lv in levels])
        levels = [levels[i] for i in order]
        # verify ordering holds across the strip, not just at the midpoint
        xs = np.linspace(a, b, 9)
        gaps = np.diff([lv(xs) for lv in levels], axis=0)
        if np.any(gaps < -1e-10):
            raise GeometryError(
                f"curves cross inside strip ({a}, {b}); declare the crossing abscissa")
        return [CurvedCell(a, b, lo_fn, hi_fn)
                for lo_fn, hi_fn, gap in zip(levels[:-1], levels[1:], gaps)
                if not np.all(gap <= 1e-13)]

    edges = sorted(xb)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a > 1e-13:
            out.extend(strip_cells(a, b))
    return out

"""Piecewise-smooth BV functions with declared jump structure.

Scenario authors supply the pieces, the jump set with its orientation, and
the traces; this module validates the data (one-sided limits, bounds,
coverage) and exposes the derivative decomposition

    Du = grad(u) L^N  +  (Cantor summand)' +  (u+ - u-) nu H^{N-1} |_{J_u}

and the level regions used by the layer-cake form of the chain rule.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .cantor import CantorPart, cantor_function
from .errors import DegenerateLevelError, GeometryError
from .geometry import Domain, as_points
from .measure import RadonMeasure
from .quadrature import integrate_1d  # noqa: F401  (an alias the benchmark tracer counts)
from .rectifiable import RectifiableSet, sign_crossings

SCAN_POINTS = 801          # grid on which 1-D level-set scans bracket the crossings


class Piece:
    """One smooth piece: indicator of its open region, value, gradient."""

    def __init__(self, indicator, value, grad):
        self.indicator = indicator
        self.value = value
        self.grad = grad


class BVFunction:
    def __init__(self, domain: Domain, pieces, jump_set: RectifiableSet | None = None,
                 u_plus=None, u_minus=None, cantor: CantorPart | None = None, sup_bound=None):
        self.domain = domain
        self.pieces = list(pieces)
        self.jump_set = jump_set if jump_set is not None else RectifiableSet.empty(domain.dim)
        self.u_plus = u_plus
        self.u_minus = u_minus
        self.cantor = cantor                       # D^c u: a CantorPart whose mass is the amplitude
        if cantor is not None and domain.dim != 1:
            raise GeometryError("Cantor components are 1D only")
        self._cdf = None if cantor is None else cantor_function(cantor.spec)
        self.sup_bound = float(sup_bound) if sup_bound is not None else self._estimate_sup()

    # -- evaluation ----------------------------------------------------
    def _cantor_summand(self, pts):
        if self.cantor is None:
            return 0.0
        return self.cantor.mass * self._cdf(pts[:, 0])

    def _select(self, pts, part, shape):
        """part ("value" or "grad") of the first piece covering each point.

        A point where a piece's value is NaN falls to the next piece; a point
        left NaN is a GeometryError.  When the first piece covers every point
        with no NaN, its values are the answer as they stand, with no masks.
        """
        first = self.pieces[0]
        if len(pts) and np.asarray(first.indicator(pts), dtype=bool).all():
            vals = np.asarray(getattr(first, part)(pts), dtype=float)
            if vals.shape == shape and not np.isnan(vals).any():
                return vals
        out = np.full(shape, np.nan)
        lead = out if out.ndim == 1 else out[:, 0]
        for p in self.pieces:
            mask = np.asarray(p.indicator(pts), dtype=bool) & np.isnan(lead)
            if mask.any():
                vals = np.asarray(getattr(p, part)(pts[mask]), dtype=float)
                out[mask] = vals if out.ndim == 1 else np.atleast_2d(vals)
        if np.any(np.isnan(out)):
            raise GeometryError("pieces do not cover the evaluation points")
        return out

    def eval(self, pts):
        """Pointwise values off the jump set (piece selection)."""
        pts = as_points(pts, self.domain.dim)
        return self._select(pts, "value", (len(pts),)) + self._cantor_summand(pts)

    def grad(self, pts):
        pts = as_points(pts, self.domain.dim)
        return self._select(pts, "grad", (len(pts), self.domain.dim))

    def on_jump(self, pts, tol=1e-11):
        return self.jump_set.contains(as_points(pts, self.domain.dim), tol)

    def precise_rep(self, pts):
        """Approximate limit off J_u; mean of traces on it."""
        pts = as_points(pts, self.domain.dim)
        mask = self.on_jump(pts)
        out = np.empty(len(pts))
        if np.any(~mask):
            out[~mask] = self.eval(pts[~mask])
        if np.any(mask):
            up = np.asarray(self.u_plus(pts[mask]), dtype=float)
            um = np.asarray(self.u_minus(pts[mask]), dtype=float)
            out[mask] = 0.5 * (up + um)
        return out

    # -- derivative ----------------------------------------------------
    def derivative(self):
        """One RadonMeasure per axis: Du_i."""
        out = []
        for ax in range(self.domain.dim):
            jumps = None
            if not self.jump_set.is_empty:
                def g(pts, nus, ax=ax):
                    jump = (np.asarray(self.u_plus(pts), dtype=float)
                            - np.asarray(self.u_minus(pts), dtype=float))
                    return jump * nus[:, ax]
                jumps = RadonMeasure.from_jump(self.domain, self.jump_set, g).jumps
            mu = RadonMeasure(self.domain,
                              ac=lambda pts, ax=ax: self.grad(pts)[:, ax],
                              ac_singular=self.jump_set, jumps=jumps,
                              cantor=self.cantor if ax == 0 else None)
            out.append(mu)
        return out

    def variation_measure(self):
        """|Du| as a RadonMeasure (used by the total-variation bound)."""
        jumps = None
        if not self.jump_set.is_empty:
            def g(pts, nus):
                return np.abs(np.asarray(self.u_plus(pts), dtype=float)
                              - np.asarray(self.u_minus(pts), dtype=float))
            jumps = RadonMeasure.from_jump(self.domain, self.jump_set, g).jumps
        cantor = None if self.cantor is None else \
            CantorPart(self.cantor.spec, abs(self.cantor.mass))
        return RadonMeasure(self.domain,
                            ac=lambda pts: np.linalg.norm(self.grad(pts), axis=1),
                            ac_singular=self.jump_set, jumps=jumps, cantor=cantor,
                            nonnegative=True)

    def flipped(self):
        """Reversed joint orientation: nu -> -nu with traces swapped."""
        return BVFunction(self.domain, self.pieces, self.jump_set.flipped(),
                          u_plus=self.u_minus, u_minus=self.u_plus,
                          cantor=self.cantor, sup_bound=self.sup_bound)

    # -- level regions ---------------------------------------------------
    @cached_property
    def scan_table(self):
        """(xs, u(xs)) on the 1-D scan grid, evaluated once: u never changes."""
        (lo, hi), = self.domain.bounds
        xs = np.linspace(lo, hi, SCAN_POINTS)
        return xs, self.eval(xs[:, None])

    def level_region(self, t):
        if t == 0:
            raise DegenerateLevelError("level t = 0 is excluded")
        return LevelRegion(self, float(t))

    # -- validation ------------------------------------------------------
    def _estimate_sup(self):
        pts = self.domain.grid(101)
        off = ~self.on_jump(pts, tol=1e-9)
        return float(np.max(np.abs(self.eval(pts[off]))))

    def validate(self):
        """Trace consistency + bound check on samples; returns report rows."""
        rows = []
        pts = self.domain.grid(41)
        off = ~self.on_jump(pts, tol=1e-9)
        vals = self.eval(pts[off])
        rows.append(("sup_bound", bool(np.all(np.abs(vals) <= self.sup_bound + 1e-9))))
        if not self.jump_set.is_empty:
            sp, sn = self.jump_set.samples()
            up = np.asarray(self.u_plus(sp), dtype=float)
            um = np.asarray(self.u_minus(sp), dtype=float)
            # the pieces extrapolated, the Hoelder Cantor summand at the jump
            piece = lambda d: self._select(sp + d, "value", (len(sp),))
            lim_p, lim_m = (2 * piece(d) - piece(2 * d) + self._cantor_summand(sp)
                            for d in (sn * 1e-6, sn * -1e-6))
            rows.append(("trace_plus", bool(np.max(np.abs(lim_p - up)) <= 1e-8)))
            rows.append(("trace_minus", bool(np.max(np.abs(lim_m - um)) <= 1e-8)))
            rows.append(("jump_nondegenerate", bool(np.min(np.abs(up - um)) > 0)))
        return rows

    # -- 1D constructor --------------------------------------------------
    @staticmethod
    def piecewise_1d(domain: Domain, breakpoints, values, grads, normals=None,
                     cantor=None, sup_bound=None):
        """Pieces between sorted breakpoints; traces derived from the pieces.

        values/grads: one vectorized callable per interval (len(breakpoints)+1).
        """
        bps = sorted(float(b) for b in breakpoints)
        lo, hi = domain.bounds[0]
        edges = [lo - 1e30] + bps + [hi + 1e30]
        pieces = []
        for i, (v, g) in enumerate(zip(values, grads)):
            a, b = edges[i], edges[i + 1]

            def ind(pts, a=a, b=b):
                return (pts[:, 0] >= a) & (pts[:, 0] < b)

            pieces.append(Piece(ind, lambda pts, v=v: v(pts[:, 0]),
                                lambda pts, g=g: np.asarray(g(pts[:, 0]))[:, None]))
        if normals is None:
            normals = [1.0] * len(bps)
        jump = RectifiableSet(1, bps, normals) if bps else RectifiableSet.empty(1)

        cdf = None if cantor is None else cantor_function(cantor.spec)

        def one_sided(pts, side):
            # which breakpoint, then the adjacent piece value (+ Cantor summand)
            out = np.empty(len(pts))
            for j, (xb, nu) in enumerate(zip(bps, normals)):
                mask = np.abs(pts[:, 0] - xb) <= 1e-11
                if not mask.any():
                    continue
                piece_idx = j + (1 if (side * nu) > 0 else 0)
                vals = np.asarray(values[piece_idx](np.full(mask.sum(), xb)), dtype=float)
                if cdf is not None:
                    vals = vals + cantor.mass * cdf(np.full(mask.sum(), xb))
                out[mask] = vals
            return out

        return BVFunction(domain, pieces, jump,
                          u_plus=lambda pts: one_sided(pts, +1),
                          u_minus=lambda pts: one_sided(pts, -1),
                          cantor=cantor, sup_bound=sup_bound)


class LevelRegion:
    """Indicator data of Omega_{u,t} = {x : t between 0 and u(x)}."""

    def __init__(self, u: BVFunction, t: float):
        self.u = u
        self.t = t

    def _inside(self, vals):
        return (vals > self.t if self.t > 0 else vals < self.t).astype(float)

    def chi(self, pts):
        return self._inside(self.u.eval(pts))

    def chi_star(self, pts):
        """Precise representative: trace average on J_u, indicator elsewhere."""
        pts = as_points(pts, self.u.domain.dim)
        mask = self.u.on_jump(pts)
        out = np.empty(len(pts))
        if np.any(~mask):
            out[~mask] = self.chi(pts[~mask])
        if np.any(mask):
            up = np.asarray(self.u.u_plus(pts[mask]), dtype=float)
            um = np.asarray(self.u.u_minus(pts[mask]), dtype=float)
            out[mask] = 0.5 * (self._inside(up) + self._inside(um))
        return out

    def breakpoints_1d(self):
        """Abscissae where u crosses level t (quadrature split points)."""
        xs, table = self.u.scan_table
        roots = sign_crossings(lambda x: self.u.eval(x[:, None]) - self.t, xs, table - self.t)
        return sorted(list(self.u.jump_set.points_1d) + roots.tolist())

    def extra_x_breaks(self):
        return self.breakpoints_1d() if self.u.domain.dim == 1 else []

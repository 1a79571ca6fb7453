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
from scipy.optimize import brentq

from .cantor import CantorPart, cantor_function
from .errors import DegenerateLevelError, GeometryError, NotOnJumpSetError
from .geometry import Domain, as_points
from .measure import RadonMeasure
from .quadrature import integrate_1d, integrate_polar
from .rectifiable import GraphCurve, HorizontalSegment, RectifiableSet, VerticalSegment

SCAN_POINTS = 801          # grid on which 1-D level-set scans bracket the crossings


class Piece:
    """One smooth piece: indicator of its open region, value, gradient."""

    def __init__(self, indicator, value, grad):
        self.indicator = indicator
        self.value = value
        self.grad = grad


class BVFunction:
    def __init__(self, domain: Domain, pieces, jump_set: RectifiableSet | None = None,
                 u_plus=None, u_minus=None, cantor=None, cantor_amplitude=0.0,
                 sup_bound=None, level_breaks_2d=None):
        self.domain = domain
        self.pieces = list(pieces)
        self.jump_set = jump_set if jump_set is not None else RectifiableSet.empty(domain.dim)
        self.u_plus = u_plus
        self.u_minus = u_minus
        self.cantor = cantor                       # IFS CantorPart of D^c u (mass = amplitude)
        self.cantor_amplitude = float(cantor_amplitude)
        if cantor is not None and domain.dim != 1:
            raise GeometryError("Cantor components are 1D only")
        self._cdf = None if cantor is None else cantor_function(cantor.spec)
        self.sup_bound = float(sup_bound) if sup_bound is not None else self._estimate_sup()
        self.level_breaks_2d = level_breaks_2d     # optional t -> extra x-breaks callable

    # -- evaluation ----------------------------------------------------
    def _cantor_summand(self, pts):
        if self.cantor is None:
            return 0.0
        return self.cantor_amplitude * self._cdf(pts[:, 0])

    def eval(self, pts):
        """Pointwise values off the jump set (piece selection)."""
        pts = as_points(pts, self.domain.dim)
        out = np.full(len(pts), np.nan)
        for p in self.pieces:
            mask = np.asarray(p.indicator(pts), dtype=bool) & np.isnan(out)
            if mask.any():
                out[mask] = np.asarray(p.value(pts[mask]), dtype=float)
        if np.any(np.isnan(out)):
            raise GeometryError("pieces do not cover the evaluation points")
        return out + self._cantor_summand(pts)

    def grad(self, pts):
        pts = as_points(pts, self.domain.dim)
        out = np.full((len(pts), self.domain.dim), np.nan)
        for p in self.pieces:
            mask = np.asarray(p.indicator(pts), dtype=bool) & np.isnan(out[:, 0])
            if mask.any():
                out[mask] = np.atleast_2d(np.asarray(p.grad(pts[mask]), dtype=float))
        if np.any(np.isnan(out)):
            raise GeometryError("pieces do not cover the evaluation points")
        return out

    def on_jump(self, pts, tol=1e-11):
        pts = as_points(pts, self.domain.dim)
        mask = np.zeros(len(pts), dtype=bool)
        if self.jump_set.is_empty:
            return mask
        if self.domain.dim == 1:
            for x in self.jump_set.points_1d:
                mask |= np.abs(pts[:, 0] - x) <= tol
            return mask
        for c in self.jump_set.curves:
            if isinstance(c, VerticalSegment):
                mask |= (np.abs(pts[:, 0] - c.c) <= tol) & (pts[:, 1] >= c.s0) & (pts[:, 1] <= c.s1)
            elif isinstance(c, HorizontalSegment):
                mask |= (np.abs(pts[:, 1] - c.c) <= tol) & (pts[:, 0] >= c.s0) & (pts[:, 0] <= c.s1)
            else:
                assert isinstance(c, GraphCurve)
                inside = (pts[:, 0] >= c.s0) & (pts[:, 0] <= c.s1)
                vals = np.asarray(c.fn(pts[:, 0]), dtype=float)
                mask |= inside & (np.abs(pts[:, 1] - vals) <= tol)
        return mask

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

    def traces_at(self, x):
        """(u+, u-) at a jump-set sample; errors off the jump set."""
        pts = as_points(x, self.domain.dim)
        if self.jump_set.is_empty or not bool(self.on_jump(pts)[0]):
            raise NotOnJumpSetError(f"{x} is not on the jump set")
        return (float(self.u_plus(pts)[0]), float(self.u_minus(pts)[0]))

    # -- derivative ----------------------------------------------------
    def derivative(self):
        """One RadonMeasure per axis: Du_i."""
        out = []
        for ax in range(self.domain.dim):
            jumps = None
            if not self.jump_set.is_empty:
                def g(pts, nus, ax=ax):
                    nus = np.atleast_2d(nus) if self.domain.dim == 2 else np.asarray(nus)
                    jump = (np.asarray(self.u_plus(pts), dtype=float)
                            - np.asarray(self.u_minus(pts), dtype=float))
                    nu_i = nus[:, ax] if self.domain.dim == 2 else nus
                    return jump * nu_i
                jumps = RadonMeasure.from_jump(self.domain, self.jump_set, g).jumps
            cantor = None
            if self.cantor is not None and ax == 0 and self.cantor_amplitude != 0.0:
                cantor = CantorPart(self.cantor.spec, self.cantor_amplitude)
            mu = RadonMeasure(self.domain,
                              ac=lambda pts, ax=ax: self.grad(pts)[:, ax],
                              ac_singular=None if self.jump_set.is_empty else self.jump_set,
                              jumps=jumps, cantor=cantor)
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
        cantor = None
        if self.cantor is not None and self.cantor_amplitude != 0.0:
            cantor = CantorPart(self.cantor.spec, abs(self.cantor_amplitude))
        return RadonMeasure(self.domain,
                            ac=lambda pts: np.linalg.norm(self.grad(pts), axis=1),
                            ac_singular=None if self.jump_set.is_empty else self.jump_set,
                            jumps=jumps, cantor=cantor)

    def flipped(self):
        """Reversed joint orientation: nu -> -nu with traces swapped."""
        return BVFunction(self.domain, self.pieces, self.jump_set.flipped(),
                          u_plus=self.u_minus, u_minus=self.u_plus,
                          cantor=self.cantor, cantor_amplitude=self.cantor_amplitude,
                          sup_bound=self.sup_bound, level_breaks_2d=self.level_breaks_2d)

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

    def validate(self, trace_tol=1e-8):
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
            d1, d2 = 1e-6, 2e-6
            if self.domain.dim == 1:
                shift1 = (sn * d1)[:, None]
                shift2 = (sn * d2)[:, None]
            else:
                shift1, shift2 = sn * d1, sn * d2
            lim_p = 2 * self.eval(sp + shift1) - self.eval(sp + shift2)
            lim_m = 2 * self.eval(sp - shift1) - self.eval(sp - shift2)
            rows.append(("trace_plus", bool(np.max(np.abs(lim_p - up)) <= trace_tol)))
            rows.append(("trace_minus", bool(np.max(np.abs(lim_m - um)) <= trace_tol)))
            rows.append(("jump_nondegenerate", bool(np.min(np.abs(up - um)) > 0)))
        return rows

    def trace_oscillation(self, x, radii=(1e-2, 1e-3)):
        """Half-ball mean oscillation about the stored traces (Def. check)."""
        pts = as_points(x, self.domain.dim)
        if not bool(self.on_jump(pts)[0]):
            raise NotOnJumpSetError(f"{x} is not on the jump set")
        if self.domain.dim == 1:
            nu = None
            for xx, nn in zip(self.jump_set.points_1d, self.jump_set.normals_1d):
                if abs(xx - pts[0, 0]) <= 1e-11:
                    nu = nn
            up, um = self.traces_at(x)
            out = []
            for r in radii:
                c = pts[0, 0]
                vp, _ = integrate_1d(lambda y: np.abs(self.eval(y[:, None]) - up),
                                     min(c, c + nu * r), max(c, c + nu * r), tol_abs=1e-9)
                vm, _ = integrate_1d(lambda y: np.abs(self.eval(y[:, None]) - um),
                                     min(c, c - nu * r), max(c, c - nu * r), tol_abs=1e-9)
                out.append((r, vp / r, vm / r))
            return out
        # 2D: half-disc means
        sp, sn = self.jump_set.samples(3)
        idx = int(np.argmin(np.linalg.norm(sp - pts[0], axis=1)))
        nu = sn[idx]
        up, um = self.traces_at(x)
        out = []
        for r in radii:
            area = np.pi * r * r / 2
            vp, _ = integrate_polar(lambda q: np.abs(self.eval(q) - up), pts[0], r,
                                    half=(nu, +1), tol_abs=1e-9)
            vm, _ = integrate_polar(lambda q: np.abs(self.eval(q) - um), pts[0], r,
                                    half=(nu, -1), tol_abs=1e-9)
            out.append((r, vp / area, vm / area))
        return out

    # -- 1D constructor --------------------------------------------------
    @staticmethod
    def piecewise_1d(domain: Domain, breakpoints, values, grads, normals=None,
                     cantor=None, cantor_amplitude=0.0, sup_bound=None):
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
                    vals = vals + cantor_amplitude * cdf(np.full(mask.sum(), xb))
                out[mask] = vals
            return out

        return BVFunction(domain, pieces, jump,
                          u_plus=lambda pts: one_sided(pts, +1),
                          u_minus=lambda pts: one_sided(pts, -1),
                          cantor=cantor, cantor_amplitude=cantor_amplitude,
                          sup_bound=sup_bound)


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
        sgn = np.sign(table - self.t)
        out = list(self.u.jump_set.points_1d)
        # grid zeros and strict sign changes, in grid order
        for i in np.flatnonzero((sgn[:-1] == 0.0) | (sgn[:-1] * sgn[1:] < 0)):
            if sgn[i] == 0.0:
                out.append(xs[i])
                continue
            try:
                out.append(brentq(lambda x: float(self.u.eval(np.array([[x]]))[0]) - self.t,
                                  xs[i], xs[i + 1], xtol=1e-14))
            except ValueError:
                pass
        if sgn[-1] == 0.0:
            out.append(xs[-1])
        return sorted(out)

    def extra_x_breaks(self):
        if self.u.domain.dim == 1:
            return self.breakpoints_1d()
        if self.u.level_breaks_2d is not None:
            return list(self.u.level_breaks_2d(self.t))
        return []

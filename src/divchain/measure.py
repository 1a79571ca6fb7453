"""Signed Radon measures on a box: absolutely continuous + jump + Cantor parts.

The decomposition mirrors the standard structure of the divergence of a
bounded divergence-measure field: a Lebesgue density, a surface density on
an oriented rectifiable set, and (in 1D) a self-similar singular-continuous
component.  Measures are immutable; sums and scalar multiples build new
objects, merging surface densities component-by-component so total
variations never double-count a shared interface.
"""

from __future__ import annotations

import numpy as np

from .cantor import CantorPart, construction_endpoints, integrate_ifs, require_same_spec
from .errors import AbsoluteContinuityError, DomainMismatchError, UnsupportedStructureError
from .geometry import Domain, as_points
from .quadrature import by_runs, integrate_1d, integrate_abs, integrate_cells
from .rectifiable import RectifiableSet, box_cells, integrate_on, merge_sets


def _wrap_sum(f, g):
    if f is None:
        return g
    if g is None:
        return f
    return lambda *a: np.asarray(f(*a), dtype=float) + np.asarray(g(*a), dtype=float)


def _wrap_scale(f, c):
    if f is None:
        return None
    return lambda *a: c * np.asarray(f(*a), dtype=float)


class TestFunction:
    """Compactly supported C^1-or-better scalar field with analytic gradient.

    breaks holds, per axis, the abscissae inside the support where the
    gradient loses smoothness; quadratures against the function split there.
    """

    def __init__(self, value, gradient, support_box, dim, label="", breaks=None):
        self.value = value
        self.gradient = gradient
        self.support_box = tuple(tuple(map(float, b)) for b in support_box)
        self.dim = dim
        self.label = label
        self.breaks = tuple(() for _ in range(dim)) if breaks is None else \
            tuple(tuple(map(float, b)) for b in breaks)

    def with_breaks(self, extra):
        """A copy that also breaks at extra[axis], where inside the support."""
        breaks = [tuple(sorted(set(own) | {float(p) for p in more if lo < p < hi}))
                  for own, more, (lo, hi) in zip(self.breaks, extra, self.support_box)]
        return TestFunction(self.value, self.gradient, self.support_box, self.dim,
                            label=self.label, breaks=breaks)

    def __repr__(self):
        return f"TestFunction({self.label or self.support_box})"


def _smoothstep(s):
    # C^2 quintic step on [0, 1]
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _smoothstep_d(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * s * s * (1.0 - s) ** 2, 0.0)


def plateau_bump(support_box, plateau_box, label=""):
    """C^2 bump equal to 1 on the plateau box, 0 outside the support box."""
    support_box = tuple(tuple(map(float, b)) for b in support_box)
    plateau_box = tuple(tuple(map(float, b)) for b in plateau_box)
    dim = len(support_box)
    ramps = []          # per axis: support ends and the widths of the two ramps
    for (slo, shi), (plo, phi_) in zip(support_box, plateau_box):
        if not (slo < plo < phi_ < shi):
            raise ValueError("plateau must be strictly inside the support")
        ramps.append((slo, shi, plo - slo, shi - phi_))

    def value(pts):
        pts = as_points(pts, dim)
        out = 1.0
        for x, (slo, shi, wup, wdn) in zip(pts.T, ramps):
            out = out * (_smoothstep((x - slo) / wup) * _smoothstep((shi - x) / wdn))
        return out

    def gradient(pts):
        pts = as_points(pts, dim)
        vals, ders = [], []
        for x, (slo, shi, wup, wdn) in zip(pts.T, ramps):
            sup, sdn = (x - slo) / wup, (shi - x) / wdn
            up, dn = _smoothstep(sup), _smoothstep(sdn)
            vals.append(up * dn)
            ders.append(_smoothstep_d(sup) / wup * dn - up * _smoothstep_d(sdn) / wdn)
        cols = []
        for ax in range(dim):
            col = ders[ax]
            for j in range(dim):
                if j != ax:
                    col = col * vals[j]
            cols.append(col)
        return np.column_stack(cols)

    return TestFunction(value, gradient, support_box, dim, label=label, breaks=plateau_box)


def oscillatory_bump(support_box, plateau_box, wave_vector, label=""):
    """sin(k . x) times a plateau bump; exercises sign-changing actions."""
    base = plateau_bump(support_box, plateau_box)
    k = np.atleast_1d(np.asarray(wave_vector, dtype=float))
    dim = len(support_box)

    def value(pts):
        pts = as_points(pts, dim)
        return base.value(pts) * np.sin(pts @ k)

    def gradient(pts):
        pts = as_points(pts, dim)
        s = np.sin(pts @ k)
        c = np.cos(pts @ k)
        return base.gradient(pts) * s[:, None] + base.value(pts)[:, None] * c[:, None] * k[None, :]

    return TestFunction(value, gradient, support_box, dim, label=label, breaks=base.breaks)


class RadonMeasure:
    """domain + optional (ac density, jump components, Cantor part), and
    whether each part is >= 0 by construction (sums and multiples drop it).
    ac_singular is the set where the a.c. and Cantor densities may jump; an
    empty set (the default) says they have none."""

    def __init__(self, domain: Domain, ac=None, ac_singular: RectifiableSet | None = None,
                 jumps=None, cantor: CantorPart | None = None, cantor_density=None,
                 nonnegative=False):
        self.domain = domain
        self.nonnegative = nonnegative
        self.ac = ac
        self.ac_singular = RectifiableSet.empty(domain.dim) if ac_singular is None \
            else ac_singular
        # jumps: dict key -> (single-component RectifiableSet, density g(pts, nus))
        self.jumps = dict(jumps or {})
        if cantor is not None and domain.dim != 1:
            raise UnsupportedStructureError("Cantor parts are 1D only")
        self.cantor = cantor
        self.cantor_density = cantor_density

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(domain):
        return RadonMeasure(domain)

    @staticmethod
    def from_jump(domain, rect_set: RectifiableSet, g):
        """g H^{N-1} on rect_set, one jump component per piece; the density
        g maps pts (n, dim) and unit normals nus (n, dim) to (n,)."""
        return RadonMeasure(domain, jumps={k: (comp, g) for k, comp in rect_set.components()})

    # -- algebra ------------------------------------------------------
    def __add__(self, other):
        if other == 0:
            return self
        if self.domain.bounds != other.domain.bounds:
            raise UnsupportedStructureError("cannot add measures on different domains")
        jumps = dict(self.jumps)
        for k, (comp, g) in other.jumps.items():
            if k in jumps:
                c0, g0 = jumps[k]
                if self._normals_conflict(c0, comp):
                    raise UnsupportedStructureError(f"orientation conflict on component {k}")
                jumps[k] = (c0, _wrap_sum(g0, g))
            else:
                jumps[k] = (comp, g)
        cantor, cdens = self.cantor, self.cantor_density
        if other.cantor is not None:
            if cantor is None:
                cantor, cdens = other.cantor, other.cantor_density
            else:
                require_same_spec([cantor, other.cantor])
                both = ((cantor.mass, cdens), (other.cantor.mass, other.cantor_density))
                cantor = CantorPart(cantor.spec, 1.0)
                cdens = lambda x, both=both: sum(m * (1.0 if h is None else np.asarray(h(x)))
                                                 for m, h in both)

        # a non-empty operand's set object as it is: the a.c. quadratures take
        # their 1-D breaks and 2-D cells from it
        sing = self.ac_singular
        if sing.is_empty:
            sing = other.ac_singular
        elif not other.ac_singular.is_empty and other.ac_singular is not sing:
            sing = merge_sets(sing, other.ac_singular)
        return RadonMeasure(self.domain, ac=_wrap_sum(self.ac, other.ac), ac_singular=sing,
                            jumps=jumps, cantor=cantor, cantor_density=cdens)

    __radd__ = __add__

    @staticmethod
    def _normals_conflict(c0, c1):
        return any(a.side != b.side for a, b in zip(c0.pieces, c1.pieces))

    def __mul__(self, c):
        c = float(c)
        jumps = {k: (comp, _wrap_scale(g, c)) for k, (comp, g) in self.jumps.items()}
        cantor = None if self.cantor is None else self.cantor.scaled(c)
        return RadonMeasure(self.domain, ac=_wrap_scale(self.ac, c), ac_singular=self.ac_singular,
                            jumps=jumps, cantor=cantor, cantor_density=self.cantor_density)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (other * -1.0)

    # -- evaluation ---------------------------------------------------
    def apply(self, phis, tol_abs=1e-10, tol_rel=1e-10):
        """Actions <mu, phi> on a sequence of compactly supported test
        functions, as an array; on one TestFunction, a float."""
        one = isinstance(phis, TestFunction)
        phis = [phis] if one else list(phis)
        for phi in phis:
            if phi.dim != self.domain.dim:
                raise DomainMismatchError("test function dimension mismatch")
            if not self.domain.contains_box(phi.support_box):
                raise DomainMismatchError("test function support exceeds the measure's domain")
        out = self._actions([p.value for p in phis], [p.support_box for p in phis],
                            [p.breaks for p in phis], tol_abs, tol_rel)
        return float(out[0]) if one else out

    def apply_function(self, fn, tol_abs=1e-10, tol_rel=1e-10, extra_breaks=()):
        """Action on a bounded Borel field given over the whole domain."""
        return float(self._actions([fn], [self.domain.bounds], [(extra_breaks,)],
                                   tol_abs, tol_rel)[0])

    def _actions(self, values, boxes, breaks, tol_abs, tol_rel):
        """Actions on the fields values[r] over boxes[r], one row r each;
        breaks[r]: per-axis abscissae where the a.c. integral is split.  Each
        part is one quadrature over every row (_integrate_ac, _add_jumps,
        _integrate_cantor)."""
        total = np.zeros(len(values))
        if self.ac is not None:
            total += self._integrate_ac(
                lambda pts, rows: by_runs(values, rows, pts) * np.asarray(self.ac(pts), dtype=float),
                boxes, breaks, tol_abs, tol_rel)
        if self.jumps:
            self._add_jumps(total, lambda p: [p.ranges_in_box(box) for box in boxes],
                            lambda g, pts, r: by_runs(values, r, pts) * g, tol_abs, tol_rel)
        if self.cantor is not None:
            total += self._integrate_cantor(lambda x, r, d: by_runs(values, r, x[:, None]) * d,
                                            [(-np.inf, np.inf)] * len(values), tol_rel)
        return total

    def _add_jumps(self, total, ranges, density, tol_abs, tol_rel):
        """Add to total[r], component by component, the integral over region r
        of density(g, pts, rows) dH^{N-1}, g the component's density at pts
        and rows the region of each point, in one integrate_on whose rows are
        (component, region, range); ranges(piece) lists its ranges per region."""
        n = len(total)
        # one piece per component (from_jump)
        pieces, dens = zip(*((comp.pieces[0], g) for comp, g in self.jumps.values()))
        at = [(k, r, rng) for k, p in enumerate(pieces) for r, rngs in enumerate(ranges(p))
              for rng in rngs]
        k_of, r_of = np.array([a[:2] for a in at], dtype=int).reshape(-1, 2).T
        vals = integrate_on(lambda pts, nus, rows: density(by_runs(dens, k_of[rows], pts, nus),
                                                           pts, r_of[rows]),
                            pieces, k_of, [a[2] for a in at], tol_abs, tol_rel)
        for comp_total in np.bincount(k_of * n + r_of, vals, len(pieces) * n).reshape(-1, n):
            total += comp_total

    def _integrate_ac(self, f, boxes, breaks, tol_abs, tol_rel):
        """Per-row integrals of f(pts, rows) over boxes[r], split at the a.c.
        singular set and at breaks[r] (per axis): one integrate_1d or
        integrate_cells over every row."""
        if self.domain.dim == 1:
            lo, hi = np.array([box[0] for box in boxes], dtype=float).T
            return integrate_1d(lambda x, rows: f(np.asarray(x, dtype=float)[:, None], rows), lo, hi,
                                [list(br[0]) + list(self.ac_singular.points_1d) for br in breaks],
                                tol_abs, tol_rel)[0]
        cells = [box_cells(box, [self.ac_singular], *br) for box, br in zip(boxes, breaks)]
        return integrate_cells(f, cells, tol_abs=tol_abs, tol_rel=tol_rel)[0]

    def _integrate_cantor(self, f, windows, tol_rel):
        """Per-row integrals of f(x, rows, d), d the Cantor density at x, over
        windows[r] = (lo, hi), cut at ac_singular (test functions are C^2 at
        their breaks), in one integrate_ifs to tol_rel / 100, at least 1e-10:
        the Cantor files' oracle rows lean on the midpoint sums this replaced
        running 60-130 times below tol_rel / 10, and at tol_rel / 10 the worst
        read 4.5 times its old error (the estimate is sharp on Hoelder u)."""
        h = self.cantor_density
        g = lambda x, rows: f(x, rows, 1.0 if h is None else np.asarray(h(x), dtype=float))
        tol = max(tol_rel / 100.0, 1e-10)
        return self.cantor.mass * integrate_ifs(g, self.cantor.spec, windows,
                                                self.ac_singular.points_1d, tol, tol)[0]

    # -- summaries ----------------------------------------------------
    def total_variation(self, boxes=None, tol_abs=1e-10, tol_rel=1e-9, breaks=()):
        """TV = \\int |ac| + \\int |g| dH^{N-1} + Cantor part variation on each
        box of a list, as an array; on one box or the domain (None), a float.

        One quadrature per part over every box, as in apply.  The a.c. part of a
        nonnegative measure is integrated as it is; any other is cut where it
        changes sign (integrate_abs).
        breaks: abscissae where the a.c. density may lose smoothness beyond its
        declared singular set (a Cantor construction's endpoints)."""
        one = boxes is None or np.ndim(boxes) == 2
        boxes = [self.domain.bounds if boxes is None else boxes] if one else list(boxes)
        total = np.zeros(len(boxes))
        if self.ac is not None and self.nonnegative:
            total += self._integrate_ac(lambda pts, rows: self.ac(pts), boxes,
                                        [(breaks,)] * len(boxes), tol_abs, tol_rel)
        elif self.ac is not None:
            if self.domain.dim == 1:
                cells = []
                for (lo, hi), in boxes:
                    edges = [lo, *sorted(p for p in self.ac_singular.points_1d if lo < p < hi), hi]
                    cells.append(list(zip(edges[:-1], edges[1:])))
            else:
                cells = [box_cells(box, [self.ac_singular], extra_x_breaks=breaks)
                         for box in boxes]
            total += integrate_abs(self.ac, cells, tol_abs, tol_rel, breaks)
        if self.jumps:
            self._add_jumps(total, lambda p: [p.ranges_in_box(box) for box in boxes],
                            lambda g, pts, r: np.abs(g), tol_abs, tol_rel)
        if self.cantor is not None:
            total += np.abs(self._integrate_cantor(lambda x, rows, d: np.abs(d),
                                                   [box[0] for box in boxes], tol_rel))
        return float(total[0]) if one else total


DOMINATION_GRID = 65   # grid points per axis where the a.c. densities are compared
DOMINATION_DEPTH = 6   # the Cantor densities are compared at the 2^6 depth-6 cylinder midpoints


def check_dominated(mu: RadonMeasure, sigma: RadonMeasure):
    """Raise AbsoluteContinuityError unless mu << sigma, part by part, on samples.

    Wherever |d sigma| < 1e-13 the density of mu must stay within 1e-9: the
    a.c. densities on a grid of the domain, each jump density on its
    component's samples, and the Cantor densities at cylinder midpoints.  A
    part that sigma lacks has density 0.
    """
    if mu.domain.bounds != sigma.domain.bounds:
        raise UnsupportedStructureError("measures live on different domains")

    def require(num, den, what):
        if np.any((np.abs(den) < 1e-13) & (np.abs(num) > 1e-9)):
            raise AbsoluteContinuityError(f"{what} of mu not dominated by sigma")

    if mu.ac is not None:
        grid = mu.domain.grid(DOMINATION_GRID)
        den = 0.0 if sigma.ac is None else np.asarray(sigma.ac(grid), dtype=float)
        require(np.asarray(mu.ac(grid), dtype=float), den, "a.c. part")

    for key, (comp, g) in mu.jumps.items():
        pts, nus = comp.samples()
        den = 0.0 if key not in sigma.jumps else \
            np.asarray(sigma.jumps[key][1](pts, nus), dtype=float)
        require(np.asarray(g(pts, nus), dtype=float), den, "jump density")

    if mu.cantor is not None:
        require_same_spec([mu.cantor, sigma.cantor])
        x = construction_endpoints(mu.cantor.spec, DOMINATION_DEPTH).reshape(-1, 2).mean(axis=1)

        def density(m):
            if m.cantor is None:
                return 0.0
            h = m.cantor_density
            return m.cantor.mass * (1.0 if h is None else np.asarray(h(x), dtype=float))

        require(density(mu), density(sigma), "Cantor density")

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

from .cantor import CantorPart, integrate_ifs, require_same_spec
from .errors import AbsoluteContinuityError, DomainMismatchError, UnsupportedStructureError
from .geometry import Domain, as_points
from .quadrature import integrate_1d, integrate_cells, integrate_polar
from .rectifiable import RectifiableSet, box_cells


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
    """Compactly supported C^1-or-better scalar field with analytic gradient."""

    def __init__(self, value, gradient, support_box, dim, label=""):
        self.value = value
        self.gradient = gradient
        self.support_box = tuple(tuple(map(float, b)) for b in support_box)
        self.dim = dim
        self.label = label

    def __repr__(self):
        return f"TestFunction({self.label or self.support_box})"

    def value_1d(self, x):
        """Evaluate on bare 1D abscissae (used by Cantor refinement)."""
        return self.value(np.asarray(x, dtype=float)[:, None])

    def check_gradient(self, n=9, tol=1e-6, h=1e-5):
        """Verify gradient against central differences on a sample grid."""
        axes = [np.linspace(lo, hi, n + 2)[1:-1] for lo, hi in self.support_box]
        if self.dim == 1:
            pts = axes[0][:, None]
        else:
            xx, yy = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
        grad = np.atleast_2d(self.gradient(pts))
        scale = max(np.max(np.abs(self.value(pts))), 1.0)
        for ax in range(self.dim):
            shift = np.zeros(self.dim)
            shift[ax] = h
            fd = (self.value(pts + shift) - self.value(pts - shift)) / (2 * h)
            if np.max(np.abs(fd - grad[:, ax])) > tol * scale / h * h:
                return False
        return True


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

    return TestFunction(value, gradient, support_box, dim, label=label)


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

    return TestFunction(value, gradient, support_box, dim, label=label)


class RadonMeasure:
    """domain + optional (ac density, jump components, Cantor part)."""

    def __init__(self, domain: Domain, ac=None, ac_singular=None, jumps=None,
                 cantor: CantorPart | None = None, cantor_density=None):
        self.domain = domain
        self.ac = ac
        self.ac_singular = ac_singular
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
    def lebesgue(domain, density=None, singular=None):
        f = density if density is not None else (lambda pts: np.ones(len(pts)))
        return RadonMeasure(domain, ac=f, ac_singular=singular)

    @staticmethod
    def from_jump(domain, rect_set: RectifiableSet, g):
        jumps = {}
        if rect_set.dim == 1:
            for x, nu in zip(rect_set.points_1d, rect_set.normals_1d):
                comp = RectifiableSet(1, [x], [nu])
                jumps[comp.component_keys()[0]] = (comp, g)
        else:
            for c in rect_set.curves:
                comp = RectifiableSet(2, curves=[c])
                jumps[c.key()] = (comp, g)
        return RadonMeasure(domain, jumps=jumps)

    @staticmethod
    def point_mass(domain, x, mass, nu=1.0):
        rect = RectifiableSet(1, [x], [nu])
        return RadonMeasure.from_jump(domain, rect, lambda pts, nus: np.full(len(pts), mass))

    @staticmethod
    def from_cantor(domain, part: CantorPart, density=None):
        return RadonMeasure(domain, cantor=part, cantor_density=density)

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
                m1, h1 = cantor.mass, cdens
                m2, h2 = other.cantor.mass, other.cantor_density
                cantor = CantorPart(cantor.spec, 1.0)

                def cdens(x, m1=m1, h1=h1, m2=m2, h2=h2):
                    a = m1 * (np.ones(len(np.atleast_1d(x))) if h1 is None else np.asarray(h1(x)))
                    b = m2 * (np.ones(len(np.atleast_1d(x))) if h2 is None else np.asarray(h2(x)))
                    return a + b

        sing = self.ac_singular
        if sing is None:
            sing = other.ac_singular
        elif other.ac_singular is not None and other.ac_singular is not sing:
            from .rectifiable import merge_sets
            sing = merge_sets(sing, other.ac_singular)
        return RadonMeasure(self.domain, ac=_wrap_sum(self.ac, other.ac), ac_singular=sing,
                            jumps=jumps, cantor=cantor, cantor_density=cdens)

    __radd__ = __add__

    @staticmethod
    def _normals_conflict(c0, c1):
        if c0.dim == 1:
            return not np.allclose(c0.normals_1d, c1.normals_1d)
        return any(a.side != b.side for a, b in zip(c0.curves, c1.curves))

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
    def _cantor_weighted(self, phi_1d, rtol=1e-9):
        if self.cantor is None:
            return 0.0
        rtol = max(rtol, 1e-12)
        h = self.cantor_density
        if h is None:
            return self.cantor.apply(phi_1d, rtol=rtol)
        return self.cantor.apply(lambda x: np.asarray(phi_1d(x)) * np.asarray(h(x)),
                                 rtol=rtol)

    def apply(self, phi: TestFunction, tol_abs=1e-10, tol_rel=1e-10):
        """Action <mu, phi> for a compactly supported test function."""
        if phi.dim != self.domain.dim:
            raise DomainMismatchError("test function dimension mismatch")
        if not self.domain.contains_box(phi.support_box):
            raise DomainMismatchError("test function support exceeds the measure's domain")
        return self._apply_field(phi.value, phi.support_box, tol_abs, tol_rel,
                                 phi_1d=phi.value_1d)

    def apply_function(self, fn, tol_abs=1e-10, tol_rel=1e-10, extra_breaks=(),
                       extra_curves=None):
        """Action on a bounded Borel field given over the whole domain."""
        fn1d = (lambda x: np.asarray(fn(np.asarray(x, dtype=float)[:, None])))
        return self._apply_field(fn, self.domain.bounds, tol_abs, tol_rel,
                                 phi_1d=fn1d, extra_breaks=extra_breaks,
                                 extra_curves=extra_curves)

    def _apply_field(self, value, box, tol_abs, tol_rel, phi_1d, extra_breaks=(),
                     extra_curves=None):
        total = 0.0
        if self.ac is not None:
            f = lambda pts: np.asarray(value(pts), dtype=float) * np.asarray(self.ac(pts), dtype=float)
            total += self._integrate_ac(f, box, tol_abs, tol_rel, extra_breaks, extra_curves)
        for comp, g in self.jumps.values():
            v, _ = comp.integrate(
                lambda pts, nus: np.asarray(value(pts), dtype=float) * np.asarray(g(pts, nus), dtype=float),
                tol_abs=tol_abs, tol_rel=tol_rel, box=box)
            total += v
        total += self._cantor_weighted(phi_1d, rtol=max(tol_rel / 10.0, 1e-10))
        return total

    def _integrate_ac(self, f, box, tol_abs, tol_rel, extra_breaks=(), extra_curves=None):
        if self.domain.dim == 1:
            (lo, hi), = box
            breaks = list(extra_breaks)
            if self.ac_singular is not None:
                breaks += list(self.ac_singular.points_1d)
            def f1(x):
                return f(np.asarray(x, dtype=float)[:, None])
            v, _ = integrate_1d(f1, lo, hi, breakpoints=breaks, tol_abs=tol_abs, tol_rel=tol_rel)
            return v
        sets = [self.ac_singular]
        if extra_curves is not None:
            sets.append(extra_curves)
        cells = box_cells(box, sets, extra_x_breaks=extra_breaks)
        v, _ = integrate_cells(f, cells, tol_abs=tol_abs, tol_rel=tol_rel)
        return v

    # -- summaries ----------------------------------------------------
    def total_variation(self, box=None, tol_abs=1e-10, tol_rel=1e-9):
        """TV = \\int |ac| + \\int |g| dH^{N-1} + Cantor part variation."""
        box = box if box is not None else self.domain.bounds
        total = 0.0
        if self.ac is not None:
            total += self._integrate_ac(lambda pts: np.abs(self.ac(pts)), box,
                                        tol_abs, tol_rel)
        for comp, g in self.jumps.values():
            if comp.dim == 1:
                (lo, hi), = box
                for x, nu in zip(comp.points_1d, comp.normals_1d):
                    if lo - 1e-13 <= x <= hi + 1e-13:
                        total += abs(float(g(np.array([[x]]), np.array([nu]))[0]))
            else:
                v, _ = comp.integrate(lambda pts, nus: np.abs(g(pts, nus)), box=box,
                                      tol_abs=tol_abs, tol_rel=tol_rel)
                total += v
        if self.cantor is not None:
            (lo, hi), = box
            a, b = self.cantor.spec.a, self.cantor.spec.b
            if lo <= a and b <= hi:
                total += self.cantor.total_variation(weight=self.cantor_density)
            else:
                # clip: integrate the indicator times |density|
                h = self.cantor_density

                def clipped(x):
                    inside = (x >= lo) & (x <= hi)
                    w = np.ones_like(x) if h is None else np.abs(np.asarray(h(x)))
                    return np.where(inside, w, 0.0)

                total += abs(self.cantor.mass) * integrate_ifs(clipped, self.cantor.spec,
                                                               rtol=1e-7)
        return total

    def ball_mass(self, center, r, tol=1e-10):
        """mu(B_r(center)), used by singular-set density diagnostics."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        total = 0.0
        if self.domain.dim == 1:
            c = center[0]
            lo, hi = max(c - r, self.domain.bounds[0][0]), min(c + r, self.domain.bounds[0][1])
            if self.ac is not None and hi > lo:
                breaks = [] if self.ac_singular is None else list(self.ac_singular.points_1d)
                v, _ = integrate_1d(lambda x: self.ac(x[:, None]), lo, hi,
                                    breakpoints=breaks, tol_abs=tol)
                total += v
            for comp, g in self.jumps.values():
                for x, nu in zip(comp.points_1d, comp.normals_1d):
                    if abs(x - c) <= r:
                        total += float(g(np.array([[x]]), np.array([nu]))[0])
            if self.cantor is not None:
                if self.cantor_density is not None:
                    raise UnsupportedStructureError("ball mass with weighted Cantor part")
                total += self.cantor.interval_mass(lo, hi)
            return total
        if self.ac is not None:
            tbreaks = []
            if self.ac_singular is not None:
                for piece in self.ac_singular.curves:
                    for sa, sb in piece.ranges_in_ball(center, r):
                        for s in (sa, sb, 0.5 * (sa + sb)):
                            p = piece.points(np.array([s]))[0]
                            tbreaks.append(np.arctan2(p[1] - center[1], p[0] - center[0]))
            v, _ = integrate_polar(lambda pts: self.ac(pts), center, r,
                                   theta_breaks=tbreaks, tol_abs=tol)
            total += v
        for comp, g in self.jumps.values():
            total += comp.mass_in_ball(g, center, r)
        return total


def measure_apply(mu: RadonMeasure, phi: TestFunction, tol_abs=1e-10, tol_rel=1e-10):
    return mu.apply(phi, tol_abs=tol_abs, tol_rel=tol_rel)


def total_variation(mu: RadonMeasure, box=None):
    return mu.total_variation(box=box)


def lub_measures(measures):
    """Least upper bound of |mu_i|: pointwise max of densities per part.

    All inputs must share the domain; jump parts must live on one shared
    rectifiable set (missing components count as density zero); Cantor
    parts must share one construction spec.
    """
    measures = list(measures)
    if not measures:
        raise ValueError("lub of empty family")
    dom = measures[0].domain
    for m in measures[1:]:
        if m.domain.bounds != dom.bounds:
            raise UnsupportedStructureError("lub requires a common domain")

    acs = [m.ac for m in measures if m.ac is not None]
    ac = None
    if acs:
        def ac(pts, fs=tuple(acs)):
            vals = np.stack([np.abs(np.asarray(f(pts), dtype=float)) for f in fs])
            return vals.max(axis=0)

    singulars = [m.ac_singular for m in measures if m.ac_singular is not None]
    sing = singulars[0] if singulars else None
    if len(singulars) > 1:
        from .rectifiable import merge_sets
        sing = merge_sets(*singulars)

    key_sets = {frozenset(m.jumps) for m in measures if m.jumps}
    if len(key_sets) > 1:
        raise UnsupportedStructureError(
            "jump parts are not supported on one shared rectifiable set")
    all_keys = {}
    for m in measures:
        for k, (comp, _) in m.jumps.items():
            if k in all_keys and RadonMeasure._normals_conflict(all_keys[k], comp):
                raise UnsupportedStructureError("jump parts are not structurally aligned")
            all_keys.setdefault(k, comp)
    jumps = {}
    for k, comp in all_keys.items():
        gs = tuple(m.jumps[k][1] for m in measures if k in m.jumps)

        def g(pts, nus, gs=gs):
            vals = np.stack([np.abs(np.asarray(gg(pts, nus), dtype=float)) for gg in gs])
            return vals.max(axis=0)

        jumps[k] = (comp, g)

    cparts = [m.cantor for m in measures if m.cantor is not None]
    cantor = None
    cdens = None
    if cparts:
        spec = require_same_spec(cparts)
        weighted = [(m.cantor.mass, m.cantor_density) for m in measures if m.cantor is not None]
        if all(h is None for _, h in weighted):
            cantor = CantorPart(spec, max(abs(mm) for mm, _ in weighted))
        else:
            cantor = CantorPart(spec, 1.0)

            def cdens(x, weighted=tuple(weighted)):
                rows = []
                for mm, h in weighted:
                    base = np.ones(len(np.atleast_1d(x))) if h is None else np.asarray(h(x))
                    rows.append(np.abs(mm * base))
                return np.stack(rows).max(axis=0)

    return RadonMeasure(dom, ac=ac, ac_singular=sing, jumps=jumps,
                        cantor=cantor, cantor_density=cdens)


class SigmaDensity:
    """Per-part density of a measure against a reference measure."""

    def __init__(self, ac_ratio=None, jump_ratio=None, cantor_ratio=None):
        self.ac_ratio = ac_ratio
        self.jump_ratio = jump_ratio
        self.cantor_ratio = cantor_ratio


def radon_nikodym(mu: RadonMeasure, sigma: RadonMeasure, sample_n=65):
    """Per-part density d(mu)/d(sigma); raises when mu is not dominated."""
    if mu.domain.bounds != sigma.domain.bounds:
        raise UnsupportedStructureError("measures live on different domains")
    eps = 1e-13

    ac_ratio = None
    if mu.ac is not None:
        if sigma.ac is None:
            _assert_vanishes(mu.ac, mu.domain, sample_n, "a.c.")
        else:
            grid = mu.domain.grid(sample_n)
            fm = np.asarray(mu.ac(grid), dtype=float)
            fs = np.asarray(sigma.ac(grid), dtype=float)
            bad = (np.abs(fs) < eps) & (np.abs(fm) > 1e-9)
            if np.any(bad):
                raise AbsoluteContinuityError("a.c. part of mu not dominated by sigma")

            def ac_ratio(pts):
                num = np.asarray(mu.ac(pts), dtype=float)
                den = np.asarray(sigma.ac(pts), dtype=float)
                return np.where(np.abs(den) < eps, 0.0, num / np.where(den == 0, 1.0, den))

    jump_ratio = None
    if mu.jumps:
        missing = [k for k in mu.jumps if k not in sigma.jumps]
        if missing:
            raise AbsoluteContinuityError(f"jump components {missing} not carried by sigma")

        def jump_ratio(pts, nus, key):
            num = np.asarray(mu.jumps[key][1](pts, nus), dtype=float)
            den = np.asarray(sigma.jumps[key][1](pts, nus), dtype=float)
            if np.any((np.abs(den) < eps) & (np.abs(num) > 1e-9)):
                raise AbsoluteContinuityError("jump density of mu not dominated by sigma")
            return np.where(np.abs(den) < eps, 0.0, num / np.where(den == 0, 1.0, den))

    cantor_ratio = None
    if mu.cantor is not None:
        if sigma.cantor is None:
            raise AbsoluteContinuityError("Cantor part of mu not carried by sigma")
        require_same_spec([mu.cantor, sigma.cantor])
        if abs(sigma.cantor.mass) < eps:
            raise AbsoluteContinuityError("sigma Cantor part vanishes")

        def cantor_ratio(x):
            num = mu.cantor.mass * (np.ones(len(np.atleast_1d(x))) if mu.cantor_density is None
                                    else np.asarray(mu.cantor_density(x), dtype=float))
            den = sigma.cantor.mass * (np.ones(len(np.atleast_1d(x))) if sigma.cantor_density is None
                                       else np.asarray(sigma.cantor_density(x), dtype=float))
            if np.any((np.abs(den) < eps) & (np.abs(num) > 1e-9)):
                raise AbsoluteContinuityError("Cantor density of mu not dominated by sigma")
            return num / np.where(np.abs(den) < eps, 1.0, den)

    return SigmaDensity(ac_ratio, jump_ratio, cantor_ratio)


def _assert_vanishes(f, domain, n, what):
    grid = domain.grid(n)
    if np.max(np.abs(np.asarray(f(grid), dtype=float))) > 1e-9:
        raise AbsoluteContinuityError(f"{what} part of mu not dominated by sigma")


def apply_density_against(sigma: RadonMeasure, dens: SigmaDensity, phi: TestFunction,
                          tol_abs=1e-10):
    """\\int phi * (d mu / d sigma) d sigma -- cross-check helper."""
    total = 0.0
    if dens.ac_ratio is not None and sigma.ac is not None:
        weighted = RadonMeasure(sigma.domain,
                                ac=lambda pts: np.asarray(sigma.ac(pts)) * dens.ac_ratio(pts),
                                ac_singular=sigma.ac_singular)
        total += weighted.apply(phi, tol_abs=tol_abs)
    if dens.jump_ratio is not None:
        for k, (comp, g) in sigma.jumps.items():
            v, _ = comp.integrate(
                lambda pts, nus, k=k, g=g: phi.value(pts) * np.asarray(g(pts, nus))
                * dens.jump_ratio(pts, nus, k))
            total += v
    if dens.cantor_ratio is not None and sigma.cantor is not None:
        h = sigma.cantor_density
        def wf(x):
            base = np.ones(len(np.atleast_1d(x))) if h is None else np.asarray(h(x))
            return phi.value_1d(x) * base * dens.cantor_ratio(x)
        total += sigma.cantor.apply(wf)
    return total

"""Parameter-dependent bounded divergence-measure fields b(x, t).

A ParamField packages the analytic data of a one-parameter family of fields
sharing a single oriented singular set and a single dominating measure:
pointwise values, one-sided traces on the singular set, the absolutely
continuous divergence, and an optional Cantor divergence (1D).  The library
validates the structural assumptions on sample grids; it never tries to
discover singular sets from black-box data.
"""

from __future__ import annotations

import numpy as np

from .cantor import CantorPart
from .errors import BoundaryError, NotOnJumpSetError
from .geometry import Domain, as_points
from .measure import RadonMeasure
from .quadrature import integrate_1d, integrate_polar, integrate_to_upper
from .rectifiable import RectifiableSet


class ParamField:
    def __init__(self, domain: Domain, eval_fn, sup_bound, singular_set=None,
                 b_plus=None, b_minus=None, diva=None, divc_part: CantorPart | None = None,
                 divc_multiplier=None, lipschitz_div=None, t_kinks=(), t_range=(-4.0, 4.0),
                 sigma_envelope: RadonMeasure | None = None, t_degree=None):
        self.domain = domain
        self._eval = eval_fn                       # (pts, t) -> (n, dim)
        self.M = float(sup_bound)
        self.singular_set = singular_set if singular_set is not None \
            else RectifiableSet.empty(domain.dim)
        self.b_plus = b_plus
        self.b_minus = b_minus
        self._diva = diva                          # (pts, t) -> (n,)
        self.divc_part = divc_part
        self.divc_multiplier = divc_multiplier     # scalar fn of t
        self.lipschitz_div = lipschitz_div
        self.t_kinks = tuple(float(k) for k in t_kinks)
        self.t_range = (float(t_range[0]), float(t_range[1]))
        self.sigma_envelope = sigma_envelope
        # degree in t of b, its traces, diva and the Cantor multiplier when
        # all are polynomials in t (None: unknown); the primitive B uses it
        self.t_degree = t_degree
        if divc_part is not None and domain.dim != 1:
            raise ValueError("Cantor divergences are 1D only")

    # -- pointwise data -------------------------------------------------
    def eval(self, pts, t):
        pts = as_points(pts, self.domain.dim)
        return np.asarray(self._eval(pts, t), dtype=float).reshape(len(pts), self.domain.dim)

    def diva(self, pts, t):
        if self._diva is None:
            return np.zeros(len(as_points(pts, self.domain.dim)))
        return np.asarray(self._diva(as_points(pts, self.domain.dim), t), dtype=float)

    def trace(self, pts, t, side):
        """One-sided trace b+ (side > 0) or b- on the singular set, (n, dim)."""
        tr = self.b_plus if side > 0 else self.b_minus
        return np.asarray(tr(pts, t), dtype=float).reshape(len(pts), self.domain.dim)

    def beta(self, pts, nus, t, side):
        """Normal trace <b+-, nu> for unit normals nus (n, dim)."""
        return np.einsum("ij,ij->i", self.trace(pts, t, side), nus)

    def jump_density(self, t):
        """(beta+ - beta-)(x, t) as a surface density on the singular set."""

        def g(pts, nus):
            return self.beta(pts, nus, t, +1) - self.beta(pts, nus, t, -1)

        return g

    # -- measures ---------------------------------------------------------
    def _measure(self, ac, jump, cantor_weight):
        """A measure with this field's parts: the a.c. density ac (pts) -> (n,)
        where diva is declared, the jump density jump (pts, nus) -> (n,) on the
        singular set, and the Cantor part weighted by cantor_weight()."""
        return RadonMeasure(
            self.domain, ac=None if self._diva is None else ac, ac_singular=self.singular_set,
            jumps=RadonMeasure.from_jump(self.domain, self.singular_set, jump).jumps,
            cantor=None if self.divc_part is None else self.divc_part.scaled(cantor_weight()))

    def div_measure(self, t):
        """Div_x b(., t) as a RadonMeasure (decomposition formula)."""
        m = self.divc_multiplier
        return self._measure(lambda pts: self.diva(pts, t), self.jump_density(t),
                             lambda: 1.0 if m is None else float(m(t)))

    def sigma(self, t_samples):
        """Dominating measure: the part-by-part max of |Div_x b(., t)| over the
        sample set and the author-declared analytic envelope when present.
        Every member lives on this field's singular set and Cantor base."""
        t_samples = list(t_samples)
        if not t_samples:
            raise ValueError("sigma requires at least one parameter sample")
        lo, hi = self.t_range
        for t in t_samples:
            if not (lo - 1e-12 <= t <= hi + 1e-12):
                raise ValueError(f"t sample {t} outside declared range {self.t_range}")
        family = [self.div_measure(t) for t in t_samples]
        if self.sigma_envelope is not None:
            family.append(self.sigma_envelope)

        def peak(fs):
            return lambda *a: np.max([np.abs(np.asarray(f(*a), dtype=float)) for f in fs], axis=0)

        acs = [m.ac for m in family if m.ac is not None]
        jumps = {key: (comp, peak([m.jumps[key][1] for m in family if key in m.jumps]))
                 for key, comp in self.singular_set.components()}
        cparts = [m.cantor for m in family if m.cantor is not None]
        cantor = CantorPart(cparts[0].spec, max(abs(c.mass) for c in cparts)) if cparts else None
        return RadonMeasure(self.domain, ac=peak(acs) if acs else None,
                            ac_singular=self.singular_set,
                            jumps=jumps, cantor=cantor, nonnegative=True)

    def flipped(self):
        """Reversed orientation of the singular set, traces swapped."""
        return ParamField(self.domain, self._eval, self.M,
                          singular_set=self.singular_set.flipped(),
                          b_plus=self.b_minus, b_minus=self.b_plus, diva=self._diva,
                          divc_part=self.divc_part, divc_multiplier=self.divc_multiplier,
                          lipschitz_div=self.lipschitz_div, t_kinks=self.t_kinks,
                          t_range=self.t_range, sigma_envelope=self.sigma_envelope,
                          t_degree=self.t_degree)

    # -- validation ---------------------------------------------------------
    def validate(self):
        """Sampled checks of the structural assumptions; returns report rows."""
        rows = []
        ts = np.linspace(*self.t_range, 9)
        pts = self.domain.grid(21)
        off = ~self.singular_set.contains(pts, 1e-9)
        sup = max(np.max(np.abs(self.eval(pts[off], t))) for t in ts)
        rows.append(("bounded_by_M", bool(sup <= self.M + 1e-9), sup))
        if self.lipschitz_div is not None and self._diva is not None:
            g1 = np.asarray(self.lipschitz_div(pts[off]), dtype=float)
            d = [self.diva(pts[off], t) for t in ts]
            worst = max([0.0] + [float(np.max(np.abs(d[i] - d[j]) - g1 * abs(t - w)))
                                 for i, t in enumerate(ts) for j, w in enumerate(ts) if t != w])
            rows.append(("lipschitz_diva", bool(worst <= 1e-9), worst))
        return rows


class PrimitiveField:
    """B(x, t) = \\int_0^t b(x, w) dw with traces integrated the same way."""

    def __init__(self, field: ParamField):
        self.field = field
        self.domain = field.domain

    def _integral(self, pts, t, extractor):
        """\\int_0^t extractor(pts, w) dw, all axes in one quadrature."""
        pts = as_points(pts, self.domain.dim)
        t_arr = np.full(len(pts), t, dtype=float) if np.isscalar(t) else np.asarray(t, dtype=float)
        out = integrate_to_upper(lambda w: extractor(pts, w), t_arr, kinks=self.field.t_kinks,
                                 degree=self.field.t_degree)
        # zero upper limits never call the integrand and come back as (n,)
        return out if out.ndim == 2 else np.zeros((len(pts), self.domain.dim))

    def value(self, pts, t):
        return self._integral(pts, t, self.field.eval)

    def plus(self, pts, t):
        return self._integral(pts, t, lambda p, w: self.field.trace(p, w, +1))

    def minus(self, pts, t):
        return self._integral(pts, t, lambda p, w: self.field.trace(p, w, -1))

    def diva(self, pts, t):
        pts = as_points(pts, self.domain.dim)
        t_arr = np.full(len(pts), t, dtype=float) if np.isscalar(t) else np.asarray(t, dtype=float)
        return integrate_to_upper(lambda w: self.field.diva(pts, w), t_arr,
                                  kinks=self.field.t_kinks, degree=self.field.t_degree)

    def divc_weight(self, t):
        """\\int_0^t multiplier(w) dw (density of Div^c_x B against the fixed
        Cantor part), vectorized over t."""
        if self.field.divc_part is None:
            return np.zeros_like(np.asarray(t, dtype=float))
        m = self.field.divc_multiplier or (lambda w: np.ones_like(np.asarray(w)))
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        return integrate_to_upper(lambda w: np.asarray(m(w)) * np.ones_like(t_arr), t_arr,
                                  kinks=self.field.t_kinks, degree=self.field.t_degree)

    def normal_jump(self, t):
        """<B+ - B-, nu>(x, t): surface density of Div_x B on the singular set."""

        def g(pts, nus):
            return np.einsum("ij,ij->i", self.plus(pts, t) - self.minus(pts, t), nus)

        return g

    def div_measure(self, t):
        """Div_x B(., t): a.c. + Cantor + jump parts (all t-integrated)."""
        return self.field._measure(lambda pts: self.diva(pts, t), self.normal_jump(t),
                                   lambda: float(self.divc_weight(t)[0]))


def mollified_normal_trace(field: ParamField, t, x, eps):
    """<(rho_eps * b(., t))(x), nu(x)> with the C^1 bump (1 - |z/eps|^2)^2."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts, nu = moll_point(field.domain, field.singular_set, x, eps)
    if field.domain.dim == 1:
        c = pts[0, 0]
        breaks = [c - p for p in field.singular_set.points_1d if abs(p - c) < eps]

        def f(z):
            vals = field.eval((c - z)[:, None], t)[:, 0]
            rho = (15.0 / (16.0 * eps)) * (1.0 - (z / eps) ** 2) ** 2
            return vals * rho

        v, _ = integrate_1d(f, -eps, eps, breakpoints=breaks, tol_abs=1e-12)
        return float(v * nu[0])
    tbreaks = []
    for piece in field.singular_set.pieces:
        for sa, sb in piece.ranges_in_ball(pts[0], eps):
            for s in np.linspace(sa, sb, 5):
                p = piece.points(np.array([s]))[0]
                if np.linalg.norm(p - pts[0]) > 1e-12:
                    tbreaks.append(np.arctan2(p[1] - pts[0][1], p[0] - pts[0][0]))

    def f(q):
        r2 = np.sum((q - pts[0]) ** 2, axis=1) / (eps * eps)
        rho = (3.0 / (np.pi * eps * eps)) * (1.0 - r2) ** 2
        return (field.eval(q, t) @ nu) * rho

    v, _ = integrate_polar(f, pts[0], eps, theta_breaks=tbreaks, tol_abs=1e-12)
    return float(v)


def moll_point(domain: Domain, singular_set: RectifiableSet, x, eps):
    """(x as (1, dim) points, the unit normal (dim,) at the sample nearest
    x): a jump point within 1e-11 in 1-D, one of 129 samples per curve
    within 1e-9 in 2-D, else NotOnJumpSetError; BoundaryError where the
    ball of radius eps about x leaves the domain."""
    pts = as_points(x, domain.dim)
    sp, sn = singular_set.samples(129)
    d = np.linalg.norm(sp - pts[0], axis=1)
    if not len(d) or d.min() > (1e-11 if singular_set.dim == 1 else 1e-9):
        raise NotOnJumpSetError(f"{pts[0]} is not a sample of the singular set")
    if any(c - eps < lo or c + eps > hi for c, (lo, hi) in zip(pts[0], domain.bounds)):
        raise BoundaryError(f"the mollification ball of radius {eps:g} exits the domain")
    return pts, sn[int(np.argmin(d))]


def singular_set_check(field: ParamField, sigma: RadonMeasure, radii=(1e-1, 1e-2, 1e-3)):
    """Report whether sigma has positive (N-1)-density exactly on the
    declared singular set (sampled; report-only).  sigma is measured on the
    box of half-width r about each point, within the domain, all in one
    total_variation call: B_r in Q_r in B_{sqrt(N) r}, so cubes see a
    positive density where balls do."""
    on = field.singular_set.samples(5)[0]
    probes = field.domain.grid(5)
    off = probes[~field.singular_set.contains(probes, 0.05)][:6]
    pts = np.vstack([on, off])
    boxes = [tuple((max(c - r, lo), min(c + r, hi)) for c, (lo, hi) in zip(p, field.domain.bounds))
             for p in pts for r in radii]
    mass = sigma.total_variation(boxes, 1e-10, 1e-10).reshape(len(pts), len(radii))
    rows = []
    for i, (p, m) in enumerate(zip(pts, mass)):
        rs = (m / np.asarray(radii) ** (field.domain.dim - 1)).tolist()
        rows.append({"point": p.tolist(), "on_declared_set": i < len(on), "ratios": rs,
                     "positive_density": rs[-1] > 1e-2 and rs[-1] >= 0.3 * rs[0]})
    ok = all(r["positive_density"] == r["on_declared_set"] for r in rows)
    return {"consistent": ok, "points": rows}

"""Term-by-term evaluation of the divergence chain rule for v(x) = B(x, u(x)).

The breakdown carries the five named measures

    Div v = [Div_x^a B](x, u(x)) L^N
          + [d Div_x^c B / d sigma](x, u~(x)) (Cantor-in-x part)
          + <b(x, u~(x)), grad u> L^N
          + <b(x, u~(x)), D^c u>
          + <B^+(x, u+) - B^-(x, u-), nu> H^{N-1} |_(N u J_u)

summed exactly by construction; the weak-form oracle is the external judge.
The jump density is stored in the two-sided-trace form; the symmetric-mean
regrouping (B* differences plus the half-sum of Div_x B at the two trace
levels) is exposed as a derived view and must agree with it.
"""

from __future__ import annotations

import numpy as np

from .bvfunc import BVFunction
from .cantor import CantorPart
from .errors import GeometryError, OrientationError, WrongRegularityError
from .field import ParamField, PrimitiveField, primitive
from .geometry import Domain
from .measure import RadonMeasure, TestFunction, plateau_bump
from .quadrature import integrate_1d, integrate_to_upper
from .rectifiable import RectifiableSet, merge_sets


class ChainRuleBreakdown:
    """The named terms; `total` is their exact sum."""

    def __init__(self, term_diva, term_divc, term_ac_u, term_cantor_u, term_jump,
                 report=None, jump_symmetric=None):
        self.term_diva = term_diva
        self.term_divc = term_divc
        self.term_ac_u = term_ac_u
        self.term_cantor_u = term_cantor_u
        self.term_jump = term_jump
        self.total = term_diva + term_divc + term_ac_u + term_cantor_u + term_jump
        self.report = report or {}
        self._jump_symmetric = jump_symmetric

    def terms(self):
        return {
            "diva": self.term_diva,
            "divc": self.term_divc,
            "ac_u": self.term_ac_u,
            "cantor_u": self.term_cantor_u,
            "jump": self.term_jump,
        }

    def jump_symmetric_view(self):
        """Jump measure regrouped per the symmetric-mean convention."""
        if self._jump_symmetric is None:
            return self.term_jump
        return self._jump_symmetric

    def tv_bound_holds(self, sigma: RadonMeasure, M, u: BVFunction, box=None, slack=1e-9,
                       tv_rel=1e-9):
        """|Div v|(box) <= sigma(box) + M |Du|(box) + slack."""
        lhs = self.total.total_variation(box=box, tol_abs=tv_rel, tol_rel=tv_rel)
        rhs = sigma.total_variation(box=box, tol_abs=tv_rel, tol_rel=tv_rel) \
            + M * u.variation_measure().total_variation(box=box, tol_abs=tv_rel,
                                                        tol_rel=tv_rel)
        return lhs <= rhs + slack, lhs, rhs


def _merged_singular(field: ParamField, u: BVFunction):
    try:
        return merge_sets(field.singular_set, u.jump_set)
    except GeometryError as exc:
        raise OrientationError(str(exc)) from exc


def _component_sets(merged: RectifiableSet):
    if merged.dim == 1:
        return [(("p", round(float(x), 12)), RectifiableSet(1, [x], [nu]))
                for x, nu in zip(merged.points_1d, merged.normals_1d)]
    return [(c.key(), RectifiableSet(2, curves=[c])) for c in merged.curves]


def _u_sides(u: BVFunction, pts, in_j):
    """(u+, u-) on a component of J_u, the precise representative twice off it."""
    if in_j:
        return (np.asarray(u.u_plus(pts), dtype=float),
                np.asarray(u.u_minus(pts), dtype=float))
    val = u.precise_rep(pts)
    return val, val


def _x_and_cantor_terms(field: ParamField, u: BVFunction, P: PrimitiveField, merged):
    """Terms 1, 2 and 4 of the chain rule, shared by chain_dm and chain_bv_scalar."""
    dom = field.domain
    # 1. absolutely continuous x-part: Div_x^a B(x, u(x))
    term_diva = RadonMeasure(
        dom, ac=lambda pts: P.diva(pts, u.eval(pts)),
        ac_singular=None if merged.is_empty else merged) \
        if field._diva is not None else RadonMeasure.zero(dom)

    # 2. Cantor-in-x part against the field's fixed Cantor component
    if field.divc_part is not None:
        term_divc = RadonMeasure(
            dom, cantor=CantorPart(field.divc_part.spec, field.divc_part.mass),
            cantor_density=lambda x: P.divc_weight(u.eval(np.asarray(x)[:, None])))
    else:
        term_divc = RadonMeasure.zero(dom)

    # 4. <b(x, u~), dD^c u>
    if u.cantor is not None and u.cantor_amplitude != 0.0:
        term_cantor_u = RadonMeasure(
            dom, cantor=CantorPart(u.cantor.spec, u.cantor_amplitude),
            cantor_density=lambda x: field.eval(
                np.asarray(x)[:, None], u.eval(np.asarray(x)[:, None]))[:, 0])
    else:
        term_cantor_u = RadonMeasure.zero(dom)
    return term_diva, term_divc, term_cantor_u


def chain_dm(field: ParamField, u: BVFunction, prim: PrimitiveField | None = None):
    """Full chain rule for a parameter field against a BV function."""
    if u.domain.bounds != field.domain.bounds:
        raise GeometryError("field and function live on different domains")
    P = prim if prim is not None else primitive(field)
    dom = field.domain
    merged = _merged_singular(field, u)
    n_keys = set(field.singular_set.component_keys())
    j_keys = set(u.jump_set.component_keys())
    report = {"degenerate_jump_samples": 0, "components": []}
    term_diva, term_divc, term_cantor_u = _x_and_cantor_terms(field, u, P, merged)

    # 3. <b(x, u~), grad u> dx
    def ac_u(pts):
        vals = field.eval(pts, u.eval(pts))
        return np.einsum("ij,ij->i", vals, u.grad(pts))

    term_ac_u = RadonMeasure(dom, ac=ac_u,
                             ac_singular=None if merged.is_empty else merged)

    # 5. jump part on N u J_u
    term_jump = RadonMeasure.zero(dom)
    symmetric_jump = RadonMeasure.zero(dom)
    for key, comp in _component_sets(merged):
        in_n = key in n_keys
        in_j = key in j_keys
        report["components"].append({"key": str(key), "in_N": in_n, "in_Ju": in_j})

        def b_at(pts, tvals, side, in_n=in_n):
            if in_n:
                return P.plus(pts, tvals) if side > 0 else P.minus(pts, tvals)
            return P.value(pts, tvals)

        def density(pts, nus, in_j=in_j, b_at=b_at):
            up, um = _u_sides(u, pts, in_j)
            bp = b_at(pts, up, +1)
            bm = b_at(pts, um, -1)
            if dom.dim == 1:
                return (bp[:, 0] - bm[:, 0]) * np.asarray(nus, dtype=float).reshape(len(pts))
            return np.einsum("ij,ij->i", bp - bm, np.atleast_2d(nus))

        def density_symmetric(pts, nus, in_j=in_j, b_at=b_at):
            # B*(u+) - B*(u-) plus half-sum of the Div_x B jump at both levels
            up, um = _u_sides(u, pts, in_j)
            bsp = 0.5 * (b_at(pts, up, +1) + b_at(pts, up, -1))
            bsm = 0.5 * (b_at(pts, um, +1) + b_at(pts, um, -1))
            jump_up = b_at(pts, up, +1) - b_at(pts, up, -1)
            jump_um = b_at(pts, um, +1) - b_at(pts, um, -1)
            tot = (bsp - bsm) + 0.5 * (jump_up + jump_um)
            if dom.dim == 1:
                return tot[:, 0] * np.asarray(nus, dtype=float).reshape(len(pts))
            return np.einsum("ij,ij->i", tot, np.atleast_2d(nus))

        if in_j:
            sp, _ = comp.samples(9)
            up = np.asarray(u.u_plus(sp), dtype=float)
            um = np.asarray(u.u_minus(sp), dtype=float)
            report["degenerate_jump_samples"] += int(np.sum(np.abs(up - um) < 1e-14))

        term_jump = term_jump + RadonMeasure.from_jump(dom, comp, density)
        symmetric_jump = symmetric_jump + RadonMeasure.from_jump(dom, comp, density_symmetric)

    return ChainRuleBreakdown(term_diva, term_divc, term_ac_u, term_cantor_u,
                              term_jump, report=report, jump_symmetric=symmetric_jump)


def chain_w11(field: ParamField, u: BVFunction, prim: PrimitiveField | None = None):
    """Chain rule for continuous (W^{1,1}) u: jump term lives on N only."""
    if not u.jump_set.is_empty:
        raise WrongRegularityError("u has a declared jump set; use chain_dm")
    if u.cantor is not None and u.cantor_amplitude != 0.0:
        raise WrongRegularityError("u has a Cantor component; use chain_dm")
    return chain_dm(field, u, prim=prim)


_IFS_NODE_CACHE = {}


def _cached_ifs_nodes(spec, depth=20):
    key = (spec.a, spec.b, spec.ratio, spec.offsets, spec.weights, depth)
    if key not in _IFS_NODE_CACHE:
        from .cantor import support_nodes
        _IFS_NODE_CACHE[key] = support_nodes(spec, depth)
    return _IFS_NODE_CACHE[key]




def layer_cake_action(field: ParamField, u: BVFunction, phi: TestFunction,
                      t_tol=1e-9, quad_tol=1e-10):
    """x-part of <Div v, phi> via the layer-cake (t-integral) route:

        \\int sgn(t) [Div_x b(., t)](phi chi*_{Omega_{u,t}}) dt

    Independent re-evaluation of term_diva + term_divc + term_jump for
    continuous u; a quadrature-consistency cross-check, not an oracle.
    """
    rng = u.sup_bound + 1e-9
    cantor_prefix = None
    if field.divc_part is not None:
        # Cantor x-part on cached cylinder midpoints, sorted by the value of
        # u so the level-set action becomes a prefix-sum lookup per t; the
        # node error is the weight of the boundary cylinders, O(2^-depth).
        xs, ws = _cached_ifs_nodes(field.divc_part.spec, depth=20)
        phi_w = phi.value(xs[:, None]) * ws
        uvals = u.eval(xs[:, None])
        order = np.argsort(uvals, kind="stable")
        cantor_prefix = (uvals[order],
                         np.concatenate([[0.0], np.cumsum(phi_w[order])]))
    mult = field.divc_multiplier

    def cantor_action(t):
        us, prefix = cantor_prefix
        if t > 0:
            val = prefix[-1] - prefix[np.searchsorted(us, t, side="right")]
        else:
            val = prefix[np.searchsorted(us, t, side="left")]
        m = float(np.atleast_1d(mult(t))[0]) if mult is not None else 1.0
        return field.divc_part.mass * m * float(val)

    def integrand(ts):
        out = np.empty(len(ts))
        for i, t in enumerate(ts):
            if t == 0.0:
                out[i] = 0.0
                continue
            region = u.level_region(float(t))
            mu = field.div_measure(float(t))
            breaks = region.extra_x_breaks()

            def weighted(pts):
                return phi.value(pts) * region.chi_star(pts)

            cantor_val = 0.0
            if mu.cantor is not None:
                cantor_val = cantor_action(float(t))
                mu = RadonMeasure(mu.domain, ac=mu.ac, ac_singular=mu.ac_singular,
                                  jumps=mu.jumps)
            out[i] = np.sign(t) * (mu.apply_function(
                weighted, tol_abs=quad_tol, tol_rel=max(quad_tol, 1e-9),
                extra_breaks=breaks) + cantor_val)
        return out

    val, _ = integrate_1d(integrand, -rng, rng, breakpoints=[0.0],
                          tol_abs=t_tol, tol_rel=t_tol, max_segments=8192)
    return val


def chain_bv_scalar(field: ParamField, u: BVFunction, prim: PrimitiveField | None = None):
    """Scalar 1D chain rule grouped as in the BV-dependence formula.

    Terms: the t-integrated x-derivative measure evaluated through the
    level sets (split into its a.c./Cantor/interface pieces), the precise
    representative times grad u and D^c u, and the trace-interval integral
    on J_u.  The assembled total must agree with the chain_dm total.
    """
    if field.domain.dim != 1:
        raise WrongRegularityError("scalar-b formula is stated for N = 1")
    P = prim if prim is not None else primitive(field)
    dom = field.domain
    merged = _merged_singular(field, u)
    n_keys = set(field.singular_set.component_keys())
    j_keys = set(u.jump_set.component_keys())
    term_diva, term_divc, term_cantor_u = _x_and_cantor_terms(field, u, P, merged)

    def b_star(pts, tvals, on_n):
        if on_n:
            return 0.5 * (np.asarray(field.b_plus(pts, tvals), dtype=float).reshape(len(pts))
                          + np.asarray(field.b_minus(pts, tvals), dtype=float).reshape(len(pts)))
        return field.eval(pts, tvals)[:, 0]

    term_ac_u = RadonMeasure(
        dom, ac=lambda pts: field.eval(pts, u.eval(pts))[:, 0] * u.grad(pts)[:, 0],
        ac_singular=None if merged.is_empty else merged)

    term_jump = RadonMeasure.zero(dom)
    for key, comp in _component_sets(merged):
        in_n = key in n_keys
        in_j = key in j_keys

        def density(pts, nus, in_n=in_n, in_j=in_j):
            nus = np.asarray(nus, dtype=float).reshape(len(pts))
            up, um = _u_sides(u, pts, in_j)
            out = np.zeros(len(pts))
            if in_n:
                # level-set piece: half-sum of the interface jump of Div_x B
                jp = P.plus(pts, up)[:, 0] - P.minus(pts, up)[:, 0]
                jm = P.plus(pts, um)[:, 0] - P.minus(pts, um)[:, 0]
                out = out + 0.5 * (jp + jm) * nus
            if in_j:
                # trace-interval integral of the precise representative
                def bs(w, pts=pts, in_n=in_n):
                    return b_star(pts, w, in_n)
                upper = integrate_to_upper(bs, up, kinks=field.t_kinks)
                lower = integrate_to_upper(bs, um, kinks=field.t_kinks)
                out = out + (upper - lower) * nus
            return out

        term_jump = term_jump + RadonMeasure.from_jump(dom, comp, density)

    return ChainRuleBreakdown(term_diva, term_divc, term_ac_u, term_cantor_u, term_jump)


class ScalarFunction:
    """C^1 composition function with declared derivative and sup |h'|."""

    def __init__(self, h, dh, sup_dh):
        self.h = h
        self.dh = dh
        self.sup_dh = float(sup_dh)


def product_rule(field: ParamField, h: ScalarFunction, u: BVFunction):
    """Divergence of A(x) h(u(x)) for a parameter-independent field A."""
    dom = field.domain
    merged = _merged_singular(field, u)
    n_keys = set(field.singular_set.component_keys())
    j_keys = set(u.jump_set.component_keys())

    def A(pts):
        return field.eval(pts, 0.0)

    term_diva = RadonMeasure(
        dom, ac=lambda pts: field.diva(pts, 0.0) * np.asarray(h.h(u.eval(pts)), dtype=float),
        ac_singular=None if merged.is_empty else merged) \
        if field._diva is not None else RadonMeasure.zero(dom)

    if field.divc_part is not None:
        term_divc = RadonMeasure(
            dom, cantor=CantorPart(field.divc_part.spec, field.divc_part.mass),
            cantor_density=lambda x: np.asarray(
                h.h(u.eval(np.asarray(x)[:, None])), dtype=float))
    else:
        term_divc = RadonMeasure.zero(dom)

    term_ac_u = RadonMeasure(
        dom,
        ac=lambda pts: np.asarray(h.dh(u.eval(pts)), dtype=float)
        * np.einsum("ij,ij->i", A(pts), u.grad(pts)),
        ac_singular=None if merged.is_empty else merged)

    if u.cantor is not None and u.cantor_amplitude != 0.0:
        term_cantor_u = RadonMeasure(
            dom, cantor=CantorPart(u.cantor.spec, u.cantor_amplitude),
            cantor_density=lambda x: np.asarray(
                h.dh(u.eval(np.asarray(x)[:, None])), dtype=float)
            * A(np.asarray(x)[:, None])[:, 0])
    else:
        term_cantor_u = RadonMeasure.zero(dom)

    term_jump = RadonMeasure.zero(dom)
    for key, comp in _component_sets(merged):
        in_n = key in n_keys
        in_j = key in j_keys

        def density(pts, nus, in_n=in_n, in_j=in_j):
            up, um = _u_sides(u, pts, in_j)
            if in_n:
                ap = np.atleast_2d(np.asarray(field.b_plus(pts, 0.0), dtype=float)) \
                    .reshape(len(pts), dom.dim)
                am = np.atleast_2d(np.asarray(field.b_minus(pts, 0.0), dtype=float)) \
                    .reshape(len(pts), dom.dim)
            else:
                ap = am = A(pts)
            hp = np.asarray(h.h(up), dtype=float)
            hm = np.asarray(h.h(um), dtype=float)
            if dom.dim == 1:
                nus = np.asarray(nus, dtype=float).reshape(len(pts))
                return hp * ap[:, 0] * nus - hm * am[:, 0] * nus
            nus = np.atleast_2d(nus)
            return (hp * np.einsum("ij,ij->i", ap, nus)
                    - hm * np.einsum("ij,ij->i", am, nus))

        term_jump = term_jump + RadonMeasure.from_jump(dom, comp, density)

    return ChainRuleBreakdown(term_diva, term_divc, term_ac_u, term_cantor_u, term_jump)


def u_star_div(field: ParamField, u: BVFunction):
    """The measure u* Div A (precise representative against each part)."""
    dom = field.domain
    merged = _merged_singular(field, u)

    ac = None
    if field._diva is not None:
        ac = lambda pts: field.diva(pts, 0.0) * u.eval(pts)
    cantor = None
    cdens = None
    if field.divc_part is not None:
        cantor = CantorPart(field.divc_part.spec, field.divc_part.mass)
        cdens = lambda x: u.eval(np.asarray(x)[:, None])
    jumps = None
    if not field.singular_set.is_empty:
        def g(pts, nus):
            ustar = u.precise_rep(pts)
            return ustar * field.jump_density(0.0)(pts, nus)
        jumps = RadonMeasure.from_jump(dom, field.singular_set, g).jumps
    return RadonMeasure(dom, ac=ac, ac_singular=None if merged.is_empty else merged,
                        jumps=jumps, cantor=cantor, cantor_density=cdens)


def anzellotti_pairing(field: ParamField, u: BVFunction):
    """(A, Du) := Div(u A) - u* Div A, assembled from the product rule."""
    identity = ScalarFunction(lambda t: t, lambda t: np.ones_like(np.asarray(t, dtype=float)),
                              1.0)
    div_uA = product_rule(field, identity, u).total
    return div_uA - u_star_div(field, u)


def _transversal(field: ParamField, bounds, kind):
    """Reject boundaries that touch the singular set tangentially."""
    if field.domain.dim == 1:
        (lo, hi), = bounds
        for x in field.singular_set.points_1d:
            if abs(x - lo) < 1e-9 or abs(x - hi) < 1e-9:
                raise GeometryError("boundary point sits on the singular set")
        return
    for piece in field.singular_set.curves:
        s = np.linspace(piece.s0, piece.s1, 257)
        p = piece.points(s)
        if kind == "box":
            (xlo, xhi), (ylo, yhi) = bounds
            for edge_val, axis in ((xlo, 0), (xhi, 0), (ylo, 1), (yhi, 1)):
                near = np.abs(p[:, axis] - edge_val) < 1e-9
                inside_other = ((p[:, 1 - axis] >= bounds[1 - axis][0] - 1e-9)
                                & (p[:, 1 - axis] <= bounds[1 - axis][1] + 1e-9))
                if np.sum(near & inside_other) > 2:
                    raise GeometryError("singular curve runs along the boundary")
        else:
            center, radius = bounds
            d = np.linalg.norm(p - np.asarray(center), axis=1)
            near = np.abs(d - radius) < 1e-6
            if near.any():
                i = int(np.flatnonzero(near)[0])
                j = min(i + 1, len(s) - 1)
                tang = p[j] - p[max(i - 1, 0)]
                tang = tang / (np.linalg.norm(tang) + 1e-300)
                radial = (p[i] - np.asarray(center)) / radius
                if abs(tang @ radial) > 0.999:
                    raise GeometryError("singular curve tangent to the boundary circle")


def _mollified_indicator(bounds, kind, w, dim):
    if kind == "box":
        support = [(lo - w, hi + w) for lo, hi in bounds]
        plateau = [(lo + w, hi - w) for lo, hi in bounds]
        return plateau_bump(support, plateau, label=f"chi_w{w}")
    center, radius = bounds
    from .measure import TestFunction as TF, _smoothstep, _smoothstep_d

    def value(pts):
        d = np.linalg.norm(pts - np.asarray(center), axis=1)
        return _smoothstep((radius + w - d) / (2 * w))

    def gradient(pts):
        diff = pts - np.asarray(center)
        d = np.linalg.norm(diff, axis=1)
        ds = _smoothstep_d((radius + w - d) / (2 * w)) / (2 * w)
        safe = np.where(d == 0, 1.0, d)
        return -ds[:, None] * diff / safe[:, None]

    box = [(c - radius - w, c + radius + w) for c in center]
    return TF(value, gradient, box, dim, label=f"chi_disc_w{w}")


def green_check(field: ParamField, omega, w0=0.04, quad_tol=None):
    """Gauss-Green closure on a sub-box or disc strictly inside the domain.

    lhs: Div A of the region via mollified indicators at three widths,
    Richardson-extrapolated to width 0.  rhs: boundary flux of A.
    omega: ("box", bounds) or ("disc", (center, radius)).
    """
    kind, bounds = omega
    if quad_tol is None:
        quad_tol = 1e-11 if field.domain.dim == 1 else 1e-8
    _transversal(field, bounds, kind)
    div_a = field.div_measure(0.0)

    vals = []
    widths = [w0, w0 / 2, w0 / 4]
    for w in widths:
        chi_w = _mollified_indicator(bounds, kind, w, field.domain.dim)
        if not field.domain.contains_box(chi_w.support_box):
            raise GeometryError("mollified indicator support exits the domain")
        vals.append(div_a.apply(chi_w, tol_abs=quad_tol, tol_rel=1e-10))
    # quadratic Richardson through (w, value)
    A = np.vander(np.asarray(widths), 3, increasing=True)
    coef = np.linalg.solve(A, np.asarray(vals))
    lhs = float(coef[0])

    if field.domain.dim == 1:
        (lo, hi), = bounds
        a_lo = field.eval(np.array([[lo]]), 0.0)[0, 0]
        a_hi = field.eval(np.array([[hi]]), 0.0)[0, 0]
        rhs = a_hi - a_lo
    elif kind == "box":
        (xlo, xhi), (ylo, yhi) = bounds
        rhs = 0.0
        for edge_fn, rng, nrm in (
            (lambda s: np.column_stack([np.full_like(s, xhi), s]), (ylo, yhi), np.array([1.0, 0.0])),
            (lambda s: np.column_stack([np.full_like(s, xlo), s]), (ylo, yhi), np.array([-1.0, 0.0])),
            (lambda s: np.column_stack([s, np.full_like(s, yhi)]), (xlo, xhi), np.array([0.0, 1.0])),
            (lambda s: np.column_stack([s, np.full_like(s, ylo)]), (xlo, xhi), np.array([0.0, -1.0])),
        ):
            v, _ = integrate_1d(
                lambda s, edge_fn=edge_fn, nrm=nrm: field.eval(edge_fn(s), 0.0) @ nrm,
                rng[0], rng[1],
                breakpoints=[b for b in field.singular_set.x_breaks() + field.singular_set.y_breaks()],
                tol_abs=quad_tol)
            rhs += v
    else:
        center, radius = bounds
        tb = []
        for piece in field.singular_set.curves:
            for sa, sb in piece.ranges_in_ball(center, radius * (1 + 1e-9)):
                for s in (sa, sb):
                    p = piece.points(np.array([s]))[0]
                    tb.append(np.arctan2(p[1] - center[1], p[0] - center[0]))

        def flux(th):
            pts = np.column_stack([center[0] + radius * np.cos(th),
                                   center[1] + radius * np.sin(th)])
            nrm = np.column_stack([np.cos(th), np.sin(th)])
            return np.einsum("ij,ij->i", field.eval(pts, 0.0), nrm) * radius

        rhs, _ = integrate_1d(flux, 0.0, 2 * np.pi, breakpoints=tb, tol_abs=quad_tol)
    return lhs, float(rhs)

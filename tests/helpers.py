"""Checks and constructors that only the tests use: interval and box
domains, finite-difference checks of declared derivatives, trace lookups,
Lebesgue, point-mass and Cantor measures, the cylinder-midpoint sums that
the Gauss rule of the Cantor measure is held to, a point-sampled grid, two
identities of the conservation-law harness evaluated from their definitions,
a trajectory's final state, its interface traces and their W integral, the
masked piece-selection loops that BVFunction.eval and grad are held to,
the indicator bisection that a curve's box and disc ranges are held to,
the np.abs route that the split |f| quadrature is held to, the
per-test-function measure action and weak form that the suite-wide ones
are held to, the per-box total variation that the batched one is held to,
and the hand-built product-rule terms that product_rule's are held to."""

import numpy as np

from divchain.cantor import RATIO, construction_endpoints, ifs_cdf
from divchain.chainrule import ChainRuleBreakdown, _jump_measure, _merged_singular, _u_sides
from divchain.conslaw import FluxSpec, GridState, accumulated_interface_W, chi
from divchain.errors import DomainMismatchError, GeometryError, NotOnJumpSetError
from divchain.geometry import Domain, as_points
from divchain.measure import RadonMeasure, TestFunction
from divchain.quadrature import CurvedCell, integrate_1d, integrate_abs, integrate_cells
from divchain.rectifiable import JumpPoint, RectifiableSet, Segment, box_cells, integrate_on


def interval_domain(lo, hi):
    """The 1-D domain [lo, hi]."""
    return Domain(1, ((float(lo), float(hi)),))


def box_domain(x_bounds, y_bounds):
    """The 2-D domain x_bounds x y_bounds."""
    return Domain(2, (tuple(map(float, x_bounds)), tuple(map(float, y_bounds))))


def check_gradient(phi: TestFunction, n=9, tol=1e-6, h=1e-5):
    """Verify phi's declared gradient against central differences on a sample grid."""
    axes = [np.linspace(lo, hi, n + 2)[1:-1] for lo, hi in phi.support_box]
    if phi.dim == 1:
        pts = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    grad = np.atleast_2d(phi.gradient(pts))
    scale = max(np.max(np.abs(phi.value(pts))), 1.0)
    for ax in range(phi.dim):
        shift = np.zeros(phi.dim)
        shift[ax] = h
        fd = (phi.value(pts + shift) - phi.value(pts - shift)) / (2 * h)
        if np.max(np.abs(fd - grad[:, ax])) > tol * scale:
            return False
    return True


def check_derivative(P, n=7, h=1e-5, tol=1e-6):
    """dB/dt = b for a PrimitiveField P, by central differences on a sample grid."""
    field = P.field
    pts = P.domain.grid(n)
    ok = True
    for t in np.linspace(*field.t_range, 5):
        fd = (P.value(pts, t + h) - P.value(pts, t - h)) / (2 * h)
        ok &= bool(np.max(np.abs(fd - field.eval(pts, t))) <= tol * max(1.0, field.M))
    zero = np.max(np.abs(P.value(pts, 0.0)))
    return ok and zero == 0.0


def traces_at(u, x):
    """(u+, u-) of a BVFunction at a jump-set sample; errors off the jump set."""
    pts = as_points(x, u.domain.dim)
    if u.jump_set.is_empty or not bool(u.on_jump(pts)[0]):
        raise NotOnJumpSetError(f"{x} is not on the jump set")
    return (float(u.u_plus(pts)[0]), float(u.u_minus(pts)[0]))


def eval_reference(u, pts):
    """BVFunction.eval as a masked loop: each point takes the first piece
    that covers it with a value that is not NaN."""
    pts = as_points(pts, u.domain.dim)
    out = np.full(len(pts), np.nan)
    for p in u.pieces:
        mask = np.asarray(p.indicator(pts), dtype=bool) & np.isnan(out)
        if mask.any():
            out[mask] = np.asarray(p.value(pts[mask]), dtype=float)
    if np.any(np.isnan(out)):
        raise GeometryError("pieces do not cover the evaluation points")
    return out + u._cantor_summand(pts)


def grad_reference(u, pts):
    """BVFunction.grad as the same masked loop, keyed on the first column."""
    pts = as_points(pts, u.domain.dim)
    out = np.full((len(pts), u.domain.dim), np.nan)
    for p in u.pieces:
        mask = np.asarray(p.indicator(pts), dtype=bool) & np.isnan(out[:, 0])
        if mask.any():
            out[mask] = np.atleast_2d(np.asarray(p.grad(pts[mask]), dtype=float))
    if np.any(np.isnan(out)):
        raise GeometryError("pieces do not cover the evaluation points")
    return out


def scan_ranges_reference(piece, inside, n_scan=257):
    """Parameter sub-ranges of a curve piece where the boolean inside(s)
    holds: each change of inside on an n_scan grid is bisected 60 times on
    the indicator, and a piece between the cuts is kept if its midpoint is
    inside."""
    s = np.linspace(piece.s0, piece.s1, n_scan)
    mask = inside(s)
    if not mask.any():
        return []
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
    return [(a, b) for a, b in zip(cuts[:-1], cuts[1:])
            if b > a and inside(np.array([0.5 * (a + b)]))[0]]


def abs_integral_reference(f, cells, tol_abs, tol_rel, breaks=()):
    """quadrature.integrate_abs by the route it replaced: one adaptive rule on
    np.abs(f) that splits only at the cells' edges and the breaks (1-D: (a, b)
    cells, one integrate_1d) or runs over the CurvedCells (2-D: integrate_cells),
    and so bisects toward every sign change of f.  Returns (value, points of
    f evaluated)."""
    count = [0]

    def g(pts):
        count[0] += len(pts)
        return np.abs(np.asarray(f(pts), dtype=float))

    if isinstance(cells[0], CurvedCell):
        v, _ = integrate_cells(g, cells, tol_abs=tol_abs, tol_rel=tol_rel)
    else:
        edges = [a for a, _ in cells] + [cells[-1][1]]
        v, _ = integrate_1d(lambda x: g(x[:, None]), edges[0], edges[-1],
                            breakpoints=[*edges, *breaks], tol_abs=tol_abs, tol_rel=tol_rel)
    return v, count[0]


def lebesgue(domain, density=None, singular=None):
    """density(x) dx (1 when None), its integrals split at the set singular."""
    f = density if density is not None else (lambda pts: np.ones(len(pts)))
    return RadonMeasure(domain, ac=f, ac_singular=singular)


def point_mass(domain, x, mass, nu=1.0):
    """mass at the 1-D point x, oriented by the normal nu."""
    rect = RectifiableSet(1, [x], [nu])
    return RadonMeasure.from_jump(domain, rect, lambda pts, nus: np.full(len(pts), mass))


def support_nodes(spec, depth):
    """Cylinder midpoints and their probability weights at a given depth."""
    a, width = spec.a, spec.b - spec.a
    xs = np.array([a + width / 2.0])
    for _ in range(depth):
        xs = np.concatenate([a + RATIO * (xs - a), a + 2.0 / 3.0 * width + RATIO * (xs - a)])
    return xs, np.full(xs.size, 0.5 ** depth)


def midpoint_ifs(phi, spec, rtol=1e-9, lo=-np.inf, hi=np.inf, depth=4, max_depth=22):
    """\\int_[lo, hi] phi d(mu) against the Cantor probability measure by the
    cylinder-midpoint sums that integrate_ifs replaced: from the given
    depth, two depths at a time, until two sums agree within rtol max(|val|, 1);
    a cylinder that lo or hi cuts weighs its mass inside [lo, hi], from
    ifs_cdf.  Depth 22 holds 2^22 nodes, about 100 MB of arrays."""
    prev = None
    while depth <= max_depth:
        xs, ws = support_nodes(spec, depth)
        if not (lo <= spec.a and spec.b <= hi):
            left, right = construction_endpoints(spec, depth).reshape(-1, 2).T
            cut = ((left < lo) & (lo < right)) | ((left < hi) & (hi < right))
            ws = np.where((lo <= left) & (right <= hi), ws, 0.0)
            ws[cut] = np.diff(ifs_cdf(spec, np.clip([left[cut], right[cut]], lo, hi)), axis=0)[0]
        val = float(np.dot(np.asarray(phi(xs), dtype=float), ws))
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1.0):
            return val
        prev = val
        depth += 2
    raise AssertionError("midpoint sums did not stabilize")


def cantor_measure(domain, part, density=None):
    """The measure with only a Cantor part, optionally weighted by density(x)."""
    return RadonMeasure(domain, cantor=part, cantor_density=density)


def point_sampled(domain, ncells, fn):
    """The grid of fn's values at the ncells cell centres, not its averages."""
    lo, hi = domain.bounds[0]
    edges = np.linspace(lo, hi, ncells + 1)
    return GridState(domain, np.asarray(fn(0.5 * (edges[:-1] + edges[1:])), dtype=float))


def cavalieri_lhs(u1, u2):
    """\\int |chi(v, u1) - chi(v, u2)| dv evaluated from the definition."""
    lo, hi = min(u1, u2), max(u1, u2)
    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    return (hi - lo) * abs(chi(mid, u1) - chi(mid, u2))


def div_xv_zero_residual(flux: FluxSpec, psi: TestFunction, quad_tol=1e-10):
    """Weak divergence of a(x, v) = (b(x, v), -Div_x B(x, v)) in (x, v).

    <a, grad psi> should vanish for every compactly supported psi; returns
    the computed value (target 0).  The coefficient k must be piecewise
    constant, so that Div_x B lives on the jumps of k alone.
    """
    jumps = list(flux.k.jump_set.points_1d)
    (xa, xb), (va, vb) = psi.support_box
    curves = RectifiableSet(2, pieces=[Segment(0, c, va, vb, +1)
                                       for c in jumps if xa < c < xb])
    cells = box_cells(psi.support_box, [curves])

    def f(pts):
        g = psi.gradient(pts)
        kv = flux.k.eval(pts[:, :1])
        b = flux.speed_at(kv, pts[:, 1])
        return g[:, 0] * b

    first, _ = integrate_cells(f, cells, tol_abs=quad_tol)

    second = 0.0
    for c in jumps:
        if not (xa < c < xb):
            continue
        kp = float(flux.k.u_plus(np.array([[c]]))[0])
        km_ = float(flux.k.u_minus(np.array([[c]]))[0])

        def g(v, kp=kp, km_=km_):
            pts = np.column_stack([np.full_like(v, c), v])
            dpsi_dv = psi.gradient(pts)[:, 1]
            return dpsi_dv * (flux.flux_at(kp, v) - flux.flux_at(km_, v))

        val, _ = integrate_1d(g, va, vb, tol_abs=quad_tol)
        second -= val
    return first + second


def final_state(traj):
    """The last state of a full trajectory, as a GridState."""
    return GridState(traj.domain, traj.states[-1], cfl=traj.cfl)


def interface_traces(traj, face):
    """(u-, u+) time series next to an interior face of a full trajectory."""
    return traj.states[:, face - 1], traj.states[:, face]


def trajectory_W(traj_a, traj_b):
    """accumulated_interface_W on the traces of two full trajectories."""
    faces = traj_a.interfaces()
    traces = np.stack([t.states[:, [c for i in faces for c in (i - 1, i)]]
                       for t in (traj_a, traj_b)])
    dt = traj_a.times[1] - traj_a.times[0] if len(traj_a.times) > 1 else 0.0
    return accumulated_interface_W(traj_a.flux, traj_a.kvals[faces], traces, dt)


def l1_distance(a, b):
    """The L1 distance of two GridStates on one mesh, as the Kato rows take it."""
    return float(np.sum(np.abs(a.averages - b.averages)) * a.dx)


def weak_divergence_reference(v_eval, phi, domain, singular, tol_abs=1e-10, tol_rel=1e-9):
    """oracle.weak_divergence one test function at a time, as it was before
    it took the whole suite: its own integrate_1d or integrate_cells call."""
    if not domain.contains_box(phi.support_box):
        raise DomainMismatchError("test function support exceeds the domain")
    if domain.dim == 1:
        def f(x):
            pts = x[:, None]
            return -np.atleast_2d(phi.gradient(pts))[:, 0] * np.atleast_2d(v_eval(pts))[:, 0]

        (lo, hi), = phi.support_box
        return integrate_1d(f, lo, hi, list(phi.breaks[0]) + list(singular.points_1d),
                            tol_abs=tol_abs, tol_rel=tol_rel)
    cells = box_cells(phi.support_box, [singular], extra_x_breaks=phi.breaks[0],
                      extra_y_breaks=phi.breaks[1])
    return integrate_cells(lambda pts: -np.einsum("ij,ij->i", phi.gradient(pts), v_eval(pts)),
                           cells, tol_abs=tol_abs, tol_rel=tol_rel)


def apply_reference(mu, phi, tol_abs=1e-10, tol_rel=1e-10):
    """RadonMeasure.apply one test function at a time, as it was before it
    took the whole suite: the a.c. part in its own integrate_1d or
    integrate_cells call, each jump range in its own integrate_1d (a jump
    point's density at the point), then the Cantor part in its own
    integrate_ifs."""
    value, box = phi.value, phi.support_box
    total = 0.0
    if mu.ac is not None:
        f = lambda pts: np.asarray(value(pts), dtype=float) * np.asarray(mu.ac(pts), dtype=float)
        if phi.dim == 1:
            (lo, hi), = box
            total += integrate_1d(lambda x: f(x[:, None]), lo, hi,
                                  list(phi.breaks[0]) + list(mu.ac_singular.points_1d),
                                  tol_abs=tol_abs, tol_rel=tol_rel)[0]
        else:
            total += integrate_cells(f, box_cells(box, [mu.ac_singular], *phi.breaks),
                                     tol_abs=tol_abs, tol_rel=tol_rel)[0]
    for comp, g in mu.jumps.values():
        def density(pts, nus, g=g):
            return np.asarray(value(pts), dtype=float) * np.asarray(g(pts, nus), dtype=float)
        comp_total = 0.0
        for piece in comp.pieces:
            piece_total = 0.0
            for sa, sb in piece.ranges_in_box(box):
                if isinstance(piece, JumpPoint):
                    piece_total = float(density(piece.points(), piece.normals())[0])
                elif sb > sa:
                    piece_total += integrate_1d(
                        lambda s, p=piece: density(p.points(s), p.normals(s)) * p.jacobian(s),
                        sa, sb, tol_abs=tol_abs, tol_rel=tol_rel)[0]
            comp_total += piece_total
        total += comp_total
    if mu.cantor is not None:
        total += mu._integrate_cantor(lambda x, rows, d: value(x[:, None]) * d,
                                      [(-np.inf, np.inf)], tol_rel)[0]
    return total


def _component_integral(comp, g, ranges, tol_abs, tol_rel):
    """\\int g dH^{N-1} over the parameter ranges of a one-piece component, in
    its own integrate_on call, the ranges added in order (as
    RectifiableSet.integrate did)."""
    vals = integrate_on(lambda pts, nus, rows: g(pts, nus), comp.pieces,
                        np.zeros(len(ranges), dtype=int), ranges, tol_abs, tol_rel)
    return float(sum(vals))


def total_variation_reference(mu, box, tol_abs, tol_rel, breaks=()):
    """RadonMeasure.total_variation on one box, as it was before it took the
    box list: the a.c. part in its own integrate_1d or integrate_cells call
    (nonnegative) or integrate_abs call (one cell group), each jump
    component in its own integrate_on over its ranges in the box, then the
    Cantor part in its own integrate_ifs."""
    total = 0.0
    if mu.ac is not None and mu.domain.dim == 1:
        (lo, hi), = box
        sing = list(mu.ac_singular.points_1d)
        if mu.nonnegative:
            total += integrate_1d(lambda x: mu.ac(x[:, None]), lo, hi, [*breaks, *sing],
                                  tol_abs, tol_rel)[0]
        else:
            edges = [lo, *sorted(p for p in sing if lo < p < hi), hi]
            total += integrate_abs(mu.ac, list(zip(edges[:-1], edges[1:])), tol_abs, tol_rel,
                                   breaks)
    elif mu.ac is not None:
        cells = box_cells(box, [mu.ac_singular], extra_x_breaks=breaks)
        total += integrate_cells(mu.ac, cells, tol_abs=tol_abs, tol_rel=tol_rel)[0] \
            if mu.nonnegative else integrate_abs(mu.ac, cells, tol_abs, tol_rel)
    for comp, g in mu.jumps.values():
        total += _component_integral(comp, lambda pts, nus, g=g: np.abs(g(pts, nus)),
                                     comp.pieces[0].ranges_in_box(box), tol_abs, tol_rel)
    if mu.cantor is not None:
        total += abs(mu._integrate_cantor(lambda x, rows, d: np.abs(d), [box[0]], tol_rel)[0])
    return total


def product_rule_reference(field, h, u):
    """chainrule.product_rule as it was before it took terms 1-4 from the
    chain rule's builder: each term built by hand, and the total's a.c.
    density the sum of the terms' densities."""
    dom = field.domain
    merged = _merged_singular(field, u)

    def A(pts):
        return field.eval(pts, 0.0)

    term_diva = RadonMeasure(
        dom, ac=lambda pts: field.diva(pts, 0.0) * np.asarray(h.h(u.eval(pts)), dtype=float),
        ac_singular=merged) if field._diva is not None else RadonMeasure.zero(dom)

    if field.divc_part is not None:
        term_divc = RadonMeasure(
            dom, ac_singular=merged, cantor=field.divc_part,
            cantor_density=lambda x: np.asarray(
                h.h(u.eval(np.asarray(x)[:, None])), dtype=float))
    else:
        term_divc = RadonMeasure.zero(dom)

    term_ac_u = RadonMeasure(
        dom,
        ac=lambda pts: np.asarray(h.dh(u.eval(pts)), dtype=float)
        * np.einsum("ij,ij->i", A(pts), u.grad(pts)), ac_singular=merged)

    if u.cantor is not None:
        term_cantor_u = RadonMeasure(
            dom, ac_singular=merged, cantor=u.cantor,
            cantor_density=lambda x: np.asarray(
                h.dh(u.eval(np.asarray(x)[:, None])), dtype=float)
            * A(np.asarray(x)[:, None])[:, 0])
    else:
        term_cantor_u = RadonMeasure.zero(dom)

    def density(in_n, in_j):
        def g(pts, nus):
            up, um = _u_sides(u, pts, in_j)
            if in_n:
                ap, am = field.trace(pts, 0.0, +1), field.trace(pts, 0.0, -1)
            else:
                ap = am = A(pts)
            hp = np.asarray(h.h(up), dtype=float)
            hm = np.asarray(h.h(um), dtype=float)
            return (hp * np.einsum("ij,ij->i", ap, nus)
                    - hm * np.einsum("ij,ij->i", am, nus))
        return g

    return ChainRuleBreakdown(term_diva, term_divc, term_ac_u, term_cantor_u,
                              _jump_measure(field, u, density))

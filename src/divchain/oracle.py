"""Weak-form verification oracle.

Computes distributional divergences directly from pointwise values of a
vector field by quadrature against test functions:

    <Div v, phi> = - \\int <grad phi, v> dx.

It knows nothing about chain-rule formulas or measure decompositions; the
only structural input is where to split integration cells (the declared
singular curves), never what the answer should be.
"""

from __future__ import annotations

import numpy as np

from .cantor import IFSSpec, construction_endpoints
from .field import ParamField, moll_point, mollified_normal_trace
from .geometry import Domain
from .measure import RadonMeasure, TestFunction, oscillatory_bump, plateau_bump
from .quadrature import by_runs, integrate_1d, integrate_cells
from .rectifiable import RectifiableSet, box_cells


class TestSuite:
    """A family of test functions straddling and avoiding the singular set."""

    def __init__(self, functions, domain: Domain, singular: RectifiableSet):
        self.functions = list(functions)
        self.domain = domain
        self.singular = singular
        if len(self.functions) < 1:
            raise ValueError("empty test suite")

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.functions)


def _shrink(lo, hi, frac_lo, frac_hi):
    w = hi - lo
    return lo + frac_lo * w, lo + frac_hi * w


# Depth of the Cantor construction breaks.  With the base endpoints alone
# (depth 0) the G7-K15 error estimate misjudged the Hoelder integrands and
# cantor-u-autonomous failed its oracle check.  Every depth from 6 to 12
# kept each Cantor file in the repository under 4e-8, and depth 8 ran them
# in the least total time (BENCH_12.json, depth_experiment).
CANTOR_DEPTH = 8


def cantor_breaks(spec: IFSSpec):
    """Endpoints of the declared construction's intervals at CANTOR_DEPTH."""
    return construction_endpoints(spec, CANTOR_DEPTH)


def build_suite(domain: Domain, singular: RectifiableSet, breaks_1d=()):
    """Plateau/oscillatory bumps: >= 3 straddling each singular component,
    plus a grid of off-set bumps and sign-changing oscillatory ones, widened
    to at least 20 members.

    In 1-D every member also breaks at the declared abscissae breaks_1d that
    fall inside its support (the Cantor construction; see cantor_breaks).
    """
    fns = []
    dim = domain.dim
    bounds = domain.bounds

    def bump_at(center, half, label, osc=None):
        support = []
        plateau = []
        for ax, (lo, hi) in enumerate(bounds):
            c = center[ax]
            h = min(half, c - lo - 1e-9, hi - c - 1e-9)
            if h <= 0:
                return None
            support.append((c - h, c + h))
            plateau.append((c - 0.5 * h, c + 0.5 * h))
        if osc is None:
            return plateau_bump(support, plateau, label=label)
        return oscillatory_bump(support, plateau, osc, label=label)

    # straddling bumps on every singular component, three scales each
    if not singular.is_empty:
        pts, _ = singular.samples(3)
        for i, p in enumerate(pts):
            for j, s in enumerate((0.35, 0.2, 0.1)):
                width = min(hi - lo for lo, hi in bounds)
                f = bump_at(np.atleast_1d(p), s * width, f"straddle{i}s{j}")
                if f is not None:
                    fns.append(f)

    # off-set grid bumps
    grid = domain.grid(4 if dim == 1 else 3)
    width = min(hi - lo for lo, hi in bounds)
    for i, p in enumerate(grid):
        f = bump_at(p, 0.12 * width, f"grid{i}")
        if f is not None:
            fns.append(f)

    # oscillatory members
    k = 2 * np.pi / width
    centers = grid[:: max(1, len(grid) // 4)]
    for i, p in enumerate(centers):
        f = bump_at(p, 0.3 * width, f"osc{i}", osc=[k] * dim)
        if f is not None:
            fns.append(f)

    # widen with larger plateau bumps until the floor is met
    j = 0
    while len(fns) < 20:
        lo, hi = bounds[0]
        frac = 0.08 + 0.8 * (j % 7) / 7.0
        support = [_shrink(l, h, 0.02 + 0.02 * (j % 5), 0.98 - 0.02 * (j % 3))
                   for l, h in bounds]
        plateau = [_shrink(l, h, 0.25 + frac / 4, 0.7) for (l, h) in support]
        fns.append(plateau_bump(support, plateau, label=f"wide{j}"))
        j += 1
        if j > 50:
            break
    if dim == 1 and len(breaks_1d):
        fns = [f.with_breaks([breaks_1d]) for f in fns]
    return TestSuite(fns, domain, singular)


def weak_divergence(v_eval, phis, domain: Domain, singular: RectifiableSet,
                    tol_abs=1e-10, tol_rel=1e-9):
    """- \\int <grad phi, v> dx over each phi's support, split along the curves,
    for a sequence of test functions: one integrate_1d (1-D) or integrate_cells
    (2-D) whose rows are the test functions, apart from any measure action.

    v_eval maps (n, dim) points to (n, dim) values; it is never evaluated
    on the singular set itself (quadrature nodes are interior to cells).
    Returns (values, error_estimates) as arrays; on one TestFunction, floats.
    """
    one = isinstance(phis, TestFunction)
    phis = [phis] if one else list(phis)
    if not all(domain.contains_box(phi.support_box) for phi in phis):
        from .errors import DomainMismatchError
        raise DomainMismatchError("test function support exceeds the domain")
    grads = [phi.gradient for phi in phis]
    if domain.dim == 1:
        def f(x, rows):
            pts = x[:, None]
            return -np.atleast_2d(by_runs(grads, rows, pts))[:, 0] * np.atleast_2d(v_eval(pts))[:, 0]

        lo, hi = np.array([phi.support_box[0] for phi in phis]).T
        vals, errs = integrate_1d(f, lo, hi, [list(phi.breaks[0]) + list(singular.points_1d)
                                              for phi in phis], tol_abs=tol_abs, tol_rel=tol_rel)
    else:
        def f(pts, rows):
            return -np.einsum("ij,ij->i", by_runs(grads, rows, pts), v_eval(pts))

        vals, errs = integrate_cells(f, [box_cells(phi.support_box, [singular], *phi.breaks)
                                         for phi in phis], tol_abs=tol_abs, tol_rel=tol_rel)
    return (float(vals[0]), float(errs[0])) if one else (vals, errs)


def compare(mu: RadonMeasure, v_eval, suite: TestSuite, tol_abs=1e-7, tol_rel=1e-6,
            quad_tol=1e-10):
    """Per-test-function comparison of the measure action with the weak form,
    each side one batched action over the suite."""
    phis = list(suite)
    actions = mu.apply(phis, tol_abs=quad_tol, tol_rel=quad_tol)
    weak, ests = weak_divergence(v_eval, phis, suite.domain, suite.singular, tol_abs=quad_tol)
    rows = []
    all_pass = True
    for phi, a, b, est in zip(phis, actions.tolist(), weak.tolist(), ests.tolist()):
        diff = a - b
        scale = max(abs(a), abs(b))
        ok = abs(diff) <= max(tol_abs, tol_rel * scale)
        all_pass &= ok
        rows.append({
            "phi": phi.label,
            "measure_action": a,
            "weak_value": b,
            "difference": diff,
            "quad_error_estimate": est,
            "pass": bool(ok),
        })
    return {"pass": bool(all_pass), "rows": rows,
            "max_difference": max(abs(r["difference"]) for r in rows)}


def mollification_study(field: ParamField, t, x, eps_list):
    """Convergence of the mollified normal component to (beta+ + beta-)/2."""
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list[:-1], eps_list[1:])):
        raise ValueError("eps_list must be decreasing")
    pts, nu = moll_point(field.domain, field.singular_set, x, max(eps_list, default=0.0))
    target = float(0.5 * (field.trace(pts, t, +1) + field.trace(pts, t, -1))[0] @ nu)
    rows = []
    for eps in eps_list:
        val = mollified_normal_trace(field, t, x, eps)
        rows.append({"eps": eps, "value": val, "target": target,
                     "deviation": abs(val - target)})
    devs = [r["deviation"] for r in rows]
    ok = devs[-1] <= devs[-2] + 1e-12 if len(devs) >= 2 else True
    return {"rows": rows, "nonincreasing_tail": bool(ok), "target": target}

"""Entropy, kinetic, and contraction diagnostics over solver trajectories.

Everything here post-processes an immutable Trajectory: the entropy
inequality residual against space-time test functions, the kinetic defect
measure assembled cell-by-cell from its distributional definition, the
interface coupling functional W, and the L1-contraction experiment.
"""

from __future__ import annotations

import numpy as np

from ..errors import KineticViolationError, ScenarioValidationError
from ..measure import TestFunction
from ..quadrature import gauss
from .flux import EntropyPair, FluxSpec, chi
from .hatbasis import HatBasis, hat_derivative
from .solver import GridState, Trajectory, fv_solve


def _segment_integrals(f, edges, order):
    """\\int f over each [edges[j], edges[j + 1]], Gauss-`order` per segment."""
    gx, gw = gauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = f((mid[:, None] + half[:, None] * gx).ravel()).reshape(len(mid), order)
    return (vals @ gw) * half


def _slab_tables(traj: Trajectory, per_state):
    """Tables over the slab states u_i^n, one per leading index of per_state.

    per_state(k, u) maps a coefficient value and an array of states to an
    array of shape (ntab, ..., len(u)).  It is called once per coefficient
    value, on that value's distinct slab states only; the c-th table yielded
    has shape (..., nslab, ncell) and holds per_state(k_i, u_i^n)[c].
    """
    slabs = traj.states[:-1]
    inv = np.empty(slabs.shape, dtype=np.intp)
    vals = []
    for kv in np.unique(traj.kvals.round(12)):
        cols = np.flatnonzero(np.abs(traj.kvals - kv) <= 1e-12)
        u, j = np.unique(slabs[:, cols].ravel(), return_inverse=True)
        inv[:, cols] = sum(v.shape[-1] for v in vals) + j.reshape(slabs.shape[0], len(cols))
        vals.append(per_state(kv, u))
    return (np.take(table, inv, axis=-1) for table in np.concatenate(vals, axis=-1))


def _pairing(traj: Trajectory, t_basis, x_basis):
    """pair(g0, g1, iface) -> <., T_a X_b> of slab tables, shape (n_t, n_x).

    g0 pairs with -d_t of the time hats and g1 with -d_x of the space hats,
    both in closed form for piecewise-constant-in-(t, x) tables; each
    (series, xw) in iface subtracts a time series at a face whose space
    hats take the values xw.
    """
    TI = t_basis.seg_integrals(traj.times)         # (n_t, nslab)
    dT = np.diff(t_basis.vals(traj.times), axis=1)  # (n_t, nslab)
    XI = x_basis.seg_integrals(traj.edges)         # (n_x, ncell)
    dX = x_basis.point_diffs(traj.edges)           # (n_x, ncell)

    def pair(g0, g1, iface=()):
        m = -(dT @ g0 @ XI.T) - (TI @ g1 @ dX.T)
        for series, xw in iface:
            m -= np.outer(TI @ series, xw)
        return m

    return pair


def space_time_bumps(traj: Trajectory, n=5):
    """C^2 plateau bumps T(t) X(x) on (0,T) x interior, straddling each interface.

    Each bump is returned as its two 1-D factors, (label, T, X): one time
    factor shared by all, and a space factor per centre.
    """
    from ..measure import plateau_bump
    t0, t1 = traj.times[0], traj.times[-1]
    (xlo, xhi), = traj.domain.bounds
    tspan = t1 - t0
    xspan = xhi - xlo
    T = plateau_bump([(t0 + 0.08 * tspan, t1 - 0.08 * tspan)],
                     [(t0 + 0.25 * tspan, t1 - 0.25 * tspan)])
    centers = [xlo + f * xspan for f in (0.3, 0.5, 0.7)]
    for i in traj.interfaces():
        centers.append(traj.edges[i])
    fns = []
    for j, c in enumerate(centers[:n]):
        w = 0.22 * xspan
        lo = max(c - w, xlo + 0.02 * xspan)
        hi = min(c + w, xhi - 0.02 * xspan)
        X = plateau_bump([(lo, hi)], [(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))])
        fns.append((f"st{j}", T, X))
    return fns


def entropy_residual(traj: Trajectory, pair: EntropyPair):
    """Worst signed residual of the entropy inequality over space_time_bumps.

    For each nonnegative space-time phi = T(t) X(x) the distributional value of

        dS(u)/dt + Div eta(x, u) - [Div eta](x, v)|_{v = u_hat}
                                 + S'(u_hat) [Div B](x, v)|_{v = u_hat}

    is evaluated with the interface measures in their a.c.-plus-trace form;
    entropy solutions make every value <= 0 up to O(dx).  For the
    piecewise-constant solver output every term is a product of 1-D tables:
    X integrated per cell (Gauss-5), T integrated per time slab (Gauss-4),
    T at the time levels and X at the cell faces.
    """
    flux = traj.flux
    if not pair.check_convex(flux.u_range):
        raise ScenarioValidationError("entropy must be convex on the invariant region")
    probe = flux.k.domain.grid(33)
    off = ~flux.k.on_jump(probe, tol=1e-9)
    if np.max(np.abs(flux.k.grad(probe[off]))) > 1e-12:
        raise ScenarioValidationError(
            "entropy residual implemented for piecewise-constant coefficients")
    slabs = traj.states[:-1]
    t_edges = traj.times
    eta, = _slab_tables(traj, lambda kv, u: pair.eta_of_k(flux, kv, u)[None])
    s_of_u = np.asarray(pair.S(traj.states), dtype=float)

    # per interface and u_hat variant: slab weights that do not depend on the bump
    iface_weights = []
    for i in traj.interfaces():
        km, kp = traj.kvals[i - 1], traj.kvals[i]
        weights = []
        for uhat in (slabs[:, i - 1], slabs[:, i]):
            eta_jump = (pair.eta_of_k(flux, kp, uhat) - pair.eta_of_k(flux, km, uhat))
            b_jump = flux.flux_at(kp, uhat) - flux.flux_at(km, uhat)
            weights.append(-eta_jump + np.asarray(pair.dS(uhat)) * b_jump)
        iface_weights.append((i, weights))
    rows = []
    flagged = False
    for label, T, X in space_time_bumps(traj):
        xcell = _segment_integrals(X.value, traj.edges, 5)
        tslab = _segment_integrals(T.value, t_edges, 4)
        xface = X.value(traj.edges)
        term_time = -float(np.diff(T.value(t_edges)) @ (s_of_u[:-1] @ xcell))
        term_flux = -float(tslab @ eta @ np.diff(xface))
        term_iface = 0.0
        for i, weights in iface_weights:
            tser = tslab * xface[i]
            variants = [float(np.sum(tser * w)) for w in weights]
            if abs(variants[0] - variants[1]) > 10 * traj.dx:
                flagged = True
            term_iface += max(variants)
        total = term_time + term_flux + term_iface
        rows.append({"phi": label, "residual": total,
                     "terms": {"time": term_time, "flux": term_flux, "iface": term_iface}})
    worst = max(r["residual"] for r in rows)
    return {"worst_residual": worst, "rows": rows, "interface_choice_flagged": flagged}


class KineticMeasure:
    """Cellwise masses of the kinetic defect on a coarse (t, x, v) hat grid."""

    def __init__(self, masses, t_basis, x_basis, v_basis):
        self.masses = masses
        self.t_basis = t_basis
        self.x_basis = x_basis
        self.v_basis = v_basis

    @property
    def total_mass(self):
        return float(np.sum(self.masses))

    @property
    def min_cell(self):
        return float(np.min(self.masses))

    def check_nonnegative(self, slack=1e-8):
        if self.min_cell < -slack:
            raise KineticViolationError(
                f"kinetic cell mass {self.min_cell:.3e} below -{slack:.1e}")
        return True


def kinetic_measure(traj: Trajectory, n_t=6, n_x=10, n_v=14):
    """Assemble m from its three defining integrals against tensor hats.

    <m, T_a X_b W_c> for the piecewise-constant solver output is

      - time part: - d_t psi against \\int_0^v chi(w, u) dw = min(v, u);
      - flux part: - d_x psi against \\int_0^v b(x, w) chi(w, u) dw
        = B(x, min(v, u));
      - interface part: the Div_x B(., v) measure applied to psi chi(v, u^),
        i.e. - sum over coefficient jumps of psi(x_j) chi(v, u^_j) [A^+ - A^-](v),
        with chi(v, u^_j) the mean over the two states next to x_j.

    The last term is the measure form of the printed by-parts expression;
    the two coincide whenever u^ is continuous across x_j.  Every (t, x)
    factor integrates in closed form, and the v-integrals are taken once
    per distinct (k, u) slab state.  In v, the min(v, u) and indicator
    terms are closed forms too; the flux-weighted terms use 12-point Gauss
    on each hat piece, exact when Ahat is a polynomial in u of degree <= 22
    (all bundled fluxes are) and a Gauss-12 approximation otherwise.
    """
    flux = traj.flux
    if np.min(traj.states) < -1e-12:
        raise ScenarioValidationError("kinetic assembly implemented for u >= 0 runs")
    umax = float(np.max(traj.states))
    t_basis = HatBasis(traj.times[0], traj.times[-1], n_t)
    (xlo, xhi), = traj.domain.bounds
    x_basis = HatBasis(xlo, xhi, n_x)
    v_basis = HatBasis(-1.0, umax + 1.0, n_v)
    pair = _pairing(traj, t_basis, x_basis)

    def per_state(kv, u):
        A = lambda v: flux.flux_at(kv, v)
        Au = A(u)
        return np.array([(h.min_integral(u),
                           h.weighted_to_upper(A, u) + Au * h.upper_integral(u))
                          for h in v_basis.hats])

    slabs = traj.states[:-1]
    ifaces = traj.interfaces()
    masses = np.empty((n_t, n_x, n_v))
    for c, (g0, g1) in enumerate(_slab_tables(traj, per_state)):
        vh = v_basis.hats[c]
        iface = []
        for i in ifaces:
            km_, kp_ = traj.kvals[i - 1], traj.kvals[i]
            jump = lambda v: flux.flux_at(kp_, v) - flux.flux_at(km_, v)
            series = sum(vh.weighted_to_upper(jump, uh) / 2
                         for uh in (slabs[:, i - 1], slabs[:, i]))
            iface.append((series, x_basis.vals(traj.edges[i:i + 1])[:, 0]))
        masses[:, :, c] = pair(g0, g1, iface)
    return KineticMeasure(masses, t_basis, x_basis, v_basis)


def kinetic_identity_residual(traj: Trajectory, km: KineticMeasure):
    """Check d/dt chi + Div_{x,v}(a chi) = d/dv m against the hat basis.

    <d_v m, psi> is -<m, d_v psi>: the assembly of m with the hat
    derivatives V' as v-weights.  Its interface part is the same sum as
    that of <d_v(-Div_x B chi), psi> and cancels it, so per slab state
    what remains are the by-parts defects in v,

      time: cdf_V(u) + \\int V'(v) min(v, u) dv,
      flux: \\int_{v<u} V a_k + \\int_{v<u} V' A_k + A_k(u) \\int_{v>u} V',

    paired once with the (t, x) hats.  Returns the worst absolute
    residual, at machine level for solver output."""
    flux = traj.flux
    pair = _pairing(traj, km.t_basis, km.x_basis)
    nodes = km.v_basis.nodes
    dvhs = [hat_derivative(nodes[c], nodes[c + 1], nodes[c + 2])
            for c in range(len(km.v_basis.hats))]

    def per_state(kv, u):
        a = lambda v: flux.speed_at(kv, v)
        A = lambda v: flux.flux_at(kv, v)
        Au = A(u)
        return np.array([(vh.cdf(u) + dvh.min_integral(u),
                          vh.weighted_to_upper(a, u) + dvh.weighted_to_upper(A, u)
                          + Au * dvh.upper_integral(u))
                         for vh, dvh in zip(km.v_basis.hats, dvhs)])

    return max(float(np.max(np.abs(pair(h0, h1))))
               for h0, h1 in _slab_tables(traj, per_state))


def interface_W(u1p, u1m, u2p, u2m, bplus_nu):
    """Trace-coupling functional at one singular-set point, with <B+, nu>
    in both lines (the stated form)."""
    return (bplus_nu(u1p) * (-2.0 * chi(u1p, u2p) + 2.0 * chi(u1m, u2m))
            + bplus_nu(u2p) * (-2.0 * chi(u2p, u1p) + 2.0 * chi(u2m, u1m)))


def accumulated_interface_W(traj_a: Trajectory, traj_b: Trajectory):
    """\\int_0^T sum over interfaces of W(traces of u1, traces of u2) dt,
    plus the worst per-sample value."""
    flux = traj_a.flux
    ws = [np.zeros(0)]
    for i in traj_a.interfaces():
        bplus = lambda t, kp_=traj_a.kvals[i]: flux.flux_at(kp_, t)
        u1m, u1p = traj_a.interface_traces(i)
        u2m, u2p = traj_b.interface_traces(i)
        ws.append(interface_W(u1p[:-1], u1m[:-1], u2p[:-1], u2m[:-1], bplus))
    w = np.concatenate(ws)
    if not w.size:
        return 0.0, 0.0
    # cumsum adds the samples one at a time, interface by interface
    return float(np.cumsum(w * traj_a.dt)[-1]), float(np.max(w))


def l1_distance(a: GridState, b: GridState):
    return float(np.sum(np.abs(a.averages - b.averages)) * a.dx)


def kato_check(flux: FluxSpec, u0_a, u0_b, T, dx_list, domain, cfl=0.45):
    """Contraction table over a refinement sequence.

    Per dx: L1 distances at 0 and T, their deficit, and the accumulated
    interface W integral with its worst sample.
    """
    rows = []
    for dx in dx_list:
        (xlo, xhi), = domain.bounds
        n = int(round((xhi - xlo) / dx))
        ga = GridState.from_function(domain, n, u0_a, cfl=cfl)
        gb = GridState.from_function(domain, n, u0_b, cfl=cfl)
        ta = fv_solve(flux, ga, T)
        tb = fv_solve(flux, gb, T)
        d0 = l1_distance(ga, gb)
        dT = l1_distance(ta.final(), tb.final())
        w, w_worst = accumulated_interface_W(ta, tb)
        rows.append({
            "dx": dx,
            "l1_initial": d0,
            "l1_final": dT,
            "deficit": d0 - dT,
            "contraction_holds": bool(dT <= d0 + 1e-12),
            "W_integral": w,
            "W_worst_sample": w_worst,
        })
    return rows


def div_xv_zero_residual(flux: FluxSpec, psi: TestFunction, quad_tol=1e-10):
    """Weak divergence of a(x, v) = (b(x, v), -Div_x B(x, v)) in (x, v).

    <a, grad psi> should vanish for every compactly supported psi; returns
    the computed value (target 0).
    """
    from ..quadrature import integrate_1d, integrate_cells
    from ..rectifiable import RectifiableSet, VerticalSegment, box_cells

    jumps = list(flux.k.jump_set.points_1d)
    (xa, xb), (va, vb) = psi.support_box
    curves = RectifiableSet(2, curves=[VerticalSegment(c, va, vb, +1)
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
    # a.c. part of -Div_x B for smooth k
    kgrad = flux.k.grad(np.array([[0.5 * (xa + xb)]]))[0, 0]
    if abs(kgrad) > 1e-12:
        def h(pts):
            kv = flux.k.eval(pts[:, :1])
            dk = flux.k.grad(pts[:, :1])[:, 0]
            hh = 1e-6
            dak = (np.asarray(flux.ahat(kv + hh, pts[:, 1]))
                   - np.asarray(flux.ahat(kv - hh, pts[:, 1]))) / (2 * hh)
            return -psi.gradient(pts)[:, 1] * dak * dk
        val, _ = integrate_cells(h, cells, tol_abs=quad_tol)
        second += val
    return first + second


def cavalieri_lhs(u1, u2):
    """\\int |chi(v, u1) - chi(v, u2)| dv evaluated from the definition."""
    lo, hi = min(u1, u2), max(u1, u2)
    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    return (hi - lo) * abs(chi(mid, u1) - chi(mid, u2))

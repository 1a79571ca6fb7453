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
from .hatbasis import HatBasis, hat, hat_derivative
from .solver import GridState, Trajectory, fv_solve


def _segment_integrals(f, edges, order):
    """\\int f over each [edges[j], edges[j + 1]], Gauss-`order` per segment."""
    gx, gw = gauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = f((mid[:, None] + half[:, None] * gx).ravel()).reshape(len(mid), order)
    return (vals @ gw) * half


def _eta_table(pair: EntropyPair, flux: FluxSpec, kvals, states):
    """eta(x_i, u_i^n) for all slab states, grouped by coefficient value."""
    out = np.empty_like(states)
    for kv in np.unique(kvals.round(12)):
        cols = np.flatnonzero(np.abs(kvals - kv) <= 1e-12)
        u = states[:, cols].ravel()
        out[:, cols] = pair.eta_of_k(flux, kv, u).reshape(states.shape[0], len(cols))
    return out


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
    eta = _eta_table(pair, flux, traj.kvals, slabs)
    s_of_u = np.asarray(pair.S(traj.states), dtype=float)

    ifaces = traj.interfaces()
    rows = []
    flagged = False
    for label, T, X in space_time_bumps(traj):
        xcell = _segment_integrals(X.value, traj.edges, 5)
        tslab = _segment_integrals(T.value, t_edges, 4)
        xface = X.value(traj.edges)
        term_time = -float(np.diff(T.value(t_edges)) @ (s_of_u[:-1] @ xcell))
        term_flux = -float(tslab @ eta @ np.diff(xface))
        term_iface = 0.0
        for i in ifaces:
            km, kp = traj.kvals[i - 1], traj.kvals[i]
            tser = tslab * xface[i]
            variants = []
            for uhat in (slabs[:, i - 1], slabs[:, i]):
                eta_jump = (pair.eta_of_k(flux, kp, uhat) - pair.eta_of_k(flux, km, uhat))
                b_jump = flux.flux_at(kp, uhat) - flux.flux_at(km, uhat)
                val = float(np.sum(tser * (-eta_jump + np.asarray(pair.dS(uhat)) * b_jump)))
                variants.append(val)
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

    def __init__(self, masses, t_basis, x_basis, v_basis, meta):
        self.masses = masses
        self.t_basis = t_basis
        self.x_basis = x_basis
        self.v_basis = v_basis
        self.meta = meta

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


def _interface_states(traj: Trajectory, iface_uhat):
    """[(i, states)] per coefficient jump i; u^ averages over the states."""
    if iface_uhat not in ("left", "right", "mean"):
        raise ScenarioValidationError(
            f"iface_uhat must be one of left, right, mean; got {iface_uhat!r}")
    slabs = traj.states[:-1]
    out = []
    for i in traj.interfaces():
        um, up = slabs[:, i - 1], slabs[:, i]
        out.append((i, {"left": (um,), "right": (up,), "mean": (um, up)}[iface_uhat]))
    return out


def _assemble_masses(traj: Trajectory, t_basis, x_basis, v_weights, iface_uhat="mean"):
    """<m, T_a X_b W_c> for piecewise-linear weights W_c in v.

    The three defining integrals of the kinetic defect, for the
    piecewise-constant solver output (the B terms by Gauss-12 in v, see
    kinetic_measure):

      - time part: - d_t psi against \\int_0^v chi(w, u) dw = min(v, u);
      - flux part: - d_x psi against \\int_0^v b(x, w) chi(w, u) dw
        = B(x, min(v, u));
      - interface part: the Div_x B(., v) measure applied to psi chi(v, u^),
        i.e. - sum over coefficient jumps of psi(x_j) chi(v, u^_j) [A^+ - A^-](v).

    The last term is the measure form of the printed by-parts expression;
    the two coincide whenever u^ is continuous across x_j.
    """
    flux = traj.flux
    slabs = traj.states[:-1]
    t_edges = traj.times
    TI = t_basis.seg_integrals(t_edges)          # (na, nslab)
    dT = t_basis.vals(t_edges)
    dT = dT[:, 1:] - dT[:, :-1]                  # (na, nslab)
    XI = x_basis.seg_integrals(traj.edges)       # (nb, ncell)
    dX = x_basis.point_diffs(traj.edges)         # (nb, ncell)

    kround = traj.kvals.round(12)
    ifaces = _interface_states(traj, iface_uhat)
    masses = np.empty((len(t_basis.hats), len(x_basis.hats), len(v_weights)))
    for c, vh in enumerate(v_weights):
        g0 = vh.min_integral(slabs.ravel()).reshape(slabs.shape)
        g1 = np.empty_like(slabs)
        for kv in np.unique(kround):
            cols = np.flatnonzero(np.abs(traj.kvals - kv) <= 1e-12)
            u = slabs[:, cols].ravel()
            vals = vh.weighted_to_upper(lambda v, kv=kv: flux.flux_at(kv, v), u) \
                + flux.flux_at(kv, u) * vh.upper_integral(u)
            g1[:, cols] = vals.reshape(slabs.shape[0], len(cols))
        m = -(dT @ g0 @ XI.T) - (TI @ g1 @ dX.T)
        for i, uhat in ifaces:
            km_, kp_ = traj.kvals[i - 1], traj.kvals[i]
            xw = x_basis.vals(np.array([traj.edges[i]]))[:, 0]
            xi = np.zeros(slabs.shape[0])
            for uh in uhat:
                xi += vh.weighted_to_upper(
                    lambda v: flux.flux_at(kp_, v) - flux.flux_at(km_, v), uh) / len(uhat)
            m -= np.outer(TI @ xi, xw)
        masses[:, :, c] = m
    return masses


def kinetic_measure(traj: Trajectory, n_t=6, n_x=10, n_v=14, check=False, slack=1e-8,
                    iface_uhat="mean"):
    """Assemble m from its three defining integrals against tensor hats.

    With piecewise-constant-in-(t, x) solver output and hat test functions
    every (t, x) factor integrates in closed form.  In v, the min(v, u) and
    indicator terms are closed forms too; the flux-weighted terms use
    12-point Gauss on each hat piece, exact when Ahat is a polynomial in u
    of degree <= 22 (all bundled fluxes are) and a Gauss-12 approximation
    otherwise.
    """
    flux = traj.flux
    if np.min(traj.states) < -1e-12:
        raise ScenarioValidationError("kinetic assembly implemented for u >= 0 runs")
    umax = float(np.max(traj.states))
    t_basis = HatBasis(traj.times[0], traj.times[-1], n_t)
    (xlo, xhi), = traj.domain.bounds
    x_basis = HatBasis(xlo, xhi, n_x)
    v_basis = HatBasis(-1.0, umax + 1.0, n_v)
    masses = _assemble_masses(traj, t_basis, x_basis, v_basis.hats, iface_uhat)
    km = KineticMeasure(masses, t_basis, x_basis, v_basis,
                        {"dx": traj.dx, "dt": traj.dt, "umax": umax,
                         "n_t": n_t, "n_x": n_x, "n_v": n_v})
    if check:
        km.check_nonnegative(slack)
    return km


def kinetic_identity_residual(traj: Trajectory, km: KineticMeasure, iface_uhat="mean"):
    """Check d/dt chi + Div_{x,v}(a chi) = d/dv m against the hat basis.

    <d_v m, psi> is -<m, d_v psi>, re-assembled through the same machinery
    with the hat derivatives as v-weights.  Returns the worst absolute
    residual (O(dx) for solver output)."""
    flux = traj.flux
    slabs = traj.states[:-1]
    t_edges = traj.times
    TI = km.t_basis.seg_integrals(t_edges)
    dT = km.t_basis.vals(t_edges)
    dT = dT[:, 1:] - dT[:, :-1]
    XI = km.x_basis.seg_integrals(traj.edges)
    dX = km.x_basis.point_diffs(traj.edges)
    nodes = km.v_basis.nodes
    dvhs = [hat_derivative(nodes[c], nodes[c + 1], nodes[c + 2])
            for c in range(len(km.v_basis.hats))]
    m_dv = _assemble_masses(traj, km.t_basis, km.x_basis, dvhs, iface_uhat)

    worst = 0.0
    ifaces = _interface_states(traj, iface_uhat)
    kround = traj.kvals.round(12)
    for c, vh in enumerate(km.v_basis.hats):
        # <d_t chi, psi> = -sum dT * XI * int V chi dv
        chi_int = vh.cdf(slabs.ravel()).reshape(slabs.shape)
        t1 = -(dT @ chi_int @ XI.T)
        # <Div_x(b chi), psi> = -sum TI * dX * int V b_k(v) 1_{v<u} dv
        bi = np.empty_like(slabs)
        for kv in np.unique(kround):
            cols = np.flatnonzero(np.abs(traj.kvals - kv) <= 1e-12)
            bi[:, cols] = vh.weighted_to_upper(
                lambda v, kv=kv: flux.speed_at(kv, v), slabs[:, cols].ravel()) \
                .reshape(slabs.shape[0], len(cols))
        t2 = -(TI @ bi @ dX.T)
        # <d_v(-Div_x B chi), psi> = + int d_v psi chi(v, u^) d Div_x B
        t3 = np.zeros_like(t1)
        for i, pairs in ifaces:
            km_, kp_ = traj.kvals[i - 1], traj.kvals[i]
            xw = km.x_basis.vals(np.array([traj.edges[i]]))[:, 0]
            jump = np.zeros(slabs.shape[0])
            for uh in pairs:
                jump += dvhs[c].weighted_to_upper(
                    lambda v: flux.flux_at(kp_, v) - flux.flux_at(km_, v), uh) / len(pairs)
            t3 += np.outer(TI @ jump, xw)
        res = t1 + t2 + t3 + m_dv[:, :, c]
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def interface_W(u1p, u1m, u2p, u2m, bplus_nu):
    """Trace-coupling functional at one singular-set point, with <B+, nu>
    in both lines (the stated form)."""
    return (bplus_nu(u1p) * (-2.0 * chi(u1p, u2p) + 2.0 * chi(u1m, u2m))
            + bplus_nu(u2p) * (-2.0 * chi(u2p, u1p) + 2.0 * chi(u2m, u1m)))


def accumulated_interface_W(traj_a: Trajectory, traj_b: Trajectory):
    """\\int_0^T sum over interfaces of W(traces of u1, traces of u2) dt,
    plus the worst per-sample value."""
    flux = traj_a.flux
    total = 0.0
    worst = -np.inf
    dt = traj_a.dt
    for i in traj_a.interfaces():
        kp_ = traj_a.kvals[i]
        bplus = lambda t, kp_=kp_: flux.flux_at(kp_, t)
        u1m, u1p = traj_a.interface_traces(i)
        u2m, u2p = traj_b.interface_traces(i)
        for n in range(len(traj_a.times) - 1):
            w = interface_W(u1p[n], u1m[n], u2p[n], u2m[n], bplus)
            total += w * dt
            worst = max(worst, w)
    return total, (worst if np.isfinite(worst) else 0.0)


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

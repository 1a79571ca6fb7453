"""Entropy, kinetic, and contraction diagnostics over solver trajectories.

Everything here post-processes an immutable Trajectory: the entropy
inequality residual against space-time test functions, the kinetic defect
measure assembled cell-by-cell from its distributional definition, the
interface coupling functional W, and the L1-contraction experiment.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScenarioValidationError
from ..quadrature import gauss
from .flux import EntropyPair, FluxSpec, chi
from .hatbasis import HatBasis
from .solver import GridState, Trajectory, _solve, cell_averages, interface_faces


def _segment_integrals(f, edges, order):
    """\\int f over each [edges[j], edges[j + 1]], Gauss-`order` per segment."""
    gx, gw = gauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = f((mid[:, None] + half[:, None] * gx).ravel()).reshape(len(mid), order)
    return (vals @ gw) * half


def _min_and_upper(family, u, flux_part, Au):
    """(\\int w min(v, u) dv, flux_part + Au \\int_{v>u} w) per row w of family,
    with \\int_{v>u} w taken once and the sums in place, so that beside
    flux_part at most two (rows, len(u)) arrays are alive at a time."""
    upper = family.upper_integral(u)
    flux_part += upper * Au
    upper *= u
    time_part = family.moment_cdf(u)
    time_part += upper
    return time_part, flux_part


def _hat_pairings(traj: Trajectory, t_basis, x_basis, per_state):
    """<g0, -d_t T_a X_b> + <g1, -T_a d_x X_b> for each table row c: an array
    (ntab, n_t, n_x).  per_state(k, u) maps a coefficient value and its
    distinct slab states (traj.slab_states) to the columns (g0, g1), each an
    array (ntab, len(u)), and row c pairs g[c] at each slab state (k_i, u_i^n).

    Both pairings are in closed form for piecewise-constant-in-(t, x)
    tables, and the tables are built one at a time.
    """
    TI = t_basis.seg_integrals(traj.times)   # (n_t, nslab)
    dT = t_basis.point_diffs(traj.times)     # (n_t, nslab)
    XI = x_basis.seg_integrals(traj.edges)   # (n_x, ncell)
    dX = x_basis.point_diffs(traj.edges)     # (n_x, ncell)
    inv, per_k = traj.slab_states
    parts = [per_state(kv, u) for kv, u in per_k]
    g0, g1 = parts[0] if len(parts) == 1 else (np.concatenate(c, axis=-1) for c in zip(*parts))
    return np.array([-(dT @ g0[c][inv] @ XI.T) - (TI @ g1[c][inv] @ dX.T)
                     for c in range(len(g0))])


def space_time_bumps(traj: Trajectory):
    """Five C^2 plateau bumps T(t) X(x) on (0,T) x interior, centred at 0.3,
    0.5 and 0.7 of the domain and then on the interfaces.

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
    for j, c in enumerate(centers[:5]):
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
    inv, per_k = traj.slab_states
    eta = np.concatenate([pair.eta_of_k(flux, kv, u) for kv, u in per_k])[inv]
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
    terms are closed forms too; the flux-weighted terms run Gauss on each
    hat piece at the order flux.ahat_degree makes exact (two points for the
    bundled quadratic fluxes), and 12 points when Ahat is not a declared
    polynomial in u.
    """
    flux = traj.flux
    umax = float(np.max(traj.states))
    if not (np.min(traj.states) >= -1e-12 and umax < np.inf):     # False at NaN
        raise ScenarioValidationError("kinetic assembly implemented for finite u >= 0 runs")
    t_basis = HatBasis(traj.times[0], traj.times[-1], n_t)
    (xlo, xhi), = traj.domain.bounds
    x_basis = HatBasis(xlo, xhi, n_x)
    v_basis = HatBasis(-1.0, umax + 1.0, n_v)
    hats = v_basis.hats

    def per_state(kv, u):
        A = lambda v: flux.flux_at(kv, v)
        return _min_and_upper(hats, u, hats.weighted_to_upper(A, u, flux.ahat_degree), A(u))

    masses = _hat_pairings(traj, t_basis, x_basis, per_state)
    # the interface part: minus a time series per v-hat at each coefficient
    # jump, times the space hats at its face
    slabs = traj.states[:-1]
    TI = t_basis.seg_integrals(traj.times)
    for i in traj.interfaces():
        km_, kp_ = traj.kvals[i - 1], traj.kvals[i]
        jump = lambda v: flux.flux_at(kp_, v) - flux.flux_at(km_, v)
        series = sum(hats.weighted_to_upper(jump, uh, flux.ahat_degree) / 2
                     for uh in (slabs[:, i - 1], slabs[:, i]))
        # one matrix-vector product per v-hat: a gemm would round differently
        masses -= (TI @ series[..., None]) * x_basis.hats.val(traj.edges[i])
    return KineticMeasure(np.ascontiguousarray(masses.transpose(1, 2, 0)),
                          t_basis, x_basis, v_basis)


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
    hats, dhats = km.v_basis.hats, km.v_basis.derivatives

    def per_state(kv, u):
        a = lambda v: flux.speed_at(kv, v)
        A = lambda v: flux.flux_at(kv, v)
        flux_part = hats.weighted_to_upper(a, u, flux.speed_degree)
        flux_part += dhats.weighted_to_upper(A, u, flux.ahat_degree)
        time_part, flux_part = _min_and_upper(dhats, u, flux_part, A(u))
        time_part += hats.cdf(u)
        return time_part, flux_part

    return float(np.max(np.abs(_hat_pairings(traj, km.t_basis, km.x_basis, per_state))))


def interface_W(u1p, u1m, u2p, u2m, bplus_nu):
    """Trace-coupling functional at one singular-set point, with <B+, nu>
    in both lines (the stated form)."""
    return (bplus_nu(u1p) * (-2.0 * chi(u1p, u2p) + 2.0 * chi(u1m, u2m))
            + bplus_nu(u2p) * (-2.0 * chi(u2p, u1p) + 2.0 * chi(u2m, u1m)))


def accumulated_interface_W(flux: FluxSpec, kplus, traces, dt):
    """\\int_0^T sum over interfaces of W(traces of u1, traces of u2) dt, plus
    the worst per-sample value.  traces[d, n, 2 j + (0, 1)] hold datum d's
    states at level n in the cells i-1, i beside interface j, kplus[j] = k_i."""
    ws = [np.zeros(0)]
    for j, kp in enumerate(kplus):
        bplus = lambda t, kp_=kp: flux.flux_at(kp_, t)
        (u1m, u1p), (u2m, u2p) = np.moveaxis(traces[:, :-1, 2 * j:2 * j + 2], 2, 1)
        ws.append(interface_W(u1p, u1m, u2p, u2m, bplus))
    w = np.concatenate(ws)
    if not w.size:
        return 0.0, 0.0
    # cumsum adds the samples one at a time, interface by interface
    return float(np.cumsum(w * dt)[-1]), float(np.max(w))


def kato_cells(domain, dx):
    """The number of cells of kato_check's dx mesh on the domain."""
    return int(round((domain.bounds[0][1] - domain.bounds[0][0]) / dx))


def kato_check(flux: FluxSpec, pairs, T, dx_list, domain):
    """Contraction tables over a refinement sequence, at cfl DEFAULT_CFL: one
    list of rows, one row per dx, for each data pair (u0_a, u0_b) of pairs.

    Per dx, one sweep marches every datum of every pair, and each row holds
    its pair's L1 distances at 0 and T, their deficit, and the accumulated
    interface W integral with its worst sample.  The sweep treats each datum
    on its own, so a pair's rows equal those of a march of that pair alone.
    """
    per_dx = [_kato_rows(flux, pairs, T, dx, domain) for dx in dx_list]
    return [list(rows) for rows in zip(*per_dx)]


def _kato_rows(flux: FluxSpec, pairs, T, dx, domain):
    """The kato_check rows of one dx, one per pair: all data march in one
    sweep on the dx mesh, which keeps the final states and the cells i-1, i
    beside each interface face i."""
    ncells = kato_cells(domain, dx)
    data = [cell_averages(domain, ncells, u0) for pair in pairs for u0 in pair]
    mesh = GridState(domain, data[0])
    l1 = lambda a, b: float(np.sum(np.abs(a - b)) * mesh.dx)
    cells = lambda kv: np.ravel([[i - 1, i] for i in interface_faces(kv)]).astype(int)
    kvals, times, traces, final = _solve(flux, mesh, data, T, cells)
    faces = interface_faces(kvals)
    rows = []
    for a in range(0, len(data), 2):
        d0, dT = l1(data[a], data[a + 1]), l1(final[a], final[a + 1])
        w, w_worst = accumulated_interface_W(flux, kvals[faces], traces[a:a + 2],
                                             times[1] - times[0])
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divchain import BVFunction, Domain, plateau_bump
from divchain.cli import bundled_dir
from divchain.conslaw import (EntropyPair, FluxSpec, GridState, Trajectory,
                              accumulated_interface_W, cavalieri_lhs, chi,
                              div_xv_zero_residual, entropy_residual, fv_solve,
                              interface_W, kato_check, kinetic_identity_residual,
                              kinetic_measure, l1_distance)
from divchain.conslaw.hatbasis import PiecewiseLinearWeight, hat_derivative
from divchain.errors import KineticViolationError, ScenarioValidationError
from divchain.quadrature import gauss
from divchain.runner import run_scenario
from divchain.scenario import load

from conftest import ONES, ZEROS

DOM = Domain.interval(-1.0, 1.0)


def const_k(dom=DOM):
    return BVFunction.piecewise_1d(dom, [], values=[ONES], grads=[ZEROS])


def burgers_flux():
    return FluxSpec(const_k(),
                    lambda k, u: 0.5 * np.asarray(u) ** 2 * np.ones_like(np.asarray(k)),
                    lambda k, u: np.asarray(u) * np.ones_like(np.asarray(k)),
                    u_range=(0.0, 1.0), critical=lambda kv: (0.0,))


def transport_flux():
    return FluxSpec(const_k(), lambda k, u: np.asarray(k) * np.asarray(u),
                    lambda k, u: np.asarray(k) * np.ones_like(np.asarray(u, dtype=float)),
                    u_range=(0.0, 1.0))


def piecewise_k(breaks, values):
    return BVFunction.piecewise_1d(
        DOM, list(breaks), values=[lambda x, v=v: v * np.ones_like(x) for v in values],
        grads=[ZEROS] * len(values))


def traffic_flux(kvals=(1.0, 0.6), break_at=0.5):
    k = const_k() if kvals[0] == kvals[1] else piecewise_k([break_at], kvals)
    return FluxSpec(k, lambda kk, u: np.asarray(kk) * np.asarray(u) * (1 - np.asarray(u)),
                    lambda kk, u: np.asarray(kk) * (1 - 2 * np.asarray(u)),
                    u_range=(0.0, 1.0), critical=lambda kv: (0.5,))


S_QUAD = EntropyPair(lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
                     lambda u: np.asarray(u, dtype=float),
                     lambda u: np.ones_like(np.asarray(u, dtype=float)))


# -- chi and Cavalieri -------------------------------------------------

def test_chi_values():
    assert chi(0.5, 1.0) == 1.0
    assert chi(1.0, 1.0) == 0.5
    assert chi(2.0, 1.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False))
def test_cavalieri_identity(u1, u2):
    assert abs(cavalieri_lhs(u1, u2) - abs(u1 - u2)) <= 1e-12 * max(1, abs(u1), abs(u2))


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_W_zero_for_equal_traces(a, b, c, d):
    f = lambda t: t * (1 - t)
    assert interface_W(a, b, a, b, f) == 0.0
    # spec example: constant distinct states
    assert interface_W(0.0, 0.0, 1.0, 1.0, f) == 0.0


def test_W_detects_inadmissible_pair():
    f = lambda t: t * (1 - t)
    # expansion-shock traces against a constant: strictly positive coupling
    assert interface_W(0.2, 0.8, 0.5, 0.5, f) > 0.05


# -- entropy flux ------------------------------------------------------

def test_entropy_flux_closed_forms(dom11):
    flux = burgers_flux()
    v = np.array([0.3, 0.7, 1.0])
    got = S_QUAD.eta_of_k(flux, 1.0, v)
    assert np.allclose(got, v ** 3 / 3, atol=1e-12)
    lin = EntropyPair(lambda u: np.asarray(u, dtype=float),
                      lambda u: np.ones_like(np.asarray(u, dtype=float)))
    got2 = lin.eta_of_k(flux, 1.0, v)
    assert np.allclose(got2, v ** 2 / 2, atol=1e-12)  # eta = B for S' = 1


def test_entropy_flux_kruzkov_regularized():
    # smoothed |w - c| entropy against the traffic flux: compare quadrature
    # with the closed form of int (1 - 2w) dS'(w)
    flux = traffic_flux((1.0, 1.0))
    c, eps = 0.4, 0.05
    S = EntropyPair(lambda u: np.sqrt((np.asarray(u) - c) ** 2 + eps ** 2),
                    lambda u: (np.asarray(u) - c) / np.sqrt((np.asarray(u) - c) ** 2 + eps ** 2))
    v = np.array([0.9])
    got = S.eta_of_k(flux, 1.0, v)[0]
    from scipy.integrate import quad
    ref = quad(lambda w: (1 - 2 * w) * (w - c) / np.sqrt((w - c) ** 2 + eps ** 2),
               0, 0.9, points=[c], epsabs=1e-13)[0]
    assert got == pytest.approx(ref, abs=1e-9)


# -- solver ------------------------------------------------------------

def test_constant_preserved():
    traj = fv_solve(transport_flux(), GridState(DOM, np.full(100, 0.4)), 0.5)
    assert np.max(np.abs(traj.states - 0.4)) == 0.0


def test_transport_first_order_convergence():
    bump = lambda x: 0.8 * np.exp(-40 * (x + 0.4) ** 2)
    errs = []
    for n in (100, 200, 400):
        g = GridState.from_function(DOM, n, bump)
        tr = fv_solve(transport_flux(), g, 0.5)
        exact = bump(tr.centers - 0.5)     # method of characteristics
        errs.append(float(np.sum(np.abs(tr.states[-1] - exact)) * tr.dx))
    assert errs[1] < 0.7 * errs[0] and errs[2] < 0.7 * errs[1]
    assert errs[2] < 0.02


def test_interface_steady_profile():
    # Riemann data chosen so the interface carries equal flux on both sides:
    # shooting on k- u(1-u) = kp w(1-w) with the admissible branch pair
    flux = traffic_flux((1.0, 0.5), break_at=0.0)
    phi_flux = 0.09                       # = 1 * 0.1 * 0.9
    uL = 0.1                              # left branch of k=1 flux
    # supply-limited right state on k=0.5: solve 0.5 w(1-w) = 0.09, w > 0.5
    wR = 0.5 * (1 + np.sqrt(1 - 4 * phi_flux / 0.5))
    u0 = lambda x: np.where(x < 0, uL, wR)
    g = GridState.from_function(DOM, 200, u0, cell_average=False)
    traj = fv_solve(flux, g, 0.5)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-12
    fl = flux.flux_at(1.0, traj.states[-1][50])
    fr = flux.flux_at(0.5, traj.states[-1][150])
    assert fl == pytest.approx(phi_flux, abs=1e-12)
    assert fr == pytest.approx(phi_flux, abs=1e-12)


def test_max_principle_and_cfl_guard():
    bump = lambda x: 0.8 * np.exp(-40 * x ** 2)
    g = GridState.from_function(DOM, 100, bump)
    traj = fv_solve(burgers_flux(), g, 0.5)
    assert traj.states.min() >= 0.0 - 1e-14
    assert traj.states.max() <= float(np.max(g.averages)) + 1e-14
    with pytest.raises(ScenarioValidationError):
        fv_solve(burgers_flux(), g, 0.5, cfl=1.5)


# -- entropy residual ---------------------------------------------------

def shock_traj(n, T=0.8):
    rq = lambda x: np.where(x < -0.3, 1.0, 0.0)
    g = GridState.from_function(DOM, n, rq, cell_average=False)
    return fv_solve(burgers_flux(), g, T)


def test_entropy_residual_smooth_refines_to_zero():
    vals = []
    for n in (100, 200):
        bump = lambda x: 0.5 * np.exp(-20 * (x + 0.4) ** 2)
        g = GridState.from_function(DOM, n, bump)
        traj = fv_solve(transport_flux(), g, 0.4)
        vals.append(entropy_residual(traj, S_QUAD)["worst_residual"])
    assert vals[0] <= 0.05 and vals[1] <= 0.6 * vals[0] + 1e-10


def test_entropy_residual_shock_nonpositive():
    worsts = []
    for n in (100, 200, 400):
        er = entropy_residual(shock_traj(n), S_QUAD)
        worsts.append(er["worst_residual"])
    for n, w in zip((100, 200, 400), worsts):
        assert w <= 2.0 * (2.0 / n) + 1e-7
    assert worsts[2] <= worsts[0] + 1e-9


def test_entropy_residual_negative_control():
    # expansion shock inserted by hand: residual must go positive
    traj = shock_traj(200)
    xs = traj.centers
    states = np.where(xs[None, :] < -0.3 + 0.5 * traj.times[:, None], 0.0, 1.0)
    bad = Trajectory(traj.flux, GridState(DOM, states[0]), traj.times, states, traj.kvals)
    er = entropy_residual(bad, S_QUAD)
    assert er["worst_residual"] > 0.01


# Reference: the 2-D quadrature the entropy residual used before it
# integrated each bump one factor at a time.  Every bump phi(t, x) is
# evaluated at every (time level or Gauss node) x (cell Gauss node or face).

def ref_cell_integrals(phi_t, edges, tvals):
    """(ntimes, ncells) of \\int_cell phi(t, x) dx, Gauss-5 per cell."""
    gx, gw = gauss(5)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    acc = np.zeros((len(tvals), len(mid)))
    for xi, wi in zip(gx, gw):
        xs = mid + half * xi
        pts = np.column_stack([np.repeat(tvals, len(xs)), np.tile(xs, len(tvals))])
        acc += wi * phi_t(pts).reshape(len(tvals), len(xs))
    return acc * half[None, :]


def ref_edge_time_integrals(phi_t, xs, t_edges):
    """(nslabs, nx) of \\int_slab phi(t, x) dt, Gauss-4 per slab."""
    gx, gw = gauss(4)
    mid = 0.5 * (t_edges[:-1] + t_edges[1:])
    half = 0.5 * (t_edges[1:] - t_edges[:-1])
    acc = np.zeros((len(mid), len(xs)))
    for xi, wi in zip(gx, gw):
        ts = mid + half * xi
        pts = np.column_stack([np.repeat(ts, len(xs)), np.tile(xs, len(ts))])
        acc += wi * phi_t(pts).reshape(len(ts), len(xs))
    return acc * half[:, None]


def ref_space_time_bumps(traj, n=5):
    t0, t1 = traj.times[0], traj.times[-1]
    (xlo, xhi), = traj.domain.bounds
    tspan, xspan = t1 - t0, xhi - xlo
    tsup = (t0 + 0.08 * tspan, t1 - 0.08 * tspan)
    tpl = (t0 + 0.25 * tspan, t1 - 0.25 * tspan)
    centers = [xlo + f * xspan for f in (0.3, 0.5, 0.7)]
    centers += [traj.edges[i] for i in traj.interfaces()]
    fns = []
    for j, c in enumerate(centers[:n]):
        w = 0.22 * xspan
        lo = max(c - w, xlo + 0.02 * xspan)
        hi = min(c + w, xhi - 0.02 * xspan)
        fns.append(plateau_bump([tsup, (lo, hi)],
                                [tpl, (lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))],
                                label=f"st{j}"))
    return fns


def ref_entropy_residual(traj, pair):
    flux = traj.flux
    slabs = traj.states[:-1]
    t_edges = traj.times
    eta = np.empty_like(slabs)
    for kv in np.unique(traj.kvals.round(12)):
        cols = np.flatnonzero(np.abs(traj.kvals - kv) <= 1e-12)
        eta[:, cols] = pair.eta_of_k(flux, kv, slabs[:, cols].ravel()).reshape(
            slabs.shape[0], len(cols))
    s_of_u = np.asarray(pair.S(traj.states), dtype=float)
    rows = []
    for phi in ref_space_time_bumps(traj):
        cellint = ref_cell_integrals(phi.value, traj.edges, t_edges)
        term_time = -float(np.sum(s_of_u[:-1] * (cellint[1:] - cellint[:-1])))
        edgeint = ref_edge_time_integrals(phi.value, traj.edges, t_edges)
        term_flux = -float(np.sum(eta * (edgeint[:, 1:] - edgeint[:, :-1])))
        term_iface = 0.0
        for i in traj.interfaces():
            km, kp = traj.kvals[i - 1], traj.kvals[i]
            variants = []
            for uhat in (slabs[:, i - 1], slabs[:, i]):
                eta_jump = pair.eta_of_k(flux, kp, uhat) - pair.eta_of_k(flux, km, uhat)
                b_jump = flux.flux_at(kp, uhat) - flux.flux_at(km, uhat)
                variants.append(float(np.sum(
                    edgeint[:, i] * (-eta_jump + np.asarray(pair.dS(uhat)) * b_jump))))
            term_iface += max(variants)
        rows.append({"phi": phi.label, "residual": term_time + term_flux + term_iface,
                     "terms": {"time": term_time, "flux": term_flux, "iface": term_iface}})
    return {"worst_residual": max(r["residual"] for r in rows), "rows": rows}


# a convex entropy that is not quadratic: S = exp(u)
S_EXP = EntropyPair(lambda u: np.exp(np.asarray(u, dtype=float)),
                    lambda u: np.exp(np.asarray(u, dtype=float)),
                    lambda u: np.exp(np.asarray(u, dtype=float)))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 12), ntimes=st.integers(2, 30), jump=st.booleans(),
       quad=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
def test_entropy_residual_matches_2d_quadrature(m, ntimes, jump, quad, seed):
    rng = np.random.default_rng(seed)
    n = 4 * m
    face = int(rng.integers(1, n))
    flux = traffic_flux((1.0, 0.6) if jump else (1.0, 1.0), break_at=-1.0 + 2.0 * face / n)
    grid = GridState(DOM, np.zeros(n))
    # piecewise-constant random states on non-uniform time levels
    times = float(rng.uniform(0, 1)) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.01, 0.2, ntimes - 1))])
    states = rng.uniform(0, 1, (ntimes, n))
    traj = Trajectory(flux, grid, times, states, flux.k.eval(grid.centers[:, None]))
    assert traj.interfaces() == ([face] if jump else [])
    pair = S_QUAD if quad else S_EXP
    got = entropy_residual(traj, pair)
    ref = ref_entropy_residual(traj, pair)
    close = lambda a, b: abs(a - b) <= 1e-14 * max(1.0, abs(b))
    assert [r["phi"] for r in got["rows"]] == [r["phi"] for r in ref["rows"]]
    for g, r in zip(got["rows"], ref["rows"]):
        for key in ("time", "flux", "iface"):
            assert close(g["terms"][key], r["terms"][key]), (g, r)
    assert close(got["worst_residual"], ref["worst_residual"])


# -- kinetic measure ----------------------------------------------------

def test_kinetic_smooth_is_small():
    bump = lambda x: 0.5 * np.exp(-20 * (x + 0.4) ** 2)
    g = GridState.from_function(DOM, 200, bump)
    traj = fv_solve(transport_flux(), g, 0.4)
    km = kinetic_measure(traj)
    assert km.total_mass < 5e-3
    assert abs(km.min_cell) < 5e-3


def test_kinetic_standing_shock_mass_and_positivity():
    # standing admissible shock for the concave flux: dissipation rate
    # s[S] - [eta] with s = 0, compared on the hat-windowed region
    flux = traffic_flux((1.0, 1.0))
    u0 = lambda x: np.where(x < 0.0, 0.2, 0.8)
    g = GridState.from_function(DOM, 800, u0, cell_average=False)
    traj = fv_solve(flux, g, 0.8)
    km = kinetic_measure(traj, n_t=6, n_x=10, n_v=14)
    assert km.min_cell >= -1e-8
    eta = lambda u: u ** 2 / 2 - 2 * u ** 3 / 3
    rate = eta(0.2) - eta(0.8)
    window = sum(h.integral() for h in km.t_basis.hats)
    assert km.total_mass == pytest.approx(rate * window, rel=0.02)


def test_kinetic_negative_control_raises():
    traj = shock_traj(200)
    xs = traj.centers
    states = np.where(xs[None, :] < -0.3 + 0.5 * traj.times[:, None], 0.0, 1.0)
    bad = Trajectory(traj.flux, GridState(DOM, states[0]), traj.times, states, traj.kvals)
    with pytest.raises(KineticViolationError):
        kinetic_measure(bad).check_nonnegative()


def test_kinetic_identity_machine_level():
    traj = shock_traj(100)
    km = kinetic_measure(traj, n_t=6, n_x=8, n_v=10)
    assert kinetic_identity_residual(traj, km) < 1e-12


def test_kinetic_identity_catches_broken_by_parts_term(monkeypatch):
    # the interface parts cancel inside the identity, so the check must
    # still fail when a per-state by-parts term is wrong
    traj = shock_traj(100)
    km = kinetic_measure(traj, n_t=6, n_x=8, n_v=10)
    monkeypatch.setattr(PiecewiseLinearWeight, "upper_integral",
                        lambda self, u: np.zeros_like(np.asarray(u, dtype=float)))
    assert kinetic_identity_residual(traj, km) > 1e-6


def test_kinetic_identity_gate_catches_small_by_parts_error(monkeypatch, tmp_path):
    # a 0.1% error in one by-parts term must fail; an O(dx) slack would hide it
    def identity_check():
        res = run_scenario(load(str(bundled_dir() / "traffic-kato.scn")), out_dir=str(tmp_path))
        check, = [c for c in res.checks if c["name"] == "conslaw:kinetic_identity"]
        return check["pass"]

    assert identity_check()
    upper = PiecewiseLinearWeight.upper_integral
    monkeypatch.setattr(PiecewiseLinearWeight, "upper_integral",
                        lambda self, u: upper(self, u) * (1 + 1e-3))
    assert not identity_check()


# Reference: the assembly before the per-state v-integrals were taken once
# per distinct (k, u) state.  Every slab state is integrated per hat, and
# the identity check re-assembles m with the hat derivatives as v-weights.

def ref_assemble_masses(traj, t_basis, x_basis, v_weights):
    flux = traj.flux
    slabs = traj.states[:-1]
    t_edges = traj.times
    TI = t_basis.seg_integrals(t_edges)
    dT = t_basis.vals(t_edges)
    dT = dT[:, 1:] - dT[:, :-1]
    XI = x_basis.seg_integrals(traj.edges)
    dX = x_basis.point_diffs(traj.edges)
    kround = traj.kvals.round(12)
    ifaces = [(i, (slabs[:, i - 1], slabs[:, i])) for i in traj.interfaces()]
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


def ref_kinetic_identity_residual(traj, km):
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
    m_dv = ref_assemble_masses(traj, km.t_basis, km.x_basis, dvhs)
    worst = 0.0
    kround = traj.kvals.round(12)
    for c, vh in enumerate(km.v_basis.hats):
        chi_int = vh.cdf(slabs.ravel()).reshape(slabs.shape)
        t1 = -(dT @ chi_int @ XI.T)
        bi = np.empty_like(slabs)
        for kv in np.unique(kround):
            cols = np.flatnonzero(np.abs(traj.kvals - kv) <= 1e-12)
            bi[:, cols] = vh.weighted_to_upper(
                lambda v, kv=kv: flux.speed_at(kv, v), slabs[:, cols].ravel()) \
                .reshape(slabs.shape[0], len(cols))
        t2 = -(TI @ bi @ dX.T)
        t3 = np.zeros_like(t1)
        for i in traj.interfaces():
            km_, kp_ = traj.kvals[i - 1], traj.kvals[i]
            xw = km.x_basis.vals(np.array([traj.edges[i]]))[:, 0]
            jump = np.zeros(slabs.shape[0])
            for uh in (slabs[:, i - 1], slabs[:, i]):
                jump += dvhs[c].weighted_to_upper(
                    lambda v: flux.flux_at(kp_, v) - flux.flux_at(km_, v), uh) / 2
            t3 += np.outer(TI @ jump, xw)
        res = t1 + t2 + t3 + m_dv[:, :, c]
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 10), ntimes=st.integers(2, 25), npool=st.integers(1, 5),
       jump=st.booleans(), expo=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
def test_kinetic_assembly_matches_reference(m, ntimes, npool, jump, expo, seed):
    rng = np.random.default_rng(seed)
    n = 4 * m
    face = int(rng.integers(1, n))
    flux = traffic_flux((1.0, 0.6) if jump else (1.0, 1.0), break_at=-1.0 + 2.0 * face / n)
    if expo:
        flux = FluxSpec(flux.k, lambda kk, u: np.asarray(kk) * (np.exp(np.asarray(u)) - 1.0),
                        lambda kk, u: np.asarray(kk) * np.exp(np.asarray(u)), u_range=(0.0, 1.0))
    grid = GridState(DOM, np.zeros(n))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, ntimes - 1))])
    # piecewise-constant states from a small pool, so that they repeat
    pool = np.append(rng.uniform(0, 1, npool), 0.0)
    states = rng.choice(pool, (ntimes, n))
    traj = Trajectory(flux, grid, times, states, flux.k.eval(grid.centers[:, None]))
    assert traj.interfaces() == ([face] if jump else [])
    km = kinetic_measure(traj, n_t=4, n_x=5, n_v=6)
    assert np.array_equal(km.masses, ref_assemble_masses(traj, km.t_basis, km.x_basis,
                                                         km.v_basis.hats))
    got = kinetic_identity_residual(traj, km)
    ref = ref_kinetic_identity_residual(traj, km)
    assert got <= 1e-12 and ref <= 1e-12
    assert abs(got - ref) <= 1e-15


def test_div_xv_zero():
    psi = plateau_bump([(-0.6, 0.6), (0.05, 0.9)], [(-0.3, 0.3), (0.3, 0.7)])
    for flux in (traffic_flux((1.0, 0.6), 0.0), burgers_flux(), transport_flux()):
        assert abs(div_xv_zero_residual(flux, psi)) < 1e-7


# -- contraction --------------------------------------------------------

def kato_bump(c, w=0.25, a=0.2):
    def f(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return 0.4 + a * (1 - np.minimum(1, np.abs((x - c) / w)) ** 2) ** 2
    return f


def test_kato_identical_data():
    flux = traffic_flux()
    rows = kato_check(flux, lambda x: 0.4 * np.ones(len(x)),
                      lambda x: 0.4 * np.ones(len(x)), 0.2, [1 / 100], DOM)
    assert rows[0]["l1_initial"] == 0.0 and rows[0]["l1_final"] == 0.0


def test_kato_transport_isometry():
    flux = transport_flux()
    rows = kato_check(flux, kato_bump(-0.5), kato_bump(-0.3),
                      0.25, [1 / 100, 1 / 200], DOM)
    for r in rows:
        assert r["contraction_holds"]
        assert 0 <= r["deficit"] <= 3.0 * r["dx"]


def test_kato_traffic_contraction_and_halving():
    flux = traffic_flux()
    rows = kato_check(flux, kato_bump(-0.55), kato_bump(-0.35),
                      0.25, [1 / 100, 1 / 200, 1 / 400], DOM)
    for r in rows:
        assert r["contraction_holds"]
        assert r["W_worst_sample"] <= 1e-8
        assert r["W_integral"] <= 1e-6 + 10 * r["dx"]
    ratio = rows[2]["deficit"] / rows[1]["deficit"]
    assert 0.35 <= ratio <= 0.65


def test_interface_W_accumulation_vanishes_for_ordered_pair():
    flux = traffic_flux()
    base = lambda x: 0.4 * np.ones(len(x))
    upper = lambda x: np.clip(kato_bump(0.4, w=0.5, a=0.25)(x), 0, 1)
    ga = GridState.from_function(DOM, 200, base)
    gb = GridState.from_function(DOM, 200, upper)
    ta = fv_solve(flux, ga, 0.4)
    tb = fv_solve(flux, gb, 0.4)
    total, worst = accumulated_interface_W(ta, tb)
    assert abs(total) <= 1e-12 and worst <= 1e-12
    assert l1_distance(ta.final(), tb.final()) <= l1_distance(ga, gb) + 1e-12


# Reference: accumulated_interface_W as a loop over every time step, with
# interface_W on scalar traces.

def ref_accumulated_interface_W(traj_a, traj_b):
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


@settings(max_examples=100, deadline=None)
@given(nif=st.integers(0, 2), n=st.integers(4, 30), ntimes=st.integers(1, 40),
       seed=st.integers(0, 2 ** 31 - 1))
def test_accumulated_interface_W_matches_loop(nif, n, ntimes, seed):
    rng = np.random.default_rng(seed)
    faces = np.sort(rng.choice(np.arange(1, n), nif, replace=False))
    traffic = traffic_flux()
    flux = FluxSpec(piecewise_k(-1.0 + 2.0 * faces / n, rng.uniform(0.3, 1.5, nif + 1)),
                    traffic.ahat, traffic.dahat_du, traffic.u_range, traffic.critical)
    grid = GridState(DOM, np.zeros(n))
    times = np.linspace(0.0, float(rng.uniform(0.1, 1.0)), ntimes)
    kvals = flux.k.eval(grid.centers[:, None])
    # traces from a small pool, so that equal and ordered pairs occur
    pool = rng.uniform(0, 1, 4)
    ta, tb = (Trajectory(flux, grid, times, rng.choice(pool, (ntimes, n)), kvals)
              for _ in range(2))
    assert ta.interfaces() == faces.tolist()
    total, worst = accumulated_interface_W(ta, tb)
    ref_total, ref_worst = ref_accumulated_interface_W(ta, tb)
    assert total == ref_total and worst == ref_worst

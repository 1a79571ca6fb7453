import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divchain import BVFunction, plateau_bump
from divchain.cli import bundled_dir
from divchain.conslaw import (EntropyPair, FluxSpec, GridState, Trajectory, chi,
                              entropy_residual, fv_solve, interface_W, kato_check,
                              kinetic_identity_residual, kinetic_measure)
from divchain.conslaw.hatbasis import PiecewiseLinearWeight
from divchain.errors import ScenarioValidationError
from divchain.exprs import compile_uv
from divchain.quadrature import gauss
from divchain.runner import run_scenario
from divchain.scenario import load

from conftest import ONES, ZEROS
from helpers import (cavalieri_lhs, div_xv_zero_residual, final_state, interface_traces,
                     interval_domain, l1_distance, point_sampled, trajectory_W)
from test_hatbasis import hat_derivative, per_hat

DOM = interval_domain(-1.0, 1.0)


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


def test_entropy_flux_at_the_declared_degree():
    # (1 - 2w) w has degree 2: one two-point Gauss rule, exact
    calls = []
    base = traffic_flux((1.0, 1.0))

    def speed(kk, u):
        calls.append(1)
        return base.dahat_du(kk, u)

    flux = FluxSpec(base.k, base.ahat, speed, base.u_range, base.critical,
                    ahat_degree=2, speed_degree=1)
    pair = EntropyPair(S_QUAD.S, S_QUAD.dS, S_QUAD.d2S, dS_degree=1)
    v = np.array([-0.4, 0.0, 0.3, 0.7, 1.0])
    calls.clear()       # FluxSpec probes the speed when it is built
    got = pair.eta_of_k(flux, 1.0, v)
    assert len(calls) == 2
    assert np.all(np.abs(got - (v ** 2 / 2 - 2 * v ** 3 / 3)) <= 1e-15)


def test_bundled_flux_declares_its_degrees():
    scn = load(str(bundled_dir() / "traffic-kato.scn"))
    assert (scn.flux.ahat_degree, scn.flux.speed_degree) == (2, 1)


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


# Reference: sup |dAhat_du| as FluxSpec took it before, one call per u of the
# 101-point grid of u_range.
def ref_sup_speed(flux):
    pts = flux.k.domain.grid(33)
    ks = flux.k.eval(pts[~flux.k.on_jump(pts, tol=1e-9)])
    worst = 0.0
    for u in np.linspace(*flux.u_range, 101):
        worst = max(worst, float(np.max(np.abs(flux.dahat_du(ks, u)))))
    return worst


@pytest.mark.parametrize("ahat, dahat", [
    ("k*u*(1-u)", "k*(1-2*u)"),
    ("k*(exp(u) - 1)", "k*exp(u)"),
    ("sin(3*u)*k^2", "3*cos(3*u)*k^2"),
    ("k*u*sqrt(u + 0.1)", "k*sqrt(u + 0.1) + k*u/(2*sqrt(u + 0.1))"),
])
def test_sup_speed_matches_the_per_u_loop(ahat, dahat):
    k = piecewise_k([-0.2, 0.45], [1.3, 0.7, 2.1])
    flux = FluxSpec(k, compile_uv(ahat)[0], compile_uv(dahat)[0], u_range=(-0.05, 1.2))
    assert flux.M == ref_sup_speed(flux)


def test_non_finite_flux_is_a_validation_error():
    k = piecewise_k([0.0], [1.0, 0.5])
    with pytest.raises(ScenarioValidationError, match=r"^line 7: ahat is not finite"):
        FluxSpec(k, lambda kk, u: kk * np.sqrt(u - 0.5), lambda kk, u: kk + 0 * u,
                 u_range=(0.0, 1.0), lines=(7, 8))
    with pytest.raises(ScenarioValidationError, match=r"^dahat_du is not finite"):
        FluxSpec(k, lambda kk, u: kk * u, lambda kk, u: kk / (u - 0.5) ** 0.5,
                 u_range=(0.0, 1.0))


def test_a_speed_that_is_not_the_derivative_is_kept_for_the_loader():
    k = piecewise_k([0.0], [1.0, 0.5])
    # kinks of ahat at a probe u (0.5) and between two (1/3) match the one-sided speeds
    for c in (0.5, 1.0 / 3.0):
        kinked = FluxSpec(k, lambda kk, u, c=c: kk * np.minimum(u, 2 * c - u),
                          lambda kk, u, c=c: kk * np.sign(c - u), u_range=(0.0, 1.0))
        assert kinked.speed_mismatch is None
    half = FluxSpec(k, lambda kk, u: kk * u * u, lambda kk, u: kk * u, u_range=(0.0, 1.0),
                    lines=(7, 8))
    assert half.speed_mismatch.startswith("line 8: dahat_du is not the u-derivative of ahat")


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
    g = point_sampled(DOM, 200, u0)
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
        fv_solve(burgers_flux(), GridState.from_function(DOM, 100, bump, cfl=1.5), 0.5)


# -- entropy residual ---------------------------------------------------

def shock_traj(n, T=0.8):
    rq = lambda x: np.where(x < -0.3, 1.0, 0.0)
    g = point_sampled(DOM, n, rq)
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
    g = point_sampled(DOM, 800, u0)
    traj = fv_solve(flux, g, 0.8)
    km = kinetic_measure(traj, n_t=6, n_x=10, n_v=14)
    assert km.min_cell >= -1e-8
    eta = lambda u: u ** 2 / 2 - 2 * u ** 3 / 3
    rate = eta(0.2) - eta(0.8)
    window = sum(km.t_basis.hats.integral())
    assert km.total_mass == pytest.approx(rate * window, rel=0.02)


def test_slab_states_are_decomposed_once_per_trajectory(monkeypatch):
    # entropy_residual, kinetic_measure and kinetic_identity_residual share
    # one np.unique over the slab states per coefficient value
    flux = traffic_flux()
    traj = fv_solve(flux, GridState.from_function(DOM, 40, kato_bump(0.2)), 0.3)
    assert len(traj.interfaces()) == 1
    unique, decompositions = np.unique, []

    def counted(*args, **kw):
        if kw.get("return_inverse"):
            decompositions.append(np.size(args[0]))
        return unique(*args, **kw)

    monkeypatch.setattr(np, "unique", counted)
    entropy_residual(traj, S_QUAD)
    kinetic_identity_residual(traj, kinetic_measure(traj, n_t=3, n_x=4, n_v=5))
    assert sum(decompositions) == (len(traj.times) - 1) * len(traj.centers)
    assert len(decompositions) == 2


def test_kinetic_negative_control_raises():
    traj = shock_traj(200)
    xs = traj.centers
    states = np.where(xs[None, :] < -0.3 + 0.5 * traj.times[:, None], 0.0, 1.0)
    bad = Trajectory(traj.flux, GridState(DOM, states[0]), traj.times, states, traj.kvals)
    assert kinetic_measure(bad).min_cell < -1e-8


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
# per distinct (k, u) state, on one weight object per hat (test_hatbasis.py),
# so that it shares no code with the weight families.  Every slab state is
# integrated per hat, and the identity check re-assembles m with the hat
# derivatives as v-weights.

def ref_tables(hats, edges):
    """Per hat, its integrals over [e_k, e_{k+1}] and its differences
    hat(e_{k+1}) - hat(e_k)."""
    cdfs = np.stack([h.cdf(edges) for h in hats])
    vals = np.stack([h.val(edges) for h in hats])
    return cdfs[:, 1:] - cdfs[:, :-1], vals[:, 1:] - vals[:, :-1]


def ref_assemble_masses(traj, t_hats, x_hats, v_weights):
    flux = traj.flux
    slabs = traj.states[:-1]
    TI, dT = ref_tables(t_hats, traj.times)
    XI, dX = ref_tables(x_hats, traj.edges)
    kround = traj.kvals.round(12)
    ifaces = [(i, (slabs[:, i - 1], slabs[:, i])) for i in traj.interfaces()]
    masses = np.empty((len(t_hats), len(x_hats), len(v_weights)))
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
            xw = np.array([h.val(traj.edges[i]) for h in x_hats])
            xi = np.zeros(slabs.shape[0])
            for uh in uhat:
                xi += vh.weighted_to_upper(
                    lambda v: flux.flux_at(kp_, v) - flux.flux_at(km_, v), uh) / len(uhat)
            m -= np.outer(TI @ xi, xw)
        masses[:, :, c] = m
    return masses


def ref_bases(km):
    """The per-hat t, x and v hats on the nodes of km's bases."""
    return tuple(per_hat(b.nodes) for b in (km.t_basis, km.x_basis, km.v_basis))


def ref_kinetic_identity_residual(traj, km):
    flux = traj.flux
    slabs = traj.states[:-1]
    t_hats, x_hats, v_hats = ref_bases(km)
    TI, dT = ref_tables(t_hats, traj.times)
    XI, dX = ref_tables(x_hats, traj.edges)
    dvhs = per_hat(km.v_basis.nodes, hat_derivative)
    m_dv = ref_assemble_masses(traj, t_hats, x_hats, dvhs)
    worst = 0.0
    kround = traj.kvals.round(12)
    for c, vh in enumerate(v_hats):
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
            xw = np.array([h.val(traj.edges[i]) for h in x_hats])
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
    assert np.array_equal(km.masses, ref_assemble_masses(traj, *ref_bases(km)))
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
    rows, = kato_check(flux, [(lambda x: 0.4 * np.ones(len(x)),
                               lambda x: 0.4 * np.ones(len(x)))], 0.2, [1 / 100], DOM)
    assert rows[0]["l1_initial"] == 0.0 and rows[0]["l1_final"] == 0.0


def test_kato_transport_isometry():
    flux = transport_flux()
    rows, = kato_check(flux, [(kato_bump(-0.5), kato_bump(-0.3))],
                       0.25, [1 / 100, 1 / 200], DOM)
    for r in rows:
        assert r["contraction_holds"]
        assert 0 <= r["deficit"] <= 3.0 * r["dx"]


def test_kato_traffic_contraction_and_halving():
    flux = traffic_flux()
    rows, = kato_check(flux, [(kato_bump(-0.55), kato_bump(-0.35))],
                       0.25, [1 / 100, 1 / 200, 1 / 400], DOM)
    for r in rows:
        assert r["contraction_holds"]
        assert r["W_worst_sample"] <= 1e-8
        assert r["W_integral"] <= 1e-6 + 10 * r["dx"]
    ratio = rows[2]["deficit"] / rows[1]["deficit"]
    assert 0.35 <= ratio <= 0.65


def two_solve_row(flux, ua, ub, T, dx):
    """The kato_check row of one dx, built from two full one-datum
    trajectories; and the first of them."""
    ga, gb = (GridState.from_function(DOM, round(2 / dx), u0, cfl=0.45) for u0 in (ua, ub))
    ta, tb = fv_solve(flux, ga, T), fv_solve(flux, gb, T)
    d0 = l1_distance(ga, gb)
    dT = l1_distance(final_state(ta), final_state(tb))
    w, w_worst = trajectory_W(ta, tb)
    return {"dx": dx, "l1_initial": d0, "l1_final": dT, "deficit": d0 - dT,
            "contraction_holds": bool(dT <= d0 + 1e-12),
            "W_integral": w, "W_worst_sample": w_worst}, ta


def test_kato_rows_match_two_solves_per_mesh():
    # kato_check marches both data in one sweep; every row must equal that
    # of two separate one-datum solves on the same mesh
    flux = traffic_flux()
    ua, ub = kato_bump(-0.55), kato_bump(-0.35)
    dxs = [1 / 100, 1 / 160]
    rows, = kato_check(flux, [(ua, ub)], 0.25, dxs, DOM)
    for dx, row in zip(dxs, rows):
        want, ta = two_solve_row(flux, ua, ub, 0.25, dx)
        assert row == want
        assert ta.interfaces() and row["deficit"] > 0.0


def wave(c, a, w, p):
    return lambda x: c + a * np.sin(w * np.asarray(x, dtype=float).reshape(-1) + p)


@st.composite
def kato_problems(draw):
    """A traffic flux k u (1 - u) whose k jumps 0, 1 or 3 times on faces of
    an n-cell mesh of DOM, 1-3 data pairs and a final time."""
    n = draw(st.sampled_from([8, 12, 20]))
    njump = draw(st.sampled_from([0, 1, 3]))
    faces = sorted(draw(st.sets(st.integers(1, n - 1), min_size=njump, max_size=njump)))
    kv = draw(st.lists(st.floats(0.3, 1.5), min_size=njump + 1, max_size=njump + 1))
    assume(all(abs(a - b) > 1e-3 for a, b in zip(kv, kv[1:])))
    datum = st.builds(wave, st.floats(0.2, 0.8), st.sampled_from([0.0, 0.05, 0.2]),
                      st.floats(0.5, 8.0), st.floats(0.0, 6.3))
    pairs = draw(st.lists(st.tuples(datum, datum), min_size=1, max_size=3))
    return n, [-1.0 + 2.0 * f / n for f in faces], kv, pairs, draw(st.floats(0.05, 0.4))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kato_problems())
def test_recorded_kato_rows_equal_rows_of_full_trajectories(problem):
    # the Kato march keeps only the cells beside each interface and the
    # final states, and marches every pair in one sweep per mesh; each pair's
    # rows must equal those from two full trajectories, and those of a
    # kato_check of that pair alone
    n, breaks, kv, pairs, T = problem
    traffic = traffic_flux()
    flux = FluxSpec(piecewise_k(breaks, kv), traffic.ahat, traffic.dahat_du,
                    traffic.u_range, traffic.critical)
    dxs = [2.0 / n, 1.0 / n]
    per_pair = kato_check(flux, pairs, T, dxs, DOM)
    assert len(per_pair) == len(pairs)
    for (ua, ub), rows in zip(pairs, per_pair):
        assert rows == kato_check(flux, [(ua, ub)], T, dxs, DOM)[0]
        for dx, row in zip(dxs, rows, strict=True):
            want, ta = two_solve_row(flux, ua, ub, T, dx)
            assert row == want
            assert len(ta.interfaces()) == len(breaks)


def test_kato_check_sweeps_each_mesh_once_for_all_pairs(monkeypatch):
    from divchain.conslaw import diagnostics
    rows_per_sweep = []

    def counted(flux, mesh, data, T, record):
        rows_per_sweep.append(len(data))
        return solve(flux, mesh, data, T, record)

    solve = diagnostics._solve
    monkeypatch.setattr(diagnostics, "_solve", counted)
    flux = traffic_flux()
    dxs = [1 / 20, 1 / 30, 1 / 40]
    pairs = [(kato_bump(c), kato_bump(c + 0.2)) for c in (-0.6, -0.3, 0.0, 0.3)]
    for npairs in (1, 2, 4):
        rows_per_sweep.clear()
        per_pair = kato_check(flux, pairs[:npairs], 0.1, dxs, DOM)
        assert rows_per_sweep == [2 * npairs] * len(dxs)
        assert [[r["dx"] for r in rows] for rows in per_pair] == [dxs] * npairs


def test_a_non_finite_cell_that_is_not_recorded_still_raises(monkeypatch):
    # NaN fluxes at one interior cell far from the interface, at the last
    # step only and in the last row only (fv_solve's one datum, the Kato
    # march's last pair's second datum): the NaN reaches the final states and
    # no recorded cell of the Kato march, and both solves must still reject
    # the run
    from divchain.conslaw.solver import DEFAULT_CFL, step_count
    flux = traffic_flux()
    n, T, cell = 100, 0.25, 20
    nsteps = int(step_count(flux, T, 2.0 / n, DEFAULT_CFL))
    ahat, calls = flux.ahat, []

    def nan_at_cell(kk, u):
        out = np.array(ahat(kk, u), dtype=float)
        if np.ndim(u) and np.shape(u)[-1] == n + 2:     # the padded rows of a step
            calls.append(1)
            if len(calls) == nsteps:
                out[-1, cell + 1] = np.nan
        return out

    monkeypatch.setattr(flux, "ahat", nan_at_cell)
    ua, ub = kato_bump(-0.55), kato_bump(-0.35)
    assert nsteps > 1 and 0.5 == -1.0 + 2.0 * 75 / n     # the interface face is 75
    with pytest.raises(ScenarioValidationError, match="solver produced non-finite values"):
        fv_solve(flux, GridState.from_function(DOM, n, ua), T)
    assert len(calls) == nsteps
    calls.clear()
    pairs = [(ua, ub), (ub, ua), (ua, kato_bump(0.0))]
    with pytest.raises(ScenarioValidationError, match="solver produced non-finite values"):
        kato_check(flux, pairs, T, [2.0 / n], DOM)
    assert len(calls) == nsteps


def test_interface_W_accumulation_vanishes_for_ordered_pair():
    flux = traffic_flux()
    base = lambda x: 0.4 * np.ones(len(x))
    upper = lambda x: np.clip(kato_bump(0.4, w=0.5, a=0.25)(x), 0, 1)
    ga = GridState.from_function(DOM, 200, base)
    gb = GridState.from_function(DOM, 200, upper)
    ta = fv_solve(flux, ga, 0.4)
    tb = fv_solve(flux, gb, 0.4)
    total, worst = trajectory_W(ta, tb)
    assert abs(total) <= 1e-12 and worst <= 1e-12
    assert l1_distance(final_state(ta), final_state(tb)) <= l1_distance(ga, gb) + 1e-12


# Reference: accumulated_interface_W as a loop over every time step, with
# interface_W on scalar traces.

def ref_accumulated_interface_W(traj_a, traj_b):
    flux = traj_a.flux
    total = 0.0
    worst = -np.inf
    dt = traj_a.times[1] - traj_a.times[0] if len(traj_a.times) > 1 else 0.0
    for i in traj_a.interfaces():
        kp_ = traj_a.kvals[i]
        bplus = lambda t, kp_=kp_: flux.flux_at(kp_, t)
        u1m, u1p = interface_traces(traj_a, i)
        u2m, u2p = interface_traces(traj_b, i)
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
    total, worst = trajectory_W(ta, tb)
    ref_total, ref_worst = ref_accumulated_interface_W(ta, tb)
    assert total == ref_total and worst == ref_worst


def test_shock_dissipation_integrates_states_below_zero():
    from types import SimpleNamespace

    from divchain.runner import _shock_dissipation
    flux = burgers_flux()
    # unit windows in t and x, so the result is the dissipation rate itself
    traj = SimpleNamespace(kvals=np.ones(4), edges=np.array([-1.0, 1.0]))
    km = SimpleNamespace(t_basis=SimpleNamespace(hats=SimpleNamespace(integral=lambda: [1.0])),
                         x_basis=SimpleNamespace(hats=SimpleNamespace(val=lambda x: [1.0])))
    uL, uR = 0.5, -0.5
    etaL, etaR = S_QUAD.eta_of_k(flux, 1.0, [uL, uR])
    s = (flux.flux_at(1.0, uR) - flux.flux_at(1.0, uL)) / (uR - uL)
    want = -(s * (S_QUAD.S(uL) - S_QUAD.S(uR)) - (etaL - etaR))
    assert want == pytest.approx(1.0 / 12.0)          # eta(u) = u^3 / 3
    assert _shock_dissipation(flux, S_QUAD, uL, uR, traj, km) == pytest.approx(want, rel=1e-12)

"""Scenario execution: run the selected experiments, emit reports and tables.

The runner only executes the values that scenario.py built and checked at
load; it never reads the scenario format itself.  One scenario -> one output
directory with report.json (deterministic), phi_rows.csv, terms.csv, and
plot-data series.  A check row is (name, pass, data); the run passes iff
every check passes.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .bvfunc import BVFunction
from .chainrule import (IDENTITY, ChainRuleBreakdown, anzellotti_pairing, chain_bv_scalar,
                        chain_dm, chain_w11, green_check, layer_cake_action, product_rule)
from .errors import DivchainError
from .field import PrimitiveField, singular_set_check
from .geometry import subboxes
from .measure import RadonMeasure, check_dominated
from .oracle import build_suite, cantor_breaks, compare, mollification_study
from .rectifiable import merge_sets
from .scenario import Scenario

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3
EXIT_NUMERICAL_ERROR = 4


def _round(x, digits=12):
    if isinstance(x, (float, np.floating)):
        return round(float(x), digits) + 0.0        # + 0.0: one zero, 0.0 for -0.0
    if isinstance(x, (list, tuple)):
        return [_round(v, digits) for v in x]
    if isinstance(x, dict):
        return {k: _round(v, digits) for k, v in x.items()}
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


class RunResult:
    def __init__(self, scenario_id):
        self.scenario_id = scenario_id
        self.checks = []
        self.phi_rows = []
        self.term_rows = []
        self.plots = {}

    def check(self, name, passed, **data):
        self.checks.append({"name": name, "pass": bool(passed), "data": _round(data)})
        return bool(passed)

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def report(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario_id,
            "pass": self.passed,
            "checks": self.checks,
            "phi_rows": _round(self.phi_rows),
        }


def _v_eval(prim, u):
    return lambda pts: prim.value(pts, u.eval(pts))


def _suite(scn: Scenario, breaks_1d=()):
    """Test functions straddling the merged singular set N u J_u."""
    if scn.u is not None and scn.field is not None:
        merged = merge_sets(scn.field.singular_set, scn.u.jump_set)
    else:
        merged = scn.field.singular_set if scn.field is not None else scn.u.jump_set
    return build_suite(scn.domain, merged, breaks_1d=breaks_1d)


def _actions_close(m1: RadonMeasure, m2: RadonMeasure, suite, tol, quad_tol=None):
    q = quad_tol if quad_tol is not None else tol / 10
    phis = list(suite)[:6]
    a, b = (m.apply(phis, tol_abs=q, tol_rel=max(q, 1e-10)) for m in (m1, m2))
    worst = float(np.max(np.abs(a - b), initial=0.0))
    return worst <= tol, worst


def run_chain(scn: Scenario, res: RunResult, mode="chain"):
    field, u = scn.field, scn.u
    prim = PrimitiveField(field)
    # splits from the declared construction, never from the measure under test
    breaks = cantor_breaks(scn.cantor_spec) if scn.is_cantor else ()
    suite = _suite(scn, breaks)
    if mode == "w11":
        br = chain_w11(field, u)
    elif mode == "bv-scalar":
        br = chain_bv_scalar(field, u)
    else:
        br = chain_dm(field, u)
    # the chain_dm breakdown, which carries the symmetric-mean jump regrouping
    br_dm = br if mode == "chain" else chain_dm(field, u)

    total = br.total
    if scn.fake_scale is not None:
        total = total * scn.fake_scale
    # Cantor scenarios run every quadrature at tol_abs / 3 (the general tol_abs / 30
    # stalls cantor-u-autonomous) and every total variation at 3e-7
    q = max(scn.tol_abs / 3.0, 1e-10) if scn.is_cantor else None
    tv_tol = 3e-7 if scn.is_cantor else 1e-9
    quad_tol = q if q is not None else max(scn.tol_abs / 30.0, 1e-10)
    cmp = compare(total, _v_eval(prim, u), suite,
                  tol_abs=scn.tol_abs, tol_rel=scn.tol_rel, quad_tol=quad_tol)
    res.phi_rows.extend({"scenario": scn.id, "experiment": mode, **row}
                        for row in cmp["rows"])
    res.check(f"{mode}:oracle_equivalence", cmp["pass"],
              max_difference=cmp["max_difference"], n_phi=len(cmp["rows"]))

    for name, mu in br.terms().items():
        res.term_rows.append({"scenario": scn.id, "experiment": mode, "term": name,
                              "total_variation": mu.total_variation(
                                  tol_abs=tv_tol, tol_rel=1e-8, breaks=breaks)})

    ok, worst = _actions_close(br_dm.term_jump, br_dm.jump_symmetric, suite, 1e-9,
                               quad_tol=q)
    res.check(f"{mode}:jump_regrouping", ok, max_difference=worst)
    _tv_bound_check(scn, res, br, mode, tv_tol, breaks)
    _reduction_checks(scn, res, br, suite, mode, q)
    _orientation_check(scn, res, br, suite, mode, q)
    if mode == "w11":
        phis = list(suite)[:3]
        xpart = (br.term_diva + br.term_divc + br.term_jump).apply(
            phis, tol_abs=quad_tol, tol_rel=quad_tol)
        t_tol = max(0.7 * scn.tol_abs, 1e-9)
        lc = [layer_cake_action(field, u, phi, t_tol=t_tol, quad_tol=quad_tol) for phi in phis]
        worst = float(np.max(np.abs(np.array(lc) - xpart), initial=0.0))
        res.check("w11:layer_cake_consistency",
                  worst <= max(2 * scn.tol_abs, 1e-7), max_difference=worst)
        ok, worst = _actions_close(br.total, br_dm.total, suite, 1e-9,
                                   quad_tol=quad_tol)
        res.check("w11:matches_chain_dm", ok, max_difference=worst)
    if mode == "bv-scalar":
        ok, worst = _actions_close(br.total, br_dm.total, suite, 1e-9,
                                   quad_tol=quad_tol)
        res.check("bv-scalar:matches_chain_dm", ok, max_difference=worst)
    _emit_density_plot(scn, res, br)
    return br


def _tv_bound_check(scn, res, br: ChainRuleBreakdown, mode, tv_rel, breaks):
    boxes = subboxes(scn.domain, 4)
    lhs, tv_sigma, tv_du = (mu.total_variation(boxes, tv_rel, tv_rel, breaks) for mu in
                            (br.total, scn.field.sigma(scn.sigma_samples),
                             scn.u.variation_measure()))
    rhs = tv_sigma + scn.field.M * tv_du
    res.check(f"{mode}:tv_bound", np.all(lhs <= rhs + 1e-9), worst_gap=np.max(lhs - rhs))


def _is_autonomous(scn):
    return (scn.field.singular_set.is_empty and scn.field._diva is None
            and scn.field.divc_part is None)


def _is_t_independent(scn):
    pts = scn.domain.grid(7)
    lo, hi = scn.field.t_range
    vals = [scn.field.eval(pts, t) for t in np.linspace(lo, hi, 5)]
    return max(float(np.max(np.abs(v - vals[0]))) for v in vals) == 0.0


def _reduction_checks(scn, res, br, suite, mode, q):
    field, u = scn.field, scn.u
    if _is_autonomous(scn):
        volp = _volpert_breakdown(field, u)
        worst = 0.0
        for (name, mine), ref in zip(br.terms().items(), volp):
            ok, w = _actions_close(mine, ref, suite, 1e-9, quad_tol=q)
            worst = max(worst, w)
        res.check(f"{mode}:volpert_reduction", worst <= 1e-9, max_difference=worst)
    if _is_t_independent(scn):
        pr = product_rule(field, IDENTITY, u)
        ok, worst = _actions_close(br.total, pr.total, suite, 1e-9, quad_tol=q)
        res.check(f"{mode}:anzellotti_reduction", ok, max_difference=worst)


def _volpert_breakdown(field, u: BVFunction):
    """Direct autonomous chain rule: independent reference for the reduction."""
    dom = field.domain
    prim = PrimitiveField(field)

    term_diva = RadonMeasure.zero(dom)
    term_divc = RadonMeasure.zero(dom)

    def ac(pts):
        vals = field.eval(pts, u.eval(pts))
        return np.einsum("ij,ij->i", vals, u.grad(pts))

    term_ac = RadonMeasure(dom, ac=ac, ac_singular=u.jump_set)
    if u.cantor is not None:
        term_cu = RadonMeasure(
            dom, ac_singular=u.jump_set, cantor=u.cantor,
            cantor_density=lambda x: field.eval(
                np.asarray(x)[:, None], u.eval(np.asarray(x)[:, None]))[:, 0])
    else:
        term_cu = RadonMeasure.zero(dom)
    if not u.jump_set.is_empty:
        def g(pts, nus):
            up = np.asarray(u.u_plus(pts), dtype=float)
            um = np.asarray(u.u_minus(pts), dtype=float)
            return np.einsum("ij,ij->i", prim.value(pts, up) - prim.value(pts, um), nus)
        term_j = RadonMeasure.from_jump(dom, u.jump_set, g)
    else:
        term_j = RadonMeasure.zero(dom)
    return [term_diva, term_divc, term_ac, term_cu, term_j]


def _orientation_check(scn, res, br, suite, mode, q):
    flipped = chain_dm(scn.field.flipped(), scn.u.flipped())
    ok, worst = _actions_close(br.total, flipped.total, suite, 1e-9, quad_tol=q)
    res.check(f"{mode}:orientation_invariance", ok, max_difference=worst)


def run_product(scn: Scenario, res: RunResult):
    field, u, h = scn.field, scn.u, scn.h
    br = product_rule(field, h, u)
    suite = _suite(scn)

    def v(pts):
        hval = np.asarray(h.h(u.eval(pts)), dtype=float)
        return field.eval(pts, 0.0) * hval[:, None]

    cmp = compare(br.total, v, suite, tol_abs=scn.tol_abs, tol_rel=scn.tol_rel,
                  quad_tol=max(scn.tol_abs / 30.0, 1e-10))
    res.phi_rows.extend({"scenario": scn.id, "experiment": "product", **row}
                        for row in cmp["rows"])
    res.check("product:oracle_equivalence", cmp["pass"],
              max_difference=cmp["max_difference"])


def run_anzellotti(scn: Scenario, res: RunResult):
    field, u = scn.field, scn.u
    pairing = anzellotti_pairing(field, u)
    suite = _suite(scn)

    # support inclusion: pairing is dominated by M |Du| at samples
    du = u.variation_measure()
    pts = scn.domain.grid(21)
    off = ~u.on_jump(pts) if not u.jump_set.is_empty else np.ones(len(pts), dtype=bool)
    ok_ac = True
    if pairing.ac is not None:
        lhs = np.abs(pairing.ac(pts[off]))
        rhs = field.M * np.abs(du.ac(pts[off])) + 1e-9
        ok_ac = bool(np.all(lhs <= rhs))
    res.check("anzellotti:dominated_by_Du", ok_ac)

    div_ua = product_rule(field, IDENTITY, u).total

    def v(pts):
        return field.eval(pts, 0.0) * u.eval(pts)[:, None]

    cmp = compare(div_ua, v, suite, tol_abs=scn.tol_abs, tol_rel=scn.tol_rel,
                  quad_tol=max(scn.tol_abs / 30.0, 1e-10))
    res.phi_rows.extend({"scenario": scn.id, "experiment": "anzellotti", **row}
                        for row in cmp["rows"])
    res.check("anzellotti:product_oracle", cmp["pass"],
              max_difference=cmp["max_difference"])

    from .chainrule import u_star_div
    usd = u_star_div(field, u)
    phis = list(suite)[:4]
    lhs = div_ua.apply(phis, tol_abs=1e-10)
    rhs = usd.apply(phis, tol_abs=1e-10) + pairing.apply(phis, tol_abs=1e-10)
    worst = float(np.max(np.abs(lhs - rhs), initial=0.0))
    res.check("anzellotti:identity", worst <= 1e-9, max_difference=worst)


def run_green(scn: Scenario, res: RunResult):
    all_ok = True
    rows = []
    for omega in scn.omegas:
        lhs, rhs = green_check(scn.field, omega)
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        ok = rel <= 1e-6
        all_ok &= ok
        rows.append({"omega": str(omega), "lhs": lhs, "rhs": rhs, "rel_error": rel})
    res.check("green:closure", all_ok, omegas=rows)


def run_moll(scn: Scenario, res: RunResult):
    moll = scn.moll
    all_ok = True
    rows = []
    for coords in moll.points:
        study = mollification_study(scn.field, moll.t, coords, moll.eps)
        all_ok &= study["nonincreasing_tail"]
        rows.append({"point": coords, "target": study["target"],
                     "deviations": [r["deviation"] for r in study["rows"]]})
    res.check("moll:limit_convergence", all_ok, points=rows)


def run_sigma(scn: Scenario, res: RunResult):
    field = scn.field
    samples = scn.sigma_samples
    sigma = field.sigma(samples)
    rep = singular_set_check(field, sigma)
    res.check("sigma:singular_set_density", rep["consistent"], points=rep["points"])
    prim = PrimitiveField(field)
    ok = True
    detail = []
    for t in samples[:3]:
        if t == 0:
            continue
        try:
            check_dominated(prim.div_measure(t), sigma)
            detail.append({"t": t, "dominated": True})
        except DivchainError as exc:
            ok = False
            detail.append({"t": t, "dominated": False, "error": str(exc)})
    res.check("sigma:primitive_dominated", ok, samples=detail)


def run_conslaw(scn: Scenario, res: RunResult):
    from .conslaw import (GridState, entropy_residual, fv_solve, kinetic_identity_residual,
                          kinetic_measure)
    run, flux = scn.conslaw, scn.flux
    grid = GridState.from_function(scn.domain, run.ncells, run.u0, cfl=run.cfl)
    traj = fv_solve(flux, grid, run.T)
    if run.expansion_shock is not None:
        # deliberate negative control: a non-entropic weak solution
        uL, uR, x0 = run.expansion_shock
        kv = float(traj.kvals[len(traj.kvals) // 2])
        s = ((flux.flux_at(kv, uR) - flux.flux_at(kv, uL)) / (uR - uL)) if uR != uL else 0.0
        states = np.where(traj.centers[None, :] < x0 + s * traj.times[:, None], uL, uR)
        from .conslaw.solver import Trajectory
        traj = Trajectory(flux, grid, traj.times, states, traj.kvals)
    else:
        if traj.interfaces():
            # coefficient jumps inject interface states; the invariant region
            # is the declared u-range, not the data range
            lo0, hi0 = flux.u_range
        else:
            lo0, hi0 = float(np.min(grid.averages)), float(np.max(grid.averages))
        res.check("conslaw:max_principle",
                  traj.states.min() >= lo0 - 1e-12 and traj.states.max() <= hi0 + 1e-12,
                  min=float(traj.states.min()), max=float(traj.states.max()))
        tv0 = float(np.sum(np.abs(np.diff(grid.averages))))
        lo_r, hi_r = flux.u_range
        tv_cap = tv0 + 4.0 * len(traj.interfaces()) * (hi_r - lo_r) + 1e-9
        res.check("conslaw:bv_bounded", traj.discrete_tv() <= tv_cap,
                  tv=traj.discrete_tv(), cap=tv_cap)
    res.plots[f"{scn.id}_trajectory"] = _trajectory_rows(traj)

    er = entropy_residual(traj, run.entropy)
    bound = run.resid_constant * traj.dx + run.resid_slack
    res.check("conslaw:entropy_residual", er["worst_residual"] <= bound,
              worst_residual=er["worst_residual"], bound=bound,
              interface_choice_flagged=er["interface_choice_flagged"])

    if run.kinetic:
        km = kinetic_measure(traj, *run.kinetic_grid)
        if run.kinetic_strict:
            res.check("conslaw:kinetic_nonnegative", km.min_cell >= -1e-8,
                      min_cell=km.min_cell)
        else:
            res.check("conslaw:kinetic_min_cell_reported", True, min_cell=km.min_cell,
                      note="O(dx) staircase dust expected for moving waves")
        ident = kinetic_identity_residual(traj, km)
        res.check("conslaw:kinetic_identity", ident <= 1e-10, residual=ident)
        if run.shock is not None:
            expected = _shock_dissipation(flux, run.entropy, *run.shock, traj, km)
            rel = abs(km.total_mass - expected) / max(abs(expected), 1e-300)
            res.check("conslaw:shock_dissipation", rel <= 0.02,
                      measured=km.total_mass, expected=expected, rel_error=rel)
    return traj


def _shock_dissipation(flux, pair, uL, uR, traj, km):
    """Closed-form dissipation of the straight shock, windowed by the basis."""
    from .quadrature import integrate_1d
    kv = float(traj.kvals[len(traj.kvals) // 2])
    fL = float(flux.flux_at(kv, uL))
    fR = float(flux.flux_at(kv, uR))
    s = (fR - fL) / (uR - uL)

    def eta_integrand(w):
        return np.asarray(pair.dS(w)) * np.asarray(flux.speed_at(kv, w))

    def eta(u):                          # signed integral from 0 to u
        val, _ = integrate_1d(eta_integrand, min(0.0, u), max(0.0, u), tol_abs=1e-12)
        return np.sign(u) * val

    etaL, etaR = eta(uL), eta(uR)
    rate = s * (np.asarray(pair.S(uL)) - np.asarray(pair.S(uR))) - (etaL - etaR)
    rate = -float(rate)
    t_window = float(sum(km.t_basis.hats.integral()))
    x_shock = 0.5 * (traj.edges[0] + traj.edges[-1])
    xw = float(np.sum(km.x_basis.hats.val(x_shock)))
    return rate * t_window * xw


def run_kato(scn: Scenario, res: RunResult):
    from .conslaw import kato_check
    kato = scn.kato
    all_rows = []
    ok = True
    per_pair = kato_check(scn.flux, kato.pairs, kato.T, kato.dx_list, scn.domain)
    for j, rows in enumerate(per_pair):
        for r in rows:
            r["pair"] = j
        all_rows.extend(rows)
        contraction = all(r["contraction_holds"] for r in rows)
        w_sign = all(r["W_worst_sample"] <= 1e-8 for r in rows)
        w_int = all(r["W_integral"] <= 1e-6 + 10.0 * r["dx"] for r in rows)
        halving = True
        if len(rows) >= 2 and rows[-2]["deficit"] > 1e-7:
            ratio = rows[-1]["deficit"] / rows[-2]["deficit"]
            halving = 0.35 <= ratio <= 0.65
        ok &= contraction and w_sign and w_int and halving
        res.check(f"kato:pair{j}", contraction and w_sign and w_int and halving,
                  contraction=contraction, w_sign_test=w_sign, w_integral=w_int,
                  deficit_halving=halving,
                  deficits=[r["deficit"] for r in rows])
    res.plots[f"{scn.id}_contraction"] = [
        {"pair": r["pair"], "dx": r["dx"], "l1_initial": r["l1_initial"],
         "l1_final": r["l1_final"], "deficit": r["deficit"],
         "W_integral": r["W_integral"]} for r in all_rows]
    return all_rows


def _trajectory_rows(traj):
    rows = []
    stride = max(1, len(traj.times) // 8)
    for n in range(0, len(traj.times), stride):
        for i in range(0, len(traj.centers), max(1, len(traj.centers) // 200)):
            rows.append({"time": traj.times[n], "x": traj.centers[i],
                         "u": traj.states[n, i]})
    return rows


def _emit_density_plot(scn, res, br):
    if scn.domain.dim != 1:
        return
    xs = scn.domain.grid(201)
    rows = []
    if br.total.ac is not None:
        dens = br.total.ac(xs)
        for x, d in zip(xs[:, 0], dens):
            rows.append({"x": x, "total_ac_density": d})
    res.plots[f"{scn.id}_density"] = rows
    if scn.u is not None and not scn.u.jump_set.is_empty:
        sp, sn = scn.u.jump_set.samples()
        up = scn.u.u_plus(sp)
        um = scn.u.u_minus(sp)
        res.plots[f"{scn.id}_traces"] = [
            {"x": float(p[0]), "nu": float(n[0]), "u_plus": float(a), "u_minus": float(b)}
            for p, n, a, b in zip(sp, sn, up, um)]
    if scn.u is not None:
        du = scn.u.derivative()[0]
        if du.ac is not None:
            res.plots[f"{scn.id}_derivative"] = [
                {"x": float(x), "grad_u": float(d)}
                for x, d in zip(xs[:, 0], du.ac(xs))]


def run_scenario(scn: Scenario, out_dir=None):
    res = RunResult(scn.id)
    if scn.field is not None:
        frows = scn.field.validate()
        res.check("field:assumptions", all(r[1] for r in frows),
                  rows=[{"name": r[0], "ok": r[1]} for r in frows])
    if scn.u is not None:
        urows = scn.u.validate()
        res.check("u:structure", all(r[1] for r in urows),
                  rows=[{"name": n, "ok": okv} for n, okv in urows])
    others = {"product": run_product, "anzellotti": run_anzellotti, "green": run_green,
              "moll": run_moll, "sigma": run_sigma, "conslaw": run_conslaw, "kato": run_kato}
    for exp in scn.experiments:
        if exp in ("chain", "w11", "bv-scalar"):
            run_chain(scn, res, mode=exp)
        else:
            others[exp](scn, res)
    if out_dir is not None:
        write_outputs(res, out_dir)
    return res


def write_outputs(res: RunResult, out_dir):
    d = os.path.join(out_dir, res.scenario_id)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(res.report(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    if res.phi_rows:
        _write_csv(os.path.join(d, "phi_rows.csv"), res.phi_rows)
    if res.term_rows:
        _write_csv(os.path.join(d, "terms.csv"), res.term_rows)
    for name, rows in res.plots.items():
        if rows:
            _write_csv(os.path.join(d, f"{name}.csv"), rows)


def _write_csv(path, rows):
    keys = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow({k: _fmt(r.get(k)) for k in keys})


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return v

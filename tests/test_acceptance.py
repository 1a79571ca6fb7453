"""Acceptance gate: every criterion exercised at its stated tolerance.

Each test prints one PASS/FAIL line.  The corpus is executed once per
session; criteria then inspect the recorded check rows (and run the few
extra computations they own).
"""

import numpy as np
import pytest

from divchain.cli import bundled_paths, main
from divchain.measure import plateau_bump
from divchain.oracle import mollification_study
from divchain.runner import run_scenario
from divchain.scenario import load

from helpers import cavalieri_lhs, div_xv_zero_residual

NEGATIVE = {"negative-control", "negative-entropy"}


@pytest.fixture(scope="module")
def corpus():
    scns = {}
    results = {}
    for path in bundled_paths():
        scn = load(path)
        if scn.id in NEGATIVE:
            continue
        scns[scn.id] = scn
        results[scn.id] = run_scenario(scn)
    return scns, results


def _report(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _checks(results, suffix):
    rows = {}
    for sid, res in results.items():
        for c in res.checks:
            if c["name"].endswith(suffix):
                rows[(sid, c["name"])] = c
    return rows


def test_criterion_1_oracle_equivalence(corpus):
    scns, results = corpus
    rows = _checks(results, ":oracle_equivalence")
    chain_ids = {sid for (sid, _) in rows}
    dims = {scns[sid].domain.dim for sid in chain_ids}
    cantor_u = sum(1 for sid in chain_ids
                   if scns[sid].raw.get("u", "cantor_amplitude") is not None)
    cantor_b = sum(1 for sid in chain_ids
                   if scns[sid].raw.get("field", "divc_mass") is not None)
    joint = 0
    for sid in chain_ids:
        scn = scns[sid]
        if scn.u is None or scn.field is None:
            continue
        nk = set(scn.field.singular_set.component_keys())
        jk = set(scn.u.jump_set.component_keys())
        if nk & jk:
            joint += 1
    structure_ok = (len(chain_ids) >= 12 and dims == {1, 2}
                    and cantor_u >= 2 and cantor_b >= 2 and joint >= 3)
    all_pass = all(c["pass"] for c in rows.values())
    worst = max(c["data"]["max_difference"] for c in rows.values())
    _report(1, structure_ok and all_pass,
            f"{len(chain_ids)} scenarios (dims {sorted(dims)}, Du-Cantor {cantor_u}, "
            f"Divb-Cantor {cantor_b}, joint-singular {joint}); "
            f"worst phi-difference {worst:.2e}")


def test_criterion_2_reduction_identities(corpus):
    _, results = corpus
    volpert = _checks(results, ":volpert_reduction")
    anz = _checks(results, ":anzellotti_reduction")
    w11 = _checks(results, ":matches_chain_dm")
    assert volpert and anz and w11
    ok = all(c["pass"] and c["data"]["max_difference"] <= 1e-9
             for c in list(volpert.values()) + list(anz.values()) + list(w11.values()))
    worst = max(c["data"]["max_difference"]
                for c in list(volpert.values()) + list(anz.values()) + list(w11.values()))
    _report(2, ok, f"{len(volpert)} Vol'pert, {len(anz)} product-form, "
            f"{len(w11)} grouping agreements; worst {worst:.2e} <= 1e-9")


def test_criterion_3_tv_bound(corpus):
    _, results = corpus
    rows = _checks(results, ":tv_bound")
    assert rows
    ok = all(c["pass"] for c in rows.values())
    worst = max(c["data"]["worst_gap"] for c in rows.values())
    _report(3, ok, f"TV(Div v) <= TV(sigma) + M TV(|Du|) + 1e-9 on every 4-partition "
            f"sub-box of {len(rows)} scenarios; worst gap {worst:.2e}")


def test_criterion_4_mollification_limit(corpus):
    scns, results = corpus
    rows = _checks(results, "moll:limit_convergence")
    ok = all(c["pass"] for c in rows.values())
    strict = 0
    for sid in ("moll-sign-lin", "moll-halfline", "moll-sign-exp"):
        study = mollification_study(scns[sid].field, 1.0, [0.0], [0.1, 0.05, 0.025])
        devs = [r["deviation"] for r in study["rows"]]
        if devs[1] > devs[2] > 0:
            strict += 1
    _report(4, ok and strict >= 3,
            f"{len(rows)} fields converge; {strict} with strictly decreasing "
            "deviation over the last two widths")


def test_criterion_5_gauss_green(corpus):
    _, results = corpus
    rows = _checks(results, "green:closure")
    pairs = []
    for c in rows.values():
        pairs.extend(c["data"]["omegas"])
    ok = len(pairs) >= 5 and all(p["rel_error"] <= 1e-6 for p in pairs)
    worst = max(p["rel_error"] for p in pairs)
    _report(5, ok, f"{len(pairs)} domain/field pairs close; worst relative "
            f"error {worst:.2e} <= 1e-6")


def test_criterion_6_kinetic_structure(corpus):
    scns, results = corpus
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-10, 10, size=(1000, 2))
    cav = max(abs(cavalieri_lhs(a, b) - abs(a - b)) for a, b in pairs)
    cav_ok = cav <= 1e-12 * 10

    psi = plateau_bump([(-0.6, 0.6), (0.05, 0.9)], [(-0.3, 0.3), (0.3, 0.7)])
    div_worst = 0.0
    flux_ids = [sid for sid in scns if scns[sid].flux is not None]
    for sid in flux_ids:
        div_worst = max(div_worst, abs(div_xv_zero_residual(scns[sid].flux, psi)))
    div_ok = div_worst <= 1e-7

    gates = _checks(results, "conslaw:kinetic_nonnegative")
    assert gates, "at least one strict kinetic-positivity run required"
    nonneg_ok = all(c["pass"] for c in gates.values())
    min_cell = min(c["data"]["min_cell"] for c in gates.values())

    # constant-state run: the defect must vanish to machine precision
    from divchain.conslaw import GridState, fv_solve, kinetic_measure
    flux = scns["transport-smooth"].flux
    g = GridState(scns["transport-smooth"].domain, np.full(100, 0.4))
    km_const = kinetic_measure(fv_solve(flux, g, 0.3))
    const_ok = km_const.min_cell >= -1e-8 and abs(km_const.total_mass) < 1e-10

    diss = _checks(results, "conslaw:shock_dissipation")
    assert diss
    diss_ok = all(c["pass"] and c["data"]["rel_error"] <= 0.02 for c in diss.values())
    rel = max(c["data"]["rel_error"] for c in diss.values())

    ok = cav_ok and div_ok and nonneg_ok and const_ok and diss_ok
    _report(6, ok, f"Cavalieri exact to {cav:.1e} on 1000 pairs; "
            f"|Div_xv a| <= {div_worst:.1e} on {len(flux_ids)} fluxes; "
            f"kinetic cells >= {min_cell:.1e} on positivity-gated runs; "
            f"shock dissipation within {rel:.2%} at dx = 1/400")


def test_criterion_7_kato_contraction(corpus):
    _, results = corpus
    rows = [c for (sid, _), c in _checks(results, "").items()
            if sid == "traffic-kato" and c["name"].startswith("kato:pair")]
    assert len(rows) >= 3
    ok = all(c["pass"] and c["data"]["contraction"] and c["data"]["w_sign_test"]
             and c["data"]["w_integral"] and c["data"]["deficit_halving"]
             for c in rows)
    _report(7, ok, f"{len(rows)} data pairs at dx in {{1/100, 1/200, 1/400}}: "
            "contraction, deficit halving, W-integral and W sign test all hold")


def test_criterion_8_negative_controls(tmp_path):
    codes = {}
    for name in sorted(NEGATIVE):
        path = [p for p in bundled_paths() if name in p][0]
        codes[name] = main(["run", path, "--out", str(tmp_path)])
    ok = all(code != 0 for code in codes.values())
    _report(8, ok, f"negative controls exit nonzero: {codes}")

import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divchain import cli
from divchain.cli import bundled_dir, bundled_paths, main
from divchain.runner import (EXIT_CHECKS_FAILED, EXIT_NUMERICAL_ERROR, EXIT_OK,
                             EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR)

from helpers import interval_domain


def scenario_path(name):
    for p in bundled_paths():
        if os.path.basename(p) == f"{name}.scn":
            return p
    raise FileNotFoundError(name)


def test_list_bundled(capsys):
    assert main(["list"]) == EXIT_OK
    ids = capsys.readouterr().out.split()
    assert len(ids) >= 12
    assert "volpert-heaviside" in ids


def test_validate_ok_and_errors(tmp_path, capsys):
    assert main(["validate", scenario_path("volpert-heaviside")]) == EXIT_OK
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario\nid = x\n")
    assert main(["validate", str(bad)]) == EXIT_PARSE_ERROR
    geo = tmp_path / "geo.scn"
    geo.write_text("""
[scenario]
id = geo
dim = 1
domain = -1 .. 1
experiments = chain

[singular]
points = 4 : +1

[field]
b = sign(x1)
M = 1
b_plus = 1
b_minus = -1

[u]
breaks =
pieces = 0.5
grads = 0
""".lstrip())
    assert main(["validate", str(geo)]) == EXIT_VALIDATION_ERROR


def test_run_pass_and_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", scenario_path("volpert-heaviside"), "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "volpert-heaviside" / "report.json").read_text())
    assert rep["pass"] and rep["schema_version"] == 1
    assert (out / "volpert-heaviside" / "phi_rows.csv").exists()
    assert (out / "volpert-heaviside" / "terms.csv").exists()


def test_cantor_file_with_a_box_edge_in_the_cantor_set_runs(tmp_path, capsys):
    # on -0.5 .. 0.5 the tv_bound sub-box edges 0 and 0.25 lie in the Cantor
    # set of [0, 1]; the indicator-clipped Cantor sum never stabilized there
    with open(scenario_path("cantor-divb-bv"), encoding="utf-8") as fh:
        text = fh.read()
    scn = tmp_path / "cantor-divb-bv.scn"
    scn.write_text(text.replace("domain = -0.5 .. 1.5", "domain = -0.5 .. 0.5"))
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "SCENARIO cantor-divb-bv: PASS" in capsys.readouterr().out.splitlines()


def test_cantor_divergence_of_mass_zero_runs(tmp_path, capsys):
    # Div^c_x B = 0 under a sigma whose Cantor part is 0: 0 << 0 holds, where
    # the domination check once read a vanishing Cantor part of sigma as a failure
    with open(scenario_path("sign-const"), encoding="utf-8") as fh:
        text = fh.read()
    scn = tmp_path / "sign-const.scn"
    scn.write_text(text.replace("M = 1\n", "M = 1\ndivc_mass = 0\n"))
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "SCENARIO sign-const: PASS" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("old, new", [
    ("breaks = 0.5 : +1", "breaks = 0.25 : +1"),
    ("cantor_amplitude = 1\n", "cantor_amplitude = 1\ncantor_base = -1 .. 1\n"),
    ("cantor_amplitude = 1\n", "cantor_amplitude = 1\ncantor_base = 0.25 .. 1.25\n"),
], ids=["jump-at-0.25", "base-minus-1-to-1", "base-0.25-to-1.25"])
def test_u_jump_on_the_cantor_set_runs(tmp_path, capsys, old, new):
    # u's jump on a point of the Cantor set (0.25 of [0, 1], 0.5 of the other
    # bases): the chain terms' Cantor densities jump there, which the
    # midpoint sums never resolved (exit 4); every check passes
    with open(scenario_path("cantor-u-jump"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    scn = tmp_path / "cantor-u-jump.scn"
    scn.write_text(text.replace(old, new))
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "SCENARIO cantor-u-jump: PASS" in lines
    assert [ln for ln in lines if ln.startswith("[")] and \
        all(ln.startswith("[PASS]") for ln in lines if ln.startswith("["))


def test_negative_control_exits_nonzero(tmp_path):
    code = main(["run", scenario_path("negative-control"), "--out", str(tmp_path)])
    assert code == EXIT_CHECKS_FAILED


def test_reports_are_deterministic(tmp_path):
    p = scenario_path("sign-2t-heaviside")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", p, "--out", str(out)]) == EXIT_OK
        outs.append((out / "sign-2t-heaviside" / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_parallel_jobs(tmp_path):
    code = main(["run", scenario_path("volpert-heaviside"),
                 scenario_path("sign-const"), "--jobs", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK


CRASH_PATH = "crashes-its-worker.scn"
_real_run_one = cli._run_one


def _crash_on_one_path(task):
    # runs in a forked worker: a hard exit breaks the process pool
    if task[0] == CRASH_PATH:
        os._exit(1)
    return _real_run_one(task)


def test_crashed_worker_does_not_stop_the_batch(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_one", _crash_on_one_path)
    code = main(["run", scenario_path("volpert-heaviside"), CRASH_PATH,
                 scenario_path("sign-const"), "--jobs", "2", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL_ERROR
    out = capsys.readouterr().out
    assert f"worker crashed while running {CRASH_PATH}" in out
    assert "SCENARIO volpert-heaviside: PASS" in out
    assert "SCENARIO sign-const: PASS" in out


def test_missing_path_is_a_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.scn")
    assert main(["run", missing, "--out", str(tmp_path)]) == EXIT_PARSE_ERROR
    assert f"cannot read scenario {missing}:" in capsys.readouterr().out


def test_missing_path_does_not_stop_the_batch(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.scn")
    code = main(["run", scenario_path("sign-const"), missing, "--jobs", "2",
                 "--out", str(tmp_path)])
    assert code == EXIT_PARSE_ERROR
    out = capsys.readouterr().out
    assert "SCENARIO sign-const: PASS" in out
    assert f"cannot read scenario {missing}:" in out


def test_validate_missing_path(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.scn")
    assert main(["validate", missing]) == EXIT_PARSE_ERROR
    assert f"cannot read scenario {missing}:" in capsys.readouterr().out


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    binary = tmp_path / "binary.scn"
    binary.write_bytes(b"\xff\xfe[scenario]\n")
    assert main(["validate", str(binary)]) == EXIT_PARSE_ERROR
    assert main(["run", str(binary), "--out", str(tmp_path)]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().out.count(f"cannot read scenario {binary}:") == 2


SQRT_SCN = """
[scenario]
id = sqrt-nan
dim = 1
domain = -1 .. 1
experiments = chain

[field]
b = sqrt(x1-5)*t
M = 8
t_range = -3 .. 3

[u]
breaks = 0 : +1
pieces = 0 | 1
grads = 0 | 0
sup = 1
""".lstrip()


def test_non_finite_field_names_the_abscissa(tmp_path, capsys):
    scn = tmp_path / "sqrt.scn"
    scn.write_text(SQRT_SCN)
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL_ERROR
    out = capsys.readouterr().out
    m = re.search(r"non-finite integrand at (\S+)", out)
    assert m, out
    assert -1.0 <= float(m.group(1)) <= 1.0


def test_non_finite_field_raises_no_runtime_warning(tmp_path):
    scn = tmp_path / "sqrt.scn"
    scn.write_text(SQRT_SCN)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(scn), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL_ERROR
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]


LINEAR_U_SCN = """
[scenario]
id = linear-u
dim = 1
domain = -1 .. 1
experiments = w11

[field]
b = t
M = 3
t_range = -3 .. 3

[u]
breaks =
pieces = x1
grads = 1
sup = 1
""".lstrip()


def test_failed_level_crossing_search_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    from divchain import bvfunc, rectifiable
    from divchain.errors import GeometryError

    # u = x1, but infinite on (0.3001, 0.3024), strictly inside the scan
    # interval [0.3, 0.3025] that brackets the level 0.301
    u = bvfunc.BVFunction.piecewise_1d(
        interval_domain(-1.0, 1.0), [], grads=[np.ones_like], sup_bound=1.0,
        values=[lambda x: np.where((x > 0.3001) & (x < 0.3024), np.inf, x)])
    with pytest.raises(GeometryError, match=r"^root search in \[0\.30\d*, 0\.302\d*\]: "
                                            r"non-finite value at 0\.301"):
        u.level_region(0.301).breakpoints_1d()
    # the same failure inside a run: every solver step sees a non-finite value
    real = rectifiable.bracketed_roots
    monkeypatch.setattr(rectifiable, "bracketed_roots",
                        lambda f, *ends: real(lambda x, live: f(x, live) * np.inf, *ends))
    scn = tmp_path / "cubic.scn"
    scn.write_text(LINEAR_U_SCN.replace("pieces = x1", "pieces = x1 + x1^3")
                   .replace("grads = 1", "grads = 1 + 3*x1^2").replace("sup = 1", "sup = 2"))
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL_ERROR
    out = capsys.readouterr().out
    assert "numerical failure" in out and "root search" in out, out


def test_cli_import_loads_no_scipy():
    code = "import sys, divchain.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# A malformed value in an otherwise valid bundled file: (name, bundled source,
# replacements, key whose line the message names, exit code).
MALFORMED = [
    # the id names the output directory: a slash once crashed write_outputs
    ("id-with-a-slash", "sign-const", [("id = sign-const\n", "id = 1/x1\n")], "id",
     EXIT_VALIDATION_ERROR),
    ("reversed-domain", "volpert-heaviside", [("domain = -1 .. 1", "domain = 1 .. 0")],
     "domain", EXIT_VALIDATION_ERROR),
    ("tol-abs-word", "volpert-heaviside", [("dim = 1\n", "dim = 1\ntol_abs = abc\n")],
     "tol_abs", EXIT_PARSE_ERROR),
    ("divc-mass-2d", "2d-vline-jump", [("M = 4\n", "M = 4\ndivc_mass = 1\n")],
     "divc_mass", EXIT_VALIDATION_ERROR),
    ("kinetic-grid-pair", "standing-shock-traffic",
     [("kinetic_grid = 6, 10, 14", "kinetic_grid = 6, 10"), ("ncells = 800", "ncells = 40")],
     "kinetic_grid", EXIT_VALIDATION_ERROR),
    ("reversed-cantor-base", "cantor-u-jump", [("M = 4\n", "M = 4\ncantor_base = 1 .. 0\n")],
     "cantor_base", EXIT_VALIDATION_ERROR),
    ("expansion-shock-pair", "standing-shock-traffic",
     [("kinetic_grid = 6, 10, 14", "inject_expansion_shock = 0.2, 0.8"),
      ("ncells = 800", "ncells = 40")],
     "inject_expansion_shock", EXIT_VALIDATION_ERROR),
    ("dim-inf", "volpert-heaviside", [("dim = 1\n", "dim = inf\n")], "dim",
     EXIT_VALIDATION_ERROR),
    ("ncells-zero", "standing-shock-traffic", [("ncells = 800", "ncells = 0")], "ncells",
     EXIT_VALIDATION_ERROR),
    ("disc-two-numbers", "2d-vline-jump",
     [("experiments = chain, green", "experiments = green"),
      ("omegas = box -0.8 .. 0.8 x -0.7 .. 0.7", "omegas = disc 0 0")],
     "omegas", EXIT_VALIDATION_ERROR),
    ("m-over-zero", "volpert-heaviside", [("M = 8", "M = 1/0")], "M", EXIT_PARSE_ERROR),
    ("literal-two-points", "sign-const", [("b = sign(x1)", "b = 1.2.3")], "b",
     EXIT_PARSE_ERROR),
    # two entries of one list that agree to 12 decimals: one jump's mass was dropped
    ("points-within-the-key", "sign-const",
     [("points = 0 : +1\n", "points = 0 : +1 ; 4e-13 : +1\n")], "[singular] points",
     EXIT_VALIDATION_ERROR),
    ("breaks-equal", "volpert-heaviside", [("breaks = 0 : +1\n", "breaks = 0 : +1 ; 0 : +1\n")],
     "breaks", EXIT_VALIDATION_ERROR),
    ("tol-abs-nan", "volpert-heaviside", [("dim = 1\n", "dim = 1\ntol_abs = nan\n")],
     "tol_abs", EXIT_VALIDATION_ERROR),
    ("tol-abs-negative", "volpert-heaviside", [("dim = 1\n", "dim = 1\ntol_abs = -1\n")],
     "tol_abs", EXIT_VALIDATION_ERROR),
    ("t-nan", "standing-shock-traffic", [("T = 0.8", "T = nan")], "T", EXIT_VALIDATION_ERROR),
    ("t-inf", "standing-shock-traffic", [("T = 0.8", "T = inf")], "T", EXIT_VALIDATION_ERROR),
    ("t-zero", "standing-shock-traffic", [("T = 0.8", "T = 0")], "T", EXIT_VALIDATION_ERROR),
    ("t-negative", "standing-shock-traffic", [("T = 0.8", "T = -1")], "T",
     EXIT_VALIDATION_ERROR),
    ("equal-shock-states", "standing-shock-traffic",
     [("shock_right = 0.8", "shock_right = 0.2"), ("ncells = 800", "ncells = 40")],
     "shock_right", EXIT_VALIDATION_ERROR),
    ("unknown-name-in-b", "volpert-heaviside", [("b = 2*t", "b = y + 2*t")], "b",
     EXIT_PARSE_ERROR),
    ("unknown-name-in-pieces", "volpert-heaviside", [("pieces = 0 | 1", "pieces = 0 | z")],
     "pieces", EXIT_PARSE_ERROR),
    ("unknown-name-in-ahat", "standing-shock-traffic",
     [("ahat = k*u*(1-u)", "ahat = k*u*(1-w)")], "ahat", EXIT_PARSE_ERROR),
    ("w11-in-2d", "2d-smooth-disc", [("experiments = chain, green", "experiments = w11")],
     "experiments", EXIT_VALIDATION_ERROR),
    ("kato-t-negative", "traffic-kato",
     [("experiments = conslaw, kato", "experiments = kato"), ("T = 0.25\ncfl", "cfl"),
      ("T = 0.25\ndx_list", "T = -1\ndx_list")], "T", EXIT_VALIDATION_ERROR),
    ("kato-dx-zero", "traffic-kato",
     [("experiments = conslaw, kato", "experiments = kato"),
      ("dx_list = 1/100, 1/200, 1/400", "dx_list = 1/100, 0")], "dx_list",
     EXIT_VALIDATION_ERROR),
    ("kato-dx-wider-than-domain", "traffic-kato",
     [("dx_list = 1/100, 1/200, 1/400", "dx_list = 1/100, 4")], "dx_list",
     EXIT_VALIDATION_ERROR),
    ("moll-eps-increasing", "sign-const",
     [("eps = 0.1, 0.05, 0.025", "eps = 0.025, 0.05")], "eps", EXIT_VALIDATION_ERROR),
    ("moll-eps-zero", "sign-const", [("eps = 0.1, 0.05, 0.025", "eps = 0.1, 0")], "eps",
     EXIT_VALIDATION_ERROR),
    ("moll-point-two-coords-1d", "sign-const", [("points = 0\n", "points = 0, 5\n")],
     "[moll] points", EXIT_VALIDATION_ERROR),
    # the run takes the singular set's normal at each point
    ("moll-point-off-the-singular-set", "moll-sign-exp", [("points = 0\n", "points = 0.5\n")],
     "[moll] points", EXIT_VALIDATION_ERROR),
    ("box-one-interval-2d", "2d-vline-jump",
     [("experiments = chain, green", "experiments = green"),
      ("omegas = box -0.8 .. 0.8 x -0.7 .. 0.7", "omegas = box -0.8 .. 0.8")],
     "omegas", EXIT_VALIDATION_ERROR),
    # geometry that green_check and the mollified trace need, checked at load
    ("green-box-edge-on-the-singular-point", "sign-const",
     [("omegas = box -0.9 .. 0.9 ; box -0.5 .. 0.7", "omegas = box 0 .. 0.9")], "omegas",
     EXIT_VALIDATION_ERROR),
    ("green-indicator-leaves-the-domain", "sign-const",
     [("omegas = box -0.9 .. 0.9 ; box -0.5 .. 0.7", "omegas = box -0.99 .. 0.9")], "omegas",
     EXIT_VALIDATION_ERROR),
    ("green-box-narrower-than-the-ramps", "sign-const",
     [("omegas = box -0.9 .. 0.9 ; box -0.5 .. 0.7", "omegas = box -0.01 .. 0.05")], "omegas",
     EXIT_VALIDATION_ERROR),
    ("green-curve-along-the-box-edge", "2d-vline-jump",
     [("omegas = box -0.8 .. 0.8 x -0.7 .. 0.7", "omegas = box 0 .. 0.8 x -0.7 .. 0.7")],
     "omegas", EXIT_VALIDATION_ERROR),
    ("moll-ball-leaves-the-domain", "sign-const", [("eps = 0.1, 0.05, 0.025", "eps = 1.5, 0.05")],
     "eps", EXIT_VALIDATION_ERROR),
    ("disc-in-1d", "sign-const",
     [("omegas = box -0.9 .. 0.9 ; box -0.5 .. 0.7", "omegas = disc 0 0 0.5")], "omegas",
     EXIT_VALIDATION_ERROR),
    ("kato-a2-without-b2", "traffic-kato",
     [("experiments = conslaw, kato", "experiments = kato"),
      ("u0_b2 = 0.4 + 0.15*(1-min(1,abs((x1+0.25)/0.2))^2)^2\n", "")], "u0_a2",
     EXIT_VALIDATION_ERROR),
    ("kinetic-grid-zero", "standing-shock-traffic",
     [("kinetic_grid = 6, 10, 14", "kinetic_grid = 0, 10, 14")], "kinetic_grid",
     EXIT_VALIDATION_ERROR),
    ("kinetic-grid-fraction", "standing-shock-traffic",
     [("kinetic_grid = 6, 10, 14", "kinetic_grid = 6, 2.5, 14")], "kinetic_grid",
     EXIT_VALIDATION_ERROR),
    ("run-kinetic-yes", "standing-shock-traffic", [("run_kinetic = true", "run_kinetic = yes")],
     "run_kinetic", EXIT_PARSE_ERROR),
    ("kinetic-strict-yes", "standing-shock-traffic",
     [("kinetic_strict = true", "kinetic_strict = yes")], "kinetic_strict", EXIT_PARSE_ERROR),
    ("sigma-sample-outside-t-range", "sign-const",
     [("sigma_t_samples = 0, 1, 2", "sigma_t_samples = 0, 1, 5")], "sigma_t_samples",
     EXIT_VALIDATION_ERROR),
    ("cfl-above-one", "standing-shock-traffic", [("cfl = 0.45", "cfl = 1.5")], "cfl",
     EXIT_VALIDATION_ERROR),
    ("product-without-section", "product-sin-heaviside",
     [("[product]\nh = sin(t)\ndh = cos(t)\nsup_dh = 1\n", "")], "experiments",
     EXIT_VALIDATION_ERROR),
    ("conslaw-in-2d", "standing-shock-traffic",
     [("dim = 1", "dim = 2"), ("domain = -1 .. 1", "domain = -1 .. 1 ; -1 .. 1")],
     "experiments", EXIT_VALIDATION_ERROR),
    ("b-plus-two-components-1d", "sign-const", [("b_plus = 1\n", "b_plus = 1, 2\n")],
     "b_plus", EXIT_VALIDATION_ERROR),
    ("b-minus-one-component-2d", "2d-vline-jump", [("b_minus = -(1+t), 0", "b_minus = 0")],
     "b_minus", EXIT_VALIDATION_ERROR),
    ("x2-in-1d-b", "volpert-heaviside", [("b = 2*t", "b = 2*t + x2")], "b", EXIT_PARSE_ERROR),
    ("x2-in-1d-pieces", "volpert-heaviside", [("pieces = 0 | 1", "pieces = 0 | x2")],
     "pieces", EXIT_PARSE_ERROR),
    ("x2-in-1d-u0", "standing-shock-traffic",
     [("u0 = 0.2 + 0.6*H(x1)", "u0 = 0.2 + 0.6*H(x2)")], "u0", EXIT_PARSE_ERROR),
    ("ahat-over-literal-zero", "burgers-shock", [("ahat = k*u^2/2", "ahat = 1/0")], "ahat",
     EXIT_PARSE_ERROR),
    ("ahat-over-constant-zero", "burgers-shock", [("ahat = k*u^2/2", "ahat = 1/(1-1)")],
     "ahat", EXIT_PARSE_ERROR),
    ("ahat-nan", "burgers-shock", [("ahat = k*u^2/2", "ahat = sqrt(-1)")], "ahat",
     EXIT_VALIDATION_ERROR),
    ("ahat-nan-on-u-range", "burgers-shock",
     [("ahat = k*u^2/2", "ahat = k*u*(1-u)*sqrt(u-2)")], "ahat", EXIT_VALIDATION_ERROR),
    ("dahat-nan-inside-u-range", "burgers-shock",
     [("dahat_du = k*u\n", "dahat_du = k*sqrt(u-0.5)\n")], "dahat_du", EXIT_VALIDATION_ERROR),
    ("u0-nan", "burgers-shock", [("u0 = H(-0.3-x1)", "u0 = sqrt(-1)")], "u0",
     EXIT_VALIDATION_ERROR),
    ("u0-nan-left-of-zero", "burgers-shock", [("u0 = H(-0.3-x1)", "u0 = sqrt(x1)")], "u0",
     EXIT_VALIDATION_ERROR),
    ("kato-u0-b-nan", "traffic-kato",
     [("u0_b = 0.4 + 0.2*(1-min(1,abs((x1+0.35)/0.25))^2)^2", "u0_b = 0.4*sqrt(x1-0.9)")],
     "u0_b", EXIT_VALIDATION_ERROR),
    ("entropy-ds-nan", "burgers-shock", [("T = 0.8\n", "T = 0.8\nentropy_dS = sqrt(t-2)\n")],
     "entropy_dS", EXIT_VALIDATION_ERROR),
    ("entropy-s-over-t", "burgers-shock", [("T = 0.8\n", "T = 0.8\nentropy_S = 1/t\n")],
     "entropy_S", EXIT_VALIDATION_ERROR),
    ("entropy-d2s-nan-above-half", "burgers-shock",
     [("T = 0.8\n", "T = 0.8\nentropy_d2S = sqrt(0.5-t)\n")], "entropy_d2S",
     EXIT_VALIDATION_ERROR),
    # initial data whose cell averages leave u_range, which the solver refuses
    ("u0-below-u-range", "negative-entropy", [("u0 = H(x1+0.3)", "u0 = -1")], "u0",
     EXIT_VALIDATION_ERROR),
    ("kato-u0-a-below-u-range", "traffic-kato",
     [("u0_a = 0.4 + 0.2*(1-min(1,abs((x1+0.55)/0.25))^2)^2", "u0_a = -1")], "u0_a",
     EXIT_VALIDATION_ERROR),
    # trajectories beyond the solver's bound: the message names T, or the dx_list
    ("ncells-1e300", "burgers-shock", [("ncells = 400", "ncells = 1e300")], "T",
     EXIT_VALIDATION_ERROR),
    ("cfl-1e-300", "burgers-shock", [("cfl = 0.45", "cfl = 1e-300")], "T",
     EXIT_VALIDATION_ERROR),
    ("dahat-du-1e300", "burgers-shock", [("dahat_du = k*u\n", "dahat_du = 1e300\n")], "T",
     EXIT_VALIDATION_ERROR),
    ("kato-dx-1e-300", "traffic-kato",
     [("dx_list = 1/100, 1/200, 1/400", "dx_list = 1e-300")], "dx_list",
     EXIT_VALIDATION_ERROR),
    # a speed that is not the u-derivative of ahat: the march would break its CFL bound
    ("dahat-du-zero", "transport-smooth", [("dahat_du = k\n", "dahat_du = 0\n")], "dahat_du",
     EXIT_VALIDATION_ERROR),
    ("dahat-du-1e-300", "transport-smooth", [("dahat_du = k\n", "dahat_du = 1e-300\n")],
     "dahat_du", EXIT_VALIDATION_ERROR),
]


def _write_malformed(tmp_path, name, source, replacements, key):
    """Write the malformed copy; (path, line of the first `key =` after key's section).

    key is a bare name, or '[section] name' when the name is used in several sections."""
    with open(scenario_path(source), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"{name}.scn"
    path.write_text(text)
    section, _, name = key.rpartition(" ")
    lines = text.splitlines()
    start = lines.index(section) if section else 0
    line = next(i for i, ln in enumerate(lines, 1) if i > start and ln.startswith(f"{name} ="))
    return str(path), line


@pytest.mark.parametrize("name, source, replacements, key, code", MALFORMED,
                         ids=[m[0] for m in MALFORMED])
def test_malformed_value_exits_with_its_line(tmp_path, capsys, name, source, replacements,
                                             key, code):
    path, line = _write_malformed(tmp_path, name, source, replacements, key)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    kind = "parse" if code == EXIT_PARSE_ERROR else "validation"
    # an expression's parse error names its column too
    head = re.compile(rf"{kind} error in {re.escape(path)}: line {line}(, col \d+)?: ")
    assert head.match(capsys.readouterr().out)
    assert main(["validate", path]) == code
    assert head.match(capsys.readouterr().out)


@pytest.mark.parametrize("levels, code", [(9765, EXIT_OK), (9766, EXIT_VALIDATION_ERROR)],
                         ids=["just-under", "just-over"])
def test_kato_bound_counts_the_work_per_pair(tmp_path, capsys, levels, code):
    # traffic-kato's three pairs on 12800 cells (dx = 1/6400): a pair's march
    # of `levels` time levels computes 2 x levels x 12800 cell states, and
    # 9765 levels fit MAX_TRAJECTORY_FLOATS while 9766 do not.  The sweep
    # holds all six rows at once, but the bound is on the work per pair
    from divchain.conslaw.solver import DEFAULT_CFL, MAX_TRAJECTORY_FLOATS, step_count
    from divchain.scenario import load
    flux = load(scenario_path("traffic-kato")).flux
    dx = 2.0 / 12800
    T = (levels - 1.5) * DEFAULT_CFL * dx / flux.M
    assert step_count(flux, T, dx, DEFAULT_CFL) + 1 == levels
    assert (2 * levels * 12800 <= MAX_TRAJECTORY_FLOATS) == (code == EXIT_OK)
    path, line = _write_malformed(
        tmp_path, f"kato-{levels}-levels", "traffic-kato",
        [("T = 0.25\ndx_list = 1/100, 1/200, 1/400", f"T = {T!r}\ndx_list = 1/6400")],
        "dx_list")
    assert main(["validate", path]) == code
    out = capsys.readouterr().out
    if code == EXIT_OK:
        assert out == "ok: traffic-kato (conslaw, kato)\n"
    else:
        assert out.startswith(f"validation error in {path}: line {line}: the march to T = ")
        assert f"holds 2 x {levels:.3g} x 1.28e+04 floats" in out


def test_malformed_values_do_not_stop_the_batch(tmp_path, capsys):
    # among them every file that once crashed `run` with a traceback (moll eps,
    # omegas, u0_a2 without u0_b2, kinetic_grid, sigma_t_samples, x2 in 1-D)
    paths = [_write_malformed(tmp_path, *m[:4])[0] for m in MALFORMED]
    code = main(["run", "volpert-heaviside", *paths, "sign-const",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION_ERROR
    out = capsys.readouterr().out
    assert "SCENARIO volpert-heaviside: PASS" in out
    assert "SCENARIO sign-const: PASS" in out
    assert all(f"error in {p}: line " in out for p in paths)
    assert "Traceback" not in out


_real_run_scenario, _real_load = cli.run_scenario, cli.load


def _defect_in_sign_const(scn, out_dir=None):
    if scn.id == "sign-const":
        raise RuntimeError("injected defect")
    return _real_run_scenario(scn, out_dir=out_dir)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_internal_error_does_not_stop_the_batch(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setattr(cli, "run_scenario", _defect_in_sign_const)
    bad = scenario_path("sign-const")
    code = main(["run", "volpert-heaviside", bad, "sign-2t-heaviside", "--jobs", jobs,
                 "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert f"internal error in {bad}: RuntimeError: injected defect" in captured.out
    assert "SCENARIO volpert-heaviside: PASS" in captured.out
    assert "SCENARIO sign-2t-heaviside: PASS" in captured.out
    if jobs == "1":         # a worker's stderr does not reach capsys
        assert "Traceback" in captured.err and "injected defect" in captured.err


@pytest.mark.parametrize("cmd, last", [("validate", "ok: volpert-heaviside (chain)"),
                                       ("run", "SCENARIO volpert-heaviside: PASS")],
                         ids=["validate", "run"])
def test_internal_error_in_load_does_not_stop_the_batch(tmp_path, monkeypatch, capsys, cmd,
                                                        last):
    bad, good = scenario_path("sign-const"), scenario_path("volpert-heaviside")

    def load(path):
        if path == bad:
            raise RuntimeError("injected defect")
        return _real_load(path)

    monkeypatch.setattr(cli, "load", load)
    out = ["--out", str(tmp_path)] if cmd == "run" else []
    assert main([cmd, bad, good, *out]) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == f"internal error in {bad}: RuntimeError: injected defect"
    assert lines[-1] == last
    assert "Traceback" in captured.err and "injected defect" in captured.err


@pytest.mark.parametrize("replacements, key", [
    ([("shock_right = 0.8", "shock_right = 0.2")], "shock_right"),
    ([("kinetic_grid = 6, 10, 14", "kinetic_grid = 6, 10")], "kinetic_grid"),
], ids=["equal-shock-states", "kinetic-grid-pair"])
def test_kinetic_values_are_checked_before_the_solve(tmp_path, monkeypatch, capsys,
                                                     replacements, key):
    import divchain.conslaw

    def no_solve(*args, **kw):
        raise AssertionError("the solve ran before the validation")

    monkeypatch.setattr(divchain.conslaw, "fv_solve", no_solve)
    path, line = _write_malformed(tmp_path, key, "standing-shock-traffic", replacements, key)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION_ERROR
    assert capsys.readouterr().out.startswith(f"validation error in {path}: line {line}: ")


def test_every_exported_name_resolves():
    import divchain
    import divchain.conslaw
    for mod in (divchain, divchain.conslaw):
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__


# -- exit-code fuzzer over mutations of the cheap files ---------------------

FUZZ_FILES = ["sign-const", "volpert-heaviside", "sign-2t-heaviside", "moll-sign-exp",
              "bv-scalar-signt-2h", "product-sin-heaviside", "w11-sign-xsq",
              "cantor-u-autonomous", "cantor-u-jump", "negative-entropy"]
FUZZ_VALUES = ["nan", "0", "-1", "1e300", "1e-300", "sqrt(x1)", "1/x1", "x1", "t", ""]
FUZZ_ENDS = ["-2", "-1", "-0.75", "-0.5", "0", "0.25", "0.5", "1", "1.25", "1.5", "2"]
KEY_LINE = re.compile(r"(\w+) = (.*)")


@st.composite
def mutated_files(draw):
    """(name, text, kind) of a cheap bundled file with one mutation, of the
    kind named: a `key = value` line set to a hostile value, new domain ends,
    a break or point moved, a new cantor_base, or a jump of u moved onto
    0.25 or 0.75, points of the Cantor set of the default base [0, 1]."""
    name = draw(st.sampled_from(FUZZ_FILES))
    lines = (bundled_dir() / f"{name}.scn").read_text(encoding="utf-8").splitlines()
    keyed = [i for i, ln in enumerate(lines) if KEY_LINE.fullmatch(ln)]
    placed = [i for i in keyed if re.match(r"(breaks|points|k_breaks) = -?[\d.]", lines[i])]
    cantor = any(ln.startswith(("cantor_amplitude = ", "divc_mass = ")) for ln in lines)
    u_breaks = [i for i in placed if cantor and lines[i].startswith("breaks = ")
                and lines[max(j for j in range(i) if lines[j].startswith("["))] == "[u]"]
    kind = draw(st.sampled_from(["value", "domain", "cantor_base"] + ["break"] * bool(placed)
                                + ["u_jump_on_cantor_set"] * bool(u_breaks)))
    if kind == "value":
        i = draw(st.sampled_from(keyed))
        lines[i] = f"{KEY_LINE.fullmatch(lines[i])[1]} = {draw(st.sampled_from(FUZZ_VALUES))}"
    elif kind == "domain":
        i = lines.index(next(ln for ln in lines if ln.startswith("domain = ")))
        lines[i] = f"domain = {draw(st.sampled_from(FUZZ_ENDS))} .. " \
                   f"{draw(st.sampled_from(FUZZ_ENDS))}"
    elif kind == "break":
        i = draw(st.sampled_from(placed))
        at = draw(st.sampled_from(FUZZ_ENDS + ["1/3", "0.999"]))
        lines[i] = re.sub(r"= -?[\d.]+", f"= {at}", lines[i], count=1)
    elif kind == "u_jump_on_cantor_set":
        i = draw(st.sampled_from(u_breaks))
        lines[i] = re.sub(r"= -?[\d.]+", f"= {draw(st.sampled_from(['0.25', '0.75']))}", lines[i],
                          count=1)
    else:
        section = "[field]" if "[field]" in lines else "[scenario]"
        lines.insert(lines.index(section) + 1, f"cantor_base = {draw(st.sampled_from(FUZZ_ENDS))}"
                     f" .. {draw(st.sampled_from(FUZZ_ENDS))}")
    return name, "\n".join(lines) + "\n", kind


def _u_jump_at(name, at):
    """A bundled file's text with the jump of u moved to `at`."""
    text = (bundled_dir() / f"{name}.scn").read_text(encoding="utf-8")
    return name, re.sub(r"(?m)^breaks = [\d.]+", f"breaks = {at}", text, count=1), \
        "u_jump_on_cantor_set"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated_files())
@example(_u_jump_at("cantor-u-jump", "0.75"))
def test_exit_codes_hold_for_mutated_files(tmp_path_factory, case):
    # validate and run agree on every file that validate rejects, and a file
    # that validate accepts never fails to parse or validate in run; a valid
    # file whose jump of u sits on the Cantor set runs to its verdicts
    name, text, kind = case
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.scn"
    path.write_text(text, encoding="utf-8")
    _, failure = cli._load(str(path))
    code, out = cli._run_one((str(path), str(path.parent / "out")))
    assert code in (EXIT_OK, EXIT_CHECKS_FAILED, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR,
                    EXIT_NUMERICAL_ERROR)
    assert "internal error" not in out
    if failure:
        assert code == failure[0]
    else:
        assert code not in (EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR)
    if kind == "u_jump_on_cantor_set" and not failure:
        assert code in (EXIT_OK, EXIT_CHECKS_FAILED), out

import json
import os
import re
import warnings

import pytest

from divchain import cli
from divchain.cli import bundled_paths, main
from divchain.runner import (EXIT_CHECKS_FAILED, EXIT_NUMERICAL_ERROR, EXIT_OK,
                             EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR)


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

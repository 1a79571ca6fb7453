"""Command-line entry point: run / validate / list over scenario files.

Exit codes (stable contract):
  0  all checks passed
  1  one or more checks failed
  2  scenario parse error, or the scenario file cannot be read
  3  scenario validation error
  4  numerical failure (quadrature, solver)

With several paths each scenario gets its own code and lines, a bad one does
not stop the others, and the process exits with the largest code.  Under
--jobs, a scenario whose worker process died is run again alone; if that
worker dies too, the scenario gets code 4.
"""

from __future__ import annotations

import argparse
import errno
import importlib.resources
import os
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .errors import DivchainError, ScenarioParseError, ScenarioValidationError
from .runner import (EXIT_CHECKS_FAILED, EXIT_NUMERICAL_ERROR, EXIT_OK,
                     EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR, run_scenario)
from .scenario import load

DEFAULT_OUT_ENV = "DIVCHAIN_OUT"


def bundled_dir():
    return importlib.resources.files("divchain.scenarios")


def bundled_paths():
    root = bundled_dir()
    return sorted(str(p) for p in root.iterdir() if str(p).endswith(".scn"))


def _resolve(path):
    if os.path.exists(path):
        return path
    cand = bundled_dir() / f"{path}.scn"
    if cand.is_file():
        return str(cand)
    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


# a missing, unopenable or non-UTF-8 scenario file
_UNREADABLE = (OSError, UnicodeDecodeError)


def _unreadable(path, exc):
    return f"cannot read scenario {path}: {getattr(exc, 'strerror', None) or exc}"


def _run_one(args_tuple):
    path, out_dir, tol_abs, tol_rel = args_tuple
    # non-finite field values surface as IntegrationError (exit 4) from the
    # finiteness guards; numpy's floating-point warnings would only repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            try:
                scn = load(_resolve(path))
            except _UNREADABLE as exc:
                return EXIT_PARSE_ERROR, _unreadable(path, exc)
            if tol_abs is not None:
                scn.tol_abs = tol_abs
            if tol_rel is not None:
                scn.tol_rel = tol_rel
            res = run_scenario(scn, out_dir=out_dir)
            code = EXIT_OK if res.passed else EXIT_CHECKS_FAILED
            lines = [f"[{'PASS' if c['pass'] else 'FAIL'}] {scn.id}: {c['name']}"
                     for c in res.checks]
            lines.append(f"SCENARIO {scn.id}: {'PASS' if res.passed else 'FAIL'}")
            return code, "\n".join(lines)
        except ScenarioParseError as exc:
            return EXIT_PARSE_ERROR, f"parse error in {path}: {exc}"
        except ScenarioValidationError as exc:
            return EXIT_VALIDATION_ERROR, f"validation error in {path}: {exc}"
        except DivchainError as exc:
            return EXIT_NUMERICAL_ERROR, f"numerical failure in {path}: {exc}"


def _run_pooled(tasks, jobs, retry=True):
    # a worker's death fails every scenario still pending in its pool: each runs
    # again in a pool of its own, and gets code 4 if that worker dies too
    futures = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for t in tasks:
            try:
                futures.append(pool.submit(_run_one, t))
            except BrokenProcessPool as exc:       # broke while still submitting
                futures.append(Future())
                futures[-1].set_exception(exc)
    results = []
    for f, t in zip(futures, tasks):
        try:
            results.append(f.result())
        except BrokenProcessPool:
            results.append(_run_pooled([t], 1, retry=False)[0] if retry else
                           (EXIT_NUMERICAL_ERROR, f"worker crashed while running {t[0]}"))
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(prog="divchain",
                                 description="chain-rule verification harness")
    sub = ap.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run scenario file(s)")
    runp.add_argument("paths", nargs="+", help="scenario files or bundled ids")
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--tol-abs", type=float, default=None)
    runp.add_argument("--tol-rel", type=float, default=None)
    runp.add_argument("--out", default=os.environ.get(DEFAULT_OUT_ENV, "out"))

    valp = sub.add_parser("validate", help="parse and validate without numerics")
    valp.add_argument("paths", nargs="+")

    sub.add_parser("list", help="list bundled scenarios")

    args = ap.parse_args(argv)

    if args.cmd == "list":
        for p in bundled_paths():
            print(os.path.splitext(os.path.basename(p))[0])
        return EXIT_OK

    if args.cmd == "validate":
        worst = EXIT_OK
        for path in args.paths:
            try:
                scn = load(_resolve(path))
                print(f"ok: {scn.id} ({', '.join(scn.experiments)})")
            except _UNREADABLE as exc:
                print(_unreadable(path, exc))
                worst = max(worst, EXIT_PARSE_ERROR)
            except ScenarioParseError as exc:
                print(f"parse error in {path}: {exc}")
                worst = max(worst, EXIT_PARSE_ERROR)
            except (ScenarioValidationError, DivchainError) as exc:
                print(f"validation error in {path}: {exc}")
                worst = max(worst, EXIT_VALIDATION_ERROR)
        return worst

    tasks = [(p, args.out, args.tol_abs, args.tol_rel) for p in args.paths]
    if args.jobs > 1 and len(tasks) > 1:
        results = _run_pooled(tasks, args.jobs)
    else:
        results = [_run_one(t) for t in tasks]
    worst = EXIT_OK
    for code, text in results:
        print(text)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())

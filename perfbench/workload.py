"""One workload process: a set-up sample, or timed passes over scenarios.

Run by run.py in a fresh interpreter.  Every scenario is driven through the
public CLI entry ``divchain.cli.main(["run", <scenario>, "--out", <dir>])``,
one call per scenario so that each exit code is seen.  The result is written
as JSON to the file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import calib


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cli, scenarios, out_dir, tracer, sampler):
    """One pass in the given order; per scenario: exit code, seconds, digest.

    The pass time is the sum of the scenario times, so the benchmark's own
    bookkeeping between scenarios is not counted, and neither are the
    sampler's reference slices.  Each scenario keeps the slices that ran
    during it, and the pass keeps all of its slices, for calib.normalise;
    one slice is run at the end of every pass so that each pass has one."""
    rows = []
    start = time.perf_counter()
    for sid, path, expected in scenarios:
        report = os.path.join(out_dir, sid, "report.json")
        if os.path.exists(report):
            os.remove(report)
        if tracer is not None:
            tracer.scenario = sid
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", path, "--out", out_dir])
        except Exception as exc:  # one failed operation; the pass goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        refs = sampler.within(t0, t1)
        rows.append({"id": sid, "expected": expected, "code": code, "error": error,
                     "seconds": t1 - t0 - sum(refs), "ref_s": refs,
                     "digest": _digest(report) if os.path.exists(report) else None})
    sampler.tick()
    return {"seconds": sum(r["seconds"] for r in rows),
            "ref_s": sampler.within(start, time.perf_counter()), "scenarios": rows}


def margin(tolerances, rows, out_dir):
    """Worst error-over-tolerance ratio over the positive scenarios.

    Oracle rows: |measure_action - weak_value| / max(tol_abs, tol_rel*scale).
    Scenarios without oracle rows contribute their entropy residual over its
    bound.  Either way a value above 1 is a failed check."""
    worst = None
    for row in rows:
        if row["expected"] != 0 or row["code"] != 0:
            continue
        with open(os.path.join(out_dir, row["id"], "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        tol_abs, tol_rel = tolerances[row["id"]]
        ratios = [abs(r["measure_action"] - r["weak_value"])
                  / max(tol_abs, tol_rel * max(abs(r["measure_action"]), abs(r["weak_value"])))
                  for r in report["phi_rows"]]
        if not ratios:
            ratios = [c["data"]["worst_residual"] / c["data"]["bound"]
                      for c in report["checks"] if c["name"] == "conslaw:entropy_residual"]
        for value in ratios:
            worst = value if worst is None else max(worst, value)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenarios", required=True, help="JSON list of [id, path, expected]")
    ap.add_argument("--mode", choices=("setup", "passes"), required=True)
    ap.add_argument("--out", help="output directory for the program's reports")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced run's spans")
    ap.add_argument("--interval", type=float, default=calib.INTERVAL_S,
                    help="seconds between reference slices; 0 for none")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    with open(args.scenarios, encoding="utf-8") as fh:
        scenarios = [tuple(s) for s in json.load(fh)]

    # Set-up: divchain imported and every scenario of the workload loaded.
    import divchain.cli as cli
    from divchain.scenario import load
    tolerances = {}
    for sid, path, _ in scenarios:
        scn = load(path)
        tolerances[sid] = (scn.tol_abs, scn.tol_rel)
    result = {"divchain_file": os.path.abspath(sys.modules["divchain"].__file__)}
    if args.mode == "setup":
        _write(args.result, result)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    passes = []
    start = time.perf_counter()
    with calib.Sampler(args.interval) as sampler:
        while True:
            passes.append(run_pass(cli, scenarios, args.out, tracer, sampler))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            if len(passes) >= args.max_passes or elapsed + typical > args.seconds:
                break
    result["passes"] = passes
    result["margin"] = margin(tolerances, passes[0]["scenarios"], args.out)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import numpy
    import scipy
    import divchain.conslaw as conslaw
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "HAVE_COMPILED": getattr(conslaw, "HAVE_COMPILED", "absent"),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["bound"] = tracer.bound
        if args.spans:
            tracer.write_spans(args.spans)
    _write(args.result, result)
    return 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())

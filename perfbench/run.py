"""divchain benchmark: time-to-verdict over a workload of scenario files.

    python3 perfbench/run.py --workload conslaw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in fresh interpreters,
one process and one worker, driving every scenario through
``divchain.cli.main(["run", <scenario>, "--out", <dir>])``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of five
fresh interpreters importing divchain and loading the workload's scenarios),
``wall_s`` (median time of one pass over the scenarios, outputs written),
``max_scenario_s`` (slowest scenario's median), ``peak_rss_mb`` and
``oracle_margin``.  The three times are normalised seconds: each reading
is scaled by a host-speed reference timed during the run (calib.py).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  A scenario whose exit
code differs from its expected verdict, or that raises, is a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "out", "inputs")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 5
# Set-up is scaled by the reference slices of the same run's passes, at this
# sensitivity (calib.scale).  Over two sets of ten runs per workload on a
# 2-core host, the sets' set-up medians were up to 21% apart raw, and at most
# 9% apart scaled at 0.75 (README.md, "Normalised time").
SETUP_SENSITIVITY = 0.75
RUN_LIMIT_S = 170.0

# Boundaries that must record calls on each workload.  A boundary that reads
# zero where its layer is exercised is a missed alias, not a free layer.
EXERCISED = {
    "conslaw": ["conslaw.solver.fv_solve", "conslaw.diagnostics.kinetic_measure",
                "conslaw.diagnostics.kinetic_identity_residual",
                "conslaw.hatbasis.PiecewiseLinearWeight.weighted_to_upper",
                "conslaw.diagnostics.entropy_residual", "conslaw.diagnostics.kato_check",
                "quadrature.integrate_1d"],
    "refine": ["conslaw.solver.fv_solve", "conslaw.diagnostics.kato_check",
               "conslaw.diagnostics.entropy_residual"],
    "cantor": ["quadrature.integrate_to_upper", "field.PrimitiveField.value",
               "field.ParamField.eval", "cantor.ifs_cdf", "bvfunc.LevelRegion.breakpoints_1d",
               "bvfunc.BVFunction.eval", "chainrule.chain_dm", "chainrule.layer_cake_action",
               "oracle.compare", "oracle.weak_divergence", "quadrature.integrate_1d",
               "measure.RadonMeasure.apply", "measure.RadonMeasure.total_variation"],
    "chain": ["quadrature.integrate_to_upper", "field.PrimitiveField.value",
              "field.PrimitiveField.plus", "field.PrimitiveField.minus",
              "field.PrimitiveField.diva", "field.ParamField.eval", "chainrule.chain_dm",
              "oracle.compare", "oracle.weak_divergence", "quadrature.integrate_1d",
              "quadrature.integrate_cells", "measure.RadonMeasure.apply",
              "measure.RadonMeasure.total_variation", "rectifiable.box_cells"],
}
ALWAYS_EXERCISED = ["scenario.load", "runner.write_outputs"]

# Layer shares of the traced pass, from self times, that the workloads were
# chosen for (see README.md).
SHARES = {
    "kinetic_assembly": ["conslaw.diagnostics.kinetic_measure",
                         "conslaw.diagnostics.kinetic_identity_residual",
                         "conslaw.hatbasis.PiecewiseLinearWeight.weighted_to_upper"],
    "fv_solve": ["conslaw.solver.fv_solve"],
    "breakpoints_1d": ["bvfunc.LevelRegion.breakpoints_1d"],
    "ifs_cdf": ["cantor.ifs_cdf"],
    "integrate_to_upper": ["quadrature.integrate_to_upper"],
}


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Spawns workload processes against this checkout's sources."""

    def __init__(self, workload, scenarios):
        self.workload = workload
        self.out = os.path.join(HERE, "out", workload)
        os.makedirs(self.out, exist_ok=True)
        self.scenarios = scenarios
        self.scenario_file = os.path.join(self.out, "scenarios.json")
        with open(self.scenario_file, "w", encoding="utf-8") as fh:
            json.dump(self.scenarios, fh)
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def child(self, mode, seconds=0.0, max_passes=1, trace=0, interval=calib.INTERVAL_S):
        """Run one workload process; returns (wall seconds, result dict)."""
        result = os.path.join(self.out, f"{mode}-trace{trace}.json")
        if os.path.exists(result):
            os.remove(result)
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--scenarios", self.scenario_file, "--mode", mode, "--out", self.out,
               "--seconds", repr(seconds), "--max-passes", str(max_passes),
               "--trace", str(trace), "--interval", repr(interval), "--result", result,
               "--spans", os.path.join(self.out, "spans.tsv")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - t0))
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
        src = os.path.join(ROOT, "src") + os.sep
        if not res["divchain_file"].startswith(src):
            raise RuntimeError(f"imported divchain from {res['divchain_file']}, not {src}")
        return wall, res


def _failures(passes):
    """(attempted, failed, messages) over every scenario run of the passes."""
    attempted, failed, msgs = 0, 0, []
    for p in passes:
        for row in p["scenarios"]:
            attempted += 1
            if row["code"] != row["expected"]:
                failed += 1
                msgs.append(f"{row['id']}: exit {row['code']}, expected {row['expected']}"
                            + (f" ({row['error']})" if row["error"] else ""))
    return attempted, failed, msgs


def _identical(one_pass):
    """Scenarios of the pass whose report.json matches the recorded digest."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    return sum(1 for row in one_pass["scenarios"]
               if row["digest"] is not None and digests.get(row["id"]) == row["digest"])


def untraced(runner, seconds):
    setups = [runner.child("setup")[0] for _ in range(SETUP_SAMPLES)]
    _, res = runner.child("passes", seconds=seconds, max_passes=1000)
    passes = res["passes"]
    sensitivity = inputs.SENSITIVITY[runner.workload]
    normalised = [calib.normalise(p, sensitivity) for p in passes]
    slices = [ref for p in passes for ref in p["ref_s"]]
    medians = {sid: statistics.median(n[sid] for n in normalised) for sid in normalised[0]}
    metrics = {
        "wall_s": (statistics.median(sum(n.values()) for n in normalised), "s"),
        "setup_s": (statistics.median(setups) * calib.scale(slices, SETUP_SENSITIVITY), "s"),
        "max_scenario_s": (max(medians.values()), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "oracle_margin": (res["margin"], "ratio"),
    }
    info = {"passes": len(passes), "pass_s": [p["seconds"] for p in passes],
            "measured_wall_s": statistics.median(p["seconds"] for p in passes),
            "pass_scale": [sum(n.values()) / p["seconds"] for n, p in zip(normalised, passes)],
            "measured_setup_s": statistics.median(setups), "setup_samples_s": setups,
            "scenario_median_s": medians,
            "runner.reports_byte_identical": _identical(passes[-1]),
            "env": res["env"]}
    return passes, metrics, info, []


def traced(runner):
    # No timed reference slices here: they would land in the spans' self time.
    _, plain = runner.child("passes", max_passes=1, interval=0)
    _, res = runner.child("passes", max_passes=1, trace=1, interval=0)
    passes = plain["passes"] + res["passes"]
    base, run = plain["passes"][0], res["passes"][0]
    layers = res["layers"]
    problems = []
    for name in EXERCISED[runner.workload] + ALWAYS_EXERCISED:
        if layers[f"{name}.calls"] == 0:
            problems.append(f"boundary {name} recorded zero calls")
    for a, b in zip(base["scenarios"], run["scenarios"]):
        if a["digest"] != b["digest"]:
            problems.append(f"{a['id']}: traced report.json differs from untraced")
    metrics = {name: (value, "1/s" if name.endswith("_per_s") else
                      "s" if name.endswith("_s") else
                      "ratio" if name.endswith("per_point") else "count")
               for name, value in layers.items()}
    metrics["runner.reports_byte_identical"] = (_identical(base), "count")
    metrics["trace.overhead_s"] = (run["seconds"] - base["seconds"], "s")
    shares = {name: sum(layers[f"{p}.self_s"] for p in parts) / run["seconds"]
              for name, parts in SHARES.items()}
    info = {"untraced_wall_s": base["seconds"], "traced_wall_s": run["seconds"],
            "self_time_shares": shares, "rebound": res["bound"], "env": res["env"]}
    return passes, metrics, info, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="divchain time-to-verdict benchmark")
    ap.add_argument("--workload", required=True, choices=inputs.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "divchain", "__init__.py")):
        print(f"no divchain sources under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(args.workload, inputs.scenarios(args.workload, args.seed, ROOT, INPUTS))
    try:
        if args.trace:
            passes, metrics, info, problems = traced(runner)
        else:
            passes, metrics, info, problems = untraced(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    attempted, failed, msgs = _failures(passes)
    for msg in msgs + problems:
        print(f"FAILED {msg}", file=sys.stderr)
    info["env"]["git_commit"] = _git_commit()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scenarios": [s[0] for s in runner.scenarios],
              "metrics": {k: v[0] for k, v in metrics.items()}, **info, "detail": passes}
    results = os.path.join(HERE, "out", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:64s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

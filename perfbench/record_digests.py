"""Record the report.json digest of every scenario the benchmark can run.

    python3 perfbench/record_digests.py

Runs the 23 bundled scenarios and every generated refine variant once, checks
each exit code against its expected verdict, and writes perfbench/digests.json.
The benchmark counts the reports that still match as
runner.reports_byte_identical.
"""

import json
import os
import sys

import inputs
import run


def main():
    scenarios = []
    for workload in inputs.WORKLOADS:
        scenarios += inputs.scenarios(workload, 0, run.ROOT, run.INPUTS)
    for j in range(inputs.REFINE_FAMILY):
        scenarios += inputs.refine_files([j], run.INPUTS)
    runner = run.Runner("record", scenarios)
    _, res = runner.child("passes", max_passes=1)
    bad = [r for r in res["passes"][0]["scenarios"] if r["code"] != r["expected"]]
    for r in bad:
        print(f"{r['id']}: exit {r['code']}, expected {r['expected']}", file=sys.stderr)
    if bad:
        return 1
    digests = {r["id"]: r["digest"] for r in res["passes"][0]["scenarios"]}
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

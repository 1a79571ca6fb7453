"""Self-tests of the benchmark's inputs and tracer.

    python3 -m pytest perfbench -q

They run in seconds except test_refine_family_passes, which runs every
generated refine variant once (about 25 s on a 2-core host).
"""

import contextlib
import importlib
import io
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import tracer  # noqa: E402


def _read(entries):
    out = []
    for sid, path, expected in entries:
        with open(path, "rb") as fh:
            out.append((sid, fh.read(), expected))
    return out


@pytest.mark.parametrize("workload", inputs.NAMES)
def test_same_seed_same_inputs(workload, tmp_path):
    a = _read(inputs.scenarios(workload, 7, ROOT, str(tmp_path / "a")))
    b = _read(inputs.scenarios(workload, 7, ROOT, str(tmp_path / "b")))
    assert a == b


def test_seeds_change_order_and_variants(tmp_path):
    orders = {tuple(s[0] for s in inputs.scenarios("chain", seed, ROOT, str(tmp_path)))
              for seed in range(5)}
    variants = {tuple(inputs.refine_variants(seed)) for seed in range(5)}
    assert len(orders) > 1 and len(variants) > 1


def test_bundled_workloads_partition_the_corpus():
    bundled = os.listdir(os.path.join(ROOT, "src", "divchain", "scenarios"))
    ids = [sid for names in inputs.WORKLOADS.values() for sid in names]
    assert sorted(ids) == sorted(f[:-4] for f in bundled if f.endswith(".scn"))


def test_refine_family_passes(tmp_path):
    from divchain.cli import main
    entries = inputs.refine_files(range(inputs.REFINE_FAMILY), str(tmp_path / "in"))
    for sid, path, expected in entries:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", path, "--out", str(tmp_path / "out")]) == expected, sid


def test_every_alias_is_rebound():
    originals = {}
    for module, attr, name, *_ in tracer.TIMED + tracer.COUNTED:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        originals[name] = obj
    t = tracer.Tracer().install()
    try:
        for mname, mod in list(sys.modules.items()):
            if mname.startswith("divchain"):
                for key, value in vars(mod).items():
                    assert all(value is not fn for fn in originals.values()), (mname, key)
        # integrate_1d: quadrature itself plus measure, oracle, bvfunc, field,
        # rectifiable, chainrule (and the package re-export, if any)
        assert t.bound["quadrature.integrate_1d"] >= 7
        assert t.bound["quadrature.integrate_to_upper"] >= 4
        assert t.bound["oracle.compare"] >= 2
    finally:
        for module, attr, name, *_ in tracer.TIMED + tracer.COUNTED:
            if "." in attr:
                cls, meth = attr.split(".")
                setattr(getattr(importlib.import_module(module), cls), meth, originals[name])
        for mname, mod in list(sys.modules.items()):
            if mname.startswith("divchain"):
                for key, value in list(vars(mod).items()):
                    wrapped = getattr(value, "__wrapped__", None)
                    if wrapped is not None and wrapped in originals.values():
                        setattr(mod, key, wrapped)


def test_self_time_excludes_children():
    t = tracer.Tracer()
    stats_a, stats_b = t.stats["chainrule.chain_dm"], t.stats["oracle.compare"]
    t._enter("chainrule.chain_dm")
    t._enter("oracle.compare")
    t._exit("oracle.compare")
    t._exit("chainrule.chain_dm")
    (_, a0, a1, pa, _), (_, b0, b1, pb, _) = t.spans
    assert pa == -1 and pb == 0
    assert stats_b["self_s"] == pytest.approx(b1 - b0)
    assert stats_a["self_s"] == pytest.approx((a1 - a0) - (b1 - b0))


def test_reference_slices_are_not_counted(tmp_path):
    import calib
    import workload

    windows = []

    class Cli:
        @staticmethod
        def main(argv):
            t0 = time.perf_counter()
            time.sleep(0.3)
            windows.append((t0, time.perf_counter()))
            return 0

    scenarios = [("a", "a.scn", 0), ("b", "b.scn", 1)]
    with calib.Sampler(interval=0.05) as sampler:
        p = workload.run_pass(Cli, scenarios, str(tmp_path), None, sampler)
    for row, (t0, t1) in zip(p["scenarios"], windows):
        inside = sum(sampler.within(t0, t1))
        assert inside > 0
        assert row["seconds"] == pytest.approx(t1 - t0 - inside, abs=1e-3)
    normalised = calib.normalise(p, 0.5)
    for row in p["scenarios"]:
        own = row["ref_s"] if len(row["ref_s"]) >= calib.MIN_OWN_SLICES else p["ref_s"]
        slowdown = sum(own) / len(own) / calib.NOMINAL_S
        assert normalised[row["id"]] == pytest.approx(row["seconds"] / (1 + 0.5 * (slowdown - 1)))
    assert [r["code"] == r["expected"] for r in p["scenarios"]] == [True, False]

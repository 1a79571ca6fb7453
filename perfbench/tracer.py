"""Span tracer for the traced benchmark run.

The tracer wraps the public function at each layer boundary from outside the
program: module functions are rebound in every ``divchain`` module that holds
them (so ``from .quadrature import integrate_1d`` aliases are covered, and
lazy imports read the rebound name), and methods are patched on their class.

A *timed* boundary records one span per call (name, start, end, parent span,
scenario id) and accumulates calls, self time and its work counts.  A
*counted* boundary only counts calls and points, because it runs millions of
times and a span per call would dominate the measurement.  Self time is a
span's duration minus the time covered by its child spans; the engine is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time

import numpy as np


def _npoints(x):
    return int(np.shape(x)[0]) if np.ndim(x) else 1


def _count_fv_solve(stats, args, kwargs, result):
    stats["cell_updates"] += (len(result.times) - 1) * len(result.centers)


def _count_slab_states(stats, args, kwargs, result):
    traj = kwargs.get("traj", args[0] if args else None)
    stats["slab_states"] += (len(traj.times) - 1) * len(traj.centers)


def _count_upper_points(stats, args, kwargs, result):
    # weighted_to_upper(self, g, u, ...)
    stats["points"] += int(np.size(kwargs.get("u", args[2] if len(args) > 2 else None)))


def _count_compare(stats, args, kwargs, result):
    stats["phi_rows"] += len(result["rows"])


def _count_ifs_points(stats, args, kwargs, result):
    stats["points"] += int(np.size(result))


def _count_roots(stats, args, kwargs, result):
    stats["roots"] += len(result)


def _count_written(stats, args, kwargs, result):
    res, out_dir = args[0], kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    d = os.path.join(out_dir, res.scenario_id)
    stats["bytes"] += sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))


# (module, attribute path, metric prefix, counter, integrand argument)
# The integrand argument, when set, names the callable whose calls and
# evaluated points are counted for that quadrature.
TIMED = [
    ("divchain.conslaw.solver", "fv_solve", "conslaw.solver.fv_solve",
     _count_fv_solve, None),
    ("divchain.conslaw.diagnostics", "kinetic_measure",
     "conslaw.diagnostics.kinetic_measure", _count_slab_states, None),
    ("divchain.conslaw.diagnostics", "kinetic_identity_residual",
     "conslaw.diagnostics.kinetic_identity_residual", _count_slab_states, None),
    ("divchain.conslaw.hatbasis", "PiecewiseLinearWeight.weighted_to_upper",
     "conslaw.hatbasis.PiecewiseLinearWeight.weighted_to_upper",
     _count_upper_points, None),
    ("divchain.conslaw.diagnostics", "entropy_residual",
     "conslaw.diagnostics.entropy_residual", None, None),
    ("divchain.conslaw.diagnostics", "kato_check",
     "conslaw.diagnostics.kato_check", None, None),
    ("divchain.quadrature", "integrate_to_upper", "quadrature.integrate_to_upper",
     None, 0),
    ("divchain.quadrature", "integrate_1d", "quadrature.integrate_1d", None, 0),
    ("divchain.quadrature", "integrate_cells", "quadrature.integrate_cells", None, 0),
    ("divchain.cantor", "ifs_cdf", "cantor.ifs_cdf", _count_ifs_points, None),
    ("divchain.bvfunc", "LevelRegion.breakpoints_1d", "bvfunc.LevelRegion.breakpoints_1d",
     _count_roots, None),
    ("divchain.chainrule", "chain_dm", "chainrule.chain_dm", None, None),
    ("divchain.chainrule", "layer_cake_action", "chainrule.layer_cake_action", None, None),
    ("divchain.oracle", "compare", "oracle.compare", _count_compare, None),
    ("divchain.oracle", "weak_divergence", "oracle.weak_divergence", None, None),
    ("divchain.measure", "RadonMeasure.apply", "measure.RadonMeasure.apply", None, None),
    ("divchain.measure", "RadonMeasure.total_variation",
     "measure.RadonMeasure.total_variation", None, None),
    ("divchain.scenario", "load", "scenario.load", None, None),
    ("divchain.runner", "write_outputs", "runner.write_outputs", _count_written, None),
]

# (module, attribute path, metric prefix, index of the points argument)
COUNTED = [
    ("divchain.field", "PrimitiveField.value", "field.PrimitiveField.value", 1),
    ("divchain.field", "PrimitiveField.plus", "field.PrimitiveField.plus", 1),
    ("divchain.field", "PrimitiveField.minus", "field.PrimitiveField.minus", 1),
    ("divchain.field", "PrimitiveField.diva", "field.PrimitiveField.diva", 1),
    ("divchain.field", "ParamField.eval", "field.ParamField.eval", 1),
    ("divchain.bvfunc", "BVFunction.eval", "bvfunc.BVFunction.eval", 1),
    ("divchain.rectifiable", "box_cells", "rectifiable.box_cells", None),
]

BREAKPOINTS = "bvfunc.LevelRegion.breakpoints_1d"
UPPER = "quadrature.integrate_to_upper"

# The stats each prefix reports, in output order.
STATS = {
    "conslaw.solver.fv_solve": ("calls", "self_s", "cell_updates", "cell_updates_per_s"),
    "conslaw.diagnostics.kinetic_measure": ("calls", "self_s", "slab_states"),
    "conslaw.diagnostics.kinetic_identity_residual": ("calls", "self_s", "slab_states"),
    "conslaw.hatbasis.PiecewiseLinearWeight.weighted_to_upper": ("calls", "self_s", "points"),
    "conslaw.diagnostics.entropy_residual": ("calls", "self_s"),
    "conslaw.diagnostics.kato_check": ("calls", "self_s"),
    UPPER: ("calls", "points", "integrand_calls", "evals_per_point", "self_s"),
    "field.PrimitiveField.value": ("calls", "points"),
    "field.PrimitiveField.plus": ("calls", "points"),
    "field.PrimitiveField.minus": ("calls", "points"),
    "field.PrimitiveField.diva": ("calls", "points"),
    "field.ParamField.eval": ("calls", "points"),
    "cantor.ifs_cdf": ("calls", "points", "self_s"),
    BREAKPOINTS: ("calls", "self_s", "u_evals", "roots"),
    "bvfunc.BVFunction.eval": ("calls", "points"),
    "chainrule.chain_dm": ("calls", "self_s"),
    "chainrule.layer_cake_action": ("calls", "self_s"),
    "oracle.compare": ("calls", "self_s", "phi_rows"),
    "oracle.weak_divergence": ("calls", "self_s"),
    "quadrature.integrate_1d": ("calls", "integrand_calls", "points", "self_s"),
    "quadrature.integrate_cells": ("calls", "integrand_calls", "points", "self_s"),
    "measure.RadonMeasure.apply": ("calls", "self_s"),
    "measure.RadonMeasure.total_variation": ("calls", "self_s"),
    "rectifiable.box_cells": ("calls", "cells"),
    "scenario.load": ("calls", "self_s"),
    "runner.write_outputs": ("calls", "self_s", "bytes"),
}


class _Stats(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Spans and per-boundary counters of one traced process."""

    def __init__(self):
        self.scenario = None
        self.spans = []        # [name, start, end, parent index, scenario]
        self.stack = []        # [span index, child time]
        self.stats = {prefix: _Stats() for prefix in STATS}
        self.bound = {}        # prefix -> number of names rebound

    def _enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.scenario])
        self.stack.append([idx, 0.0])

    def _exit(self, name):
        idx, child = self.stack.pop()
        span = self.spans[idx]
        span[2] = end = time.perf_counter()
        dur = end - span[1]
        self.stats[name]["self_s"] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def _counting(self, name, fn):
        stats = self.stats[name]
        key = "evals" if name == UPPER else "points"

        @functools.wraps(fn)
        def integrand(x, *args, **kwargs):
            stats["integrand_calls"] += 1
            stats[key] += _npoints(x)
            return fn(x, *args, **kwargs)
        return integrand

    def timed(self, name, fn, count, integrand_arg):
        stats = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            if integrand_arg is not None:
                args = list(args)
                args[integrand_arg] = self._counting(name, args[integrand_arg])
            if name == UPPER:
                stats["points"] += int(np.size(kwargs.get("upper", args[1])))
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if count is not None:
                count(stats, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn, points_arg):
        stats = self.stats[name]
        bp = self.stats[BREAKPOINTS] if name == "bvfunc.BVFunction.eval" else None
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            if points_arg is not None:
                stats["points"] += _npoints(args[points_arg])
            if bp is not None and stack and spans[stack[-1][0]][0] == BREAKPOINTS:
                bp["u_evals"] += 1
            result = fn(*args, **kwargs)
            if points_arg is None:
                stats["cells"] += len(result)
            return result
        return wrapper

    def install(self):
        """Wrap every boundary; returns self.  Imports all divchain modules first
        so that every by-name alias exists when the rebinding scan runs."""
        import divchain
        for info in pkgutil.walk_packages(divchain.__path__, "divchain."):
            importlib.import_module(info.name)
        for module, attr, name, count, arg in TIMED:
            self._patch(module, attr, name,
                        lambda fn, n=name, c=count, a=arg: self.timed(n, fn, c, a))
        for module, attr, name, arg in COUNTED:
            self._patch(module, attr, name, lambda fn, n=name, a=arg: self.counted(n, fn, a))
        return self

    def _patch(self, module, attr, name, make):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            cls_wrapped = make(cls.__dict__[meth])
            setattr(cls, meth, cls_wrapped)
            self.bound[name] = 1
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        n = 0
        for mname, m in list(sys.modules.items()):
            if not (mname == "divchain" or mname.startswith("divchain.")) or m is None:
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    n += 1
        self.bound[name] = n

    def metrics(self):
        """Per-layer metrics named ``<prefix>.<stat>``."""
        out = {}
        for prefix, names in STATS.items():
            st = self.stats[prefix]
            for stat in names:
                if stat == "cell_updates_per_s":
                    value = st["cell_updates"] / st["self_s"] if st["self_s"] else 0.0
                elif stat == "evals_per_point":
                    value = st["evals"] / st["points"] if st["points"] else 0.0
                else:
                    value = st[stat]
                out[f"{prefix}.{stat}"] = value
        return out

    def write_spans(self, path):
        """One line per span: name, start, end, parent index, scenario id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, scenario in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{scenario}\n")

"""Self-similar (IFS) measures on an interval and their distribution functions.

A construction spec is a finite family of affine contractions of a base
interval with one positive weight per map.  The induced measure is evaluated
by depth-d refinement: at depth d the measure is approximated by point
masses at the cylinder-interval midpoints, and the depth is increased until
two consecutive depths agree (Richardson stopping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, UnsupportedStructureError

RICHARDSON_RTOL = 1e-9
MAX_DEPTH = 22


@dataclass(frozen=True)
class IFSSpec:
    """base interval [a, b]; maps x -> a + offsets[i]*(b-a) + ratio*(x-a)."""

    a: float = 0.0
    b: float = 1.0
    ratio: float = 1.0 / 3.0
    offsets: tuple = (0.0, 2.0 / 3.0)
    weights: tuple = (0.5, 0.5)

    def __post_init__(self):
        if len(self.offsets) != len(self.weights):
            raise ValueError("offsets and weights must pair up")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        offs = np.asarray(self.offsets)
        if np.any(offs < -1e-15) or np.any(offs + self.ratio > 1 + 1e-15):
            raise ValueError("maps must send the base interval into itself")
        if np.any(np.diff(offs) < self.ratio - 1e-15):
            raise ValueError("maps must be ordered and non-overlapping")

    def same_construction(self, other, tol=1e-12):
        return (
            len(self.offsets) == len(other.offsets)
            and abs(self.a - other.a) <= tol
            and abs(self.b - other.b) <= tol
            and abs(self.ratio - other.ratio) <= tol
            and all(abs(p - q) <= tol for p, q in zip(self.offsets, other.offsets))
            and all(abs(p - q) <= tol for p, q in zip(self.weights, other.weights))
        )


MIDDLE_THIRDS = IFSSpec()


def support_nodes(spec: IFSSpec, depth: int):
    """Cylinder midpoints and their probability weights at a given depth."""
    width = spec.b - spec.a
    xs = np.array([spec.a + width / 2.0])
    ws = np.array([1.0])
    for _ in range(depth):
        new_x = []
        new_w = []
        for off, w in zip(spec.offsets, spec.weights):
            new_x.append(spec.a + off * width + spec.ratio * (xs - spec.a))
            new_w.append(ws * w)
        xs = np.concatenate(new_x)
        ws = np.concatenate(new_w)
    return xs, ws


def integrate_ifs(phi, spec: IFSSpec, rtol=RICHARDSON_RTOL, min_depth=4):
    """\\int phi d(mu) against the probability IFS measure, depth-refined."""
    prev = None
    depth = min_depth
    while depth <= MAX_DEPTH:
        xs, ws = support_nodes(spec, depth)
        val = float(np.dot(np.asarray(phi(xs), dtype=float), ws))
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1.0):
            return val
        prev = val
        depth += 2
    raise IntegrationError("IFS integral did not stabilize (non-Lipschitz test function?)")


def _cdf_middle_thirds(x, depth=44):
    """Ternary-digit evaluation of the Cantor function on [0, 1].

    A point leaves the digit loop at its first digit 1, or once its remainder
    is 0 and every further digit is 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    flat = out.reshape(-1)
    pos = np.flatnonzero((x > 0.0) & (x < 1.0))
    t = x.reshape(-1)[pos]
    scale = 0.5
    for _ in range(depth):
        if not pos.size:
            break
        t = 3.0 * t
        d = np.floor(t)          # a digit 0, 1 or 2: 3t < 3 for t < 1
        t -= d
        flat[pos[d != 0.0]] += scale
        keep = (d != 1.0) & (t != 0.0)
        pos, t = pos[keep], t[keep]
        scale *= 0.5
    return out


def ifs_cdf(spec: IFSSpec, x, depth=48):
    """Distribution function F(x) = mu([a, x]) of the probability measure.

    For the middle-thirds spec this is the Cantor function.  Vectorized and
    exact up to ratio**depth resolution.
    """
    x = np.asarray(x, dtype=float)
    if spec.same_construction(IFSSpec(a=spec.a, b=spec.b)):
        return _cdf_middle_thirds((x - spec.a) / (spec.b - spec.a))
    out = np.zeros_like(x)
    scale = np.ones_like(x)
    lo = np.full_like(x, spec.a)
    width = np.full_like(x, spec.b - spec.a)
    active = np.ones(x.shape, dtype=bool)
    offs = np.asarray(spec.offsets)
    wts = np.asarray(spec.weights)
    cum = np.concatenate([[0.0], np.cumsum(wts)])
    for _ in range(depth):
        if not np.any(active):
            break
        below = active & (x <= lo)
        above = active & (x >= lo + width)
        out[above] += scale[above]
        active &= ~(below | above)
        if not np.any(active):
            break
        # locate the sub-interval (or gap) containing each active point
        rel = (x[active] - lo[active]) / width[active]
        idx = np.searchsorted(offs, rel, side="right") - 1
        idx = np.clip(idx, 0, len(offs) - 1)
        inside = rel <= offs[idx] + spec.ratio + 1e-300
        # gap points: all weight up to idx+1 accumulated, done
        gap_mask = np.zeros_like(active)
        gap_mask[np.flatnonzero(active)[~inside]] = True
        out[gap_mask] += scale[gap_mask] * cum[idx[~inside] + 1]
        act_idx = np.flatnonzero(active)[inside]
        out[act_idx] += scale[act_idx] * cum[idx[inside]]
        scale[act_idx] *= wts[idx[inside]]
        lo[act_idx] = lo[act_idx] + offs[idx[inside]] * width[act_idx]
        width[act_idx] = width[act_idx] * spec.ratio
        new_active = np.zeros_like(active)
        new_active[act_idx] = True
        active = new_active
    out[active] += scale[active] * 0.5
    return out


@dataclass(frozen=True)
class CantorPart:
    """Signed self-similar component of a measure: mass * (IFS probability measure)."""

    spec: IFSSpec
    mass: float = 1.0

    def apply(self, phi, rtol=RICHARDSON_RTOL):
        return self.mass * integrate_ifs(phi, self.spec, rtol=rtol)

    def apply_at_depth(self, phi, depth):
        xs, ws = support_nodes(self.spec, depth)
        return self.mass * float(np.dot(np.asarray(phi(xs), dtype=float), ws))

    def total_variation(self, weight=None, rtol=RICHARDSON_RTOL):
        """TV of the part, optionally against an extra density |weight|."""
        if weight is None:
            return abs(self.mass)
        return abs(self.mass) * integrate_ifs(lambda x: np.abs(weight(x)), self.spec, rtol=rtol)

    def interval_mass(self, lo, hi):
        f = ifs_cdf(self.spec, np.array([lo, hi]))
        return self.mass * float(f[1] - f[0])

    def scaled(self, c):
        return CantorPart(self.spec, self.mass * c)


def require_same_spec(parts):
    specs = [p.spec for p in parts if p is not None]
    for s in specs[1:]:
        if not s.same_construction(specs[0]):
            raise UnsupportedStructureError("Cantor parts use different construction specs")
    return specs[0] if specs else None


def cantor_function(spec: IFSSpec = MIDDLE_THIRDS):
    """The monotone singular function with derivative = the IFS measure."""

    def f(x):
        return ifs_cdf(spec, x)

    return f
